//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace benches use — `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Bencher::iter`, `criterion_group!`,
//! `criterion_main!` — backed by a simple wall-clock harness: warm up,
//! then time batches until a fixed measurement budget is spent, and
//! report the mean time per iteration on stdout.
//!
//! No statistical analysis, plots or saved baselines; regressions are
//! judged by the repo benchmark (`BENCHMARK.json`) instead.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(400);
/// Warm-up time per benchmark.
const WARMUP_BUDGET: Duration = Duration::from_millis(100);

/// Runs one benchmark body repeatedly and records the timing.
pub struct Bencher {
    /// Mean nanoseconds per iteration, filled by [`Bencher::iter`].
    mean_ns: f64,
    /// Iterations measured.
    iters: u64,
}

impl Bencher {
    /// Times `f`, storing the mean time per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: also estimates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_start.elapsed() < WARMUP_BUDGET {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Measure in batches sized to ~1/10 of the budget each.
        let batch = ((MEASURE_BUDGET.as_secs_f64() / 10.0 / per_iter).ceil() as u64).max(1);
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        while total < MEASURE_BUDGET {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            total += start.elapsed();
            iters += batch;
        }
        self.mean_ns = total.as_secs_f64() * 1e9 / iters as f64;
        self.iters = iters;
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn run_one(name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    let mut b = Bencher {
        mean_ns: 0.0,
        iters: 0,
    };
    f(&mut b);
    println!(
        "{name:<48} time: [{}]   ({} iterations)",
        fmt_ns(b.mean_ns),
        b.iters
    );
}

/// Identifier for parameterized benchmarks.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            full: format!("{function_name}/{parameter}"),
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the harness sizes samples by time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(&format!("{}/{name}", self.name), &mut f);
        self
    }

    /// Benchmarks `f` with `input` under the id's name.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.full), &mut |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Entry point mirroring criterion's `Criterion` struct.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Benchmarks `f` under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, &mut f);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            _parent: self,
        }
    }
}

/// Re-export for closures written against criterion's `black_box`.
pub use std::hint::black_box;

/// Bundles benchmark functions into one runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Generates `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes harness flags (e.g. `--bench`); ignore them.
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(1_500.0), "1.500 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.500 ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.000 s");
    }

    #[test]
    fn id_format() {
        assert_eq!(BenchmarkId::new("f", 20).full, "f/20");
    }
}
