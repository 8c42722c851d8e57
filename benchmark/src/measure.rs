//! What the benchmark reads from the operating system, and how it
//! summarises repeated samples.

use std::time::Duration;

use crate::json::Json;

/// `/proc/self/stat` counts CPU time in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 on every architecture it exports this file on.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in ticks.
///
/// The second field is the executable name in parentheses and may hold
/// spaces and parentheses itself, so fields are counted from the last
/// `)`: state is field 3, `utime` field 14, `stime` field 15.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` (peak resident set) line of `/proc/<pid>/status`, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

/// User + system CPU time this process (all threads) has used so far.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    Duration::from_secs_f64(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Resets this process's peak-RSS counter to its current RSS (Linux:
/// writing `5` to `/proc/self/clear_refs`), so that the next
/// [`peak_rss_mb`] reading is the peak reached since now. Returns false
/// where the file is not writable; readings then stay the lifetime peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` — the rule the benchmark's
    /// acceptance spread is defined with — so numbers computed here and
    /// there agree.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// Interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_executable_names() {
        // utime = 651, stime = 42 in both lines.
        let plain = "31891 (pag-benchmark) R 31880 31891 31880 0 -1 4194304 102 0 0 0 651 42 0 0 20 0 3 0 156243 2703360 287";
        assert_eq!(parse_stat_cpu_ticks(plain), Some(693));
        let hostile = "7 (a) b (c d)) S 1 7 7 0 -1 4194304 102 0 0 0 651 42 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_stat_cpu_ticks(hostile), Some(693));
        assert_eq!(parse_stat_cpu_ticks("7 (truncated) S 1 7"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status =
            "Name:\tpag-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  220160 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(220_160));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None, "unit must be kB");
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.1);
        let before = process_cpu();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() >= before);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }
}
