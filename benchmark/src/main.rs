//! The repo benchmark (see `README.md` next to this package and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! pag-benchmark --workload W --seed N --seconds S --trace 0|1   one stage of one workload, in this process
//! pag-benchmark [--workload W]... [--trace 0|1] [options]       every selected (workload, stage), one child process each
//! pag-benchmark agree [options]                                 the end-to-end suite twice; fails if the second is worse than the first beyond a bound
//! pag-benchmark manifest                                        prints BENCHMARK.json
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

#![forbid(unsafe_code)]

mod e2e;
mod json;
mod layers;
mod measure;
mod metrics;
mod micro;
mod replay;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use e2e::{Budget, StageResult};
use json::Json;
use metrics::{Better, Reported, END_TO_END, RUN_SECONDS};
use workloads::{Workload, POOL_WORKERS, WORKLOADS};

const USAGE: &str = "\
usage: pag-benchmark [agree|manifest] [options]
  --workload NAME   one of the four workloads; repeatable; default: all
  --seed N          workload seed (default 0): session, churn, fault and freerider-placement seeds
  --seconds S       time budget for the timed sessions of a stage (default: run_seconds of BENCHMARK.json)
  --reps N          run exactly N timed sessions instead
  --trace 0|1       0: end-to-end stage (all tracing off); 1: traced per-layer stage; default: both
  --quick           smoke sizes and, unless a budget is given, two timed sessions (the numbers mean nothing)
  --out DIR         where reports and span files go (default: out/ in the benchmark package)";

#[derive(Clone, Debug)]
struct Options {
    mode: Mode,
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Run,
    Agree,
    Manifest,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        mode: Mode::Run,
        workloads: Vec::new(),
        seed: 0,
        seconds: RUN_SECONDS as f64,
        reps: None,
        trace: None,
        quick: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut budget_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "agree" => o.mode = Mode::Agree,
            "manifest" => o.mode = Mode::Manifest,
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        known.join(", ")
                    ));
                }
                o.workloads.push(name.to_string());
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                budget_given = true;
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--reps" => {
                budget_given = true;
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                o.reps = Some(n);
            }
            "--trace" => {
                o.trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => o.quick = true,
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.quick && !budget_given {
        // A smoke run checks that everything works; two sessions do.
        o.reps = Some(2);
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match options.mode {
        Mode::Manifest => {
            print!("{}", metrics::manifest().pretty());
            ExitCode::SUCCESS
        }
        Mode::Agree => agree(&options),
        Mode::Run => match (options.workloads.as_slice(), options.trace) {
            ([name], Some(trace)) => run_stage(&options, name, trace),
            _ => {
                let suite = run_suite(&options, &stages(options.trace));
                println!("{}", suite.result_line().compact());
                suite.exit_code()
            }
        },
    }
}

fn stages(trace: Option<bool>) -> Vec<bool> {
    match trace {
        Some(t) => vec![t],
        None => vec![false, true],
    }
}

/// Where the numbers came from.
fn provenance(o: &Options, w: &Workload, trace: bool) -> Json {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    Json::obj([
        ("workload", Json::str(w.name)),
        (
            "stage",
            Json::str(if trace { "traced" } else { "end_to_end" }),
        ),
        ("seed", Json::Num(o.seed as f64)),
        ("quick", Json::Bool(o.quick)),
        ("nodes", Json::Num(w.config.nodes as f64)),
        ("rounds", Json::Num(w.config.rounds as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("pool_workers", Json::Num(POOL_WORKERS as f64)),
        ("workers", Json::Num(w.workers() as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("reps", o.reps.map_or(Json::Null, |n| Json::Num(n as f64))),
        (
            "git_commit",
            // Only when this package sits in its own repository: a
            // driver checkout is no git repository, and a repository
            // further up the tree is not this code's.
            Json::str(
                if tool("git", &["rev-parse", "--show-prefix"]) == "benchmark/" {
                    tool("git", &["rev-parse", "HEAD"])
                } else {
                    "unknown".to_string()
                },
            ),
        ),
        ("rustc", Json::str(tool("rustc", &["-V"]))),
    ])
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn print_metrics(metrics: &[Reported]) {
    for m in metrics {
        let s = &m.summary;
        if s.n > 1 {
            println!(
                "  {:<34} {:>14.6} {:<6} q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {}  iqr {:.1}%",
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                s.spread() * 100.0
            );
        } else {
            println!("  {:<34} {:>14.6} {:<6}", m.name, s.median, m.unit);
        }
    }
}

/// One stage of one workload, in this process.
fn run_stage(o: &Options, name: &str, trace: bool) -> ExitCode {
    let w = workloads::generate(name, o.seed, o.quick).expect("name was validated");
    println!(
        "# {} seed {} {} ({} nodes x {} rounds, {} worker(s){})",
        w.name,
        o.seed,
        if trace {
            "traced stage"
        } else {
            "end-to-end stage"
        },
        w.config.nodes,
        w.config.rounds,
        w.workers(),
        if o.quick {
            ", QUICK: numbers mean nothing"
        } else {
            ""
        },
    );
    let StageResult {
        metrics,
        attempted,
        failed,
        mut errors,
    } = if trace {
        layers::run(&w, &o.out)
    } else {
        e2e::run(
            &w,
            Budget {
                seconds: o.seconds,
                reps: o.reps,
            },
        )
    };
    print_metrics(&metrics);
    for m in &metrics {
        if !m.summary.median.is_finite() {
            errors.push(format!("metric {} is not a finite number", m.name));
        }
    }
    if metrics.is_empty() {
        errors.push("no session completed, so nothing was measured".to_string());
    }
    for e in &errors {
        println!("  ERROR {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    println!("  attempted_ops {attempted}  failed_ops {failed}  correct {correct}");

    let report = Json::obj([
        ("provenance", provenance(o, &w, trace)),
        ("correct", Json::Bool(correct)),
        ("attempted_ops", Json::Num(attempted as f64)),
        ("failed_ops", Json::Num(failed as f64)),
        ("errors", Json::Arr(errors.iter().map(Json::str).collect())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let Json::Obj(mut fields) = m.summary.to_json() else {
                            unreachable!("a summary renders as an object")
                        };
                        fields.insert(0, ("unit".to_string(), Json::str(m.unit)));
                        (m.name.to_string(), Json::Obj(fields))
                    })
                    .collect(),
            ),
        ),
    ]);
    let report_path = o.out.join(format!(
        "report-{}-{}.json",
        w.name,
        if trace { "traced" } else { "end_to_end" }
    ));
    if let Err(e) =
        std::fs::create_dir_all(&o.out).and_then(|()| std::fs::write(&report_path, report.pretty()))
    {
        eprintln!("warning: could not write {}: {e}", report_path.display());
    }

    let line = result_line(
        correct,
        attempted.max(1),
        failed,
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([
                        ("value", Json::Num(m.summary.median)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    println!("{}", line.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Results of every (workload, stage) of a suite run, each measured in
/// a process of its own: peak memory and cold set-up are per process.
struct Suite {
    /// (workload, traced, the child's result line or why there is none)
    runs: Vec<(String, bool, Result<Json, String>)>,
}

impl Suite {
    fn correct(&self) -> bool {
        self.runs.iter().all(|(_, _, r)| {
            r.as_ref()
                .is_ok_and(|j| j.get("correct").and_then(Json::as_bool) == Some(true))
        })
    }

    fn exit_code(&self) -> ExitCode {
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// One result line for the whole suite: metric names are prefixed
    /// with their workload.
    fn result_line(&self) -> Json {
        let count = |key: &str| -> u64 {
            self.runs
                .iter()
                .filter_map(|(_, _, r)| r.as_ref().ok()?.get(key)?.as_f64())
                .sum::<f64>() as u64
        };
        let crashed = self.runs.iter().filter(|(_, _, r)| r.is_err()).count() as u64;
        let metrics = self
            .runs
            .iter()
            .filter_map(|(w, _, r)| Some((w, r.as_ref().ok()?.get("metrics")?.as_obj()?)))
            .flat_map(|(w, ms)| ms.iter().map(move |(k, v)| (format!("{w}/{k}"), v.clone())))
            .collect();
        result_line(
            self.correct(),
            (count("attempted") + crashed).max(1),
            count("failed") + crashed,
            metrics,
        )
    }

    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.runs
            .iter()
            .find(|(w, traced, _)| w == workload && !*traced)?
            .2
            .as_ref()
            .ok()?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    }
}

fn run_suite(o: &Options, stages: &[bool]) -> Suite {
    let names: Vec<String> = if o.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name.to_string()).collect()
    } else {
        o.workloads.clone()
    };
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut runs = Vec::new();
    for name in &names {
        for &trace in stages {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&o.out)
                .stdin(Stdio::null());
            if let Some(n) = o.reps {
                cmd.args(["--reps", &n.to_string()]);
            }
            if o.quick {
                cmd.arg("--quick");
            }
            // `output` waits for the child to end.
            let result = match cmd.stderr(Stdio::inherit()).output() {
                Err(e) => Err(format!("could not start: {e}")),
                Ok(out) => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    let (report, last) = match stdout.trim_end().rsplit_once('\n') {
                        Some((head, last)) => (head, last),
                        None => ("", stdout.trim_end()),
                    };
                    println!("{report}");
                    Json::parse(last)
                        .map_err(|e| format!("ended with {} and no result line ({e})", out.status))
                }
            };
            if let Err(e) = &result {
                println!(
                    "# {name} {}: {e}",
                    if trace { "traced" } else { "end-to-end" }
                );
            }
            runs.push((name.clone(), trace, result));
        }
    }
    Suite { runs }
}

/// Runs the end-to-end suite twice and compares the two by the rule a
/// change is judged by: no median of the second run worse than the
/// first run's by more than its bound (`change` below is "worse by"),
/// and the metrics that are exact under a seed bit-equal.
fn agree(o: &Options) -> ExitCode {
    let first = run_suite(o, &[false]);
    let second = run_suite(o, &[false]);
    let mut ok = first.correct() && second.correct();
    println!("# agree: second run against the first");
    for (workload, _, _) in &first.runs {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (
                first.value(workload, m.name),
                second.value(workload, m.name),
            ) else {
                println!("  {workload:<22} {:<26} MISSING", m.name);
                ok = false;
                continue;
            };
            let change = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let within = if m.exact { a == b } else { change <= m.bound };
            ok &= within;
            println!(
                "  {workload:<22} {:<26} {a:>14.6} {b:>14.6} {:>+8.2}% (bound {}{})  {}",
                m.name,
                change * 100.0,
                if m.exact { "exact, " } else { "" },
                m.bound,
                if within { "ok" } else { "DISAGREE" },
            );
        }
    }
    println!(
        "# agree: {}",
        if ok { "the two runs agree" } else { "FAILED" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The smoke test: both stages of every workload at `--quick` size
    /// run clean and report exactly the metrics `BENCHMARK.json` names.
    #[test]
    fn quick_stages_are_correct_and_report_every_metric() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/test");
        for info in &WORKLOADS {
            let w = workloads::generate(info.name, 1, true).expect("known workload");
            let budget = Budget {
                seconds: 0.0,
                reps: Some(2),
            };
            let stage = e2e::run(&w, budget);
            assert!(stage.errors.is_empty(), "{}: {:?}", w.name, stage.errors);
            assert_eq!((stage.attempted, stage.failed), (2, 0), "{}", w.name);
            let mut reported: Vec<_> = stage.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let mut named: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
            reported.sort();
            named.sort();
            assert_eq!(reported, named, "{}", w.name);
            assert!(
                stage.metrics.iter().all(|m| m.summary.median > 0.0),
                "never 0"
            );

            let stage = layers::run(&w, &out);
            assert!(stage.errors.is_empty(), "{}: {:?}", w.name, stage.errors);
            assert_eq!(stage.failed, 0, "{}", w.name);
            let reported: Vec<_> = stage.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let named: Vec<_> = metrics::PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit))
                .collect();
            assert_eq!(reported, named, "{}", w.name);
            assert!(out.join(format!("trace-{}.jsonl", w.name)).is_file());
        }
    }

    #[test]
    fn the_contract_command_line_parses() {
        let o = parse_args(&args(
            "--workload tcp_mesh_16 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, ["tcp_mesh_16"]);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 12.0, Some(true), false)
        );
        assert_eq!(o.mode, Mode::Run);
        let o = parse_args(&args("agree --quick --reps 2")).unwrap();
        assert_eq!(
            (o.mode, o.quick, o.reps, o.trace),
            (Mode::Agree, true, Some(2), None)
        );
        assert!(o.workloads.is_empty());
        assert_eq!(parse_args(&args("manifest")).unwrap().mode, Mode::Manifest);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--workload",
            "--seed x",
            "--seconds -1",
            "--seconds nan",
            "--reps 0",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_suite_line_prefixes_metrics_and_counts_crashed_children() {
        let child = |correct: bool| {
            result_line(
                correct,
                3,
                u64::from(!correct),
                vec![(
                    "session_wall_s".to_string(),
                    Json::obj([("value", Json::Num(1.5)), ("unit", Json::str("s"))]),
                )],
            )
        };
        let suite = Suite {
            runs: vec![
                ("a".to_string(), false, Ok(child(true))),
                ("b".to_string(), false, Ok(child(true))),
            ],
        };
        assert!(suite.correct());
        assert_eq!(suite.value("b", "session_wall_s"), Some(1.5));
        assert_eq!(suite.value("b", "nope"), None);
        let line = suite.result_line();
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(6.0));
        assert!(line
            .get("metrics")
            .unwrap()
            .get("a/session_wall_s")
            .is_some());

        let broken = Suite {
            runs: vec![
                ("a".to_string(), false, Ok(child(false))),
                ("b".to_string(), false, Err("crashed".to_string())),
            ],
        };
        assert!(!broken.correct());
        let line = broken.result_line();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(2.0));
    }
}
