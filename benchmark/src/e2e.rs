//! The end-to-end stage: what a user of the system sees, measured from
//! outside with every kind of tracing off.
//!
//! One process measures one workload: cold set-up first (before
//! anything warms the keyring memo), then discarded warm-up sessions,
//! then timed sessions until the time budget is spent. Every timed
//! session is one operation; it fails on a panic, a `SessionError`, a
//! timeout or any output check.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pag_runtime::{try_run_session, SessionConfig, SessionOutcome};

use crate::measure::{peak_rss_mb, process_cpu, reset_peak_rss};
use crate::metrics::Reported;
use crate::replay::{build_session, SetupTimes};
use crate::workloads::{check_outputs, Outputs, Workload};

/// A session slower than this counts as failed.
const REP_TIMEOUT_S: f64 = 90.0;
/// Keys the program's keyring memo holds before it clears itself
/// (`Keyring::from_seed`, 4096). Cold set-up samples must leave room
/// for the measured session's own keys, or the memo would empty under
/// the timed sessions and they would pay key generation again.
const KEYRING_MEMO_BUDGET: usize = 3000;
/// Set-up is sampled until this much time is spent on it...
const SETUP_SAMPLING_S: f64 = 1.0;
/// ...within these sample counts.
const SETUP_SAMPLES: std::ops::RangeInclusive<usize> = 3..=25;

/// How long a stage may measure.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Keep starting timed sessions until this many seconds have been
    /// spent on them.
    pub seconds: f64,
    /// Run exactly this many timed sessions instead.
    pub reps: Option<usize>,
}

/// One session, run and timed.
pub struct Rep {
    pub outcome: SessionOutcome,
    pub outputs: Outputs,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `sc` once. Every way the program can fail to produce an outcome
/// comes back as `Err`.
pub fn run_rep(sc: &SessionConfig) -> Result<Rep, String> {
    let cpu0 = process_cpu();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| try_run_session(sc.clone())));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (process_cpu() - cpu0).as_secs_f64();
    let outcome = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => return Err(format!("session error: {e}")),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            return Err(format!("session panicked: {msg}"));
        }
    };
    if wall_s > REP_TIMEOUT_S {
        return Err(format!(
            "session took {wall_s:.1} s (limit {REP_TIMEOUT_S} s)"
        ));
    }
    let outputs = Outputs::of(&outcome);
    Ok(Rep {
        outcome,
        outputs,
        wall_s,
        cpu_s,
    })
}

/// Cold set-up, sampled. The first sample uses the workload's own
/// session id — taken in a fresh process it is the true cold start, and
/// it leaves the keyring memo warm for the sessions that follow. Later
/// samples use fresh session ids: key material derives from the id, so
/// each is cold again.
pub fn sample_setup(w: &Workload) -> Vec<SetupTimes> {
    let sc = &w.config;
    let t0 = Instant::now();
    let mut samples = Vec::new();
    let mut max = *SETUP_SAMPLES.end();
    while samples.len() < (*SETUP_SAMPLES.start()).min(max)
        || (samples.len() < max && t0.elapsed().as_secs_f64() < SETUP_SAMPLING_S)
    {
        // Ids far from the configured one and from each other.
        let session_id = sc.pag.session_id + 0x5E7_0000 * samples.len() as u64;
        let (shared, engines, times) = build_session(sc, w.seed, session_id);
        if sc.pag.crypto.real_signatures {
            // One key per roster node (members and joiners) per sample.
            max = max.min((KEYRING_MEMO_BUDGET / engines.len().max(1)).max(1));
        }
        std::hint::black_box((&shared, &engines));
        samples.push(times);
    }
    samples
}

/// What a stage hands back: metrics, the operation count, and every
/// reason the run is not correct.
pub struct StageResult {
    pub metrics: Vec<Reported>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Runs the end-to-end stage of `w`.
pub fn run(w: &Workload, budget: Budget) -> StageResult {
    let mut errors = Vec::new();
    let setup = sample_setup(w);

    // Warm-ups: discarded for timing, kept as the reference every timed
    // session's outputs must equal.
    let mut reference: Option<Outputs> = None;
    for i in 0..w.warmups {
        match run_rep(&w.config) {
            Ok(rep) => {
                for e in check_outputs(w, &rep.outputs) {
                    errors.push(format!("warm-up {i}: {e}"));
                }
                reference.get_or_insert(rep.outputs);
            }
            Err(e) => errors.push(format!("warm-up {i}: {e}")),
        }
    }

    let (mut wall, mut cpu, mut rss, mut bandwidth, mut delivered) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    loop {
        let done = match budget.reps {
            Some(n) => attempted as usize >= n,
            None => attempted > 0 && t0.elapsed().as_secs_f64() >= budget.seconds,
        };
        if done {
            break;
        }
        attempted += 1;
        let mut problems = Vec::new();
        // Peak memory per session: the counter restarts from what is
        // resident now, caches included.
        reset_peak_rss();
        match run_rep(&w.config) {
            Ok(rep) => {
                problems.extend(check_outputs(w, &rep.outputs));
                let reference = reference.get_or_insert_with(|| rep.outputs.clone());
                if *reference != rep.outputs {
                    problems.push(format!(
                        "outputs differ from the first session's under the same seed: {:?} vs {:?}",
                        rep.outputs, reference
                    ));
                }
                if problems.is_empty() {
                    wall.push(rep.wall_s);
                    cpu.push(rep.cpu_s * 1e3 / w.node_rounds());
                    rss.push(peak_rss_mb());
                    bandwidth.push(rep.outputs.bandwidth_kbps_mean);
                    delivered.push(rep.outputs.delivered as f64 / w.node_rounds());
                }
            }
            Err(e) => problems.push(e),
        }
        if !problems.is_empty() {
            failed += 1;
            errors.extend(
                problems
                    .into_iter()
                    .map(|e| format!("session {attempted}: {e}")),
            );
        }
    }

    let mut metrics = Vec::new();
    if !wall.is_empty() {
        metrics.push(Reported::samples("session_wall_s", "s", &wall));
        metrics.push(Reported::samples("cpu_ms_per_node_round", "ms", &cpu));
        metrics.push(Reported::samples("peak_rss_mb", "MB", &rss));
        metrics.push(Reported::samples("bandwidth_kbps_mean", "kbps", &bandwidth));
        metrics.push(Reported::samples(
            "delivered_per_node_round",
            "count",
            &delivered,
        ));
        let totals: Vec<f64> = setup.iter().map(SetupTimes::total_s).collect();
        metrics.push(Reported::samples("setup_s", "s", &totals));
    }
    StageResult {
        metrics,
        attempted,
        failed,
        errors,
    }
}
