//! Exact pins for the frozen real-crypto scenarios of `pag-bench`:
//! crypto-op totals (the accounting of the paper's Table I), mean
//! bandwidth and completed exchanges.
//!
//! `OpCounters` count protocol-level operations (DESIGN.md §5), so
//! every figure here is a property of the message flow, not of how
//! fast the arithmetic runs: a change that moves one is a protocol
//! change, never a speed-up. Bandwidth is compared in hundredths of a
//! kbps. Wall clocks belong to the repo benchmark (`BENCHMARK.json`).

use pag_bench::{churn_steady_session, faulted_session, host_session, real_crypto_session};
use pag_core::OpCounters;
use pag_membership::NodeId;
use pag_runtime::{run_session, ChurnKind, Driver, SessionOutcome, TcpConfig, ThreadedConfig};

fn ops(hashes: u64, signatures: u64, verifications: u64, primes: u64) -> OpCounters {
    OpCounters {
        hashes,
        signatures,
        verifications,
        primes,
    }
}

/// `kbps` in hundredths, i.e. rounded to two decimals.
fn centi(kbps: f64) -> u64 {
    (kbps * 100.0).round() as u64
}

fn exchanges(outcome: &SessionOutcome) -> u64 {
    outcome
        .metrics
        .values()
        .map(|m| m.exchanges_completed)
        .sum()
}

/// What each pin compares — crypto ops, mean bandwidth in hundredths
/// of a kbps, completed exchanges — of a session that must convict
/// nobody.
fn figures(outcome: &SessionOutcome) -> (OpCounters, u64, u64) {
    assert!(
        outcome.verdicts.is_empty(),
        "honest scenario convicted: {:?}",
        outcome.verdicts
    );
    (
        outcome.total_ops(),
        centi(outcome.report.mean_bandwidth_kbps()),
        exchanges(outcome),
    )
}

#[test]
fn static_20_node_session_is_pinned_on_every_driver() {
    let simnet = run_session(real_crypto_session(20, 5));
    assert_eq!(figures(&simnet), (ops(6275, 3867, 4819, 300), 29689, 300));
    assert_eq!(centi(simnet.hashes_per_node_per_second()), 6275);
    assert_eq!(centi(simnet.signatures_per_node_per_second()), 3867);

    // The only cross-driver check that runs real RSA: lockstep on the
    // channel pool and on loopback TCP must match the simulator.
    for (name, driver) in [
        ("threaded", Driver::Threaded(ThreadedConfig::default())),
        ("tcp", Driver::Tcp(TcpConfig::default())),
    ] {
        let mut sc = real_crypto_session(20, 5);
        sc.driver = driver;
        let outcome = run_session(sc);
        assert_eq!(
            figures(&outcome),
            figures(&simnet),
            "{name} diverged from simnet"
        );
        assert_eq!(
            outcome.total_metrics().frames_rejected,
            0,
            "clean {name} session rejected frames"
        );
    }
}

/// Gossip scale on the default worker pool. The repo benchmark's
/// `crypto_pool_1000` pins the same ops and bandwidth, but only in a
/// full-size seed-0 run, and no check there counts exchanges.
#[test]
fn pooled_1000_node_session_is_pinned() {
    let mut sc = real_crypto_session(1000, 3);
    sc.driver = Driver::Threaded(ThreadedConfig::default());
    let outcome = run_session(sc);
    assert_eq!(
        figures(&outcome),
        (ops(138469, 116983, 144005, 9000), 24241, 9000)
    );
}

#[test]
fn steady_churn_50_node_session_is_pinned() {
    let sc = churn_steady_session(50, 6, 2, 2);
    let joins = sc
        .churn
        .iter()
        .filter(|e| e.kind == ChurnKind::Join)
        .count();
    assert_eq!((joins, sc.churn.len() - joins), (10, 10), "joins, leaves");
    let outcome = run_session(sc);
    assert_eq!(
        figures(&outcome),
        (ops(18554, 12845, 15605, 900), 25012, 900)
    );
}

#[test]
fn faulted_20_node_session_is_pinned_and_recovers_once() {
    let outcome = run_session(faulted_session(20, 5));
    assert_eq!(figures(&outcome), (ops(5629, 4757, 6277, 294), 50872, 294));
    assert_eq!(
        outcome.metrics[&NodeId(19)].recoveries,
        1,
        "the crash-restarted node never went through recovery"
    );
    assert_eq!(outcome.total_metrics().recoveries, 1);
}

/// A concurrent pair's two sessions, run standalone. That hosting them
/// on one `pag-host` changes nothing is pinned by the host suite's
/// `two_concurrent_hosted_sessions_match_standalone_runs`.
#[test]
fn host_pair_sessions_are_pinned() {
    let a = run_session(host_session(71, 10, 5));
    let b = run_session(host_session(72, 10, 5));
    let (a_ops, _, a_exchanges) = figures(&a);
    let (b_ops, _, b_exchanges) = figures(&b);
    let mut both = a_ops;
    both.merge(&b_ops);
    assert_eq!(both, ops(7074, 3830, 4830, 300));
    let mean_kbps = (a.report.mean_bandwidth_kbps() + b.report.mean_bandwidth_kbps()) / 2.0;
    assert_eq!(centi(mean_kbps), 30728);
    assert_eq!(a_exchanges + b_exchanges, 300);
}
