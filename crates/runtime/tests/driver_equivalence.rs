//! Driver equivalence: the same seeded session run on the simnet
//! driver, the threaded (channel) driver and the TCP socket driver —
//! the latter two on the worker pool in deterministic lockstep timer
//! mode — yields identical verdict sets, delivery metrics and traffic
//! totals. This is the proof that `PagEngine` is genuinely sans-IO and
//! all three drivers execute it unmodified, whether frames cross a
//! function call, a thread boundary or a kernel socket buffer. The
//! channel legs spread over pool sizes 0 (one worker per CPU) to 4.

use std::collections::BTreeSet;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use pag_core::selfish::SelfishStrategy;
use pag_membership::NodeId;
use pag_runtime::{
    run_session, ChurnSchedule, Driver, FaultEvent, FaultSchedule, Scheduler, SessionConfig,
    SessionOutcome, TcpConfig, ThreadedConfig, TraceConfig,
};
use pag_simnet::SimConfig;

const SEED: u64 = 0xE0_1D;

fn base(nodes: usize, rounds: u64) -> SessionConfig {
    let mut sc = SessionConfig::honest(nodes, rounds);
    sc.pag.stream_rate_kbps = 30.0; // 4 updates/round keeps tests fast
    sc
}

fn on_simnet(mut sc: SessionConfig) -> SessionOutcome {
    sc.driver = Driver::Simnet(SimConfig {
        seed: SEED,
        ..SimConfig::default()
    });
    run_session(sc)
}

fn on_tcp(mut sc: SessionConfig) -> SessionOutcome {
    sc.driver = Driver::Tcp(TcpConfig {
        lockstep: true,
        seed: SEED,
        ..TcpConfig::default()
    });
    run_session(sc)
}

/// The channel transport on a pool of `threads` workers (lockstep).
fn on_pool(mut sc: SessionConfig, threads: usize) -> SessionOutcome {
    sc.driver = Driver::Threaded(ThreadedConfig {
        lockstep: true,
        seed: SEED,
        scheduler: Scheduler::Pool(threads),
        ..ThreadedConfig::default()
    });
    run_session(sc)
}

/// Verdicts as an order-independent set.
fn verdict_set(outcome: &SessionOutcome) -> BTreeSet<(NodeId, NodeId, u64, String)> {
    outcome
        .verdicts
        .iter()
        .map(|v| (v.monitor, v.accused, v.round, format!("{:?}", v.fault)))
        .collect()
}

fn assert_equivalent(sim: &SessionOutcome, other: &SessionOutcome) {
    // Identical verdict sets.
    assert_eq!(
        verdict_set(sim),
        verdict_set(other),
        "verdict sets diverge between drivers"
    );

    // Identical delivery metrics, node by node.
    assert_eq!(sim.metrics.len(), other.metrics.len());
    for (id, m_sim) in &sim.metrics {
        let m_other = &other.metrics[id];
        assert_eq!(
            m_sim.delivered, m_other.delivered,
            "delivery map diverges at {id}"
        );
        assert_eq!(
            m_sim.duplicate_payloads, m_other.duplicate_payloads,
            "duplicate payloads diverge at {id}"
        );
        assert_eq!(
            m_sim.exchanges_completed, m_other.exchanges_completed,
            "exchange count diverges at {id}"
        );
        assert_eq!(m_sim.ops, m_other.ops, "crypto op counters diverge at {id}");
        // Peer engines only produce well-formed frames: no driver may
        // reject anything in a clean session, socket transport included.
        assert_eq!(
            m_sim.frames_rejected, m_other.frames_rejected,
            "frame rejections diverge at {id}"
        );
        assert_eq!(m_other.frames_rejected, 0, "clean session rejected frames at {id}");
    }
    assert_eq!(sim.creations, other.creations, "source stream diverges");

    // Identical traffic totals: same messages, same codec-backed sizes.
    for (id, t_sim) in &sim.report.per_node {
        let t_other = &other.report.per_node[id];
        assert_eq!(t_sim.sent_bytes, t_other.sent_bytes, "sent bytes at {id}");
        assert_eq!(t_sim.recv_bytes, t_other.recv_bytes, "recv bytes at {id}");
        assert_eq!(t_sim.sent_msgs, t_other.sent_msgs, "sent msgs at {id}");
        assert_eq!(
            t_sim.sent_by_class, t_other.sent_by_class,
            "class breakdown at {id}"
        );
    }
}

#[test]
fn honest_session_is_driver_equivalent() {
    let sim = on_simnet(base(10, 6));
    let pool = on_pool(base(10, 6), 0);
    let tcp = on_tcp(base(10, 6));
    assert!(sim.verdicts.is_empty(), "honest run convicted on simnet");
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
    assert!(pool.mean_on_time_ratio(10) > 0.95);
    assert!(tcp.mean_on_time_ratio(10) > 0.95);
}

#[test]
fn freerider_session_is_driver_equivalent() {
    // A deviating node makes the verdict comparison non-vacuous: all
    // drivers must convict the same node, for the same rounds, with the
    // same fault kinds.
    let mut sc = base(12, 6);
    sc.selfish.push((NodeId(5), SelfishStrategy::DropForward));
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc.clone(), 3);
    let tcp = on_tcp(sc);
    assert_eq!(sim.convicted(), vec![NodeId(5)]);
    assert_eq!(pool.convicted(), vec![NodeId(5)]);
    assert_eq!(tcp.convicted(), vec![NodeId(5)]);
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn no_ack_session_is_driver_equivalent() {
    // Exercises the accusation / ReAsk / Nack path (timers after the
    // serve phase) across the drivers; the TCP leg is the next test.
    let mut sc = base(12, 5);
    sc.selfish.push((NodeId(3), SelfishStrategy::NoAck));
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc, 2);
    assert_eq!(sim.convicted(), vec![NodeId(3)]);
    assert_eq!(pool.convicted(), vec![NodeId(3)]);
    assert_equivalent(&sim, &pool);
}

#[test]
fn no_ack_session_is_tcp_equivalent() {
    // The same accusation-path scenario over real sockets.
    let mut sc = base(12, 5);
    sc.selfish.push((NodeId(3), SelfishStrategy::NoAck));
    let sim = on_simnet(sc.clone());
    let tcp = on_tcp(sc);
    assert_eq!(tcp.convicted(), vec![NodeId(3)]);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn churned_session_is_driver_equivalent() {
    // The acceptance bar for churn meeting the socket transport: a
    // session with joins AND leaves mid-session runs to completion on
    // all three drivers with identical verdict sets, deliveries and
    // traffic totals — including the announcement frames, whose wire
    // size is codec-backed on both real-time paths. Clean churn
    // convicts nobody.
    let mut sc = base(12, 8);
    sc.churn = ChurnSchedule::steady(SEED, 12, 8, 1, 1).events().to_vec();
    assert!(
        sc.churn.iter().any(|e| e.kind == pag_runtime::ChurnKind::Join)
            && sc.churn.iter().any(|e| e.kind == pag_runtime::ChurnKind::Leave),
        "schedule exercises both directions"
    );
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc.clone(), 0);
    let tcp = on_tcp(sc);
    assert!(
        sim.verdicts.is_empty(),
        "clean churn convicted: {:?}",
        sim.verdicts
    );
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn churned_selfish_session_is_driver_equivalent() {
    // Detection keeps working under churn: a freerider among joiners and
    // leavers is still convicted — identically on all drivers — while
    // honest leavers stay clean.
    let mut sc = base(14, 8);
    sc.selfish.push((NodeId(5), SelfishStrategy::DropForward));
    sc.churn = ChurnSchedule::steady(SEED ^ 1, 14, 8, 1, 1)
        .events()
        .to_vec();
    // Keep the freerider in the session: drop any scheduled leave of 5.
    sc.churn.retain(|e| e.node != NodeId(5));
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc.clone(), 4);
    let tcp = on_tcp(sc.clone());
    assert_eq!(sim.convicted(), vec![NodeId(5)]);
    assert_eq!(pool.convicted(), vec![NodeId(5)]);
    assert_eq!(tcp.convicted(), vec![NodeId(5)]);
    let leavers: Vec<NodeId> = sc
        .churn
        .iter()
        .filter(|e| e.kind == pag_runtime::ChurnKind::Leave)
        .map(|e| e.node)
        .collect();
    assert!(!leavers.is_empty());
    for v in &sim.verdicts {
        assert!(
            !leavers.contains(&v.accused),
            "honest leaver convicted: {v}"
        );
    }
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn threaded_lockstep_is_self_deterministic() {
    let a = on_pool(base(10, 5), 0);
    let b = on_pool(base(10, 5), 0);
    assert_equivalent(&a, &b);
}

#[test]
fn tcp_lockstep_is_self_deterministic() {
    let a = on_tcp(base(10, 5));
    let b = on_tcp(base(10, 5));
    assert_equivalent(&a, &b);
}

#[test]
fn threaded_realtime_smoke() {
    // Wall-clock mode: not equivalence-checked (timing is real), but
    // the full protocol must run, deliver and stay conviction-free.
    // 200 ms rounds leave the scaled protocol deadlines (ack check at
    // 70 ms, eval at 130 ms, exhibits at 180 ms) enough slack that a
    // briefly descheduled pool worker on a loaded CI box does not get
    // a node accused for missing its window. ~1.2 s of wall time.
    let mut sc = base(8, 6);
    sc.driver = Driver::Threaded(ThreadedConfig {
        round_ms: 200,
        lockstep: false,
        seed: 1,
        ..ThreadedConfig::default()
    });
    let outcome = run_session(sc);
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    assert!(outcome.creations.len() >= 6, "source injected each round");
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "updates flowed across threads");
    assert!(outcome.report.mean_bandwidth_kbps() > 0.0);
}

/// Runs `session` on a thread of its own and fails the test, instead of
/// hanging it, when the lockstep barrier never releases.
fn within_watchdog(
    what: &str,
    session: impl FnOnce() -> SessionOutcome + Send + 'static,
) -> SessionOutcome {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let _ = tx.send(session());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("lockstep wedged: the {what} session did not finish within 120 s")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => std::panic::resume_unwind(
            handle
                .join()
                .expect_err("a session thread exits without an outcome only by panicking"),
        ),
    }
}

#[test]
fn crash_session_is_driver_equivalent() {
    // A fail-stop crash (n7 from round 2) on both transports, each on
    // an explicit two-worker pool. The crashed core keeps its slot and
    // credits every envelope it is sent, so neither transport may wedge
    // the barrier — over TCP the peers' frames to n7 are charged to the
    // ledger before the socket write, so n7's readers must keep reading
    // them. Like the simulator, only n7 may be accused
    // (unresponsiveness), never a living node.
    let mut sc = base(10, 6);
    sc.crashes.push((NodeId(7), 2));
    let sim = on_simnet(sc.clone());
    let pool_sc = sc.clone();
    let pool = within_watchdog("channel pool", move || on_pool(pool_sc, 2));
    sc.driver = Driver::Tcp(TcpConfig {
        lockstep: true,
        seed: SEED,
        scheduler: Scheduler::Pool(2),
        ..TcpConfig::default()
    });
    let tcp = within_watchdog("TCP", move || run_session(sc));
    for outcome in [&sim, &pool, &tcp] {
        for v in &outcome.verdicts {
            assert_eq!(v.accused, NodeId(7), "living node convicted: {v}");
        }
    }
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn severed_links_session_is_driver_equivalent() {
    // Scheduled link severs (heal built into the window) are part of
    // the session description, so every driver must apply them at the
    // same rounds to the same frames — bit-identical verdicts,
    // deliveries AND traffic (the cut happens before accounting
    // everywhere). Data-plane cuts never convict an honest node: the
    // monitoring/accusation control path is never cut, so exoneration
    // completes (DESIGN.md §12).
    let mut sc = base(10, 8);
    sc.faults = FaultSchedule::random_severs(SEED, 10, 8, 3)
        .events()
        .to_vec();
    assert!(!sc.faults.is_empty());
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc.clone(), 2);
    let tcp = on_tcp(sc);
    assert!(
        sim.verdicts.is_empty(),
        "honest severed session convicted: {:?}",
        sim.verdicts
    );
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn partition_heal_session_is_driver_equivalent() {
    // A transient split-brain partition (all data-plane frames between
    // the two groups cut for rounds [3, 5), then healed) converges back
    // to the unfaulted verdict set — nobody is convicted for frames the
    // network ate — and the faulted run itself is bit-identical across
    // all three drivers.
    let mut sc = base(10, 10);
    sc.faults = FaultSchedule::split_brain(SEED, 10, 3, 5).events().to_vec();
    let unfaulted = on_simnet(base(10, 10));
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc.clone(), 3);
    let tcp = on_tcp(sc);
    assert_eq!(
        verdict_set(&sim),
        verdict_set(&unfaulted),
        "partition-heal diverged from the unfaulted verdicts"
    );
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn crash_restart_session_is_driver_equivalent() {
    // The tentpole recovery guarantee: a node crashes mid-session, its
    // state snapshot round-trips through the codec, and it rejoins via
    // the ordinary membership machinery — an honest restart is *never*
    // convicted, on any driver, and the whole faulted session stays
    // bit-identical across all three drivers.
    let restarted = NodeId(6);
    let mut sc = base(10, 10);
    sc.faults = vec![FaultEvent::CrashRestart {
        node: restarted,
        crash_round: 3,
        restart_round: 6,
    }];
    let sim = on_simnet(sc.clone());
    let pool = on_pool(sc.clone(), 3);
    let tcp = on_tcp(sc);
    for outcome in [&sim, &pool, &tcp] {
        assert!(
            !outcome.convicted().contains(&restarted),
            "honest restart convicted: {:?}",
            outcome.verdicts
        );
        assert!(
            outcome.verdicts.is_empty(),
            "crash-restart session convicted someone: {:?}",
            outcome.verdicts
        );
        // The node actually went through recovery (snapshot round-trip
        // + re-announce), it did not just idle.
        assert_eq!(outcome.metrics[&restarted].recoveries, 1);
    }
    assert_equivalent(&sim, &pool);
    assert_equivalent(&sim, &tcp);
}

#[test]
fn traced_session_is_bit_identical_to_untraced() {
    // The flight recorder's acceptance bar (DESIGN.md §14): turning
    // tracing on changes *nothing* the protocol can see — verdicts,
    // deliveries, crypto ops and traffic stay bit-identical on every
    // driver — while the outcome gains a real trace (round histograms
    // populated, events recorded, run-queue stalls on the pooled ones).
    let traced = |mut sc: SessionConfig| {
        sc.trace = TraceConfig::on();
        sc
    };
    type Runner = fn(SessionConfig) -> SessionOutcome;
    let runs: [(&str, Runner); 3] = [
        ("simnet", on_simnet),
        ("pool", |sc| on_pool(sc, 3)),
        ("tcp", on_tcp),
    ];
    for (name, run) in runs {
        let plain = run(base(10, 6));
        let with_trace = run(traced(base(10, 6)));
        assert_equivalent(&plain, &with_trace);
        assert!(plain.trace.is_none(), "{name}: untraced run grew a trace");
        let trace = with_trace
            .trace
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: traced run lost its trace"));
        // Rings may overflow on chatty drivers (every overflow is a
        // counted drop, pinned by the observability suite); what must
        // hold here is that recording happened at all and the
        // histograms — which never drop — are complete.
        assert!(trace.recorded > 0, "{name}: no events recorded");
        assert_eq!(trace.per_node.len(), 10, "{name}: nodes missing from trace");
        // Every node entered every round, and the recorder saw it.
        for (node, lat) in &trace.per_node {
            assert_eq!(
                lat.round_wall.count, 6,
                "{name}: node {node} round spans missing"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Absolute pins: golden numbers recorded on the lockstep scheduler
// before PR 10 and carried unedited since. Everything above compares
// drivers with each other; these are the only place a drift common to
// all of them shows. Any change here is a behavioral regression, not
// an acceptable re-baseline.
// ---------------------------------------------------------------------

#[test]
fn lockstep_goldens() {
    // Scenario 1: honest, traced, pooled.
    let mut sc = base(10, 6);
    sc.trace = TraceConfig::on();
    let o = on_pool(sc, 3);
    let ops = o.total_ops();
    assert_eq!(
        (ops.hashes, ops.signatures, ops.verifications, ops.primes),
        (4570, 2286, 2876, 180),
        "golden1 ops"
    );
    let sent: u64 = o.report.per_node.values().map(|t| t.sent_bytes).sum();
    let recv: u64 = o.report.per_node.values().map(|t| t.recv_bytes).sum();
    let msgs: u64 = o.report.per_node.values().map(|t| t.sent_msgs).sum();
    assert_eq!((sent, recv, msgs), (1_847_626, 1_847_626, 2286), "golden1 traffic");
    assert!(o.verdicts.is_empty(), "golden1 verdicts");
    let t = o.trace.as_ref().expect("traced run");
    assert_eq!(t.dropped, 0, "golden1 ring drops");
    // Per-kind counts, excluding barrier_stall (wall-clock dependent).
    let mut by_kind = std::collections::BTreeMap::new();
    for ev in &t.events {
        *by_kind.entry(ev.kind.tag()).or_insert(0u64) += 1;
    }
    by_kind.remove("barrier_stall");
    let expect: std::collections::BTreeMap<&str, u64> = [
        ("crypto_ops", 3915),
        ("phase_begin", 480),
        ("phase_end", 480),
        ("round_enter", 60),
        ("round_exit", 60),
    ]
    .into_iter()
    .collect();
    let got: std::collections::BTreeMap<&str, u64> =
        by_kind.iter().map(|(k, &v)| (*k, v)).collect();
    assert_eq!(got, expect, "golden1 trace kinds");

    // Scenario 2: no-ack freerider (accusation path), pooled.
    let mut sc = base(12, 5);
    sc.selfish.push((NodeId(3), SelfishStrategy::NoAck));
    let o = on_pool(sc, 2);
    let ops = o.total_ops();
    assert_eq!(
        (ops.hashes, ops.signatures, ops.verifications, ops.primes),
        (4113, 2439, 2985, 180),
        "golden2 ops"
    );
    let sent: u64 = o.report.per_node.values().map(|t| t.sent_bytes).sum();
    assert_eq!(sent, 1_964_772, "golden2 sent bytes");
    assert_eq!(o.convicted(), vec![NodeId(3)], "golden2 conviction");
    assert_eq!(o.verdicts.len(), 30, "golden2 verdict count");

    // Scenario 3: churn (joins + leaves), pooled.
    let mut sc = base(12, 8);
    sc.churn = ChurnSchedule::steady(SEED, 12, 8, 1, 1).events().to_vec();
    let o = on_pool(sc, 3);
    let ops = o.total_ops();
    assert_eq!(
        (ops.hashes, ops.signatures, ops.verifications, ops.primes),
        (7508, 3961, 4910, 288),
        "golden3 ops"
    );
    let sent: u64 = o.report.per_node.values().map(|t| t.sent_bytes).sum();
    let recv: u64 = o.report.per_node.values().map(|t| t.recv_bytes).sum();
    assert_eq!((sent, recv), (3_136_153, 3_136_153), "golden3 traffic");
    assert!(o.verdicts.is_empty(), "golden3 verdicts");
}
