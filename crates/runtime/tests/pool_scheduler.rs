//! Worker-pool scheduler tests: pool-size invariance properties,
//! starvation freedom, churn and crash feeds under the pool, wall-clock
//! pooled mode (shared timer wheel), and the gossip-scale smoke runs
//! that are this subsystem's reason to exist (1000-node sessions on a
//! fixed thread pool; DESIGN.md §11).
//!
//! The `scale_*` tests are `#[ignore]`d in plain `cargo test` (they run
//! thousands of engines and belong in release builds); `scripts/ci.sh`
//! runs them explicitly with `--release -- --ignored`.

use std::collections::BTreeSet;

use pag_core::selfish::SelfishStrategy;
use pag_membership::NodeId;
use pag_runtime::{
    run_session, ChurnSchedule, Driver, Scheduler, SessionConfig, SessionOutcome,
    ThreadedConfig,
};
use pag_simnet::SimConfig;
use proptest::prelude::*;

const SEED: u64 = 0x9001;

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

fn on_scheduler(mut sc: SessionConfig, scheduler: Scheduler) -> SessionOutcome {
    sc.driver = Driver::Threaded(ThreadedConfig {
        lockstep: true,
        seed: SEED,
        scheduler,
        ..ThreadedConfig::default()
    });
    run_session(sc)
}

/// Full observable equality: verdict sets, per-node delivery maps,
/// crypto ops and traffic totals.
fn assert_same_outcome(a: &SessionOutcome, b: &SessionOutcome, what: &str) {
    let verdicts = |o: &SessionOutcome| -> BTreeSet<(NodeId, NodeId, u64, String)> {
        o.verdicts
            .iter()
            .map(|v| (v.monitor, v.accused, v.round, format!("{:?}", v.fault)))
            .collect()
    };
    assert_eq!(verdicts(a), verdicts(b), "verdicts diverge: {what}");
    assert_eq!(a.creations, b.creations, "source stream diverges: {what}");
    assert_eq!(a.metrics.len(), b.metrics.len(), "node sets diverge: {what}");
    for (id, m_a) in &a.metrics {
        let m_b = &b.metrics[id];
        assert_eq!(m_a.delivered, m_b.delivered, "deliveries at {id}: {what}");
        assert_eq!(
            m_a.duplicate_payloads, m_b.duplicate_payloads,
            "duplicate payloads at {id}: {what}"
        );
        assert_eq!(m_a.ops, m_b.ops, "crypto ops at {id}: {what}");
        assert_eq!(
            m_a.exchanges_completed, m_b.exchanges_completed,
            "exchanges at {id}: {what}"
        );
        assert_eq!(m_a.frames_rejected, 0, "clean run rejected frames at {id}: {what}");
        assert_eq!(m_b.frames_rejected, 0, "clean run rejected frames at {id}: {what}");
    }
    for (id, t_a) in &a.report.per_node {
        let t_b = &b.report.per_node[id];
        assert_eq!(t_a.sent_bytes, t_b.sent_bytes, "sent bytes at {id}: {what}");
        assert_eq!(t_a.recv_bytes, t_b.recv_bytes, "recv bytes at {id}: {what}");
        assert_eq!(t_a.sent_msgs, t_b.sent_msgs, "sent msgs at {id}: {what}");
        assert_eq!(t_a.sent_by_class, t_b.sent_by_class, "class mix at {id}: {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lockstep pooled runs are deterministic **across pool sizes**:
    /// one thread, a few threads and one-per-CPU all produce the exact
    /// outcome of the simulator, whatever the topology (session id),
    /// size, length or churn interleaving.
    #[test]
    fn pooled_lockstep_is_pool_size_invariant(
        session_id in 0u64..500,
        nodes in 8usize..15,
        rounds in 3u64..6,
        churn_rate in 0usize..2,
    ) {
        let mut sc = base(nodes, rounds);
        sc.pag.session_id = session_id;
        if churn_rate > 0 {
            sc.churn = ChurnSchedule::steady(session_id, nodes, rounds, churn_rate, churn_rate)
                .events()
                .to_vec();
        }
        let p1 = on_scheduler(sc.clone(), Scheduler::Pool(1));
        let p4 = on_scheduler(sc.clone(), Scheduler::Pool(4));
        let pcpu = on_scheduler(sc.clone(), Scheduler::Pool(0));
        let sim = on_simnet(sc);
        assert_same_outcome(&sim, &p1, "Simnet vs Pool(1)");
        assert_same_outcome(&sim, &p4, "Simnet vs Pool(4)");
        assert_same_outcome(&sim, &pcpu, "Simnet vs Pool(ncpu)");
    }

    /// No engine starves: however few threads the pool has, every ready
    /// engine is stepped each round — after the run, every live engine
    /// has entered every round (`rounds_entered`, the pag-core liveness
    /// counter) and is quiescent (`has_pending_work() == false`), idle
    /// pre-join joiners included.
    #[test]
    fn no_engine_starves_under_the_pool(
        session_id in 0u64..500,
        nodes in 8usize..15,
        threads in 1usize..5,
    ) {
        use pag_core::engine::PagEngine;
        use pag_core::SharedContext;
        use pag_membership::Membership;
        use pag_runtime::run_threaded;
        use std::sync::Arc;

        let rounds = 4;
        let joiner = NodeId(nodes as u32); // joins at round 2, idle before
        let churn = ChurnSchedule::flash_crowd(nodes, 2, 1);
        let pag = pag_core::PagConfig {
            session_id,
            stream_rate_kbps: 30.0,
            ..pag_core::PagConfig::default()
        };
        let membership =
            Membership::with_uniform_nodes(pag.session_id, nodes, pag.fanout, pag.monitor_count);
        let shared = SharedContext::with_roster(pag, membership, &[joiner]);
        let engines: Vec<PagEngine> = shared
            .roster()
            .map(|id| PagEngine::new(id, Arc::clone(&shared), SelfishStrategy::Honest, SEED))
            .collect();
        let cfg = ThreadedConfig {
            lockstep: true,
            seed: SEED,
            scheduler: Scheduler::Pool(threads),
            ..ThreadedConfig::default()
        };
        let faults = Arc::new(pag_runtime::FaultPlan::default());
        let run = run_threaded(&shared, engines, rounds, &[], churn.events(), &faults, &cfg)
            .expect("pool spawns");
        prop_assert_eq!(run.engines.len(), nodes + 1);
        for (id, engine) in &run.engines {
            prop_assert_eq!(
                engine.rounds_entered(),
                rounds,
                "engine {} starved under Pool({})", id, threads
            );
            prop_assert!(
                !engine.has_pending_work(),
                "engine {} left mid-cycle under Pool({})", id, threads
            );
        }
    }
}

#[test]
fn flash_crowd_and_mass_departure_run_pooled() {
    // The PR 3 churn generators replayed on the pooled scheduler: a
    // burst of joiners catches the stream, a mass departure leaves the
    // survivors streaming, and no honest node — leaver or survivor —
    // is ever convicted.
    let mut sc = base(10, 9);
    let crowd = ChurnSchedule::flash_crowd(10, 3, 5);
    sc.churn = crowd.events().to_vec();
    sc.driver = Driver::Threaded(ThreadedConfig {
        scheduler: Scheduler::Pool(0),
        seed: SEED,
        ..ThreadedConfig::default()
    });
    let outcome = run_session(sc);
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    for joiner in crowd.joiners() {
        assert!(
            outcome.metrics[&joiner].delivered_count() > 0,
            "joiner {joiner} never received an update under the pool"
        );
    }

    let mut sc = base(15, 10);
    let departure = ChurnSchedule::mass_departure(9, 15, 4, 0.34);
    assert!(!departure.is_empty());
    sc.churn = departure.events().to_vec();
    sc.driver = Driver::Threaded(ThreadedConfig {
        scheduler: Scheduler::Pool(3),
        seed: SEED,
        ..ThreadedConfig::default()
    });
    let outcome = run_session(sc);
    assert!(
        outcome.verdicts.is_empty(),
        "honest leaver or survivor convicted under the pool: {:?}",
        outcome.verdicts
    );
}

#[test]
fn crashes_and_churn_retire_cleanly_under_the_pool() {
    // Crash feeds meet churn feeds on a 2-thread pool: crashed engines
    // keep draining their slots without wedging lockstep quiescence
    // (the run completes), honest leavers are never convicted, and only
    // crashed nodes may be accused.
    let mut sc = base(14, 8);
    sc.churn = ChurnSchedule::steady(SEED, 14, 8, 1, 1).events().to_vec();
    let crashed = NodeId(9);
    sc.crashes.push((crashed, 3));
    // Keep the crash target out of the churn schedule so the scenarios
    // stay orthogonal.
    sc.churn.retain(|e| e.node != crashed);
    let leavers: Vec<NodeId> = sc
        .churn
        .iter()
        .filter(|e| e.kind == pag_runtime::ChurnKind::Leave)
        .map(|e| e.node)
        .collect();
    sc.driver = Driver::Threaded(ThreadedConfig {
        scheduler: Scheduler::Pool(2),
        seed: SEED,
        ..ThreadedConfig::default()
    });
    let outcome = run_session(sc);
    for v in &outcome.verdicts {
        assert_eq!(v.accused, crashed, "living node convicted: {v}");
        assert!(!leavers.contains(&v.accused), "honest leaver convicted: {v}");
    }
}

#[test]
fn pooled_realtime_smoke() {
    // Wall-clock mode on the pool: rounds tick on the wall clock and
    // the shared timer wheel (not per-thread recv_timeout deadlines)
    // fires engine timers. The protocol must run, deliver and stay
    // conviction-free — same slack rationale as the threaded realtime
    // smoke (200 ms rounds scale every deadline comfortably).
    let mut sc = base(8, 6);
    sc.driver = Driver::Threaded(ThreadedConfig {
        round_ms: 200,
        lockstep: false,
        seed: 1,
        scheduler: Scheduler::Pool(2),
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
    assert!(delivered > 0, "updates flowed through the pooled timer wheel");
    assert!(outcome.report.mean_bandwidth_kbps() > 0.0);
}

/// The headline scale test (ISSUE 5 acceptance): a 1000-node pooled
/// lockstep session with a freerider completes on a fixed thread pool,
/// rejects nothing, and produces exactly the simulator's verdicts.
/// Run via `scripts/ci.sh` (release mode).
#[test]
#[ignore = "gossip-scale smoke: run in release via scripts/ci.sh"]
fn scale_1000_node_pooled_session_matches_simnet() {
    let nodes = 1000;
    let rounds = 4;
    let freerider = NodeId(500);
    let mut sc = base(nodes, rounds);
    sc.selfish.push((freerider, SelfishStrategy::DropForward));

    let mut pooled = sc.clone();
    pooled.driver = Driver::Threaded(ThreadedConfig {
        lockstep: true,
        seed: SEED,
        scheduler: Scheduler::Pool(0),
        ..ThreadedConfig::default()
    });
    let pooled = run_session(pooled);

    let rejected: u64 = pooled.metrics.values().map(|m| m.frames_rejected).sum();
    assert_eq!(rejected, 0, "clean 1000-node session rejected frames");
    assert_eq!(pooled.convicted(), vec![freerider]);

    let mut sim = sc;
    sim.driver = Driver::Simnet(SimConfig {
        seed: SEED,
        ..SimConfig::default()
    });
    let sim = run_session(sim);
    assert_same_outcome(&sim, &pooled, "Simnet vs Pool at 1000 nodes");
}
