//! Exhaustive interleaving exploration of the acceptance topologies
//! (ISSUE 9 / DESIGN.md §15).
//!
//! The canonical scenario — 4 nodes, 2 rounds, one freerider, one
//! crash-restart — is explored under **all** interleavings the driver
//! admits, and every reachable state is checked for safety (no honest
//! conviction, non-negative ledger, no double retirement) while every
//! terminal state is checked for quiescence and
//! freerider-convicted-at-termination. Larger topologies ride behind
//! `--ignored` and run in release via scripts/ci.sh, like the
//! 1000-node smoke.

use pag_core::SelfishStrategy;
use pag_membership::NodeId;
use pag_model::{explore, explore_with, Budget, PagMachine, Scenario};

#[test]
fn canonical_4node_2round_freerider_crash_is_exhaustive_and_clean() {
    let machine = PagMachine::new(Scenario::canonical());
    let mut terminal_verdicts = Vec::new();
    let report = explore_with(&machine, Budget::default(), |s| {
        terminal_verdicts.push(machine.verdict_set(s));
    });

    println!(
        "canonical: {} states, {} transitions, {} terminals, depth {}",
        report.states, report.transitions, report.terminals, report.depth
    );
    assert!(report.exhausted, "state space must fit the budget");
    assert!(
        report.violation.is_none(),
        "all interleavings must satisfy safety + termination properties: {:?}",
        report.violation
    );
    // The acceptance floor: tens of thousands of deduped states. The
    // measured count is also pinned exactly — exploration is
    // deterministic (seeded engines, canonical fingerprints), so any
    // semantic drift in the engine or the driver model shows up here
    // first (update it, and DESIGN.md §15's table, when intentional).
    assert!(
        report.states >= 10_000,
        "expected tens of thousands of deduped states, got {}",
        report.states
    );
    assert_eq!(
        (report.states, report.transitions, report.terminals),
        (17_680, 51_412, 2),
        "canonical state space drifted — intentional changes must update \
         this pin and DESIGN.md §15"
    );
    assert_eq!(report.depth, 115, "canonical exploration depth drifted");
    assert!(report.terminals > 0, "quiescent end must be reachable");
    assert!(report.transitions > report.states, "interleavings must branch");

    // deadlock() already verified conviction per terminal state; check
    // the stronger cross-terminal property here: every interleaving
    // converges on a verdict set convicting the freerider and nobody
    // else.
    for verdicts in &terminal_verdicts {
        let accused: std::collections::BTreeSet<u32> =
            verdicts.iter().map(|&(_, _, accused, _)| accused).collect();
        assert!(accused.contains(&2), "freerider missing from {verdicts:?}");
        assert!(
            accused.iter().all(|&a| a == 2),
            "collateral conviction in {verdicts:?}"
        );
    }
}

/// Churn flavor: a late joiner instead of a crash, plus the freerider.
#[test]
fn joiner_topology_is_exhaustive_and_clean() {
    let scenario = Scenario {
        nodes: 3,
        rounds: 2,
        seed: 11,
        fanout: 1,
        monitor_count: 1,
        stream_rate_kbps: 16.0,
        selfish: vec![(NodeId(1), SelfishStrategy::DropForward)],
        crashes: vec![],
        joins: vec![(NodeId(3), 1)],
    };
    let report = explore(&PagMachine::new(scenario), Budget::default());
    println!("joiner: {} states, {} transitions", report.states, report.transitions);
    assert!(report.exhausted);
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

/// 5 nodes, 3 rounds, two selfish strategies and a crash-restart —
/// too big for the dev profile, exhaustive in release (scripts/ci.sh).
#[test]
#[ignore = "large state space: run in release via scripts/ci.sh"]
fn large_5node_3round_topology_is_exhaustive_and_clean() {
    let scenario = Scenario {
        nodes: 5,
        rounds: 3,
        seed: 17,
        fanout: 1,
        monitor_count: 1,
        stream_rate_kbps: 16.0,
        selfish: vec![(NodeId(2), SelfishStrategy::DropForward)],
        crashes: vec![(NodeId(4), 2, u64::MAX)],
        joins: vec![],
    };
    let report = explore(&PagMachine::new(scenario), Budget { max_states: 20_000_000 });
    println!(
        "large: {} states, {} transitions, {} terminals, depth {}",
        report.states, report.transitions, report.terminals, report.depth
    );
    assert!(report.exhausted, "stopped at {} states", report.states);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.states >= 100_000, "got {}", report.states);
}
