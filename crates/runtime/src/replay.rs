//! Bridging the model checker and the concrete drivers (DESIGN.md §15).
//!
//! `pag-model` explores a [`pag_model::Scenario`] under **all**
//! interleavings its driver abstraction admits; this module replays the
//! same scenario as a **concrete** session — the deterministic simnet
//! driver picks one of those interleavings — so model-level results
//! stay anchored to the real runtime:
//!
//! - a clean exploration cross-validates: the convictions every model
//!   terminal state agrees on must be exactly the convictions the
//!   concrete run produces ([`cross_validate`]);
//! - a counterexample ships as a pair: the minimized model trace (via
//!   [`pag_model::Violation::test_body`]) plus the concrete session
//!   configuration ([`session_for_scenario`]) that exercises the same
//!   schedule end to end.
//!
//! The mapping is exact because both sides share the announce-one-
//! round-early membership discipline: the model feeds `Leave` during
//! `crash_round - 1` and `Recover` during `restart_round - 1`, which is
//! precisely what [`crate::faults::FaultSchedule`] does for
//! [`crate::faults::FaultEvent::CrashRestart`], and its `Join` feeds
//! mirror [`crate::churn::ChurnSchedule`].

use std::collections::BTreeSet;

use pag_membership::NodeId;
use pag_model::{explore_with, Budget, PagMachine, Report, Scenario};
use pag_simnet::SimConfig;

use crate::churn::{ChurnEvent, ChurnKind};
use crate::faults::FaultEvent;
use crate::session::{run_session, Driver, SessionConfig, SessionOutcome};

/// Maps a model-checking scenario onto a concrete simnet session with
/// the same topology, schedules and engine seed.
pub fn session_for_scenario(scenario: &Scenario) -> SessionConfig {
    let mut sc = SessionConfig::honest(scenario.nodes, scenario.rounds);
    sc.pag.fanout = scenario.fanout;
    sc.pag.monitor_count = scenario.monitor_count;
    sc.pag.stream_rate_kbps = scenario.stream_rate_kbps;
    sc.driver = Driver::Simnet(SimConfig {
        seed: scenario.seed,
        ..SimConfig::default()
    });
    sc.selfish = scenario.selfish.clone();
    sc.faults = scenario
        .crashes
        .iter()
        .map(|&(node, crash_round, restart_round)| FaultEvent::CrashRestart {
            node,
            crash_round,
            restart_round,
        })
        .collect();
    sc.churn = scenario
        .joins
        .iter()
        .map(|&(node, round)| ChurnEvent {
            round,
            node,
            kind: ChurnKind::Join,
        })
        .collect();
    sc
}

/// The outcome of [`cross_validate`]: the exploration report plus both
/// sides' conviction sets (already asserted equal).
pub struct CrossValidation {
    /// The exhaustive exploration's statistics.
    pub report: Report<pag_model::Act>,
    /// Nodes convicted in every model terminal state *and* by the
    /// concrete run.
    pub convicted: Vec<NodeId>,
    /// The concrete session's full outcome.
    pub concrete: SessionOutcome,
}

/// Explores `scenario` exhaustively **and** runs it concretely on the
/// simnet driver, then checks the two agree: the exploration must be
/// clean (exhausted, no violation), every model terminal state must
/// convict the same set of nodes, and the concrete run — one particular
/// interleaving of the ones the model explored — must convict exactly
/// that set.
///
/// Panics with a diagnostic on any disagreement; returns the evidence
/// otherwise.
pub fn cross_validate(scenario: &Scenario, budget: Budget) -> CrossValidation {
    let machine = PagMachine::new(scenario.clone());
    let mut terminal_accused: Vec<BTreeSet<u32>> = Vec::new();
    let report = explore_with(&machine, budget, |s| {
        terminal_accused.push(
            machine
                .verdict_set(s)
                .iter()
                .map(|&(_, _, accused, _)| accused)
                .collect(),
        );
    });
    assert!(
        report.exhausted,
        "exploration exceeded the budget at {} states",
        report.states
    );
    assert!(
        report.violation.is_none(),
        "scenario violates a model property: {:?}",
        report.violation
    );
    let model_accused = terminal_accused
        .first()
        .expect("a clean exploration reaches at least one terminal state")
        .clone();
    for (i, set) in terminal_accused.iter().enumerate() {
        assert_eq!(
            *set, model_accused,
            "model terminal state {i} disagrees on convictions"
        );
    }

    let concrete = run_session(session_for_scenario(scenario));
    let concrete_accused: BTreeSet<u32> =
        concrete.convicted().iter().map(|n| n.value()).collect();
    assert_eq!(
        concrete_accused, model_accused,
        "concrete simnet run and model disagree on convictions \
         (concrete verdicts: {:?})",
        concrete.verdicts
    );

    CrossValidation {
        report,
        convicted: model_accused.into_iter().map(NodeId).collect(),
        concrete,
    }
}
