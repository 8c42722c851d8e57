//! Formal models of PAG (DESIGN.md §15).
//!
//! Two layers, one crate:
//!
//! - **Explicit-state model checking** ([`machine`], [`explore`],
//!   [`pag`]): the real [`pag_core::engine::PagEngine`] plus the
//!   lockstep quiescence ledger wrapped as a [`Machine`] — one
//!   transition is one `Input` delivered at one node, with the
//!   resulting effects folded back into the pending-action frontier —
//!   explored exhaustively (BFS, canonical-state dedup via
//!   [`pag_core::model::ModelState`] fingerprints) over small
//!   crash/churn/freerider schedules. Safety invariants (no honest
//!   conviction, ledger credits never negative, no double retirement)
//!   are checked on every reachable state; reachability-liveness
//!   (quiescence reachable, every freerider-containing terminal state
//!   carries a conviction) on every terminal state. Counterexamples are
//!   shortest traces by construction and render directly as regression
//!   test bodies ([`Violation::test_body`]).
//!
//! - **Symbolic privacy analysis** ([`symbolic`]): the Dolev–Yao
//!   deducibility model over the protocol's message terms, standing in
//!   for the paper's ProVerif analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod machine;
pub mod pag;
pub mod symbolic;

pub use explore::{explore, explore_with, Budget, Report, Violation, ViolationKind};
pub use machine::{replay, replay_expect_violation, Machine};
pub use pag::{Act, Mail, PagMachine, PagState, Scenario};

#[cfg(test)]
mod bug_tests {
    use super::*;

    /// A minimal topology exhibiting the PR 5 early-credit race: one
    /// crash-restarting node, no freerider (the race needs only the
    /// retirement path).
    fn racy_scenario() -> Scenario {
        Scenario {
            nodes: 3,
            rounds: 2,
            seed: 5,
            fanout: 1,
            monitor_count: 1,
            stream_rate_kbps: 16.0,
            selfish: vec![],
            crashes: vec![(pag_membership::NodeId(2), 1, u64::MAX)],
            joins: vec![],
        }
    }

    /// The deliberately reintroduced early-ledger-credit bug is caught
    /// by exhaustive exploration, with a minimized counterexample that
    /// replays — and the same schedules are clean without the fault
    /// flag.
    #[test]
    fn early_credit_bug_is_caught_with_replayable_counterexample() {
        let clean = PagMachine::new(racy_scenario());
        let report = explore(&clean, Budget::default());
        assert!(report.exhausted, "clean model must fit the budget");
        assert!(
            report.violation.is_none(),
            "clean model must satisfy all properties: {:?}",
            report.violation
        );

        let buggy = PagMachine::new(racy_scenario()).with_early_credit_bug();
        let report = explore(&buggy, Budget::default());
        let violation = report
            .violation
            .expect("the early-credit race must be reachable");
        assert!(
            violation.detail.contains("ledger credit went negative"),
            "unexpected violation: {}",
            violation.detail
        );
        // Breadth-first search minimized the trace; it must replay to
        // the same violation, and a Crash must be on it (the race is
        // retirement vs. an already-consumed broadcast).
        assert!(
            violation
                .trace
                .iter()
                .any(|a| matches!(a, Act::Crash(_))),
            "trace must include the retirement: {:?}",
            violation.trace
        );
        let err = replay_expect_violation(&buggy, &violation.trace)
            .expect("counterexample must reproduce on replay");
        assert_eq!(err, violation.detail);

        // The emitted regression-test body carries the full trace and
        // the expected failure message.
        let body = violation.test_body("PagMachine::new(racy_scenario())");
        assert!(body.contains("fn model_counterexample_replays()"));
        assert!(body.contains("ledger credit went negative"));
        assert!(body.contains("Crash("));
    }
}
