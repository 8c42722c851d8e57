//! Property-based tests for membership invariants.

use pag_membership::{Membership, NodeId};
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #[test]
    fn views_are_valid_for_any_shape(
        session in any::<u64>(),
        n in 2usize..80,
        fanout in 1usize..6,
        round in 0u64..1000,
    ) {
        let m = Membership::with_uniform_nodes(session, n, fanout, fanout);
        for &node in m.nodes() {
            let succ = m.successors(node, round);
            prop_assert_eq!(succ.len(), fanout.min(n - 1));
            prop_assert!(!succ.contains(&node));
            let set: BTreeSet<_> = succ.iter().collect();
            prop_assert_eq!(set.len(), succ.len());
            for s in &succ {
                prop_assert!(m.contains(*s));
            }
        }
    }

    #[test]
    fn determinism(session in any::<u64>(), round in any::<u64>()) {
        let m1 = Membership::with_uniform_nodes(session, 30, 3, 3);
        let m2 = Membership::with_uniform_nodes(session, 30, 3, 3);
        for &node in m1.nodes() {
            prop_assert_eq!(m1.successors(node, round), m2.successors(node, round));
            prop_assert_eq!(m1.monitors_of(node, round), m2.monitors_of(node, round));
        }
    }

    #[test]
    fn topology_predecessor_successor_duality(
        session in any::<u64>(),
        n in 3usize..50,
        round in 0u64..100,
    ) {
        let m = Membership::with_uniform_nodes(session, n, 3, 3);
        let topo = m.topology(round);
        for &node in m.nodes() {
            for &s in topo.successors(node) {
                prop_assert!(topo.predecessors(s).contains(&node));
            }
            for &p in topo.predecessors(node) {
                prop_assert!(topo.successors(p).contains(&node));
            }
        }
    }

    #[test]
    fn churn_preserves_invariants(
        session in any::<u64>(),
        leaves in proptest::collection::vec(1u32..40, 0..10),
        joins in proptest::collection::vec(100u32..200, 0..10),
    ) {
        let mut m = Membership::with_uniform_nodes(session, 40, 3, 3);
        for j in joins {
            m.join(NodeId(j));
        }
        for l in leaves {
            if m.contains(NodeId(l)) && NodeId(l) != m.source() {
                m.leave(NodeId(l)).expect("non-source leave succeeds");
            }
        }
        let round = 5;
        for &node in m.nodes() {
            let succ = m.successors(node, round);
            prop_assert!(succ.iter().all(|s| m.contains(*s)));
            prop_assert!(!succ.contains(&node));
        }
    }

    /// Arbitrary interleaved join/leave sequences keep `successors`,
    /// `monitors_of` and `predecessors` mutually consistent at every
    /// intermediate epoch: successor/predecessor duality holds in both
    /// directions, monitor counts respect the clamped fanout, and the
    /// epoch counter advances exactly on effective churn.
    #[test]
    fn interleaved_churn_keeps_views_mutually_consistent(
        session in any::<u64>(),
        n in 4usize..24,
        fanout in 2usize..5,
        ops in proptest::collection::vec((any::<bool>(), 0u32..60), 1..24),
        round in 0u64..50,
    ) {
        let mut m = Membership::with_uniform_nodes(session, n, fanout, fanout);
        let mut expected_epoch = 0u64;
        for (is_join, id) in ops {
            let id = NodeId(id);
            if is_join {
                if m.join(id) {
                    expected_epoch += 1;
                }
            } else if id == m.source() {
                prop_assert!(m.leave(id).is_err(), "source leave must be rejected");
                prop_assert!(m.contains(id));
            } else if m.leave(id).expect("non-source leave") {
                expected_epoch += 1;
            }
            prop_assert_eq!(m.epoch(), expected_epoch);

            // Full cross-consistency of the three view queries at this
            // epoch, plus the topology's epoch stamp.
            let topo = m.topology(round);
            prop_assert_eq!(topo.epoch(), m.epoch());
            let want = fanout.min(m.len() - 1);
            for &node in m.nodes() {
                let succ = m.successors(node, round);
                prop_assert_eq!(succ.len(), want);
                prop_assert!(!succ.contains(&node));
                let distinct: BTreeSet<_> = succ.iter().collect();
                prop_assert_eq!(distinct.len(), succ.len());
                let monitors = m.monitors_of(node, round);
                prop_assert_eq!(monitors.len(), want);
                prop_assert!(!monitors.contains(&node));
                prop_assert!(monitors.iter().all(|x| m.contains(*x)));
                // Duality: successor lists and predecessor lists are
                // inverse relations, point queries agree with the
                // materialized topology.
                for &s in &succ {
                    prop_assert!(m.predecessors(s, round).contains(&node));
                    prop_assert!(topo.predecessors(s).contains(&node));
                }
                for p in m.predecessors(node, round) {
                    prop_assert!(m.successors(p, round).contains(&node));
                }
            }
        }
    }

    /// `RoundTopology::watched_by` is the per-monitor scan it replaced —
    /// every member `b` with `monitor` in `monitors_of(b, round)`, in
    /// sorted order — at session start, after each join or leave, with
    /// stable and with rotating monitor epochs.
    #[test]
    fn watched_by_equals_the_monitors_of_scan(
        session in any::<u64>(),
        n in 2usize..40,
        fanout in 1usize..5,
        epoch_rounds in 0u64..6, // 0: stable monitor sets
        ops in proptest::collection::vec((any::<bool>(), 0u32..60), 0..12),
        round in 0u64..30,
    ) {
        let mut m = Membership::with_uniform_nodes(session, n, fanout, fanout);
        if epoch_rounds > 0 {
            m = m.with_monitor_epoch(epoch_rounds);
        }
        let check = |m: &Membership| {
            let topo = m.topology(round);
            for &monitor in m.nodes().iter().chain(&[NodeId(999)]) {
                let scan: Vec<NodeId> = m
                    .nodes()
                    .iter()
                    .copied()
                    .filter(|&b| b != monitor && m.monitors_of(b, round).contains(&monitor))
                    .collect();
                prop_assert_eq!(topo.watched_by(monitor), scan.as_slice(), "monitor {}", monitor);
            }
        };
        check(&m);
        for (is_join, id) in ops {
            let id = NodeId(id);
            if is_join {
                m.join(id);
            } else if id != m.source() {
                m.leave(id).expect("non-source leave");
            }
            check(&m);
        }
    }
}
