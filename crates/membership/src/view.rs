//! Materialized per-round topology: successor, predecessor and watch
//! lists for every node, computed in one O(N·f) pass.

use std::collections::HashMap;

use crate::id::NodeId;
use crate::membership::Membership;

/// The dissemination and monitoring graphs of a single round.
///
/// Built by [`Membership::topology`]; prefer it over per-node
/// [`Membership::predecessors`] calls when the whole round is needed
/// (simulation setup, analysis sweeps).
#[derive(Clone, Debug)]
pub struct RoundTopology {
    round: u64,
    epoch: u64,
    successors: HashMap<NodeId, Vec<NodeId>>,
    predecessors: HashMap<NodeId, Vec<NodeId>>,
    /// Inverse of [`Membership::monitors_of`]: monitor -> the members
    /// it watches, in sorted order.
    watched_by: HashMap<NodeId, Vec<NodeId>>,
}

impl RoundTopology {
    /// Computes the full topology of `round`.
    pub(crate) fn build(membership: &Membership, round: u64) -> Self {
        let mut successors = HashMap::with_capacity(membership.len());
        let mut predecessors: HashMap<NodeId, Vec<NodeId>> =
            HashMap::with_capacity(membership.len());
        let mut watched_by: HashMap<NodeId, Vec<NodeId>> = HashMap::with_capacity(membership.len());
        for &node in membership.nodes() {
            predecessors.entry(node).or_default();
        }
        // Nodes are visited in sorted order, so every list built by
        // pushing comes out sorted.
        for &node in membership.nodes() {
            let succ = membership.successors(node, round);
            for &s in &succ {
                predecessors.entry(s).or_default().push(node);
            }
            successors.insert(node, succ);
            for m in membership.monitors_of(node, round) {
                watched_by.entry(m).or_default().push(node);
            }
        }
        RoundTopology {
            round,
            epoch: membership.epoch(),
            successors,
            predecessors,
            watched_by,
        }
    }

    /// The round this topology describes.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The membership epoch the topology was computed from.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Successor list of `node` (empty slice for unknown nodes).
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        self.successors.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Predecessor list of `node` (empty slice for unknown nodes).
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        self.predecessors.get(&node).map_or(&[], Vec::as_slice)
    }

    /// The members `monitor` watches this round — every `b` with
    /// `monitor` in `monitors_of(b, round)` — in sorted order (empty
    /// slice for unknown nodes and for nodes that watch nobody).
    pub fn watched_by(&self, monitor: NodeId) -> &[NodeId] {
        self.watched_by.get(&monitor).map_or(&[], Vec::as_slice)
    }

    /// Iterates over `(node, successors)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[NodeId])> {
        self.successors.iter().map(|(&n, s)| (n, s.as_slice()))
    }

    /// Mean in-degree of the graph (equals the fanout when no clamping
    /// occurred).
    pub fn mean_in_degree(&self) -> f64 {
        if self.predecessors.is_empty() {
            return 0.0;
        }
        let total: usize = self.predecessors.values().map(Vec::len).sum();
        total as f64 / self.predecessors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_consistent_with_point_queries() {
        let m = Membership::with_uniform_nodes(11, 40, 3, 3);
        let topo = m.topology(6);
        assert_eq!(topo.round(), 6);
        for &n in m.nodes() {
            assert_eq!(topo.successors(n), m.successors(n, 6).as_slice());
            let mut from_topo: Vec<NodeId> = topo.predecessors(n).to_vec();
            let mut direct = m.predecessors(n, 6);
            from_topo.sort();
            direct.sort();
            assert_eq!(from_topo, direct);
        }
    }

    #[test]
    fn mean_in_degree_equals_fanout() {
        let m = Membership::with_uniform_nodes(2, 100, 4, 3);
        let topo = m.topology(0);
        assert!((topo.mean_in_degree() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_node_yields_empty_slices() {
        let m = Membership::with_uniform_nodes(2, 10, 3, 3);
        let topo = m.topology(0);
        assert!(topo.successors(NodeId(999)).is_empty());
        assert!(topo.predecessors(NodeId(999)).is_empty());
    }

    #[test]
    fn iter_covers_all_nodes() {
        let m = Membership::with_uniform_nodes(2, 25, 3, 3);
        let topo = m.topology(1);
        assert_eq!(topo.iter().count(), 25);
    }
}
