//! Host integration hooks: snapshot persistence and live observation.
//!
//! A long-lived host process (`pag-host`) needs two things from a
//! running session that the drivers never needed before (DESIGN.md
//! §13):
//!
//! * **crash durability** — when a node enters a crash window, its
//!   [`NodeSnapshot`] must reach disk so a restarted process can rejoin
//!   via [`pag_core::engine::Input::Recover`] instead of being
//!   convicted. The [`SnapshotVault`] trait is that sink; the on-disk
//!   implementation lives in `pag-host` (atomic temp-file + rename).
//! * **live visibility** — a client polling the host wants per-node
//!   round progress, [`NodeMetrics`] and [`NodeTraffic`] *while the
//!   session runs*, not only in the final outcome. [`SessionWatch`] is
//!   that snapshot stream: every node publishes its status at each
//!   round entry, and [`SessionWatch::snapshot`] returns a consistent
//!   copy on demand.
//!
//! Both hooks are strictly **below** the protocol: they never alter an
//! engine input, never touch traffic accounting, and a session run with
//! hooks produces bit-identical verdicts, deliveries, traffic and
//! crypto ops to one run without (the host equivalence suite pins
//! this). A vault that fails to save or load degrades to the in-memory
//! recovery path with a log line, never a panic.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use pag_core::{NodeMetrics, NodeSnapshot};
use pag_membership::NodeId;
use pag_obs::{LatencySummary, SessionRecorder, TraceEvent};

use crate::report::NodeTraffic;

/// Where node snapshots go when a node crashes, and where they come
/// back from when it recovers. Implementations must be infallible at
/// this boundary — report persistence problems by returning
/// `false`/`None` (after logging), so a full disk can never panic a
/// node worker or change protocol behaviour.
pub trait SnapshotVault: Send + Sync {
    /// Persists `snap` for its node. `false` means the snapshot did not
    /// reach stable storage (already logged by the implementation).
    fn save(&self, snap: &NodeSnapshot) -> bool;

    /// Loads the last persisted snapshot of `node`, if one exists and
    /// is intact. Corrupt or truncated state must come back as `None`
    /// (after logging), never a panic — the bytes are a disk's word,
    /// not a peer engine's.
    fn load(&self, node: NodeId) -> Option<NodeSnapshot>;
}

/// One node's live status, as last published at a round entry.
#[derive(Clone, Debug)]
pub struct NodeStatus {
    /// The round the node most recently entered.
    pub round: u64,
    /// Protocol metrics accumulated so far.
    pub metrics: NodeMetrics,
    /// Traffic accounted so far.
    pub traffic: NodeTraffic,
    /// Flight-recorder histogram summaries (round wall, barrier stall,
    /// sign/verify/hash latency) as of the publication; `None` when the
    /// session runs untraced (DESIGN.md §14).
    pub lat: Option<LatencySummary>,
    /// The node's trailing trace events (oldest first, bounded by
    /// `TraceConfig::recent_events`); empty when untraced.
    pub recent: Vec<TraceEvent>,
}

impl NodeStatus {
    /// A status with only the protocol-visible fields set (no trace
    /// attachments) — what untraced sessions publish.
    pub fn untraced(round: u64, metrics: NodeMetrics, traffic: NodeTraffic) -> Self {
        NodeStatus {
            round,
            metrics,
            traffic,
            lat: None,
            recent: Vec::new(),
        }
    }
}

/// A live, pollable view of one running session: per-node status
/// published at every round entry. Cheap to clone an `Arc` of; the host
/// hands these out so clients can watch progress without joining the
/// session thread.
#[derive(Default)]
pub struct SessionWatch {
    nodes: Mutex<BTreeMap<NodeId, NodeStatus>>,
}

impl std::fmt::Debug for SessionWatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let nodes = self.nodes.lock().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("SessionWatch")
            .field("nodes", &nodes.len())
            .finish()
    }
}

impl SessionWatch {
    /// An empty watch, ready to be wired into a driver config.
    pub fn new() -> Arc<Self> {
        Arc::new(SessionWatch::default())
    }

    /// Publishes `node`'s status (called by the node core at round
    /// entry; a poisoned lock is ridden out — observation must never
    /// take a worker down).
    pub(crate) fn publish(&self, node: NodeId, status: NodeStatus) {
        self.nodes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(node, status);
    }

    /// A consistent copy of every node's last published status.
    pub fn snapshot(&self) -> BTreeMap<NodeId, NodeStatus> {
        self.nodes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The lowest round any node has entered so far (`None` before the
    /// first publication) — a session-level progress indicator.
    pub fn min_round(&self) -> Option<u64> {
        self.nodes
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .map(|s| s.round)
            .min()
    }
}

/// The host's hooks into a driver run, bundled so driver configs grow
/// one field instead of three. All default to off; a plain
/// `ThreadedConfig::default()` / `TcpConfig::default()` run is exactly
/// the pre-host driver.
#[derive(Clone, Default)]
pub struct HostHooks {
    /// Snapshot persistence for crash-recovery durability.
    pub vault: Option<Arc<dyn SnapshotVault>>,
    /// Live per-node status publication.
    pub watch: Option<Arc<SessionWatch>>,
    /// The session's flight recorder; node cores derive their per-node
    /// recorders from it at construction. Like the other hooks it is
    /// strictly below the protocol: it observes timings and events but
    /// never feeds anything back, so a traced run stays bit-identical
    /// to an untraced one (DESIGN.md §14).
    pub trace: Option<Arc<SessionRecorder>>,
}

impl std::fmt::Debug for HostHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostHooks")
            .field("vault", &self.vault.is_some())
            .field("watch", &self.watch.is_some())
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_publishes_and_snapshots() {
        let watch = SessionWatch::new();
        assert!(watch.snapshot().is_empty());
        assert_eq!(watch.min_round(), None);
        watch.publish(
            NodeId(3),
            NodeStatus::untraced(5, NodeMetrics::default(), NodeTraffic::default()),
        );
        watch.publish(
            NodeId(1),
            NodeStatus::untraced(4, NodeMetrics::default(), NodeTraffic::default()),
        );
        let snap = watch.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&NodeId(3)].round, 5);
        assert!(snap[&NodeId(3)].lat.is_none() && snap[&NodeId(3)].recent.is_empty());
        assert_eq!(watch.min_round(), Some(4));
    }

    #[test]
    fn hooks_default_off() {
        let hooks = HostHooks::default();
        assert!(hooks.vault.is_none() && hooks.watch.is_none() && hooks.trace.is_none());
        let debugged = format!("{hooks:?}");
        assert!(debugged.contains("vault: false"), "{debugged}");
        assert!(debugged.contains("trace: false"), "{debugged}");
    }

    /// Satellite stress test: concurrent publishers and pollers must
    /// never observe a torn [`NodeStatus`] (fields from two different
    /// publications) and per-node rounds — hence `min_round` — must be
    /// monotone while each publisher counts up.
    #[test]
    fn watch_concurrent_publish_poll_stress() {
        use std::sync::atomic::{AtomicBool, Ordering};

        const PUBLISHERS: u32 = 4;
        const ROUNDS: u64 = 400;

        let watch = SessionWatch::new();
        let stop = Arc::new(AtomicBool::new(false));

        let publishers: Vec<_> = (0..PUBLISHERS)
            .map(|node| {
                let watch = Arc::clone(&watch);
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        // Tear detector: every field of a publication
                        // encodes the same round, so a mixed-up status
                        // is observable.
                        let mut metrics = NodeMetrics {
                            exchanges_completed: round,
                            ..NodeMetrics::default()
                        };
                        metrics.ops.signatures = round;
                        let traffic = NodeTraffic {
                            sent_msgs: round,
                            ..NodeTraffic::default()
                        };
                        let mut status =
                            NodeStatus::untraced(round, metrics, traffic);
                        status.lat = Some({
                            let mut l = LatencySummary::default();
                            l.round_wall.count = round;
                            l
                        });
                        watch.publish(NodeId(node), status);
                    }
                })
            })
            .collect();

        let poller = {
            let watch = Arc::clone(&watch);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_round: BTreeMap<NodeId, u64> = BTreeMap::new();
                let mut last_min = 0;
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = watch.snapshot();
                    // Nodes only ever get added, so once one snapshot
                    // held every publisher, every later `min_round`
                    // ranges over all of them too.
                    let all_published = snapshot.len() == PUBLISHERS as usize;
                    for (node, status) in snapshot {
                        assert_eq!(status.metrics.exchanges_completed, status.round);
                        assert_eq!(status.metrics.ops.signatures, status.round);
                        assert_eq!(status.traffic.sent_msgs, status.round);
                        let lat = status.lat.expect("publisher always sets lat");
                        assert_eq!(lat.round_wall.count, status.round);
                        let prev = last_round.entry(node).or_insert(0);
                        assert!(status.round >= *prev, "round went backwards");
                        *prev = status.round;
                    }
                    // The minimum over per-node monotone rounds is
                    // itself monotone only over a fixed node set: a
                    // late first publication (round 0) legitimately
                    // pulls it back down.
                    if all_published {
                        if let Some(min) = watch.min_round() {
                            assert!(min >= last_min, "min_round went backwards");
                            last_min = min;
                        }
                    }
                }
            })
        };

        for p in publishers {
            p.join().expect("publisher thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("poller thread panicked");

        assert_eq!(watch.min_round(), Some(ROUNDS - 1));
        assert_eq!(watch.snapshot().len(), PUBLISHERS as usize);
    }
}
