//! Driver-neutral traffic accounting.
//!
//! Every driver — the discrete-event simulator and the threaded runtime
//! alike — reports a [`TrafficReport`]: per-node byte/message counters
//! broken down by [`TrafficClass`]. The API mirrors `pag-simnet`'s
//! `SimReport` (the paper's headline metric is per-node bandwidth,
//! Figs. 7–9) so experiment harnesses are driver-agnostic.
//!
//! Durations are **protocol seconds** (one gossip round = 1 s, §VII-A),
//! not wall-clock time: a real-time driver running scaled 50 ms rounds
//! still reports bandwidth per protocol second, keeping its numbers
//! comparable with the simulator's.

use std::collections::BTreeMap;

use pag_core::TrafficClass;
use pag_membership::NodeId;
use pag_simnet::SimReport;

/// Maximum number of traffic classes trackable per node.
pub const MAX_TRAFFIC_CLASSES: usize = 8;

/// Byte and message counters of one node.
#[derive(Clone, Debug, Default)]
pub struct NodeTraffic {
    /// Total bytes sent.
    pub sent_bytes: u64,
    /// Total bytes received.
    pub recv_bytes: u64,
    /// Messages sent.
    pub sent_msgs: u64,
    /// Messages received.
    pub recv_msgs: u64,
    /// Bytes sent per traffic class.
    pub sent_by_class: [u64; MAX_TRAFFIC_CLASSES],
    /// Bytes received per traffic class.
    pub recv_by_class: [u64; MAX_TRAFFIC_CLASSES],
}

impl NodeTraffic {
    pub(crate) fn record_send(&mut self, bytes: usize, class: TrafficClass) {
        self.sent_bytes += bytes as u64;
        self.sent_msgs += 1;
        self.sent_by_class[class.0 as usize % MAX_TRAFFIC_CLASSES] += bytes as u64;
    }

    pub(crate) fn record_recv(&mut self, bytes: usize, class: TrafficClass) {
        self.recv_bytes += bytes as u64;
        self.recv_msgs += 1;
        self.recv_by_class[class.0 as usize % MAX_TRAFFIC_CLASSES] += bytes as u64;
    }

    /// Total bandwidth over `duration_secs` in kilobits per second,
    /// upload and download together (the paper's "bandwidth
    /// consumption").
    pub fn bandwidth_kbps(&self, duration_secs: f64) -> f64 {
        if duration_secs == 0.0 {
            return 0.0;
        }
        (self.sent_bytes + self.recv_bytes) as f64 * 8.0 / 1000.0 / duration_secs
    }

    /// Upload-only bandwidth in kbps.
    pub fn upload_kbps(&self, duration_secs: f64) -> f64 {
        if duration_secs == 0.0 {
            return 0.0;
        }
        self.sent_bytes as f64 * 8.0 / 1000.0 / duration_secs
    }
}

/// Traffic outcome of a session run, whatever the driver.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Protocol duration in seconds (= completed rounds).
    pub duration: f64,
    /// Number of completed rounds.
    pub rounds: u64,
    /// Per-node statistics.
    pub per_node: BTreeMap<NodeId, NodeTraffic>,
}

impl TrafficReport {
    /// Converts a simulator report (identical counters, simnet types).
    pub fn from_sim(sim: &SimReport) -> Self {
        let per_node = sim
            .per_node
            .iter()
            .map(|(&id, s)| {
                (
                    id,
                    NodeTraffic {
                        sent_bytes: s.sent_bytes,
                        recv_bytes: s.recv_bytes,
                        sent_msgs: s.sent_msgs,
                        recv_msgs: s.recv_msgs,
                        sent_by_class: s.sent_by_class,
                        recv_by_class: s.recv_by_class,
                    },
                )
            })
            .collect();
        TrafficReport {
            duration: sim.duration.as_secs_f64(),
            rounds: sim.rounds,
            per_node,
        }
    }

    /// Per-node total bandwidth (up+down) in kbps, sorted ascending — the
    /// series behind the paper's CDF plots (Fig. 7).
    pub fn bandwidth_distribution_kbps(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .per_node
            .values()
            .map(|s| s.bandwidth_kbps(self.duration))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Mean per-node bandwidth in kbps.
    pub fn mean_bandwidth_kbps(&self) -> f64 {
        let v = self.bandwidth_distribution_kbps();
        if v.is_empty() {
            return 0.0;
        }
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Bandwidth value at `percentile` (0–100) of the node distribution.
    ///
    /// # Panics
    ///
    /// Panics if the report has no nodes or `percentile` is outside 0–100.
    pub fn percentile_bandwidth_kbps(&self, percentile: f64) -> f64 {
        assert!((0.0..=100.0).contains(&percentile), "percentile in 0-100");
        let v = self.bandwidth_distribution_kbps();
        assert!(!v.is_empty(), "no nodes in report");
        let idx = ((percentile / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx]
    }

    /// Sum of bytes sent across all nodes, per traffic class.
    pub fn total_sent_by_class(&self) -> [u64; MAX_TRAFFIC_CLASSES] {
        let mut out = [0u64; MAX_TRAFFIC_CLASSES];
        for s in self.per_node.values() {
            for (acc, v) in out.iter_mut().zip(s.sent_by_class.iter()) {
                *acc += v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_math() {
        let mut s = NodeTraffic::default();
        s.record_send(1000, TrafficClass::DEFAULT);
        s.record_recv(1000, TrafficClass(1));
        assert_eq!(s.bandwidth_kbps(1.0), 16.0);
        assert_eq!(s.upload_kbps(1.0), 8.0);
        assert_eq!(s.sent_by_class[0], 1000);
        assert_eq!(s.recv_by_class[1], 1000);
        assert_eq!(s.bandwidth_kbps(0.0), 0.0);
    }

    #[test]
    fn report_distribution_and_percentiles() {
        let mut per_node = BTreeMap::new();
        for i in 0..10u32 {
            let mut s = NodeTraffic::default();
            s.record_send(((i + 1) * 125) as usize, TrafficClass::DEFAULT);
            per_node.insert(NodeId(i), s);
        }
        let report = TrafficReport {
            duration: 1.0,
            rounds: 1,
            per_node,
        };
        let dist = report.bandwidth_distribution_kbps();
        assert_eq!(dist.len(), 10);
        assert!(dist.windows(2).all(|w| w[0] <= w[1]), "sorted");
        assert_eq!(report.percentile_bandwidth_kbps(0.0), dist[0]);
        assert_eq!(report.percentile_bandwidth_kbps(100.0), dist[9]);
        assert!((report.mean_bandwidth_kbps() - 5.5).abs() < 1e-9);
    }
}
