//! The four workloads: what each feeds the program and what a correct
//! answer looks like.
//!
//! The benchmark generates a [`SessionConfig`] from the seed; the
//! program only ever sees that. Every workload runs on shipped
//! defaults: none sets `pipeline_window`, `coalesce` or `batch_verify`
//! (the driver configs are built with `..Default::default()`), so a
//! knob that becomes the default is measured without touching this
//! file and a knob that is deleted cannot break it.

use std::collections::BTreeSet;

use pag_core::config::CryptoProfile;
use pag_core::metrics::{NodeMetrics, OpCounters};
use pag_core::selfish::SelfishStrategy;
use pag_core::verdict::Verdict;
use pag_membership::NodeId;
use pag_runtime::{
    ChurnKind, ChurnSchedule, Driver, FaultSchedule, Scheduler, SessionConfig, SessionOutcome,
    TcpConfig, ThreadedConfig, TrafficReport,
};
use pag_simnet::SimConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Worker threads of the pooled workloads. Fixed (not one per CPU) so
/// numbers from boxes with more cores stay comparable.
pub const POOL_WORKERS: usize = 2;

/// The freerider strategies `adversarial_sim_200` cycles through.
const FREERIDER_STRATEGIES: [SelfishStrategy; 4] = [
    SelfishStrategy::DropForward,
    SelfishStrategy::PartialForward,
    SelfishStrategy::NoAck,
    SelfishStrategy::SilentToMonitors,
];

/// A workload's permanent name and the reason it exists.
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "crypto_pool_1000",
        why: "1000 nodes x 3 rounds of RSA-512 / 512-bit hashing at 30 kbps on Pool(2): sign, verify, hash and prime generation dominate the CPU",
    },
    WorkloadInfo {
        name: "stream_pool_1000",
        why: "1000 nodes x 10 rounds at the paper's 300 kbps with keyed-hash tags on Pool(2): no RSA at all, so engine, codec, payload and scheduler cost show",
    },
    WorkloadInfo {
        name: "tcp_mesh_16",
        why: "16 nodes x 150 rounds at 300 kbps over a loopback TCP mesh on Pool(2): the only workload where the socket transport dominates the non-engine cost",
    },
    WorkloadInfo {
        name: "adversarial_sim_200",
        why: "200 nodes x 10 rounds of real crypto on the single-threaded simulator with freeriders, churn and a partition: the accusation and epoch paths, no scheduler",
    },
];

/// A generated workload: the program's input plus what the benchmark
/// needs to check the output.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub seed: u64,
    pub config: SessionConfig,
    /// Nodes the generator made deviate, with their strategy.
    pub freeriders: Vec<(NodeId, SelfishStrategy)>,
    /// The freeriders that must be convicted: those that stay members
    /// to the end and whose deviation shows every round. The others may
    /// or may not be — one that leaves may go before its monitors
    /// finish, and a `PartialForward` freerider can stay unconvicted
    /// for ten rounds of steady churn (README, "Findings").
    pub must_convict: BTreeSet<NodeId>,
    /// Smoke size: the numbers mean nothing.
    pub quick: bool,
    /// Warm-up repetitions discarded before timing.
    pub warmups: usize,
    /// Exact outputs committed for this (workload, seed), if any.
    pub pinned: Option<Pinned>,
}

/// Outputs pinned to numbers the repository already commits.
#[derive(Clone, Copy, Debug)]
pub struct Pinned {
    pub hashes: u64,
    pub signatures: u64,
    pub verifications: u64,
    pub primes: u64,
    /// Mean bandwidth rounded to two decimals, as `BENCH_protocol.json`
    /// prints it.
    pub bandwidth_kbps_2dp: f64,
}

/// `pool_session_1000` of the committed `BENCH_protocol.json`, which
/// `crypto_pool_1000` at seed 0 reproduces with a fixed pool size.
const POOL_SESSION_1000: Pinned = Pinned {
    hashes: 138_469,
    signatures: 116_983,
    verifications: 144_005,
    primes: 9_000,
    bandwidth_kbps_2dp: 242.41,
};

impl Workload {
    /// Nodes × rounds, the divisor of the per-node-round metrics.
    pub fn node_rounds(&self) -> f64 {
        self.config.nodes as f64 * self.config.rounds as f64
    }

    /// Threads that execute engine work: the pool size, or 1 on the
    /// simulator.
    pub fn workers(&self) -> usize {
        match self.config.driver {
            Driver::Simnet(_) => 1,
            Driver::Threaded(_) | Driver::Tcp(_) => POOL_WORKERS.min(self.config.nodes),
        }
    }

    /// The same session on the channel pool (what `tcp_mesh_16` is
    /// compared with to isolate the socket transport).
    pub fn on_channel_pool(&self) -> SessionConfig {
        let mut sc = self.config.clone();
        sc.driver = channel_pool(self.seed);
        sc
    }

    /// The same session on the simulator (what the traced stage
    /// replays).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        }
    }
}

fn channel_pool(seed: u64) -> Driver {
    Driver::Threaded(ThreadedConfig {
        seed,
        scheduler: Scheduler::Pool(POOL_WORKERS),
        ..ThreadedConfig::default()
    })
}

/// The frozen real-crypto profile of the repository's bench scenarios:
/// RSA-512 signatures, 512-bit homomorphic modulus, 64-bit primes.
fn real_crypto(sc: &mut SessionConfig) {
    sc.pag.crypto = CryptoProfile {
        homomorphic_bits: 512,
        prime_bits: 64,
        rsa_bits: 512,
        real_signatures: true,
    };
    sc.pag.wire.signature = 64; // an RSA-512 signature
}

/// Generates workload `name` from `seed`. `quick` shrinks it to smoke
/// size (seconds in total; the numbers mean nothing).
pub fn generate(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let info = WORKLOADS.iter().find(|w| w.name == name)?;
    let mut w = Workload {
        name: info.name,
        seed,
        config: SessionConfig::honest(0, 0),
        freeriders: Vec::new(),
        must_convict: BTreeSet::new(),
        quick,
        warmups: 1,
        pinned: None,
    };
    match info.name {
        "crypto_pool_1000" => {
            let (nodes, rounds) = if quick { (32, 3) } else { (1000, 3) };
            w.config = SessionConfig::honest(nodes, rounds);
            w.config.pag.stream_rate_kbps = 30.0;
            real_crypto(&mut w.config);
            w.config.driver = channel_pool(seed);
            w.pinned = (seed == 0 && !quick).then_some(POOL_SESSION_1000);
        }
        "stream_pool_1000" => {
            let (nodes, rounds) = if quick { (64, 4) } else { (1000, 10) };
            w.config = SessionConfig::honest(nodes, rounds);
            w.config.driver = channel_pool(seed);
        }
        "tcp_mesh_16" => {
            let (nodes, rounds) = if quick { (8, 12) } else { (16, 150) };
            w.config = SessionConfig::honest(nodes, rounds);
            w.config.driver = Driver::Tcp(TcpConfig {
                seed,
                scheduler: Scheduler::Pool(POOL_WORKERS),
                ..TcpConfig::default()
            });
            // The first sessions of a process pay socket and thread
            // start-up the steady state does not.
            w.warmups = 2;
        }
        "adversarial_sim_200" => {
            let (nodes, rounds, freeriders, churn) = if quick {
                (40, 8, 4, 1)
            } else {
                (200, 10, 10, 2)
            };
            w.config = SessionConfig::honest(nodes, rounds);
            w.config.pag.stream_rate_kbps = 30.0;
            real_crypto(&mut w.config);
            w.config.driver = Driver::Simnet(SimConfig {
                seed,
                ..SimConfig::default()
            });
            // Freeriders: distinct non-source members, strategies in
            // rotation.
            let mut candidates: Vec<u32> = (1..nodes as u32).collect();
            candidates.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xF2EE_21DE));
            w.freeriders = candidates
                .iter()
                .take(freeriders)
                .enumerate()
                .map(|(i, &id)| {
                    (
                        NodeId(id),
                        FREERIDER_STRATEGIES[i % FREERIDER_STRATEGIES.len()],
                    )
                })
                .collect();
            w.config.selfish = w.freeriders.clone();
            w.config.churn = ChurnSchedule::steady(seed, nodes, rounds, churn, churn)
                .events()
                .to_vec();
            w.config.faults = FaultSchedule::split_brain(seed, nodes, 3, 5)
                .events()
                .to_vec();
            let leavers: BTreeSet<NodeId> = w
                .config
                .churn
                .iter()
                .filter(|e| e.kind == ChurnKind::Leave)
                .map(|e| e.node)
                .collect();
            w.must_convict = w
                .freeriders
                .iter()
                .filter(|(id, s)| !leavers.contains(id) && *s != SelfishStrategy::PartialForward)
                .map(|&(id, _)| id)
                .collect();
        }
        _ => unreachable!("every name in WORKLOADS is generated above"),
    }
    Some(w)
}

/// The outputs of one session the benchmark compares and reports:
/// everything that must repeat exactly under a seed, on any driver.
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    pub hashes: u64,
    pub signatures: u64,
    pub verifications: u64,
    pub primes: u64,
    pub bandwidth_kbps_mean: f64,
    /// Σ over nodes of distinct updates delivered.
    pub delivered: u64,
    pub convicted: Vec<NodeId>,
    pub verdicts: usize,
    pub frames_rejected: u64,
}

impl Outputs {
    pub fn of(outcome: &SessionOutcome) -> Outputs {
        Outputs::from_parts(outcome.metrics.values(), &outcome.verdicts, &outcome.report)
    }

    /// From the pieces a finished session leaves behind, however it was
    /// driven: per-node metrics, all verdicts, the traffic report.
    pub fn from_parts<'a>(
        metrics: impl IntoIterator<Item = &'a NodeMetrics>,
        verdicts: &[Verdict],
        report: &TrafficReport,
    ) -> Outputs {
        let mut ops = OpCounters::default();
        let (mut delivered, mut frames_rejected) = (0u64, 0u64);
        for m in metrics {
            ops.merge(&m.ops);
            delivered += m.delivered_count() as u64;
            frames_rejected += m.frames_rejected;
        }
        let mut convicted: Vec<NodeId> = verdicts.iter().map(|v| v.accused).collect();
        convicted.sort();
        convicted.dedup();
        Outputs {
            hashes: ops.hashes,
            signatures: ops.signatures,
            verifications: ops.verifications,
            primes: ops.primes,
            bandwidth_kbps_mean: report.mean_bandwidth_kbps(),
            delivered,
            convicted,
            verdicts: verdicts.len(),
            frames_rejected,
        }
    }
}

/// Checks one session's outputs against what the generator knows must
/// hold. Returns every violated expectation (empty = correct).
pub fn check_outputs(w: &Workload, out: &Outputs) -> Vec<String> {
    let mut errors = Vec::new();
    if out.frames_rejected != 0 {
        errors.push(format!(
            "{} frames rejected on a clean transport",
            out.frames_rejected
        ));
    }
    let convicted: BTreeSet<NodeId> = out.convicted.iter().copied().collect();
    let freeriders: BTreeSet<NodeId> = w.freeriders.iter().map(|&(id, _)| id).collect();
    let honest: Vec<_> = convicted.difference(&freeriders).collect();
    let missed: Vec<_> = w
        .freeriders
        .iter()
        .filter(|(id, _)| w.must_convict.contains(id) && !convicted.contains(id))
        .collect();
    if !honest.is_empty() || !missed.is_empty() {
        errors.push(format!(
            "wrong convictions: honest nodes convicted {honest:?}, freeriders that had to be convicted and were not {missed:?}"
        ));
    }
    if out.delivered == 0 || out.bandwidth_kbps_mean <= 0.0 {
        errors.push("the session moved no data".to_string());
    }
    if let Some(p) = &w.pinned {
        let ops = (out.hashes, out.signatures, out.verifications, out.primes);
        let want = (p.hashes, p.signatures, p.verifications, p.primes);
        if ops != want {
            errors.push(format!(
                "crypto ops (hashes, signatures, verifications, primes) {ops:?} differ from the committed {want:?}"
            ));
        }
        let rounded = (out.bandwidth_kbps_mean * 100.0).round() / 100.0;
        if rounded != p.bandwidth_kbps_2dp {
            errors.push(format!(
                "mean bandwidth {rounded} kbps differs from the committed {}",
                p.bandwidth_kbps_2dp
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_generates_at_both_sizes_and_repeats_under_a_seed() {
        for info in &WORKLOADS {
            for quick in [true, false] {
                let a = generate(info.name, 5, quick).expect("known name");
                let b = generate(info.name, 5, quick).expect("known name");
                assert_eq!(a.name, info.name);
                assert!(a.config.nodes >= 8 && a.config.rounds >= 3);
                assert_eq!(a.config.selfish, b.config.selfish);
                assert_eq!(a.config.churn, b.config.churn);
                assert_eq!(
                    format!("{:?}", a.config.faults),
                    format!("{:?}", b.config.faults)
                );
                assert!(info.why.len() <= 200 && !info.why.contains('\n'));
            }
        }
        assert!(generate("no_such_workload", 0, false).is_none());
    }

    #[test]
    fn the_seed_moves_the_adversarial_inputs() {
        let a = generate("adversarial_sim_200", 0, false).unwrap();
        let b = generate("adversarial_sim_200", 1, false).unwrap();
        assert_eq!(a.freeriders.len(), 10);
        assert_ne!(a.freeriders, b.freeriders);
        assert_ne!(a.config.churn, b.config.churn);
        assert!(a
            .freeriders
            .iter()
            .all(|&(id, s)| id != NodeId(0) && s != SelfishStrategy::Honest));
        assert!(a.must_convict.len() <= 10);
        assert_eq!(a.workers(), 1);
    }

    #[test]
    fn only_seed_zero_at_full_size_is_pinned() {
        assert!(generate("crypto_pool_1000", 0, false)
            .unwrap()
            .pinned
            .is_some());
        assert!(generate("crypto_pool_1000", 1, false)
            .unwrap()
            .pinned
            .is_none());
        assert!(generate("crypto_pool_1000", 0, true)
            .unwrap()
            .pinned
            .is_none());
    }

    fn clean_outputs() -> Outputs {
        Outputs {
            hashes: 1,
            signatures: 1,
            verifications: 1,
            primes: 1,
            bandwidth_kbps_mean: 10.0,
            delivered: 5,
            convicted: Vec::new(),
            verdicts: 0,
            frames_rejected: 0,
        }
    }

    #[test]
    fn honest_workloads_accept_only_clean_runs() {
        let w = generate("stream_pool_1000", 0, true).unwrap();
        assert!(check_outputs(&w, &clean_outputs()).is_empty());
        let mut convicted = clean_outputs();
        convicted.convicted = vec![NodeId(3)];
        assert_eq!(check_outputs(&w, &convicted).len(), 1);
        let mut rejected = clean_outputs();
        rejected.frames_rejected = 2;
        assert_eq!(check_outputs(&w, &rejected).len(), 1);
        let mut idle = clean_outputs();
        idle.delivered = 0;
        assert_eq!(check_outputs(&w, &idle).len(), 1);
    }

    #[test]
    fn adversarial_check_wants_the_sure_freeriders_and_no_honest_node() {
        let w = generate("adversarial_sim_200", 0, false).unwrap();
        assert!(w.freeriders.iter().all(|(id, s)| {
            *s != SelfishStrategy::PartialForward || !w.must_convict.contains(id)
        }));
        let mut out = clean_outputs();
        out.convicted = w.must_convict.iter().copied().collect();
        assert!(check_outputs(&w, &out).is_empty());
        // A freerider outside the sure set may be convicted too.
        let (optional, _) = w
            .freeriders
            .iter()
            .find(|(id, _)| !w.must_convict.contains(id))
            .expect("the rotation includes PartialForward");
        let mut with_optional = out.clone();
        with_optional.convicted.push(*optional);
        assert!(check_outputs(&w, &with_optional).is_empty());
        // An honest node convicted is wrong.
        let freeriders: BTreeSet<NodeId> = w.freeriders.iter().map(|&(id, _)| id).collect();
        let honest = (1..200)
            .map(NodeId)
            .find(|id| !freeriders.contains(id))
            .unwrap();
        let mut bad = out.clone();
        bad.convicted.push(honest);
        assert_eq!(check_outputs(&w, &bad).len(), 1);
        // So is a sure freerider that got away.
        let mut missed = out.clone();
        missed.convicted.pop().expect("some freerider stays");
        assert_eq!(check_outputs(&w, &missed).len(), 1);
    }

    #[test]
    fn pinned_numbers_are_compared_exactly() {
        let w = generate("crypto_pool_1000", 0, false).unwrap();
        let mut out = clean_outputs();
        (out.hashes, out.signatures, out.verifications, out.primes) =
            (138_469, 116_983, 144_005, 9_000);
        out.bandwidth_kbps_mean = 242.4149;
        assert!(check_outputs(&w, &out).is_empty());
        out.signatures += 1;
        out.bandwidth_kbps_mean = 242.42;
        assert_eq!(check_outputs(&w, &out).len(), 2);
    }
}
