//! The benchmark's metric tables: the one place a metric's name, unit,
//! direction and regression bound are written down. `BENCHMARK.json`
//! is generated from these (`pag-benchmark manifest`) and a test holds
//! the committed file to them.

use crate::json::Json;
use crate::measure::Summary;
use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Repeats bit for bit under a seed, whatever the machine does.
    pub exact: bool,
}

/// Seconds one measuring run lasts under the driver: 3 to 7 timed
/// sessions per workload, and all the driver's runs still fit its cap.
pub const RUN_SECONDS: u64 = 16;

// Bounds are at least three times the spread (interquartile range over
// ten seeds, as a share of the median) seen on the 2-CPU measuring box
// in a quiet period: a timing there moves 2-6% from run to run, the TCP
// mesh's peak memory 5-8%, and under `adversarial_sim_200` bandwidth and
// deliveries move 1.4% and 2.6% from seed to seed. Timings and memory
// take the largest bound allowed, because the box also has slow episodes
// in which ten runs spread by 18-33%. The issue asked for 10% and 0.1%;
// this box cannot resolve that (README, "Bounds").
pub const END_TO_END: [EndToEnd; 6] = [
    // wall clock of one warm try_run_session
    EndToEnd {
        name: "session_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    // process user+sys CPU over the session / (nodes x rounds): a node's budget against its 1 s round
    EndToEnd {
        name: "cpu_ms_per_node_round",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    // peak resident set (VmHWM) reached during one session, caches held from earlier sessions included
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    // TrafficReport::mean_bandwidth_kbps, the paper's headline cost
    EndToEnd {
        name: "bandwidth_kbps_mean",
        unit: "kbps",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    // distinct updates delivered, summed over nodes / (nodes x rounds)
    EndToEnd {
        name: "delivered_per_node_round",
        unit: "count",
        better: Better::Higher,
        bound: 0.08,
        exact: true,
    },
    // cold Membership + SharedContext::with_roster (key generation) + PagEngine::new x roster
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// A metric of one layer (layer = module of the program). No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 63] = [
    // pag-bignum: unit costs of the kernels every crypto cost rests on.
    lower("bignum.mont_mul_4limb_ns", "ns"),
    lower("bignum.mont_mul_8limb_ns", "ns"),
    lower("bignum.pow_u64_8limb_us", "us"),
    lower("bignum.gen_prime_64_us", "us"),
    lower("bignum.gen_prime_256_ms", "ms"),
    // pag-crypto: unit costs under the real and the simulation profile.
    lower("crypto.sign_us", "us"),
    lower("crypto.verify_us", "us"),
    lower("crypto.verify_batch64_us_per_sig", "us"),
    lower("crypto.hash_us", "us"),
    lower("crypto.residue_us", "us"),
    lower("crypto.keygen_ms", "ms"),
    lower("crypto.sim_sign_us", "us"),
    lower("crypto.sim_verify_us", "us"),
    lower("crypto.sim_hash_us", "us"),
    lower("crypto.sim_prime_us", "us"),
    lower("crypto.sha256_ns_per_byte", "ns"),
    // The message length the signing costs above are taken at: the
    // workload's mean signed length, from the replay.
    lower("crypto.signed_len_B", "B"),
    // pag-crypto: the workload's exact op counts and what they should
    // cost at the unit prices above.
    lower("crypto.signatures", "count"),
    lower("crypto.verifications", "count"),
    lower("crypto.hashes", "count"),
    lower("crypto.primes", "count"),
    lower("crypto.sign_est_s", "s"),
    lower("crypto.verify_est_s", "s"),
    lower("crypto.hash_est_s", "s"),
    lower("crypto.prime_est_s", "s"),
    lower("crypto.est_share", "ratio"),
    // pag-membership.
    lower("membership.topology_ms", "ms"),
    lower("membership.epochs", "count"),
    // pag-core::engine, from the replay's spans.
    lower("core.engine.calls", "count"),
    lower("core.engine.busy_s", "s"),
    lower("core.engine.round_start_s", "s"),
    lower("core.engine.deliver_s", "s"),
    lower("core.engine.timer_s", "s"),
    lower("core.engine.feed_s", "s"),
    lower("core.engine.deliver_p50_us", "us"),
    lower("core.engine.deliver_p99_us", "us"),
    lower("core.engine.self_s", "s"),
    lower("core.engine.verdicts", "count"),
    higher("core.engine.on_time_ratio", "ratio"),
    // pag-core::wire, from the replay's spans.
    lower("core.wire.frames", "count"),
    lower("core.wire.bytes", "B"),
    lower("core.wire.encode_s", "s"),
    lower("core.wire.decode_s", "s"),
    lower("core.wire.encode_ns_per_byte", "ns"),
    lower("core.wire.decode_ns_per_byte", "ns"),
    // pag-simnet (+ the adapter plumbing around the spans).
    lower("simnet.self_s", "s"),
    lower("simnet.events", "count"),
    // pag-runtime: what the driver adds to the replayed engine + codec.
    lower("runtime.cpu_s", "s"),
    lower("runtime.overhead_s", "s"),
    lower("runtime.idle_s", "s"),
    higher("runtime.parallel_efficiency", "ratio"),
    lower("runtime.tcp_overhead_s", "s"),
    lower("runtime.frames_rejected", "count"),
    lower("runtime.setup_keyring_s", "s"),
    lower("runtime.setup_engines_s", "s"),
    lower("runtime.barrier_stall_s", "s"),
    lower("runtime.barrier_stall_p99_us", "us"),
    lower("runtime.round_wall_p50_us", "us"),
    // pag-obs and the benchmark's own recorder.
    lower("obs.events_recorded", "count"),
    lower("obs.events_dropped", "count"),
    lower("obs.trace_overhead_pct", "%"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.spans", "count"),
];

/// One reported metric: the headline value is the median.
#[derive(Clone, Debug)]
pub struct Reported {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

impl Reported {
    pub fn samples(name: &'static str, unit: &'static str, samples: &[f64]) -> Reported {
        Reported {
            name,
            unit,
            summary: Summary::of(samples),
        }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Reported {
        Reported::samples(name, unit, &[value])
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "set-up time has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
