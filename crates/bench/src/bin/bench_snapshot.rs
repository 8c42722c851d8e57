//! Perf-trajectory snapshot: runs the frozen PAG scenarios — the
//! static 20-node / 5-round session, the churned 50-node
//! `churn_steady_50` session, the same static session on the TCP
//! socket driver (`tcp_session_20`), the 1000-node worker-pool
//! session (`pool_session_1000`), the pooled session with
//! the flight recorder on (`traced_session`), the fault-injected
//! `faulted_session` (split-brain partition plus a crash-recovery
//! rejoin), the hosted pair `host_multi_session` (two concurrent
//! authenticated 10-node TCP sessions multiplexed on one `pag-host`),
//! and the `model_check` exploration (exhaustive interleavings of the
//! canonical 4-node / 2-round freerider + crash-restart topology,
//! recording explored-state count and wall time; DESIGN.md §15)
//! — and writes wall-clock plus crypto-operation counts as JSON to
//! `BENCH_protocol.json` (repo root, committed), so successive PRs
//! have a comparable record of protocol-level cost, with and without
//! membership churn, of the socket transport's overhead over the
//! simulator, of the pooled scheduler's cost at gossip scale, of the
//! fault plan's per-frame checks plus recovery machinery, and of the
//! host layer's session-multiplexing overhead.
//!
//! The scenarios are deliberately frozen — same node counts, rounds,
//! churn seed, stream rate and crypto profile — and each wall-clock
//! figure is the best of three runs to damp scheduler noise (the
//! 1000-node pool entry is a single run; at ~25 s a run, best-of-three
//! buys noise reduction nobody needs from a trend line). Run with:
//!
//! ```text
//! cargo run --release -p pag-bench --bin bench_snapshot
//! ```
//!
//! Pass an output path to write elsewhere (e.g. for comparisons).
//! `--quick` shrinks every scenario (8 nodes / 3 rounds / 1 run; the
//! pool entry runs at 32 nodes) for CI smoke runs — never commit a
//! quick snapshot over the frozen one.

use std::time::Instant;

use pag_bench::{
    churn_steady_session, faulted_session, host_session, pooled_session, quick_mode,
    real_crypto_session, tcp_session, traced_session,
};
use pag_host::Host;
use pag_membership::NodeId;
use pag_model::{explore, Budget, PagMachine, Scenario};
use pag_runtime::{run_session, ChurnKind, SessionConfig, SessionOutcome};

const NODES: usize = 20;
const ROUNDS: u64 = 5;
const RUNS: usize = 3;
/// The churned scenario: 50 initial nodes, 2 joins + 2 leaves per round.
const CHURN_NODES: usize = 50;
const CHURN_ROUNDS: u64 = 6;
const CHURN_RATE: usize = 2;
/// The worker-pool scenario: gossip scale on a fixed thread pool
/// (DESIGN.md §11).
const POOL_NODES: usize = 1000;
const POOL_ROUNDS: u64 = 3;
/// The hosted scenario: two concurrent authenticated TCP sessions on
/// one `pag-host` (ISSUE 7 / DESIGN.md §13). Frozen protocol session
/// ids — they key the rosters and the snapshot store directories.
const HOST_NODES: usize = 10;
const HOST_ROUNDS: u64 = 5;
const HOST_SESSION_A: u64 = 71;
const HOST_SESSION_B: u64 = 72;

/// Best-of-`runs` wall clock plus the last outcome of `make_session`.
fn measure(runs: usize, make_session: impl Fn() -> SessionConfig) -> (f64, SessionOutcome) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        let outcome = run_session(make_session());
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(outcome);
    }
    (best_ms, last.expect("at least one run"))
}

fn main() {
    let quick = quick_mode();
    let (nodes, rounds, runs) = if quick { (8, 3, 1) } else { (NODES, ROUNDS, RUNS) };
    let (churn_nodes, churn_rounds, churn_rate) = if quick {
        (8, 3, 1)
    } else {
        (CHURN_NODES, CHURN_ROUNDS, CHURN_RATE)
    };
    let (pool_nodes, pool_rounds) = if quick { (32, 3) } else { (POOL_NODES, POOL_ROUNDS) };
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a != "--quick")
        .unwrap_or_else(|| {
            if quick {
                "BENCH_quick.json".to_string()
            } else {
                "BENCH_protocol.json".to_string()
            }
        });

    let (best_ms, outcome) = measure(runs, || real_crypto_session(nodes, rounds));
    let ops = outcome.total_ops();
    assert!(
        outcome.verdicts.is_empty(),
        "snapshot scenario is honest; verdicts indicate a regression: {:?}",
        outcome.verdicts
    );

    let (churn_ms, churned) = measure(runs, || {
        churn_steady_session(churn_nodes, churn_rounds, churn_rate, churn_rate)
    });
    let churn_ops = churned.total_ops();
    assert!(
        churned.verdicts.is_empty(),
        "clean churn convicts nobody; verdicts indicate a regression: {:?}",
        churned.verdicts
    );
    let churn_sc = churn_steady_session(churn_nodes, churn_rounds, churn_rate, churn_rate);
    let joins = churn_sc
        .churn
        .iter()
        .filter(|e| e.kind == ChurnKind::Join)
        .count();
    let leaves = churn_sc.churn.len() - joins;

    // The static scenario again, but over real loopback sockets
    // (lockstep TCP driver): driver equivalence means the crypto ops
    // must match the simulator run bit for bit — assert it — so the
    // wall-clock delta is pure transport overhead.
    let (tcp_ms, tcp_outcome) = measure(runs, || tcp_session(nodes, rounds));
    assert!(
        tcp_outcome.verdicts.is_empty(),
        "honest TCP run convicted; regression: {:?}",
        tcp_outcome.verdicts
    );
    assert_eq!(
        tcp_outcome.total_ops(),
        ops,
        "TCP driver diverged from the simulator on crypto ops"
    );
    let tcp_rejected: u64 = tcp_outcome
        .metrics
        .values()
        .map(|m| m.frames_rejected)
        .sum();
    assert_eq!(tcp_rejected, 0, "clean session rejected frames");

    // The pooled scheduler, twice. First at the static scenario's own
    // size: its crypto ops must be bit-identical to the static simnet
    // run above (driver equivalence — assert it). Then at gossip
    // scale, the session shape that motivates the pool: one run, since
    // the 1000-node figure is a trend line, not a microbenchmark.
    let (_, pooled_small) = measure(1, || pooled_session(nodes, rounds));
    assert_eq!(
        pooled_small.total_ops(),
        ops,
        "pooled scheduler diverged from the simnet run on crypto ops"
    );
    let (pool_ms, pooled) = measure(1, || pooled_session(pool_nodes, pool_rounds));
    let pool_ops = pooled.total_ops();
    assert!(
        pooled.verdicts.is_empty(),
        "honest pooled run convicted; regression: {:?}",
        pooled.verdicts
    );
    let pool_rejected: u64 = pooled.metrics.values().map(|m| m.frames_rejected).sum();
    assert_eq!(pool_rejected, 0, "clean pooled session rejected frames");

    // A second, *warm* pooled run: the cold `pool_ms` above paid the
    // 1000-node roster keygen that now sits in the keyring cache. The
    // traced run below is warm too, so this is the like-for-like
    // comparator for its overhead figure — `pool_ms` itself stays cold
    // for comparability with the frozen history of this entry.
    let (pool_warm_ms, _) = measure(1, || pooled_session(pool_nodes, pool_rounds));

    // The pooled gossip-scale session once more with the flight
    // recorder on (`TraceConfig::on()`, default rings, no JSONL sink):
    // tracing must observe without perturbing — crypto ops bit-identical
    // to the untraced run, assert it — so the wall-clock delta is the
    // recorder's whole cost (the PR 8 acceptance bar is < 5%). The
    // comparator is the warm untraced `pool_warm_ms` — comparing
    // against the cold `pool_ms` would credit the recorder with the
    // keyring cache's savings.
    let (traced_ms, traced) = measure(1, || traced_session(pool_nodes, pool_rounds));
    assert_eq!(
        traced.total_ops(),
        pool_ops,
        "flight recorder perturbed the pooled session's crypto ops"
    );
    let trace = traced
        .trace
        .as_ref()
        .expect("traced scenario produces a trace summary");
    assert!(trace.recorded > 0, "traced scenario recorded no events");
    // Ring event totals vary with scheduler interleaving (a pool slot
    // may batch several frames per enqueue), so the JSON reports the
    // deterministic histogram figure instead: every node's every round
    // span, which must be exactly nodes × rounds.
    let trace_spans = trace.hists.round_wall.count;
    assert_eq!(
        trace_spans,
        pool_nodes as u64 * pool_rounds,
        "round spans missing from the trace histograms"
    );
    let trace_overhead_pct = (traced_ms - pool_warm_ms) / pool_warm_ms * 100.0;

    // The fault-injected scenario: a transient split-brain partition
    // plus one crash-recovery rejoin, on the simulator. Honest by
    // construction — verdicts indicate a regression — and the restarted
    // node must actually have recovered (snapshot round-trip plus
    // membership re-announce), not idled.
    // Needs at least 5 rounds so the round-4 restart actually happens,
    // quick mode included.
    let fault_rounds = rounds.max(5);
    let (fault_ms, faulted) = measure(runs, || faulted_session(nodes, fault_rounds));
    let fault_ops = faulted.total_ops();
    assert!(
        faulted.verdicts.is_empty(),
        "faulted-but-honest run convicted; regression: {:?}",
        faulted.verdicts
    );
    let restarted = NodeId(nodes as u32 - 1);
    assert_eq!(
        faulted.metrics[&restarted].recoveries, 1,
        "the crash-restarted node never went through recovery"
    );

    // The hosted pair: two concurrent authenticated TCP sessions
    // multiplexed on one `pag-host` (each mesh link established by the
    // signed handshake, snapshot vault and status watch wired in). The
    // hooks must be observably free: crypto ops bit-identical to the
    // same two sessions run standalone — assert it — so the wall-clock
    // figure is pure host/concurrency overhead.
    let (host_nodes, host_rounds) = if quick { (8, 3) } else { (HOST_NODES, HOST_ROUNDS) };
    let alone_a = run_session(host_session(HOST_SESSION_A, host_nodes, host_rounds));
    let alone_b = run_session(host_session(HOST_SESSION_B, host_nodes, host_rounds));
    let host_dir = std::env::temp_dir().join(format!("pag-bench-host-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&host_dir);
    let host = Host::open(&host_dir).expect("host scratch directory");
    let host_start = Instant::now();
    let ha = host
        .spawn(host_session(HOST_SESSION_A, host_nodes, host_rounds))
        .expect("spawn hosted session a");
    let hb = host
        .spawn(host_session(HOST_SESSION_B, host_nodes, host_rounds))
        .expect("spawn hosted session b");
    let hosted_a = host.join(ha).expect("known id").expect("hosted session a");
    let hosted_b = host.join(hb).expect("known id").expect("hosted session b");
    let host_ms = host_start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&host_dir);
    assert!(
        hosted_a.verdicts.is_empty() && hosted_b.verdicts.is_empty(),
        "honest hosted sessions convicted; regression"
    );
    assert_eq!(
        hosted_a.total_ops(),
        alone_a.total_ops(),
        "hosted session A diverged from its standalone run on crypto ops"
    );
    assert_eq!(
        hosted_b.total_ops(),
        alone_b.total_ops(),
        "hosted session B diverged from its standalone run on crypto ops"
    );
    let mut host_ops = hosted_a.total_ops();
    host_ops.merge(&hosted_b.total_ops());

    // The model checker over the canonical 4-node / 2-round topology
    // (one freerider, one crash-restart): exhaustive interleaving
    // exploration with canonical-state dedup (DESIGN.md §15). The
    // explored-state count is deterministic — it doubles as a drift
    // detector next to the exact pin in pag-model's exhaustive suite —
    // and the wall clock tracks the per-state cost of engine cloning
    // plus fingerprinting.
    let model_start = Instant::now();
    let model_report = explore(&PagMachine::new(Scenario::canonical()), Budget::default());
    let model_ms = model_start.elapsed().as_secs_f64() * 1e3;
    assert!(
        model_report.exhausted && model_report.violation.is_none(),
        "canonical model-check regressed: {:?}",
        model_report.violation
    );

    let json = format!(
        r#"{{
  "schema": 11,
  "scenario": {{
    "nodes": {nodes},
    "rounds": {rounds},
    "stream_rate_kbps": 30.0,
    "homomorphic_bits": 512,
    "prime_bits": 64,
    "rsa_bits": 512,
    "real_signatures": true
  }},
  "wall_clock_ms": {best_ms:.2},
  "crypto_ops": {{
    "hashes": {hashes},
    "signatures": {signatures},
    "verifications": {verifications},
    "primes": {primes}
  }},
  "derived": {{
    "hashes_per_node_per_round": {hpnr:.2},
    "signatures_per_node_per_round": {spnr:.2},
    "mean_bandwidth_kbps": {bw:.2},
    "exchanges_completed": {exchanges}
  }},
  "churn_steady_50": {{
    "scenario": {{
      "initial_nodes": {churn_nodes},
      "rounds": {churn_rounds},
      "joins": {joins},
      "leaves": {leaves},
      "churn_seed": 50
    }},
    "wall_clock_ms": {churn_ms:.2},
    "crypto_ops": {{
      "hashes": {c_hashes},
      "signatures": {c_signatures},
      "verifications": {c_verifications},
      "primes": {c_primes}
    }},
    "derived": {{
      "mean_bandwidth_kbps": {c_bw:.2},
      "exchanges_completed": {c_exchanges}
    }}
  }},
  "tcp_session_20": {{
    "scenario": {{
      "nodes": {nodes},
      "rounds": {rounds},
      "driver": "tcp-lockstep",
      "crypto_ops_identical_to_simnet": true
    }},
    "wall_clock_ms": {tcp_ms:.2},
    "derived": {{
      "mean_bandwidth_kbps": {t_bw:.2}
    }}
  }},
  "faulted_session": {{
    "scenario": {{
      "nodes": {nodes},
      "rounds": {fault_rounds},
      "partition": "split-brain rounds [2,4), seed 60",
      "crash_restart": "node {restarted_id} crashes at 2, restarts at 4",
      "convicts_nobody": true
    }},
    "wall_clock_ms": {fault_ms:.2},
    "crypto_ops": {{
      "hashes": {f_hashes},
      "signatures": {f_signatures},
      "verifications": {f_verifications},
      "primes": {f_primes}
    }},
    "derived": {{
      "mean_bandwidth_kbps": {f_bw:.2},
      "exchanges_completed": {f_exchanges},
      "recoveries": 1
    }}
  }},
  "pool_session_1000": {{
    "scenario": {{
      "nodes": {pool_nodes},
      "rounds": {pool_rounds},
      "driver": "threaded-lockstep",
      "scheduler": "pool-auto",
      "crypto_ops_identical_to_simnet": true
    }},
    "wall_clock_ms": {pool_ms:.2},
    "crypto_ops": {{
      "hashes": {p_hashes},
      "signatures": {p_signatures},
      "verifications": {p_verifications},
      "primes": {p_primes}
    }},
    "derived": {{
      "mean_bandwidth_kbps": {p_bw:.2},
      "exchanges_completed": {p_exchanges}
    }}
  }},
  "traced_session": {{
    "scenario": {{
      "nodes": {pool_nodes},
      "rounds": {pool_rounds},
      "driver": "threaded-lockstep",
      "scheduler": "pool-auto",
      "trace": "pag-obs on: default rings, histograms, no jsonl sink",
      "crypto_ops_identical_to_untraced": true
    }},
    "wall_clock_ms": {traced_ms:.2},
    "derived": {{
      "untraced_wall_clock_ms": {pool_warm_ms:.2},
      "overhead_pct": {trace_overhead_pct:.2},
      "round_spans_recorded": {tr_spans}
    }}
  }},
  "model_check": {{
    "scenario": {{
      "nodes": 4,
      "rounds": 2,
      "freerider": 2,
      "crash_restart": "node 3 crashes at 1, restarts at 3",
      "properties": "no-honest-conviction, ledger >= 0, no double retirement, quiescence reachable, freerider convicted at termination"
    }},
    "wall_clock_ms": {m_ms:.2},
    "explored_states": {m_states},
    "transitions": {m_transitions},
    "terminal_states": {m_terminals},
    "max_depth": {m_depth}
  }},
  "host_multi_session": {{
    "scenario": {{
      "sessions": 2,
      "nodes_per_session": {host_nodes},
      "rounds": {host_rounds},
      "driver": "tcp-lockstep-hosted",
      "authenticated_handshake": true,
      "crypto_ops_identical_to_standalone": true
    }},
    "wall_clock_ms": {host_ms:.2},
    "crypto_ops": {{
      "hashes": {h_hashes},
      "signatures": {h_signatures},
      "verifications": {h_verifications},
      "primes": {h_primes}
    }},
    "derived": {{
      "mean_bandwidth_kbps": {h_bw:.2},
      "exchanges_completed": {h_exchanges}
    }}
  }}
}}
"#,
        hashes = ops.hashes,
        signatures = ops.signatures,
        verifications = ops.verifications,
        primes = ops.primes,
        hpnr = outcome.hashes_per_node_per_second(),
        spnr = outcome.signatures_per_node_per_second(),
        bw = outcome.report.mean_bandwidth_kbps(),
        exchanges = outcome
            .metrics
            .values()
            .map(|m| m.exchanges_completed)
            .sum::<u64>(),
        c_hashes = churn_ops.hashes,
        c_signatures = churn_ops.signatures,
        c_verifications = churn_ops.verifications,
        c_primes = churn_ops.primes,
        c_bw = churned.report.mean_bandwidth_kbps(),
        c_exchanges = churned
            .metrics
            .values()
            .map(|m| m.exchanges_completed)
            .sum::<u64>(),
        // Transport overhead vs the simulator is tcp/static wall_clock_ms;
        // not emitted as a field so everything but wall clocks stays
        // bit-deterministic across runs.
        t_bw = tcp_outcome.report.mean_bandwidth_kbps(),
        restarted_id = restarted.0,
        f_hashes = fault_ops.hashes,
        f_signatures = fault_ops.signatures,
        f_verifications = fault_ops.verifications,
        f_primes = fault_ops.primes,
        f_bw = faulted.report.mean_bandwidth_kbps(),
        f_exchanges = faulted
            .metrics
            .values()
            .map(|m| m.exchanges_completed)
            .sum::<u64>(),
        p_hashes = pool_ops.hashes,
        p_signatures = pool_ops.signatures,
        p_verifications = pool_ops.verifications,
        p_primes = pool_ops.primes,
        p_bw = pooled.report.mean_bandwidth_kbps(),
        p_exchanges = pooled
            .metrics
            .values()
            .map(|m| m.exchanges_completed)
            .sum::<u64>(),
        tr_spans = trace_spans,
        m_ms = model_ms,
        m_states = model_report.states,
        m_transitions = model_report.transitions,
        m_terminals = model_report.terminals,
        m_depth = model_report.depth,
        h_hashes = host_ops.hashes,
        h_signatures = host_ops.signatures,
        h_verifications = host_ops.verifications,
        h_primes = host_ops.primes,
        // Mean over the two hosted sessions (same node count each).
        h_bw = (hosted_a.report.mean_bandwidth_kbps()
            + hosted_b.report.mean_bandwidth_kbps())
            / 2.0,
        h_exchanges = hosted_a
            .metrics
            .values()
            .chain(hosted_b.metrics.values())
            .map(|m| m.exchanges_completed)
            .sum::<u64>(),
    );

    std::fs::write(&out_path, &json).expect("write snapshot");
    println!("wrote {out_path}:\n{json}");
}
