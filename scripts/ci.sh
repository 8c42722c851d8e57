#!/usr/bin/env bash
# Tier-1 CI gate (documented in ROADMAP.md and DESIGN.md §1):
#
#   1. release build of the whole workspace (warms the cache)
#   2. every first-party crate builds warning-free (each crate is
#      recompiled alone against the warm cache and any warning fails
#      the gate)
#   3. clippy over the whole workspace, warnings denied (DESIGN.md §15)
#   4. source lint: no `unwrap()` in pag-runtime / pag-host sources,
#      and `expect(` stays at or below the audited baseline — new
#      panic sites need an explicit baseline bump in this script
#   5. full test suite (unit, integration, doctests, codec properties,
#      driver equivalence)
#   6. model checker, run explicitly: exhaustive interleaving
#      exploration of the canonical 4-node / 2-round freerider +
#      crash-restart topology (state count pinned), the reintroduced
#      early-ledger-credit race caught with a replayable minimized
#      counterexample, model ↔ simnet conviction cross-validation,
#      then the 5-node / 3-round exhaustive run in release
#      (`--ignored`, like the 1000-node smoke; DESIGN.md §15)
#   7. churned driver-equivalence, run explicitly: a session with joins
#      and leaves mid-session must produce identical verdicts,
#      deliveries and traffic on all three drivers (DESIGN.md §9)
#   8. TCP transport, run explicitly: socket-driver equivalence with
#      the simulator, and hostile bytes on live socket links rejected
#      with metrics — including rejected-frame floods cut off by the
#      per-connection rate limit, and realtime/lockstep link kills
#      that self-heal or drain without wedging — instead of panicking
#      node threads (DESIGN.md §10, §12)
#   9. worker-pool scheduler, run explicitly: pooled-vs-simnet
#      equivalence for honest/freerider/no-ack/churned/crashed
#      sessions, pool-size invariance and starvation-freedom
#      properties, then the 1000-node pooled lockstep smoke in release
#      mode (`--ignored`: a thousand engines belong in an optimized
#      build; DESIGN.md §11)
#  10. pipelined rounds, run explicitly: the windowed lockstep
#      schedule must be observably identical to the classic one —
#      verdicts, deliveries, convictions and crypto ops pinned across
#      drivers at windows 0/1/2, and window 0 bit-identical to the
#      frozen unpipelined goldens (DESIGN.md §16)
#  11. fault scenarios, run explicitly: severed/partitioned and
#      crash-restart sessions bit-identical on all four drivers (an
#      honest restart is never convicted; a healed partition converges
#      to the unfaulted verdict set), plus the fault-schedule property
#      suite (seed determinism, sever-then-heal, corruption counted
#      not fatal; DESIGN.md §12)
#  12. pag-host suite, run explicitly: two concurrent authenticated
#      TCP sessions on one host bit-identical to standalone runs, the
#      kill-and-restart crash recovery from the on-disk snapshot
#      store, snapshot-store hardening (corrupt/truncated/partial
#      files rejected with typed errors), and the hostile-handshake
#      rejection path on the runtime side (DESIGN.md §13)
#  13. observability suite, run explicitly: the pag-obs unit tests
#      (rings, histograms, logger rate limiting, Prometheus golden
#      renders), the traced-vs-untraced bit-identity test on all four
#      driver configurations, and the sink integration tests (ring
#      overflow counted not fatal, JSONL lines parseable, watch
#      carrying histogram summaries; DESIGN.md §14)
#  14. bench_snapshot --quick smoke run (honest static, churned, TCP,
#      pooled, traced, faulted, hosted and model-check scenarios, real
#      RSA-512 crypto; writes to a scratch path, never over the
#      committed snapshot)
#  15. repo benchmark smoke run: builds the standalone `benchmark/`
#      package against the workspace crates and runs every workload
#      and both stages at --quick size (8–64 nodes), so a change that
#      breaks the API surface listed in benchmark/README.md, or an
#      output check, fails here before it reaches the benchmark
#      pipeline (reports go to a scratch directory)
#
# Run from anywhere: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== [1/15] workspace release build =="
cargo build --release --workspace

echo "== [2/15] per-crate builds, deny warnings =="
# Force only the gated crates themselves to recompile (their
# dependencies stay cached from step 1 — no RUSTFLAGS flip, no double
# build) and fail on any warning the fresh compiles print.
first_party=(
    pag-bignum pag-crypto pag-membership pag-simnet pag-core pag-obs
    pag-runtime pag-host pag-streaming pag-baselines pag-analysis
    pag-bench pag-model
)
touch crates/*/src/lib.rs
for crate in "${first_party[@]}"; do
    crate_out=$(cargo build --release -p "$crate" 2>&1)
    echo "$crate_out"
    if grep -E "^warning" <<<"$crate_out" >/dev/null; then
        echo "$crate emitted warnings; tier-1 gate denies them" >&2
        exit 1
    fi
done

echo "== [3/15] clippy, deny warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== [4/15] panic-site source lint (pag-runtime, pag-host) =="
# unwrap() carries no diagnostic; the gated crates use expect() with a
# message (or structured errors) instead. expect() is allowed but
# audited: the count may only go down without an explicit bump here.
expect_baseline=29
unwraps=$(grep -rn '\.unwrap()' crates/runtime/src crates/host/src || true)
if [ -n "$unwraps" ]; then
    echo "unwrap() is banned in pag-runtime/pag-host sources:" >&2
    echo "$unwraps" >&2
    exit 1
fi
expects=$(grep -rc 'expect(' crates/runtime/src crates/host/src | awk -F: '{s+=$NF} END {print s}')
if [ "$expects" -gt "$expect_baseline" ]; then
    echo "expect( count grew: $expects > baseline $expect_baseline" >&2
    echo "justify the new panic site and bump the baseline in scripts/ci.sh" >&2
    exit 1
fi

echo "== [5/15] test suite =="
cargo test -q --workspace

echo "== [6/15] model checker: exhaustive exploration + counterexample replay + cross-validation =="
cargo test -q -p pag-model
cargo test -q -p pag-runtime --test model_replay
cargo test --release -q -p pag-model --test exhaustive -- --ignored

echo "== [7/15] churned driver equivalence =="
cargo test -q -p pag-runtime --test driver_equivalence churned

echo "== [8/15] TCP driver equivalence + hostile-input rejection =="
cargo test -q -p pag-runtime --test driver_equivalence tcp
cargo test -q -p pag-runtime --test tcp_transport

echo "== [9/15] worker-pool scheduler: equivalence, properties, 1000-node smoke =="
cargo test -q -p pag-runtime --test driver_equivalence pool
cargo test -q -p pag-runtime --test pool_scheduler
cargo test --release -q -p pag-runtime --test pool_scheduler -- --ignored

echo "== [10/15] pipelined rounds: windowed equivalence + w=0 bit-identity goldens =="
cargo test -q -p pag-runtime --test pipelined

echo "== [11/15] fault scenarios: four-driver equivalence + schedule properties =="
cargo test -q -p pag-runtime --test driver_equivalence -- severed_links partition_heal crash_restart
cargo test -q -p pag-runtime --test faults

echo "== [12/15] pag-host: multi-session equivalence, crash recovery, store hardening =="
cargo test -q -p pag-host
cargo test -q -p pag-runtime --test tcp_transport hostile_handshakes

echo "== [13/15] observability: recorder units, traced bit-identity, sinks =="
cargo test -q -p pag-obs
cargo test -q -p pag-runtime --test driver_equivalence traced
cargo test -q -p pag-runtime --test observability

echo "== [14/15] bench snapshot smoke (--quick) =="
out="${TMPDIR:-/tmp}/pag_bench_quick.json"
cargo run --release -p pag-bench --bin bench_snapshot -- "$out" --quick
rm -f "$out"

echo "== [15/15] repo benchmark smoke (--quick) =="
bench_out="$(mktemp -d "${TMPDIR:-/tmp}/pag_benchmark_quick.XXXXXX")"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --quick --out "$bench_out"
rm -rf "$bench_out"

echo "CI OK"
