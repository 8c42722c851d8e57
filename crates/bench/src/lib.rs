//! Shared helpers for the experiment harnesses.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (see DESIGN.md's per-experiment index):
//!
//! | target | paper artefact |
//! |---|---|
//! | `fig7_bandwidth_cdf` | Fig. 7 — bandwidth CDF, PAG vs AcTinG |
//! | `fig8_update_size` | Fig. 8 — bandwidth vs update size |
//! | `fig9_scalability` | Fig. 9 — bandwidth vs number of nodes |
//! | `fig10_coalitions` | Fig. 10 — attacker coalitions vs discovery |
//! | `table1_crypto_counts` | Table I — signatures and hashes per second |
//! | `table2_max_quality` | Table II — max quality per link capacity |
//! | `proverif_substitute` | §VI-A — symbolic privacy analysis |
//!
//! Run them with `cargo run --release -p pag-bench --bin <target>`.
//! Each accepts an optional `--quick` argument that shrinks the workload
//! (fewer nodes/rounds/trials) for smoke-testing.

#![forbid(unsafe_code)]

use pag_core::config::CryptoProfile;
use pag_membership::NodeId;
use pag_runtime::{ChurnSchedule, Driver, FaultEvent, FaultSchedule, SessionConfig, TcpConfig};

/// Returns true when `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The frozen real-crypto scenario of the op-count pins in
/// `tests/protocol_pins.rs`: real RSA-512 signatures and a paper-sized
/// 512-bit homomorphic modulus, so the cost is dominated by the crypto
/// hot path. The pinned counts assume the scenario never drifts.
pub fn real_crypto_session(nodes: usize, rounds: u64) -> SessionConfig {
    let mut sc = SessionConfig::honest(nodes, rounds);
    sc.pag.stream_rate_kbps = 30.0;
    sc.pag.crypto = CryptoProfile {
        homomorphic_bits: 512,
        prime_bits: 64,
        rsa_bits: 512,
        real_signatures: true,
    };
    sc.pag.wire.signature = 64; // match RSA-512
    sc
}

/// The frozen churned-session scenario: the real-crypto profile of
/// [`real_crypto_session`] plus a steady churn rate of `joins` joins and
/// `leaves` leaves per round (seed 50, fixed forever for comparability).
pub fn churn_steady_session(
    nodes: usize,
    rounds: u64,
    joins: usize,
    leaves: usize,
) -> SessionConfig {
    let mut sc = real_crypto_session(nodes, rounds);
    sc.churn = ChurnSchedule::steady(50, nodes, rounds, joins, leaves)
        .events()
        .to_vec();
    sc
}

/// The frozen fault-injection scenario: the real-crypto profile of
/// [`real_crypto_session`] plus a transient split-brain partition over
/// rounds `[2, 4)` (seed 60, fixed forever for comparability) and a
/// crash of the highest-numbered node at round 2 that restarts at
/// round 4, so it exercises the fault plan's send-side checks plus a
/// full crash-recovery rejoin (snapshot round-trip and membership
/// re-announce). The scenario is honest: it must convict nobody, on
/// any driver (the driver-equivalence suite pins the outcome bit for
/// bit).
pub fn faulted_session(nodes: usize, rounds: u64) -> SessionConfig {
    let mut sc = real_crypto_session(nodes, rounds);
    sc.faults = FaultSchedule::split_brain(60, nodes, 2, 4).events().to_vec();
    sc.faults.push(FaultEvent::CrashRestart {
        node: NodeId(nodes as u32 - 1),
        crash_round: 2,
        restart_round: 4,
    });
    sc
}

/// The frozen hosted-pair scenario, one session of it: the real-crypto
/// profile of [`real_crypto_session`] on the lockstep TCP driver (every
/// mesh link authenticated by the signed handshake), under an explicit
/// protocol `session_id`, which keys the session's key roster and
/// snapshot store.
pub fn host_session(session_id: u64, nodes: usize, rounds: u64) -> SessionConfig {
    let mut sc = real_crypto_session(nodes, rounds);
    sc.pag.session_id = session_id;
    sc.driver = Driver::Tcp(TcpConfig::default());
    sc
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header and separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Formats kbps with sensible units.
pub fn fmt_kbps(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.1} Gbps", v / 1_000_000.0)
    } else if v >= 1000.0 {
        format!("{:.1} Mbps", v / 1000.0)
    } else {
        format!("{v:.0} kbps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kbps_formatting() {
        assert_eq!(fmt_kbps(500.0), "500 kbps");
        assert_eq!(fmt_kbps(1500.0), "1.5 Mbps");
        assert_eq!(fmt_kbps(2_000_000.0), "2.0 Gbps");
    }
}
