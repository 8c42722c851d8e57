//! Protocol configuration.

use pag_crypto::sizes;

use crate::wire::WireConfig;

/// Cryptographic parameter profile of a run.
///
/// The protocol logic is parameter-independent; profiles trade CPU for
/// fidelity. Wire sizes are governed separately by [`WireConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CryptoProfile {
    /// Bit width of the homomorphic modulus `M`.
    pub homomorphic_bits: usize,
    /// Bit width of the per-round primes `p_j`.
    pub prime_bits: usize,
    /// RSA modulus bits for node key pairs.
    pub rsa_bits: usize,
    /// Use real RSA signatures (`true`) or keyed-hash tags of identical
    /// wire size (`false`).
    pub real_signatures: bool,
}

impl CryptoProfile {
    /// The paper's deployment parameters: 512-bit modulus and primes,
    /// RSA-2048 signatures (§VII-A). Slow; for small scenarios and
    /// benches.
    pub fn paper() -> Self {
        CryptoProfile {
            homomorphic_bits: sizes::HOMOMORPHIC_MODULUS_BITS,
            prime_bits: sizes::PRIME_BITS,
            rsa_bits: sizes::RSA_MODULUS_BITS,
            real_signatures: true,
        }
    }

    /// Small, fast parameters for many-node simulations. All homomorphic
    /// identities still hold exactly; bandwidth is charged at paper sizes
    /// via [`WireConfig`].
    pub fn simulation() -> Self {
        CryptoProfile {
            homomorphic_bits: 96,
            prime_bits: 24,
            rsa_bits: 512,
            real_signatures: false,
        }
    }
}

/// Full configuration of a PAG session.
#[derive(Clone, Debug)]
pub struct PagConfig {
    /// Session identifier (keys membership views and update ids).
    pub session_id: u64,
    /// Successors per node (`f_s`); the paper uses predecessors ≈
    /// successors = monitors = f.
    pub fanout: usize,
    /// Monitors per node (`f_m`).
    pub monitor_count: usize,
    /// Source stream rate in kbps (paper default: 300).
    pub stream_rate_kbps: f64,
    /// Rounds of owned updates hashed into each buffermap (paper: 4).
    pub buffermap_window: u64,
    /// Update lifetime in rounds; expired updates stop propagating
    /// (paper: released 10 s before playout).
    pub expiration_rounds: u64,
    /// Milliseconds into a round when missing acknowledgements trigger
    /// accusations.
    pub ack_check_ms: u64,
    /// Milliseconds into a round when monitors evaluate the previous
    /// round's obligations.
    pub monitor_eval_ms: u64,
    /// Milliseconds into a round when pending exhibit requests resolve.
    pub exhibit_resolve_ms: u64,
    /// Verify message signatures on reception.
    pub verify_signatures: bool,
    /// Wire sizes for bandwidth accounting.
    pub wire: WireConfig,
    /// Cryptographic parameters.
    pub crypto: CryptoProfile,
}

impl Default for PagConfig {
    fn default() -> Self {
        PagConfig {
            session_id: 1,
            fanout: 3,
            monitor_count: 3,
            stream_rate_kbps: 300.0,
            buffermap_window: sizes::BUFFERMAP_WINDOW_ROUNDS,
            expiration_rounds: sizes::PLAYOUT_DELAY_ROUNDS,
            ack_check_ms: 350,
            monitor_eval_ms: 650,
            exhibit_resolve_ms: 900,
            verify_signatures: true,
            wire: WireConfig::default(),
            crypto: CryptoProfile::simulation(),
        }
    }
}

impl PagConfig {
    /// Number of updates the source injects per one-second round:
    /// `rate / 8 / update_size` (300 kbps with 938-byte updates → 40, the
    /// paper's window size).
    pub fn updates_per_round(&self) -> usize {
        let bytes_per_sec = self.stream_rate_kbps * 1000.0 / 8.0;
        (bytes_per_sec / self.wire.update_payload as f64).round().max(1.0) as usize
    }

    /// Sets the stream rate (builder style).
    pub fn with_rate_kbps(mut self, kbps: f64) -> Self {
        self.stream_rate_kbps = kbps;
        self
    }

    /// Sets fanout and monitor count together, like the paper's
    /// experiments.
    pub fn with_fanout(mut self, f: usize) -> Self {
        self.fanout = f;
        self.monitor_count = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_gives_forty_updates() {
        let cfg = PagConfig::default();
        assert_eq!(cfg.updates_per_round(), 40);
    }

    #[test]
    fn rate_scaling() {
        let cfg = PagConfig::default().with_rate_kbps(80.0); // 144p
        assert_eq!(cfg.updates_per_round(), 11); // 80_000/8/938 = 10.66 -> 11
        let cfg = PagConfig::default().with_rate_kbps(4500.0); // 1080p
        assert_eq!(cfg.updates_per_round(), 600);
    }

    #[test]
    fn builder_sets_both_fanout_fields() {
        let cfg = PagConfig::default().with_fanout(5);
        assert_eq!(cfg.fanout, 5);
        assert_eq!(cfg.monitor_count, 5);
    }

    #[test]
    fn profiles_differ() {
        assert!(CryptoProfile::paper().real_signatures);
        assert!(!CryptoProfile::simulation().real_signatures);
        assert!(CryptoProfile::paper().homomorphic_bits > CryptoProfile::simulation().homomorphic_bits);
    }
}
