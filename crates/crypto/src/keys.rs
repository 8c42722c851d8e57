//! Per-node key material and a fast signing mode for large simulations.
//!
//! A [`Keyring`] bundles everything a PAG node needs: its RSA key pair and
//! the shared homomorphic parameters. For simulations with hundreds of
//! nodes, [`SigningMode::Fast`] replaces RSA signatures by keyed-hash tags
//! of the same wire size — protocol logic, message flow and bandwidth are
//! unchanged while CPU cost drops by orders of magnitude (the deviations
//! PAG detects are protocol-level, not signature forgeries; real-RSA runs
//! are covered by dedicated tests and benches).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha256::Sha256;
use crate::signature::{self, Signature};

/// How a [`Keyring`] produces and checks signatures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigningMode {
    /// Real RSA signatures (hash-then-sign, PKCS#1 v1.5 style).
    Rsa,
    /// Keyed SHA-256 tags padded to `fast_len` bytes: cryptographically a
    /// MAC, wire-compatible with an RSA signature of that length.
    Fast {
        /// Wire length of the emitted tag, normally
        /// [`crate::sizes::SIGNATURE_BYTES`].
        fast_len: usize,
    },
}

/// Key material held by one node.
#[derive(Clone, Debug)]
pub struct Keyring {
    keypair: RsaKeyPair,
    mode: SigningMode,
    /// Secret for fast-mode tags.
    mac_secret: [u8; 32],
}

impl Keyring {
    /// Generates a keyring with a fresh RSA key pair of `rsa_bits` bits.
    pub fn generate<R: Rng + ?Sized>(rsa_bits: usize, mode: SigningMode, rng: &mut R) -> Self {
        let keypair = RsaKeyPair::generate(rsa_bits, rng);
        let mut mac_secret = [0u8; 32];
        rng.fill(&mut mac_secret);
        Keyring {
            keypair,
            mode,
            mac_secret,
        }
    }

    /// Deterministically derives a keyring from a seed (reproducible
    /// simulations assign one seed per node).
    ///
    /// Derivation is a pure function of `(seed, rsa_bits, mode)`, so
    /// the result is memoized process-wide: every consumer of the same
    /// roster — a crash-restarted worker rejoining its session, the
    /// second session multiplexed on one `pag-host`, each scenario of a
    /// benchmark sweep — re-derives identical keys, and RSA keygen at
    /// 512 bits costs milliseconds per node (seconds per thousand-node
    /// roster of pure recomputation). The cache is capped and cleared
    /// wholesale on overflow; rosters are derived in bulk, so partial
    /// eviction would buy nothing.
    pub fn from_seed(seed: u64, rsa_bits: usize, mode: SigningMode) -> Self {
        use std::collections::HashMap;
        use std::sync::Mutex;

        const CACHE_CAP: usize = 4096;
        type Key = (u64, usize, u8, usize);
        static CACHE: Mutex<Option<HashMap<Key, Keyring>>> = Mutex::new(None);

        let key = match mode {
            SigningMode::Rsa => (seed, rsa_bits, 0u8, 0usize),
            SigningMode::Fast { fast_len } => (seed, rsa_bits, 1u8, fast_len),
        };
        if let Ok(guard) = CACHE.lock() {
            if let Some(hit) = guard.as_ref().and_then(|c| c.get(&key)) {
                return hit.clone();
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let fresh = Self::generate(rsa_bits, mode, &mut rng);
        if let Ok(mut guard) = CACHE.lock() {
            let cache = guard.get_or_insert_with(HashMap::new);
            if cache.len() >= CACHE_CAP {
                cache.clear();
            }
            cache.insert(key, fresh.clone());
        }
        fresh
    }

    /// [`Self::from_seed`] for a whole roster: one keyring per seed, in
    /// order, derived on up to `available_parallelism` scoped threads.
    ///
    /// Each derivation is a pure function of its seed, so the keys and
    /// the memo's contents are those the sequential loop produces; only
    /// the wall clock of a cold thousand-node RSA roster changes.
    pub fn from_seeds(seeds: &[u64], rsa_bits: usize, mode: SigningMode) -> Vec<Self> {
        let derive = |part: &[u64]| -> Vec<Self> {
            part.iter()
                .map(|&seed| Self::from_seed(seed, rsa_bits, mode))
                .collect()
        };
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(seeds.len());
        if workers <= 1 {
            return derive(seeds);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = seeds
                .chunks(seeds.len().div_ceil(workers))
                .map(|part| scope.spawn(move || derive(part)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("key derivation does not panic"))
                .collect()
        })
    }

    /// The RSA public key.
    pub fn public(&self) -> &RsaPublicKey {
        self.keypair.public()
    }

    /// The full RSA key pair (needed to open sealed boxes).
    pub fn keypair(&self) -> &RsaKeyPair {
        &self.keypair
    }

    /// The signing mode in effect.
    pub fn mode(&self) -> SigningMode {
        self.mode
    }

    /// Signs a message according to the signing mode.
    pub fn sign(&self, message: &[u8]) -> Signature {
        match self.mode {
            SigningMode::Rsa => signature::sign(&self.keypair, message),
            SigningMode::Fast { fast_len } => {
                let mut h = Sha256::new();
                h.update(&self.mac_secret);
                h.update(message);
                let digest = h.finalize();
                let mut bytes = vec![0u8; fast_len];
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = digest[i % digest.len()];
                }
                Signature::from_bytes(bytes)
            }
        }
    }

    /// Verifies a signature produced by this keyring's owner.
    ///
    /// In fast mode only the owner can verify (it is a MAC); the simulator
    /// routes verification through the signer's keyring, which models the
    /// paper's "everyone can verify" with zero wire-size difference.
    pub fn verify_own(&self, message: &[u8], sig: &Signature) -> bool {
        match self.mode {
            SigningMode::Rsa => signature::verify(self.keypair.public(), message, sig),
            SigningMode::Fast { .. } => &self.sign(message) == sig,
        }
    }
}

/// Verifies a signature given only a public key (RSA mode).
pub fn verify_with_public(public: &RsaPublicKey, message: &[u8], sig: &Signature) -> bool {
    signature::verify(public, message, sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsa_mode_roundtrip() {
        let kr = Keyring::from_seed(1, 512, SigningMode::Rsa);
        let sig = kr.sign(b"msg");
        assert!(kr.verify_own(b"msg", &sig));
        assert!(!kr.verify_own(b"other", &sig));
        assert!(verify_with_public(kr.public(), b"msg", &sig));
    }

    #[test]
    fn fast_mode_roundtrip() {
        let kr = Keyring::from_seed(2, 512, SigningMode::Fast { fast_len: 256 });
        let sig = kr.sign(b"msg");
        assert_eq!(sig.len(), 256, "wire size matches RSA-2048");
        assert!(kr.verify_own(b"msg", &sig));
        assert!(!kr.verify_own(b"other", &sig));
    }

    #[test]
    fn fast_mode_tags_are_keyed() {
        let a = Keyring::from_seed(3, 512, SigningMode::Fast { fast_len: 64 });
        let b = Keyring::from_seed(4, 512, SigningMode::Fast { fast_len: 64 });
        let sig = a.sign(b"msg");
        assert!(!b.verify_own(b"msg", &sig), "different secret, different tag");
    }

    #[test]
    fn bulk_derivation_matches_one_by_one() {
        let seeds: Vec<u64> = (900..907).collect();
        let bulk = Keyring::from_seeds(&seeds, 384, SigningMode::Rsa);
        assert_eq!(bulk.len(), seeds.len());
        for (kr, &seed) in bulk.iter().zip(&seeds) {
            // Derived without the memo the bulk call just filled.
            let single =
                Keyring::generate(384, SigningMode::Rsa, &mut StdRng::seed_from_u64(seed));
            assert_eq!(kr.public().modulus(), single.public().modulus());
            assert_eq!(kr.sign(b"m"), single.sign(b"m"));
        }
        assert!(Keyring::from_seeds(&[], 384, SigningMode::Rsa).is_empty());
    }

    #[test]
    fn deterministic_derivation() {
        let a = Keyring::from_seed(7, 256, SigningMode::Rsa);
        let b = Keyring::from_seed(7, 256, SigningMode::Rsa);
        assert_eq!(a.public().modulus(), b.public().modulus());
    }
}
