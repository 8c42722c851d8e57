//! Per-node key material.
//!
//! A [`Keyring`] holds a node's RSA key pair, derived deterministically
//! from a per-node seed so every consumer of a roster re-derives the same
//! keys. (Large simulations sign with keyed-hash tags instead; those live
//! with the protocol's signer, `pag_core::shared::NodeSigner::Mac`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::signature::{self, Signature};

/// Key material held by one node.
#[derive(Clone, Debug)]
pub struct Keyring {
    keypair: RsaKeyPair,
}

impl Keyring {
    /// Generates a keyring with a fresh RSA key pair of `rsa_bits` bits.
    pub fn generate<R: Rng + ?Sized>(rsa_bits: usize, rng: &mut R) -> Self {
        Keyring {
            keypair: RsaKeyPair::generate(rsa_bits, rng),
        }
    }

    /// Deterministically derives a keyring from a seed (reproducible
    /// simulations assign one seed per node).
    ///
    /// Derivation is a pure function of `(seed, rsa_bits)`, so
    /// the result is memoized process-wide: every consumer of the same
    /// roster — a crash-restarted worker rejoining its session, the
    /// second session multiplexed on one `pag-host`, each scenario of a
    /// benchmark sweep — re-derives identical keys, and RSA keygen at
    /// 512 bits costs milliseconds per node (seconds per thousand-node
    /// roster of pure recomputation). The cache is capped and cleared
    /// wholesale on overflow; rosters are derived in bulk, so partial
    /// eviction would buy nothing.
    pub fn from_seed(seed: u64, rsa_bits: usize) -> Self {
        use std::collections::HashMap;
        use std::sync::Mutex;

        const CACHE_CAP: usize = 4096;
        static CACHE: Mutex<Option<HashMap<(u64, usize), Keyring>>> = Mutex::new(None);

        let key = (seed, rsa_bits);
        if let Ok(guard) = CACHE.lock() {
            if let Some(hit) = guard.as_ref().and_then(|c| c.get(&key)) {
                return hit.clone();
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let fresh = Self::generate(rsa_bits, &mut rng);
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
    pub fn from_seeds(seeds: &[u64], rsa_bits: usize) -> Vec<Self> {
        let derive = |part: &[u64]| -> Vec<Self> {
            part.iter()
                .map(|&seed| Self::from_seed(seed, rsa_bits))
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

    /// Signs a message with the RSA key pair.
    pub fn sign(&self, message: &[u8]) -> Signature {
        signature::sign(&self.keypair, message)
    }

    /// Verifies a signature produced by this keyring's owner.
    pub fn verify_own(&self, message: &[u8], sig: &Signature) -> bool {
        signature::verify(self.keypair.public(), message, sig)
    }
}

/// Verifies a signature given only a public key.
pub fn verify_with_public(public: &RsaPublicKey, message: &[u8], sig: &Signature) -> bool {
    signature::verify(public, message, sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsa_mode_roundtrip() {
        let kr = Keyring::from_seed(1, 512);
        let sig = kr.sign(b"msg");
        assert!(kr.verify_own(b"msg", &sig));
        assert!(!kr.verify_own(b"other", &sig));
        assert!(verify_with_public(kr.public(), b"msg", &sig));
    }

    #[test]
    fn bulk_derivation_matches_one_by_one() {
        let seeds: Vec<u64> = (900..907).collect();
        let bulk = Keyring::from_seeds(&seeds, 384);
        assert_eq!(bulk.len(), seeds.len());
        for (kr, &seed) in bulk.iter().zip(&seeds) {
            // Derived without the memo the bulk call just filled.
            let single = Keyring::generate(384, &mut StdRng::seed_from_u64(seed));
            assert_eq!(kr.public().modulus(), single.public().modulus());
            assert_eq!(kr.sign(b"m"), single.sign(b"m"));
        }
        assert!(Keyring::from_seeds(&[], 384).is_empty());
    }

    #[test]
    fn deterministic_derivation() {
        let a = Keyring::from_seed(7, 256);
        let b = Keyring::from_seed(7, 256);
        assert_eq!(a.public().modulus(), b.public().modulus());
    }
}
