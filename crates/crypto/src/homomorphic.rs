//! The paper's homomorphic hash: `H(u)_(p,M) = u^p mod M` (§IV-B).
//!
//! An unpadded-RSA-style hash with two multiplicative properties that the
//! whole monitoring scheme rests on:
//!
//! ```text
//! H(u1)_(p,M) · H(u2)_(p,M)  =  H(u1·u2)_(p,M)        (product of updates)
//! H(H(u)_(p1,M))_(p2,M)      =  H(u)_(p1·p2,M)        (product of exponents)
//! ```
//!
//! Monitors of a node B combine per-predecessor attestations
//! `H(S_j)_(p_j,M)` raised to the cofactors `Π_{k≠j} p_k` to obtain
//! `H(∪S_j)_(K(R,B),M)` with `K(R,B) = Π_j p_j` — without ever learning
//! the updates or the individual primes (§V-B/C).

use std::borrow::Cow;
use std::sync::Arc;

use pag_bignum::{gen_prime, BigUint, FixedBaseTable, MontAccumulator, Montgomery};
use rand::Rng;

use crate::error::CryptoError;

/// Public parameters of the homomorphic hash: the modulus `M`.
///
/// The paper uses a 512-bit modulus ("as recommended in reference 28") generated as
/// an RSA modulus (product of two primes) so that computing roots — i.e.
/// inverting the hash — is hard.
///
/// # Examples
///
/// ```
/// use pag_crypto::homomorphic::HomomorphicParams;
/// use pag_bignum::BigUint;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let params = HomomorphicParams::generate(128, &mut rng);
/// let p1 = BigUint::from(10007u64);
/// let p2 = BigUint::from(10009u64);
/// let u = b"a 938-byte video chunk (abridged)";
///
/// // Exponent composition: H(H(u)_p1)_p2 == H(u)_(p1*p2)
/// let once = params.hash(u, &(&p1 * &p2));
/// let twice = params.raise(&params.hash(u, &p1), &p2);
/// assert_eq!(once, twice);
/// ```
#[derive(Clone, Debug)]
pub struct HomomorphicParams {
    modulus: BigUint,
    mont: Montgomery,
    bits: usize,
    /// The value 1: hash of the empty multiset under every exponent.
    identity: HomomorphicHash,
}

/// A homomorphic hash value: an element of `Z_M`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HomomorphicHash {
    value: BigUint,
}

impl HomomorphicHash {
    /// Reconstructs a hash received from the network.
    ///
    /// No reduction is performed, so a hostile peer can put a value
    /// `>= M` here; [`HomomorphicParams::combine`] and
    /// [`HomomorphicParams::raise`] reduce their operands.
    pub fn from_value(value: BigUint) -> Self {
        HomomorphicHash { value }
    }

    /// The hash value as an integer.
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// Serializes to exactly `len` bytes (for wire-size accounting).
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes(&self, len: usize) -> Vec<u8> {
        self.value.to_bytes_be_padded(len)
    }
}

/// A residue hashed under many exponents: `u mod M` together with, while
/// its holder still needs it, the fixed-base power table that hashes it
/// under any exponent of up to the table's width without squarings.
///
/// A PAG node hashes each update it holds under every predecessor's
/// fresh prime for its buffermaps and under every successor's prime for
/// its serve sets; the table turns each of those exponentiations into
/// about `bits / w + 2^w` multiplications. Clones share the value and
/// the table.
#[derive(Clone, Debug)]
pub struct StoredResidue {
    value: Arc<BigUint>,
    table: Option<Arc<FixedBaseTable>>,
}

impl StoredResidue {
    /// The residue `u mod M`.
    pub fn value(&self) -> &BigUint {
        &self.value
    }

    /// True while the power table is held.
    pub fn has_table(&self) -> bool {
        self.table.is_some()
    }

    /// Releases this handle's power table; hashes stay correct and take
    /// [`HomomorphicParams::hash_residue`]'s path from then on.
    pub fn drop_table(&mut self) {
        self.table = None;
    }

    /// `H(u)_(exp,M)`: from the table when it covers `exp`, otherwise
    /// (the table was dropped, or `exp` is wider than the table — a
    /// hostile prime off the wire) by [`HomomorphicParams::hash_residue`].
    /// Either way the value is the same, `u^exp mod M` being unique.
    ///
    /// `params` must be the parameters that built this residue.
    pub fn hash(&self, params: &HomomorphicParams, exp: &BigUint) -> HomomorphicHash {
        let table = self.table.as_deref();
        match table.and_then(|t| params.mont.pow_fixed(t, exp)) {
            Some(value) => HomomorphicHash { value },
            None => params.hash_residue(&self.value, exp),
        }
    }
}

impl HomomorphicParams {
    /// Generates parameters with a `bits`-bit RSA-style modulus.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 16`.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 16, "modulus too small");
        let p = gen_prime(bits / 2, rng);
        let q = gen_prime(bits - bits / 2, rng);
        let modulus = &p * &q;
        Self::from_modulus(modulus).expect("product of two odd primes is valid")
    }

    /// Builds parameters from an existing public modulus.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidModulus`] if the modulus is even or
    /// smaller than 3 (Montgomery reduction requires an odd modulus).
    pub fn from_modulus(modulus: BigUint) -> Result<Self, CryptoError> {
        let bits = modulus.bit_len();
        let mont = Montgomery::new(&modulus).ok_or(CryptoError::InvalidModulus)?;
        Ok(HomomorphicParams {
            modulus,
            mont,
            bits,
            identity: HomomorphicHash {
                value: BigUint::one(),
            },
        })
    }

    /// The public modulus `M`.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The cached Montgomery context for `M`.
    ///
    /// Exposed so protocol code can run division-free products of
    /// residues (`pag-core`'s multiset products) against the same
    /// context the hash exponentiations use.
    pub fn montgomery(&self) -> &Montgomery {
        &self.mont
    }

    /// The identity hash: `H(∅) = 1` under every exponent, and the
    /// neutral element of [`Self::combine`].
    ///
    /// PAG hashes every exchange three ways and most parts are empty, so
    /// the hash path recognises this value instead of computing with it:
    /// `1^e = 1` and `x·1 = x`.
    pub fn identity(&self) -> &HomomorphicHash {
        &self.identity
    }

    /// Modulus width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Bytes needed to serialize one hash value.
    pub fn hash_len(&self) -> usize {
        self.bits.div_ceil(8)
    }

    /// Maps raw update bytes to a residue in `Z_M`.
    ///
    /// Updates are larger than `M` (the paper: "nodes cannot decrypt the
    /// hashed updates, as the value of the modulus M is smaller than the
    /// size of updates"), so this reduction loses information by design.
    pub fn residue(&self, update: &[u8]) -> BigUint {
        BigUint::from_bytes_be(update) % &self.modulus
    }

    /// Wraps a residue (`< M`) for repeated hashing, with a power table
    /// covering exponents of up to `exp_bits` bits. The caller takes the
    /// width from its own configuration, never from a peer's message.
    /// No table is built past a machine word (`exp_bits > 64`, the
    /// paper profile's 512-bit primes): such residues always hash by
    /// [`Self::hash_residue`].
    pub fn stored_residue(&self, residue: BigUint, exp_bits: usize) -> StoredResidue {
        let table = self.mont.fixed_base_table(&residue, exp_bits).map(Arc::new);
        StoredResidue {
            value: Arc::new(residue),
            table,
        }
    }

    /// Hashes raw update bytes under exponent `exp`: `H(u)_(exp,M)`.
    pub fn hash(&self, update: &[u8], exp: &BigUint) -> HomomorphicHash {
        self.hash_residue(&self.residue(update), exp)
    }

    /// Hashes a precomputed residue under exponent `exp`.
    pub fn hash_residue(&self, residue: &BigUint, exp: &BigUint) -> HomomorphicHash {
        HomomorphicHash {
            value: self.mont.pow(residue, exp),
        }
    }

    /// Hash of a *multiset* of residues: `H((Π u_i^{c_i}))_(exp,M)`.
    ///
    /// Reception counts `c_i` come from PAG's multiple-receptions rule
    /// (§V-D): an update received `c` times in the previous round
    /// contributes `c` occurrences to the product the monitors verify.
    pub fn hash_multiset<'a, I>(&self, parts: I, exp: &BigUint) -> HomomorphicHash
    where
        I: IntoIterator<Item = (&'a BigUint, u32)>,
    {
        let mut parts = parts.into_iter().peekable();
        if parts.peek().is_none() {
            return self.identity.clone();
        }
        self.hash_residue(&self.multiset_product(parts), exp)
    }

    /// Multiset product `Π residue_i^{count_i} mod M`, division-free.
    ///
    /// Residues must be reduced (`< M`), which [`Self::residue`]
    /// guarantees. The whole product runs inside the cached Montgomery
    /// context: one conversion per distinct residue, two word-width
    /// multiplications per factor, no long division anywhere.
    pub fn multiset_product<'a, I>(&self, parts: I) -> BigUint
    where
        I: IntoIterator<Item = (&'a BigUint, u32)>,
    {
        let mut acc = MontAccumulator::new(&self.mont);
        for (residue, count) in parts {
            acc.mul_pow(residue, count);
        }
        acc.finish()
    }

    /// Product of residues modulo `M` (the `u1 * ... * uj` of the paper).
    pub fn product_residue<'a, I>(&self, residues: I) -> BigUint
    where
        I: IntoIterator<Item = &'a BigUint>,
    {
        let mut acc = MontAccumulator::new(&self.mont);
        for r in residues {
            acc.mul(r);
        }
        acc.finish()
    }

    /// Combines two hashes under the *same* exponent:
    /// `H(u1)·H(u2) = H(u1·u2)`.
    ///
    /// Total: operands come off the wire, so one `>= M` is reduced first
    /// (as [`Self::raise`] does) rather than trusted. Combining with the
    /// identity returns the other operand without multiplying.
    pub fn combine(&self, a: &HomomorphicHash, b: &HomomorphicHash) -> HomomorphicHash {
        let a = self.reduced(&a.value);
        let b = self.reduced(&b.value);
        let value = if a.is_one() {
            b.into_owned()
        } else if b.is_one() {
            a.into_owned()
        } else {
            self.mont.mul_mod(&a, &b)
        };
        HomomorphicHash { value }
    }

    /// `v mod M`, borrowing when `v` is already reduced.
    fn reduced<'a>(&self, v: &'a BigUint) -> Cow<'a, BigUint> {
        if v < &self.modulus {
            Cow::Borrowed(v)
        } else {
            Cow::Owned(v % &self.modulus)
        }
    }

    /// Combines any number of hashes under the same exponent.
    ///
    /// The empty combination is the multiplicative identity `H(1)`.
    pub fn combine_all<'a, I>(&self, hashes: I) -> HomomorphicHash
    where
        I: IntoIterator<Item = &'a HomomorphicHash>,
    {
        let mut acc = self.identity.clone();
        for h in hashes {
            acc = self.combine(&acc, h);
        }
        acc
    }

    /// Re-exponentiates a hash: `H(x)_(p1) -> H(x)_(p1·p2)`.
    ///
    /// This is "message 8" of Fig. 6: the monitor that received the
    /// attestation raises it to the product of the other primes.
    pub fn raise(&self, h: &HomomorphicHash, exp: &BigUint) -> HomomorphicHash {
        HomomorphicHash {
            value: self.mont.pow(&h.value, exp),
        }
    }

    /// The monitors' verification equation (§IV-B):
    ///
    /// ```text
    /// Π_j (H(S_j)_(p_j,M))^(Π_{k≠j} p_k)  ==  H(Π_j S_j)_(Π_k p_k, M)
    /// ```
    ///
    /// `attestations` holds per-predecessor pairs of (attested hash,
    /// cofactor = product of the *other* predecessors' primes); `ack` is
    /// the successor's acknowledgement hash under the full product.
    pub fn verify_forwarding(
        &self,
        attestations: &[(HomomorphicHash, BigUint)],
        ack: &HomomorphicHash,
    ) -> bool {
        &self.combine_attestations(attestations) == ack
    }

    /// Left-hand side of the verification equation: combine attestations
    /// raised to their cofactors.
    pub fn combine_attestations(
        &self,
        attestations: &[(HomomorphicHash, BigUint)],
    ) -> HomomorphicHash {
        let raised: Vec<HomomorphicHash> = attestations
            .iter()
            .map(|(h, cofactor)| self.raise(h, cofactor))
            .collect();
        self.combine_all(raised.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (HomomorphicParams, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let params = HomomorphicParams::generate(128, &mut rng);
        (params, rng)
    }

    #[test]
    fn product_of_hashes_is_hash_of_product() {
        let (params, _) = setup();
        let p = BigUint::from(65537u64);
        let u1 = b"update one: some video chunk data";
        let u2 = b"update two: other video chunk data";
        let lhs = params.combine(&params.hash(u1, &p), &params.hash(u2, &p));
        let prod = params.residue(u1).mod_mul(&params.residue(u2), params.modulus());
        let rhs = params.hash_residue(&prod, &p);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn exponent_composition() {
        let (params, _) = setup();
        let p1 = BigUint::from(10007u64);
        let p2 = BigUint::from(10009u64);
        let u = b"u";
        let nested = params.raise(&params.hash(u, &p1), &p2);
        let direct = params.hash(u, &(&p1 * &p2));
        assert_eq!(nested, direct);
    }

    #[test]
    fn paper_verification_equation_three_predecessors() {
        // The full §IV-B scenario: three predecessors send S_1, S_2, S_3;
        // the successor acks H(S_1*S_2*S_3) under K = p1*p2*p3.
        let (params, mut rng) = setup();
        let primes: Vec<BigUint> = (0..3).map(|_| gen_prime(24, &mut rng)).collect();
        let sets: Vec<BigUint> = (0..3)
            .map(|i| params.residue(format!("updates from predecessor {i}").as_bytes()))
            .collect();

        let k: BigUint = primes.iter().fold(BigUint::one(), |acc, p| &acc * p);

        // Per-predecessor attestations and their cofactors.
        let attestations: Vec<(HomomorphicHash, BigUint)> = (0..3)
            .map(|j| {
                let h = params.hash_residue(&sets[j], &primes[j]);
                let cofactor = (0..3)
                    .filter(|&i| i != j)
                    .fold(BigUint::one(), |acc, i| &acc * &primes[i]);
                (h, cofactor)
            })
            .collect();

        // The successor's acknowledgement.
        let product = params.product_residue(sets.iter());
        let ack = params.hash_residue(&product, &k);

        assert!(params.verify_forwarding(&attestations, &ack));
    }

    #[test]
    fn verification_fails_on_dropped_update() {
        let (params, mut rng) = setup();
        let primes: Vec<BigUint> = (0..3).map(|_| gen_prime(24, &mut rng)).collect();
        let sets: Vec<BigUint> = (0..3)
            .map(|i| params.residue(format!("set {i}").as_bytes()))
            .collect();
        let k: BigUint = primes.iter().fold(BigUint::one(), |acc, p| &acc * p);
        let attestations: Vec<(HomomorphicHash, BigUint)> = (0..3)
            .map(|j| {
                let h = params.hash_residue(&sets[j], &primes[j]);
                let cofactor = (0..3)
                    .filter(|&i| i != j)
                    .fold(BigUint::one(), |acc, i| &acc * &primes[i]);
                (h, cofactor)
            })
            .collect();
        // Selfish node forwards only sets 0 and 1.
        let partial = params.product_residue(sets[..2].iter());
        let bad_ack = params.hash_residue(&partial, &k);
        assert!(!params.verify_forwarding(&attestations, &bad_ack));
    }

    #[test]
    fn multiset_hash_counts_duplicates() {
        let (params, _) = setup();
        let p = BigUint::from(101u64);
        let r = params.residue(b"dup");
        // Received twice => contributes squared.
        let via_multiset = params.hash_multiset([(&r, 2u32)], &p);
        let squared = r.mod_mul(&r, params.modulus());
        let direct = params.hash_residue(&squared, &p);
        assert_eq!(via_multiset, direct);
    }

    #[test]
    fn empty_combinations_are_identity() {
        let (params, _) = setup();
        let empty = params.combine_all(std::iter::empty());
        assert!(empty.value().is_one());
        let id = params.product_residue(std::iter::empty());
        assert!(id.is_one());
    }

    #[test]
    fn identity_is_recognised_not_computed() {
        let (params, mut rng) = setup();
        let id = params.identity().clone();
        assert!(id.value().is_one());
        let e = gen_prime(64, &mut rng);
        let x = params.hash(b"some update", &e);
        assert_eq!(params.hash_multiset(std::iter::empty(), &e), id);
        assert_eq!(params.raise(&id, &e), id);
        assert_eq!(params.combine(&id, &x), x);
        assert_eq!(params.combine(&x, &id), x);
        assert_eq!(params.combine_all(std::iter::empty()), id);
        assert_eq!(params.combine_all([&id, &x, &id]), x);
    }

    #[test]
    fn combine_reduces_out_of_range_operands() {
        // Hash values come off the wire unchecked: `M + 1` and `5M + x`
        // must behave as 1 and x, not trip Montgomery's range assert.
        let (params, _) = setup();
        let m = params.modulus();
        let id = params.identity().clone();
        let x = params.hash(b"x", &BigUint::from(3u64));
        let one_plus_m = HomomorphicHash::from_value(m + &BigUint::one());
        let x_plus_5m = HomomorphicHash::from_value(&(m * &BigUint::from(5u64)) + x.value());
        assert_eq!(params.combine(&one_plus_m, &id), id);
        assert_eq!(params.combine(&id, &x_plus_5m), x);
        assert_eq!(params.combine(&x_plus_5m, &x), params.combine(&x, &x));
        assert_eq!(params.combine_all([&x_plus_5m, &one_plus_m]), x);
    }

    #[test]
    fn from_modulus_rejects_even() {
        assert!(HomomorphicParams::from_modulus(BigUint::from(100u64)).is_err());
        assert!(HomomorphicParams::from_modulus(BigUint::from(101u64)).is_ok());
    }

    #[test]
    fn hash_serialization_is_fixed_width() {
        let (params, _) = setup();
        let h = params.hash(b"x", &BigUint::from(3u64));
        let bytes = h.to_bytes(params.hash_len());
        assert_eq!(bytes.len(), params.hash_len());
    }

    #[test]
    fn stored_residue_hashes_like_hash_residue() {
        let mut rng = StdRng::seed_from_u64(31);
        // The simulation and real-crypto profiles, and the paper's
        // 512-bit primes, for which no table is built.
        for (bits, prime_bits) in [(96, 24), (512, 64), (128, 512)] {
            let params = HomomorphicParams::generate(bits, &mut rng);
            let residue = params.residue(b"a stored update");
            let mut stored = params.stored_residue(residue.clone(), prime_bits);
            assert_eq!(stored.has_table(), prime_bits <= 64);
            let primes = [
                gen_prime(prime_bits, &mut rng),
                gen_prime(prime_bits / 2, &mut rng),
                BigUint::one(),
                BigUint::zero(),
                // Wider than the table, up to a hostile wire-width "prime".
                gen_prime(prime_bits + 1, &mut rng),
                gen_prime(512, &mut rng),
            ];
            for p in &primes {
                let expected = params.hash_residue(&residue, p);
                assert_eq!(stored.hash(&params, p), expected, "{bits}/{p}");
            }
            stored.drop_table();
            assert!(!stored.has_table());
            let expected = params.hash_residue(&residue, &primes[0]);
            assert_eq!(stored.hash(&params, &primes[0]), expected);
        }
    }

    #[test]
    fn paper_parameters_512_bits() {
        // The deployment configuration: 512-bit modulus (§VII-A).
        let mut rng = StdRng::seed_from_u64(99);
        let params = HomomorphicParams::generate(512, &mut rng);
        assert_eq!(params.bits(), 512);
        assert_eq!(params.hash_len(), 64);
        let p = gen_prime(64, &mut rng);
        let u = vec![0xabu8; 938]; // a paper-sized update
        let h = params.hash(&u, &p);
        assert!(h.value() < params.modulus());
    }
}
