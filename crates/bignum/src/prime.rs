//! Primality testing (Miller–Rabin) and random prime generation.
//!
//! PAG's receivers generate one fresh prime per predecessor per round
//! (§V-A), and RSA key generation needs two large primes, so prime
//! generation speed matters: candidates are first sieved against small
//! primes before any Miller–Rabin round runs.
//!
//! Determinism contract: every draw from the caller's RNG — candidate
//! draws and Miller–Rabin witness draws — happens in a fixed order that
//! the fast paths below must never change. Session seeds flow through
//! prime generation into partner selection, so consuming one extra (or
//! one fewer) random value here would silently reshuffle every
//! downstream gossip topology. The word-sized fast paths therefore
//! mirror the multi-limb control flow draw for draw and only change the
//! *arithmetic* (a word-sized Montgomery multiply instead of allocated
//! `BigUint`s), and the multi-limb march of [`gen_prime`] sieves all its
//! candidates at once but hands Miller–Rabin the same survivors in the
//! same order; the `fast_paths_preserve_rng_stream` test pins this.

use rand::Rng;
use std::sync::OnceLock;

use crate::montgomery::neg_inv_u64;
use crate::random::random_bits;
use crate::{BigUint, Montgomery};

/// Number of Miller–Rabin rounds used by [`gen_prime`] and
/// [`BigUint::is_probable_prime`]'s default. 2^-128 error bound for random inputs.
pub const DEFAULT_MILLER_RABIN_ROUNDS: usize = 32;

/// Upper bound of the trial-division sieve.
const SIEVE_LIMIT: usize = 1 << 14;

fn small_primes() -> &'static [u64] {
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let mut is_composite = vec![false; SIEVE_LIMIT];
        let mut primes = Vec::new();
        for n in 2..SIEVE_LIMIT {
            if !is_composite[n] {
                primes.push(n as u64);
                let mut k = n * n;
                while k < SIEVE_LIMIT {
                    is_composite[k] = true;
                    k += n;
                }
            }
        }
        primes
    })
}

/// `(p^{-1} mod 2^64, ⌊(2^64 - 1) / p⌋)` for every odd sieve prime: a
/// word `v` is a multiple of `p` exactly when `v · p^{-1} mod 2^64` does
/// not exceed the bound — one multiplication per prime, no division.
fn odd_prime_multiples() -> &'static [(u64, u64)] {
    static TABLE: OnceLock<Vec<(u64, u64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        small_primes()[1..]
            .iter()
            .map(|&p| (neg_inv_u64(p).wrapping_neg(), u64::MAX / p))
            .collect()
    })
}

/// `n mod m` for a word-sized modulus, folding limbs without allocating.
fn rem_u64(n: &BigUint, m: u64) -> u64 {
    let mut r: u128 = 0;
    for &limb in n.limbs().iter().rev() {
        r = ((r << 64) | limb as u128) % m as u128;
    }
    r as u64
}

/// Montgomery arithmetic modulo an odd word `n` with `R = 2^64`: a
/// product costs three word multiplications and no division (the
/// `u128 % u64` it replaces is a library call, `__umodti3`).
struct MontU64 {
    n: u64,
    /// `n^{-1} mod 2^64`.
    n_inv: u64,
    /// `R mod n`: the Montgomery form of 1.
    one: u64,
    /// `R^2 mod n`: multiplying by it converts into Montgomery form.
    r2: u64,
}

impl MontU64 {
    /// Context for an odd `n > 1`. Two divisions, once per modulus.
    fn new(n: u64) -> Self {
        debug_assert!(n & 1 == 1 && n > 1);
        let one = n.wrapping_neg() % n; // 2^64 - n ≡ 2^64 (mod n)
        MontU64 {
            n,
            n_inv: neg_inv_u64(n).wrapping_neg(),
            one,
            r2: ((one as u128 * one as u128) % n as u128) as u64,
        }
    }

    /// `a · b · R^{-1} mod n` for `a, b < n`.
    fn mul(&self, a: u64, b: u64) -> u64 {
        let t = a as u128 * b as u128;
        let m = (t as u64).wrapping_mul(self.n_inv);
        // t and m·n agree in the low word, so (t - m·n) / R is the
        // difference of the high words: in (-n, n), fixed up by one add.
        let t_hi = (t >> 64) as u64;
        let mn_hi = ((m as u128 * self.n as u128) >> 64) as u64;
        if t_hi >= mn_hi {
            t_hi - mn_hi
        } else {
            t_hi.wrapping_sub(mn_hi).wrapping_add(self.n)
        }
    }

    /// `base^exp` with `base` and the result in Montgomery form.
    fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        let mut acc = self.one;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }
}

impl BigUint {
    /// Probabilistic primality test: trial division by all primes below
    /// 2^14, then `rounds` Miller–Rabin rounds with random bases.
    ///
    /// False positives occur with probability at most `4^-rounds`;
    /// a return value of `false` is always correct.
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rounds: usize, rng: &mut R) -> bool {
        // Small and even cases.
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
            if v < (SIEVE_LIMIT * SIEVE_LIMIT) as u64 {
                return small_primes()
                    .iter()
                    .take_while(|&&p| p * p <= v)
                    .all(|&p| v % p != 0)
                    || small_primes().binary_search(&v).is_ok();
            }
            // Word-sized fast path: same sieve, same witness schedule as
            // the multi-limb path below, in u64/u128 arithmetic. `v` is
            // above the sieve's square here, so a sieve hit is always
            // composite.
            if v & 1 == 0 {
                return false;
            }
            if odd_prime_multiples()
                .iter()
                .any(|&(inv, bound)| v.wrapping_mul(inv) <= bound)
            {
                return false;
            }
            return miller_rabin_u64(v, rounds, rng);
        }
        if self.is_even() {
            return false;
        }
        for &p in small_primes() {
            if rem_u64(self, p) == 0 {
                // Multi-limb values exceed every sieve prime.
                return false;
            }
        }
        miller_rabin(self, rounds, rng)
    }
}

/// Runs `rounds` Miller–Rabin rounds with uniformly random bases in `[2, n-2]`.
///
/// Requires `n` odd and `> small_primes` (callers go through
/// [`BigUint::is_probable_prime`]). One Montgomery context is built per
/// call and shared by every witness exponentiation.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from(2u64);
    let n_minus_1 = n - &one;
    // n - 1 = d * 2^s with d odd
    let s = n_minus_1
        .trailing_zeros()
        .expect("n > 2 is odd so n-1 > 0");
    let d = n_minus_1.shr_bits(s);
    let Some(ctx) = Montgomery::new(n) else {
        return false; // unreachable: n is odd
    };

    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let a = loop {
            let cand = random_bits(rng, n.bit_len());
            if cand >= two && cand <= (&n_minus_1 - &one) {
                break cand;
            }
        };
        let mut x = ctx.pow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.mul_mod(&x, &x);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// [`miller_rabin`] for word-sized `n`: identical witness draws (one
/// `u64` per `random_bits` call at these widths, same rejection bounds),
/// identical accept/reject decisions. The squaring chain stays in
/// Montgomery form, where 1 and `n - 1` are `one` and `n - one`.
fn miller_rabin_u64<R: Rng + ?Sized>(n: u64, rounds: usize, rng: &mut R) -> bool {
    let bits = 64 - n.leading_zeros() as usize;
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    let ctx = MontU64::new(n);
    let minus_one = n - ctx.one;

    'witness: for _ in 0..rounds {
        // Mirrors `random_bits(rng, bits)` for bits in (28, 64]: one limb
        // drawn, shifted down to width — byte-for-byte the same RNG use.
        let a = loop {
            let cand = rng.random::<u64>() >> ((64 - bits) as u32);
            if cand >= 2 && cand <= n - 2 {
                break cand;
            }
        };
        let mut x = ctx.pow(ctx.mul(a, ctx.r2), d);
        if x == ctx.one || x == minus_one {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.mul(x, x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// The top two bits are forced to one (so products of two such primes have
/// exactly `2*bits` bits, as RSA key generation requires) and the bottom
/// bit is forced odd.
///
/// # Panics
///
/// Panics if `bits < 3` (no such prime shape exists).
pub fn gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
    assert!(bits >= 3, "prime generation needs at least 3 bits");
    loop {
        let mut cand = random_bits(rng, bits);
        cand.set_bit(bits - 1);
        cand.set_bit(bits - 2);
        cand.set_bit(0);
        // March forward over odd numbers. Multi-limb candidates exceed
        // every sieve prime, so there the whole march is sieved up
        // front and Miller–Rabin runs on the survivors, in order: the
        // candidates and witness draws `is_probable_prime` would see.
        let sieved = if bits > 64 { march_sieve(&cand) } else { 0 };
        let two = BigUint::from(2u64);
        for j in 0..MARCH {
            if cand.bit_len() != bits {
                break; // stepped past the width; draw a fresh candidate
            }
            let prime = if bits > 64 {
                sieved & (1 << j) == 0 && miller_rabin(&cand, DEFAULT_MILLER_RABIN_ROUNDS, rng)
            } else {
                cand.is_probable_prime(DEFAULT_MILLER_RABIN_ROUNDS, rng)
            };
            if prime {
                return cand;
            }
            cand = &cand + &two;
        }
    }
}

/// Odd candidates [`gen_prime`] tries per random draw.
const MARCH: u64 = 64;

/// Bit `j` set iff `start + 2j` has an odd sieve prime factor, for
/// `j < MARCH` and odd `start`. One remainder `r` per prime `p`:
/// `start + 2j ≡ 0 (mod p)` first holds at `j = (p − r)/2` or
/// `(2p − r)/2`, whichever numerator is even, then every `p` steps.
fn march_sieve(start: &BigUint) -> u64 {
    let mut hits = 0u64;
    for &p in &small_primes()[1..] {
        let mut j = match rem_u64(start, p) {
            0 => 0,
            r if r % 2 == 1 => (p - r) / 2,
            r => (2 * p - r) / 2,
        };
        while j < MARCH {
            hits |= 1 << j;
            j += p;
        }
    }
    hits
}

/// Generates a random probable prime strictly smaller than `bound`.
///
/// Used by tests that need primes co-prime to a given modulus.
///
/// # Panics
///
/// Panics if `bound <= 3`.
pub fn gen_prime_below<R: Rng + ?Sized>(bound: &BigUint, rng: &mut R) -> BigUint {
    assert!(bound > &BigUint::from(3u64), "bound too small");
    loop {
        let cand = crate::random::random_below(rng, bound);
        if cand.is_probable_prime(DEFAULT_MILLER_RABIN_ROUNDS, rng) {
            return cand;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// The pre-optimization primality test, kept verbatim as the
    /// reference the fast paths must match draw for draw: BigUint trial
    /// division and `mod_pow`-based Miller–Rabin for everything above
    /// the small-value cutoff.
    fn reference_is_probable_prime<R: Rng + ?Sized>(
        n: &BigUint,
        rounds: usize,
        rng: &mut R,
    ) -> bool {
        if let Some(v) = n.to_u64() {
            if v < 2 {
                return false;
            }
            if v < (SIEVE_LIMIT * SIEVE_LIMIT) as u64 {
                return small_primes()
                    .iter()
                    .take_while(|&&p| p * p <= v)
                    .all(|&p| v % p != 0)
                    || small_primes().binary_search(&v).is_ok();
            }
        }
        if n.is_even() {
            return false;
        }
        for &p in small_primes() {
            let p_big = BigUint::from(p);
            if (n % &p_big).is_zero() {
                return n == &p_big;
            }
        }
        let one = BigUint::one();
        let two = BigUint::from(2u64);
        let n_minus_1 = n - &one;
        let s = n_minus_1.trailing_zeros().expect("odd n > 2");
        let d = n_minus_1.shr_bits(s);
        'witness: for _ in 0..rounds {
            let a = loop {
                let cand = random_bits(rng, n.bit_len());
                if cand >= two && cand <= (&n_minus_1 - &one) {
                    break cand;
                }
            };
            let mut x = a.mod_pow(&d, n);
            if x.is_one() || x == n_minus_1 {
                continue 'witness;
            }
            for _ in 0..s - 1 {
                x = x.mod_mul(&x, n);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// `gen_prime` over the reference test — the exact pre-optimization
    /// generator.
    fn reference_gen_prime<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        loop {
            let mut cand = random_bits(rng, bits);
            cand.set_bit(bits - 1);
            cand.set_bit(bits - 2);
            cand.set_bit(0);
            let two = BigUint::from(2u64);
            for _ in 0..64 {
                if cand.bit_len() != bits {
                    break;
                }
                if reference_is_probable_prime(&cand, DEFAULT_MILLER_RABIN_ROUNDS, rng) {
                    return cand;
                }
                cand = &cand + &two;
            }
        }
    }

    #[test]
    fn fast_paths_preserve_rng_stream() {
        // Identical primes AND identical RNG positions afterwards: the
        // optimized paths must consume exactly the draws the reference
        // consumed, or every seeded session topology downstream shifts.
        // 65 bits is the first multi-limb width (the sieved march); one
        // 512-bit seed covers the paper's round-key prime size.
        let cases = [32usize, 48, 64, 65, 128, 256]
            .into_iter()
            .flat_map(|bits| (0..4u64).map(move |seed| (bits, seed)))
            .chain([(512, 0)]);
        for (bits, seed) in cases {
            let mut fast_rng = StdRng::seed_from_u64(seed * 31 + bits as u64);
            let mut ref_rng = fast_rng.clone();
            let fast = gen_prime(bits, &mut fast_rng);
            let reference = reference_gen_prime(bits, &mut ref_rng);
            assert_eq!(fast, reference, "prime diverged at bits={bits} seed={seed}");
            assert_eq!(
                fast_rng.random::<u128>(),
                ref_rng.random::<u128>(),
                "RNG position diverged at bits={bits} seed={seed}"
            );
        }
    }

    #[test]
    fn march_sieve_marks_exactly_the_sieve_hits() {
        // Random odd starts: a marked offset is divisible by an odd
        // sieve prime, an unmarked one by none.
        let mut r = rng();
        for bits in [65usize, 130, 256] {
            for _ in 0..4 {
                let mut start = random_bits(&mut r, bits);
                start.set_bit(0);
                let hits = march_sieve(&start);
                for j in 0..MARCH {
                    let cand = &start + &BigUint::from(2 * j);
                    let divisible = small_primes()[1..].iter().any(|&p| rem_u64(&cand, p) == 0);
                    assert_eq!(hits & (1 << j) != 0, divisible, "{bits} bits, offset {j}");
                }
            }
        }
    }

    #[test]
    fn fast_test_agrees_with_reference_on_word_sized_values() {
        // Composite and prime u64 values above the small cutoff, with
        // matched RNG streams on both sides.
        let mut base = rng();
        for _ in 0..40 {
            let v = base.random::<u64>() | (1 << 63);
            let n = BigUint::from(v);
            let mut a = StdRng::seed_from_u64(v);
            let mut b = a.clone();
            assert_eq!(
                n.is_probable_prime(16, &mut a),
                reference_is_probable_prime(&n, 16, &mut b),
                "verdict diverged for {v}"
            );
            assert_eq!(a.random::<u128>(), b.random::<u128>(), "draws diverged for {v}");
        }
    }

    #[test]
    fn word_montgomery_matches_u128_reduction() {
        // Moduli at both ends of the fast path's range (just above the
        // sieve's square, and where t_hi - mn_hi wraps) plus random ones.
        let mut r = rng();
        let mut moduli = vec![(1u64 << 28) + 1, u64::MAX, u64::MAX - 58, (1 << 63) + 1];
        moduli.extend((0..20).map(|_| r.random::<u64>() | 1 | (1 << 40)));
        for n in moduli {
            let ctx = MontU64::new(n);
            let out = |x_m: u64| ctx.mul(x_m, 1); // leave Montgomery form
            assert_eq!(out(ctx.one), 1, "n = {n}");
            for _ in 0..50 {
                let (a, b, e) = (r.random::<u64>() % n, r.random::<u64>() % n, r.random::<u64>());
                let (a_m, b_m) = (ctx.mul(a, ctx.r2), ctx.mul(b, ctx.r2));
                assert_eq!(out(a_m), a, "round trip, n = {n}");
                let prod = ((a as u128 * b as u128) % n as u128) as u64;
                assert_eq!(out(ctx.mul(a_m, b_m)), prod, "{a} * {b} mod {n}");
                let pow = BigUint::from(a).mod_pow_naive(&BigUint::from(e), &BigUint::from(n));
                assert_eq!(Some(out(ctx.pow(a_m, e))), pow.to_u64(), "{a}^{e} mod {n}");
            }
        }
    }

    #[test]
    fn multiply_by_inverse_sieve_agrees_with_remainder() {
        let mut r = rng();
        for (&p, &(inv, bound)) in small_primes()[1..].iter().zip(odd_prime_multiples()) {
            let top = u64::MAX / p * p; // largest multiple of p in a word
            let random = r.random::<u64>();
            for v in [p, 3 * p, top, top - 1, u64::MAX, random, random / p * p] {
                assert_eq!(v.wrapping_mul(inv) <= bound, v % p == 0, "{v} % {p}");
            }
        }
    }

    #[test]
    fn rem_u64_matches_biguint_rem() {
        let mut r = rng();
        for _ in 0..50 {
            let n = random_bits(&mut r, 200);
            let m = r.random::<u64>() | 1;
            let expect = (&n % &BigUint::from(m)).to_u64().unwrap_or(0);
            assert_eq!(rem_u64(&n, m), expect);
        }
    }

    #[test]
    fn small_prime_classification() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 7919, 104729];
        let composites = [0u64, 1, 4, 6, 9, 15, 7917, 104730, 1_000_000];
        for p in primes {
            assert!(BigUint::from(p).is_probable_prime(16, &mut r), "{p}");
        }
        for c in composites {
            assert!(!BigUint::from(c).is_probable_prime(16, &mut r), "{c}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller-Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!BigUint::from(c).is_probable_prime(16, &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^127 - 1 is a Mersenne prime.
        let mut r = rng();
        let m127 = BigUint::one().shl_bits(127) - BigUint::one();
        assert!(m127.is_probable_prime(16, &mut r));
        // 2^128 - 1 is composite.
        let m128 = BigUint::one().shl_bits(128) - BigUint::one();
        assert!(!m128.is_probable_prime(16, &mut r));
    }

    #[test]
    fn word_sized_known_primes_accepted() {
        let mut r = rng();
        // 2^61 - 1 is a Mersenne prime; 2^64 - 59 is the largest 64-bit prime.
        for p in [(1u64 << 61) - 1, u64::MAX - 58] {
            assert!(BigUint::from(p).is_probable_prime(16, &mut r), "{p}");
        }
        // Neighbours are composite.
        for c in [(1u64 << 61) + 1, u64::MAX - 57, u64::MAX] {
            assert!(!BigUint::from(c).is_probable_prime(16, &mut r), "{c}");
        }
    }

    #[test]
    fn gen_prime_has_requested_shape() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128, 256] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits, "bits = {bits}");
            assert!(p.is_odd());
            assert!(p.bit(bits - 2), "second-highest bit set");
            assert!(p.is_probable_prime(16, &mut r));
        }
    }

    #[test]
    fn gen_prime_512_bits() {
        // The paper's prime size for round keys (§VII-A).
        let mut r = rng();
        let p = gen_prime(512, &mut r);
        assert_eq!(p.bit_len(), 512);
        assert!(p.is_probable_prime(8, &mut r));
    }

    #[test]
    fn distinct_primes_generated() {
        let mut r = rng();
        let a = gen_prime(64, &mut r);
        let b = gen_prime(64, &mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn gen_prime_below_bound() {
        let mut r = rng();
        let bound = BigUint::from(1_000_000u64);
        for _ in 0..5 {
            let p = gen_prime_below(&bound, &mut r);
            assert!(p < bound);
            assert!(p.is_probable_prime(16, &mut r));
        }
    }

    #[test]
    fn sieve_contains_expected_primes() {
        let primes = small_primes();
        assert_eq!(primes[0], 2);
        assert_eq!(primes[1], 3);
        assert!(primes.binary_search(&16381).is_ok()); // largest prime < 2^14
        assert!(primes.binary_search(&16383).is_err());
    }
}
