//! Property-based tests for `pag-bignum` core arithmetic invariants.

use pag_bignum::{BigUint, Montgomery};
use proptest::prelude::*;

/// Strategy producing arbitrary BigUints up to ~512 bits.
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..8).prop_map(BigUint::from_limbs)
}

/// Strategy producing non-zero BigUints.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_filter("non-zero", |v| !v.is_zero())
}

/// Strategy producing odd moduli > 1.
fn odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 1..6).prop_map(|mut limbs| {
        limbs[0] |= 1;
        let v = BigUint::from_limbs(limbs);
        if v.is_one() {
            BigUint::from(3u64)
        } else {
            v
        }
    })
}

proptest! {
    #[test]
    fn add_commutative(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn add_sub_roundtrip(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn mul_commutative(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn div_rem_invariant(a in biguint(), d in biguint_nonzero()) {
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn shift_left_then_right(a in biguint(), bits in 0usize..200) {
        prop_assert_eq!(a.shl_bits(bits).shr_bits(bits), a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in biguint(), bits in 0usize..100) {
        let pow2 = BigUint::one().shl_bits(bits);
        prop_assert_eq!(a.shl_bits(bits), &a * &pow2);
    }

    #[test]
    fn bytes_roundtrip(a in biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        prop_assert_eq!(BigUint::from_bytes_le(&a.to_bytes_le_for_test()), a);
    }

    #[test]
    fn decimal_roundtrip(a in biguint()) {
        let s = a.to_decimal_string();
        prop_assert_eq!(BigUint::from_decimal_str(&s).unwrap(), a);
    }

    #[test]
    fn hex_roundtrip(a in biguint()) {
        let s = a.to_hex_string();
        prop_assert_eq!(BigUint::from_hex_str(&s).unwrap(), a);
    }

    #[test]
    fn mod_pow_matches_naive(
        base in biguint(),
        exp in 0u64..40,
        m in odd_modulus(),
    ) {
        let exp_big = BigUint::from(exp);
        let fast = base.mod_pow(&exp_big, &m);
        // Naive repeated multiplication.
        let mut acc = BigUint::one() % &m;
        let base_red = &base % &m;
        for _ in 0..exp {
            acc = acc.mod_mul(&base_red, &m);
        }
        prop_assert_eq!(fast, acc);
    }

    #[test]
    fn mod_pow_product_of_exponents(
        base in biguint(),
        p1 in 1u64..1000,
        p2 in 1u64..1000,
        m in odd_modulus(),
    ) {
        // The paper's exponent-composition property:
        // H(H(u)_(p1))_(p2) = H(u)_(p1*p2)
        let h1 = base.mod_pow(&BigUint::from(p1), &m);
        let h12 = h1.mod_pow(&BigUint::from(p2), &m);
        let direct = base.mod_pow(&BigUint::from(p1 * p2), &m);
        prop_assert_eq!(h12, direct);
    }

    #[test]
    fn montgomery_matches_plain(a in biguint(), b in biguint(), m in odd_modulus()) {
        let ctx = Montgomery::new(&m).unwrap();
        let ar = &a % &m;
        let br = &b % &m;
        let got = ctx.from_mont(&ctx.mont_mul(&ctx.to_mont(&ar), &ctx.to_mont(&br)));
        prop_assert_eq!(got, ar.mod_mul(&br, &m));
    }

    #[test]
    fn mod_inv_is_inverse(a in biguint_nonzero(), m in odd_modulus()) {
        if let Some(inv) = a.mod_inv(&m) {
            prop_assert!(a.mod_mul(&inv, &m).is_one());
            prop_assert!(inv < m);
        } else {
            // Not coprime: gcd must be > 1.
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in biguint(), b in biguint()) {
        if a >= b {
            prop_assert!(a.checked_sub(&b).is_some());
        } else {
            prop_assert!(a.checked_sub(&b).is_none());
        }
    }
}

/// Strategy producing odd moduli of 256–2048 bits (4–32 limbs), the
/// range the protocol's RSA and homomorphic moduli live in.
fn wide_odd_modulus() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 4..33).prop_map(|mut limbs| {
        limbs[0] |= 1;
        let last = limbs.len() - 1;
        limbs[last] |= 1 << 63; // full declared width
        BigUint::from_limbs(limbs)
    })
}

/// Strategy producing operands up to 2048 bits, possibly unreduced.
fn wide_operand() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..33).prop_map(BigUint::from_limbs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The windowed Montgomery exponentiation must agree bit-for-bit
    /// with naive square-and-multiply (divide-and-reduce per step, the
    /// same code path `mod_pow` uses for even moduli) across the full
    /// 256–2048-bit operand range, including unreduced bases.
    #[test]
    fn windowed_pow_matches_naive_square_multiply(
        base in wide_operand(),
        exp in wide_operand(),
        m in wide_odd_modulus(),
    ) {
        let ctx = Montgomery::new(&m).unwrap();
        let windowed = ctx.pow(&base, &exp);
        prop_assert_eq!(&windowed, &base.mod_pow_naive(&exp, &m));
        // And mod_pow (odd path) must route through the same result.
        prop_assert_eq!(&windowed, &base.mod_pow(&exp, &m));
    }

    /// The even-modulus fallback (mod_pow routes even moduli through
    /// mod_pow_naive) against an independent reference: a plain fold of
    /// modular multiplications.
    #[test]
    fn even_fallback_matches_repeated_multiplication(
        base in wide_operand(),
        exp in 0u64..400,
        m in wide_odd_modulus(),
    ) {
        let even_m = &m + &BigUint::one();
        let mut expected = BigUint::one() % &even_m;
        let base_red = &base % &even_m;
        for _ in 0..exp {
            expected = expected.mod_mul(&base_red, &even_m);
        }
        prop_assert_eq!(base.mod_pow(&BigUint::from(exp), &even_m), expected);
    }

    /// Machine-word exponent fast path (the RSA verify exponent lives
    /// here) against both the windowed and the naive path.
    #[test]
    fn pow_u64_matches_windowed_and_naive(
        base in wide_operand(),
        exp in any::<u64>(),
        m in wide_odd_modulus(),
    ) {
        let ctx = Montgomery::new(&m).unwrap();
        let fast = ctx.pow_u64(&base, exp);
        let exp_big = BigUint::from(exp);
        prop_assert_eq!(&fast, &ctx.pow(&base, &exp_big));
        prop_assert_eq!(&fast, &base.mod_pow_naive(&exp_big, &m));
    }

    /// Division-free modular product against multiply-then-divide.
    #[test]
    fn mul_mod_matches_mod_mul(
        a in wide_operand(),
        b in wide_operand(),
        m in wide_odd_modulus(),
    ) {
        let ctx = Montgomery::new(&m).unwrap();
        let ar = &a % &m;
        let br = &b % &m;
        prop_assert_eq!(ctx.mul_mod(&ar, &br), ar.mod_mul(&br, &m));
    }

    /// The Montgomery accumulator equals a fold of mod_mul.
    #[test]
    fn accumulator_matches_mod_mul_fold(
        values in proptest::collection::vec((1u64..1 << 48).prop_map(BigUint::from), 0..12),
        counts in proptest::collection::vec(0u32..6, 12..13),
        m in wide_odd_modulus(),
    ) {
        let ctx = Montgomery::new(&m).unwrap();
        let mut acc = pag_bignum::MontAccumulator::new(&ctx);
        let mut expected = BigUint::one() % &m;
        for (v, &c) in values.iter().zip(counts.iter()) {
            let vr = v % &m;
            acc.mul_pow(&vr, c);
            for _ in 0..c {
                expected = expected.mod_mul(&vr, &m);
            }
        }
        prop_assert_eq!(acc.finish(), expected);
    }
}

/// An odd modulus of exactly `limbs` limbs (top bit set) from random words.
fn modulus_of_width(words: &[u64], limbs: usize) -> BigUint {
    let mut m = words[..limbs].to_vec();
    m[0] |= 1;
    m[limbs - 1] |= 1 << 63;
    BigUint::from_limbs(m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The identity-aware exits and the sliding windows against naive
    /// square-and-multiply (`mod_pow` itself routes odd moduli through
    /// `Montgomery::pow`, so it is checked for agreement, not used as the
    /// reference): the bases the exits single out and their neighbours,
    /// under exponents on both sides of every window-width boundary, at
    /// every limb width — the fixed 2/4/8 kernels and the generic loop.
    #[test]
    fn pow_edge_bases_and_exponents_at_every_width(
        words in proptest::collection::vec(any::<u64>(), 10..11),
        random_base in wide_operand(),
        e64 in any::<u64>(),
        e_wide in proptest::collection::vec(any::<u64>(), 8..9),
    ) {
        let one = BigUint::one();
        for limbs in 1..=10usize {
            let m = modulus_of_width(&words, limbs);
            let ctx = Montgomery::new(&m).unwrap();
            prop_assert_eq!(ctx.limb_width(), limbs);
            let bases = [
                BigUint::zero(),
                one.clone(),
                &m - &one,
                m.clone(),
                &m + &one,
                random_base.clone(),
            ];
            let small = [0u64, 1, 2, 65_537, e64 | 1 << 63];
            let exps = small.iter().map(|&e| BigUint::from(e)).chain([
                BigUint::from_limbs(e_wide[..3].to_vec()),
                BigUint::from_limbs(e_wide.clone()),
            ]);
            for exp in exps {
                for base in &bases {
                    let expected = base.mod_pow_naive(&exp, &m);
                    prop_assert_eq!(&ctx.pow(base, &exp), &expected, "{} limbs", limbs);
                    prop_assert_eq!(&base.mod_pow(&exp, &m), &expected);
                    if let Some(e) = exp.to_u64() {
                        prop_assert_eq!(&ctx.pow_u64(base, e), &expected, "{} limbs", limbs);
                    }
                }
            }
        }
    }

    /// An accumulator nothing was multiplied into, one fed only ones
    /// (below and above the raw-loop limit of `mul_pow`), and one whose
    /// only factor took the in-domain path (no `R⁻¹` debt at all).
    #[test]
    fn accumulator_identity_cases_at_every_width(
        words in proptest::collection::vec(any::<u64>(), 10..11),
        value in wide_operand(),
        ones in 1u32..40,
    ) {
        let one = BigUint::one();
        for limbs in 1..=10usize {
            let m = modulus_of_width(&words, limbs);
            let ctx = Montgomery::new(&m).unwrap();
            prop_assert!(pag_bignum::MontAccumulator::new(&ctx).finish().is_one());

            let mut acc = pag_bignum::MontAccumulator::new(&ctx);
            acc.mul(&one);
            acc.mul_pow(&one, ones);
            acc.mul_pow(&one, 0);
            prop_assert!(acc.finish().is_one(), "{} limbs, {} ones", limbs, ones);

            let v = &value % &m;
            let mut acc = pag_bignum::MontAccumulator::new(&ctx);
            acc.mul_pow(&v, 17);
            prop_assert_eq!(acc.finish(), v.mod_pow_naive(&BigUint::from(17u64), &m));
        }
    }
}

/// Edge cases the window scanner must not mishandle.
#[test]
fn windowed_pow_edge_cases() {
    let m = BigUint::from_hex_str(
        "f7f6f5f4f3f2f1f0e7e6e5e4e3e2e1e0d7d6d5d4d3d2d1d0c7c6c5c4c3c2c1c1",
    )
    .unwrap();
    let ctx = Montgomery::new(&m).unwrap();
    let big_base = BigUint::one().shl_bits(4000) + BigUint::from(12345u64);

    // Zero exponent: x^0 = 1 for any base, reduced or not.
    assert!(ctx.pow(&big_base, &BigUint::zero()).is_one());
    assert!(ctx.pow(&BigUint::zero(), &BigUint::zero()).is_one());

    // Exponent one returns the reduced base.
    assert_eq!(ctx.pow(&big_base, &BigUint::one()), &big_base % &m);

    // Unreduced base agrees with the naive path on a nontrivial exponent.
    let exp = BigUint::from(0xdead_beef_1234u64);
    assert_eq!(ctx.pow(&big_base, &exp), big_base.mod_pow_naive(&exp, &m));

    // Zero base annihilates for positive exponents.
    assert!(ctx.pow(&BigUint::zero(), &exp).is_zero());

    // Exponent exactly at a window boundary (multiple of 4 and 5 bits).
    let exp20 = BigUint::from((1u64 << 20) - 1);
    assert_eq!(ctx.pow(&big_base, &exp20), big_base.mod_pow_naive(&exp20, &m));
}

// Helper for byte roundtrip test: expose LE encoding via BE reversal.
trait ToBytesLe {
    fn to_bytes_le_for_test(&self) -> Vec<u8>;
}

impl ToBytesLe for BigUint {
    fn to_bytes_le_for_test(&self) -> Vec<u8> {
        let mut v = self.to_bytes_be();
        v.reverse();
        v
    }
}
