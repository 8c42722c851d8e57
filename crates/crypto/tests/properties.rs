//! Property-based tests: the homomorphic identities must hold for *all*
//! update contents, exponents and set sizes — these invariants are what
//! make the monitors' verification sound.

use pag_bignum::BigUint;
use pag_crypto::homomorphic::HomomorphicParams;
use pag_crypto::sha256::sha256;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params() -> HomomorphicParams {
    // Fixed parameters: properties must hold for any modulus, and a fixed
    // one keeps the suite fast.
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    HomomorphicParams::generate(128, &mut rng)
}

proptest! {
    #[test]
    fn hash_product_identity(
        u1 in proptest::collection::vec(any::<u8>(), 1..64),
        u2 in proptest::collection::vec(any::<u8>(), 1..64),
        p in 2u64..1_000_000,
    ) {
        let params = params();
        let p = BigUint::from(p);
        let lhs = params.combine(&params.hash(&u1, &p), &params.hash(&u2, &p));
        let prod = params.residue(&u1).mod_mul(&params.residue(&u2), params.modulus());
        prop_assert_eq!(lhs, params.hash_residue(&prod, &p));
    }

    #[test]
    fn exponent_composition_identity(
        u in proptest::collection::vec(any::<u8>(), 1..64),
        p1 in 2u64..100_000,
        p2 in 2u64..100_000,
    ) {
        let params = params();
        let h = params.hash(&u, &BigUint::from(p1));
        let nested = params.raise(&h, &BigUint::from(p2));
        prop_assert_eq!(nested, params.hash(&u, &BigUint::from(p1 * p2)));
    }

    #[test]
    fn verification_equation_holds_for_any_fanout(
        seed in any::<u64>(),
        fanout in 1usize..6,
    ) {
        let params = params();
        let mut rng = StdRng::seed_from_u64(seed);
        let primes: Vec<BigUint> =
            (0..fanout).map(|_| pag_bignum::gen_prime(20, &mut rng)).collect();
        let sets: Vec<BigUint> = (0..fanout)
            .map(|i| params.residue(format!("set-{i}-{seed}").as_bytes()))
            .collect();
        let k = primes.iter().fold(BigUint::one(), |acc, p| &acc * p);
        let attestations: Vec<_> = (0..fanout)
            .map(|j| {
                let cofactor = (0..fanout)
                    .filter(|&i| i != j)
                    .fold(BigUint::one(), |acc, i| &acc * &primes[i]);
                (params.hash_residue(&sets[j], &primes[j]), cofactor)
            })
            .collect();
        let ack = params.hash_residue(&params.product_residue(sets.iter()), &k);
        prop_assert!(params.verify_forwarding(&attestations, &ack));
    }

    #[test]
    fn verification_rejects_wrong_ack(
        seed in any::<u64>(),
    ) {
        let params = params();
        let mut rng = StdRng::seed_from_u64(seed);
        let p = pag_bignum::gen_prime(20, &mut rng);
        let s = params.residue(b"the real set");
        let attestations = vec![(params.hash_residue(&s, &p), BigUint::one())];
        // Ack for a different set.
        let bad = params.hash_residue(&params.residue(b"a forged set"), &p);
        // Collision would require H(real) == H(forged), i.e. equal residues.
        if params.residue(b"the real set") != params.residue(b"a forged set") {
            prop_assert!(!params.verify_forwarding(&attestations, &bad));
        }
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let d1 = sha256(&data);
        prop_assert_eq!(d1, sha256(&data));
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            prop_assert_ne!(d1, sha256(&flipped));
        }
    }
}
