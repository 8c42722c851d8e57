//! The micro stage: unit costs of the bignum kernels and the crypto
//! operations the engines count, so that ops × unit cost can be held
//! against the measured session (ROADMAP item 1).
//!
//! Each cost is the median over [`BATCHES`] timed batches of a loop
//! whose inputs and results pass through `black_box`. Parameters are
//! those of the two crypto profiles the workloads use: RSA-512 /
//! 512-bit modulus / 64-bit primes (real), and keyed-hash tags / 96-bit
//! modulus / 24-bit primes (simulation).

use std::hint::black_box;
use std::time::Instant;

use pag_bignum::{gen_prime, random_below, BigUint, Montgomery};
use pag_core::{PagConfig, SharedContext};
use pag_crypto::sha256::sha256;
use pag_crypto::signature::{sign, verify, verify_batch, Signature};
use pag_crypto::{HomomorphicParams, RsaKeyPair};
use pag_membership::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::median;

/// Timed batches per unit cost.
pub const BATCHES: usize = 31;

/// Median seconds per call of `op`, over [`BATCHES`] batches of
/// `per_batch` calls.
fn unit_cost(per_batch: usize, mut op: impl FnMut()) -> f64 {
    op(); // touch code and data once before timing
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t0.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Every unit cost, in seconds per operation (per byte for SHA-256).
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    pub mont_mul_4limb: f64,
    pub mont_mul_8limb: f64,
    pub pow_u64_8limb: f64,
    pub gen_prime_64: f64,
    pub gen_prime_256: f64,
    pub sign: f64,
    pub verify: f64,
    pub verify_batch64_per_sig: f64,
    pub hash: f64,
    pub residue: f64,
    pub keygen: f64,
    pub sim_sign: f64,
    pub sim_verify: f64,
    pub sim_hash: f64,
    pub sim_prime: f64,
    pub sha256_per_byte: f64,
}

/// The Montgomery kernel at `bits`: one `mont_mul` on reduced operands.
fn mont_mul_cost(bits: usize, rng: &mut StdRng) -> f64 {
    let modulus = &gen_prime(bits / 2, rng) * &gen_prime(bits / 2, rng);
    let ctx = Montgomery::new(&modulus).expect("a product of odd primes is odd");
    let b = ctx.to_mont(&random_below(rng, &modulus));
    let mut x = ctx.to_mont(&random_below(rng, &modulus));
    unit_cost(4000, || {
        x = ctx.mont_mul(black_box(&x), black_box(&b));
    })
}

/// Measures every unit cost. `signed_len` is the message length the
/// signing costs are taken at (the workload's mean signed length);
/// `seed` varies the random operands.
pub fn measure(signed_len: usize, seed: u64) -> UnitCosts {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D1C_20AA);
    let msg: Vec<u8> = (0..signed_len.max(1)).map(|i| (i * 31 + 7) as u8).collect();
    let update: Vec<u8> = (0..938usize).map(|i| (i * 13 + 5) as u8).collect();

    let mont_mul_4limb = mont_mul_cost(256, &mut rng);
    let mont_mul_8limb = mont_mul_cost(512, &mut rng);

    let modulus = &gen_prime(256, &mut rng) * &gen_prime(256, &mut rng);
    let ctx = Montgomery::new(&modulus).expect("odd modulus");
    let base = random_below(&mut rng, &modulus);
    let pow_u64_8limb = unit_cost(100, || {
        black_box(ctx.pow_u64(black_box(&base), 65_537));
    });

    let gen_prime_64 = unit_cost(50, || {
        black_box(gen_prime(64, &mut rng));
    });
    let gen_prime_256 = unit_cost(2, || {
        black_box(gen_prime(256, &mut rng));
    });

    // Real profile.
    let kp = RsaKeyPair::generate(512, &mut rng);
    let sig = sign(&kp, &msg);
    let sign_cost = unit_cost(20, || {
        black_box(sign(&kp, black_box(&msg)));
    });
    let verify_cost = unit_cost(100, || {
        black_box(verify(kp.public(), black_box(&msg), &sig));
    });
    let batch_msgs: Vec<Vec<u8>> = (0..64u8)
        .map(|i| msg.iter().map(|b| b.wrapping_add(i)).collect())
        .collect();
    let batch_sigs: Vec<Signature> = batch_msgs.iter().map(|m| sign(&kp, m)).collect();
    let batch: Vec<(&[u8], &Signature)> = batch_msgs
        .iter()
        .zip(&batch_sigs)
        .map(|(m, s)| (m.as_slice(), s))
        .collect();
    let verify_batch64_per_sig = unit_cost(2, || {
        black_box(verify_batch(kp.public(), black_box(&batch)));
    }) / 64.0;
    let params = HomomorphicParams::generate(512, &mut rng);
    let prime = gen_prime(64, &mut rng);
    let residue = params.residue(&update);
    let hash = unit_cost(50, || {
        black_box(params.hash_residue(black_box(&residue), &prime));
    });
    let residue_cost = unit_cost(50, || {
        black_box(params.residue(black_box(&update)));
    });
    let keygen = unit_cost(1, || {
        black_box(RsaKeyPair::generate(512, &mut rng));
    });

    // Simulation profile: the program's own default configuration.
    let sim = SharedContext::new(PagConfig::default(), 4);
    let signer = sim.signer(NodeId(1));
    let tag = signer.sign(&msg);
    let sim_sign = unit_cost(200, || {
        black_box(signer.sign(black_box(&msg)));
    });
    let sim_verify = unit_cost(200, || {
        black_box(signer.verify(black_box(&msg), &tag));
    });
    let sim_bits = sim.config.crypto.prime_bits;
    let sim_prime_value: BigUint = gen_prime(sim_bits, &mut rng);
    let sim_residue = sim.params.residue(&update);
    let sim_hash = unit_cost(500, || {
        black_box(
            sim.params
                .hash_residue(black_box(&sim_residue), &sim_prime_value),
        );
    });
    let sim_prime = unit_cost(200, || {
        black_box(gen_prime(sim_bits, &mut rng));
    });

    let buf = vec![0x11u8; 16 * 1024];
    let sha256_per_byte = unit_cost(20, || {
        black_box(sha256(black_box(&buf)));
    }) / buf.len() as f64;

    UnitCosts {
        mont_mul_4limb,
        mont_mul_8limb,
        pow_u64_8limb,
        gen_prime_64,
        gen_prime_256,
        sign: sign_cost,
        verify: verify_cost,
        verify_batch64_per_sig,
        hash,
        residue: residue_cost,
        keygen,
        sim_sign,
        sim_verify,
        sim_hash,
        sim_prime,
        sha256_per_byte,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_grows_with_the_work_in_the_loop() {
        // black_box is a hint: confirm time tracks iteration count.
        let work = |n: u64| {
            unit_cost(20, || {
                let mut x = 1u64;
                for i in 0..n {
                    x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
                }
                black_box(x);
            })
        };
        let (small, large) = (work(2_000), work(200_000));
        assert!(large > small * 10.0, "{small} vs {large}");
    }
}
