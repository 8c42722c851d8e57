//! Arbitrary-precision unsigned integer arithmetic for the PAG
//! (*Private and Accountable Gossip*, ICDCS 2016) reproduction.
//!
//! The paper's cryptographic machinery — RSA-2048 signatures and the
//! homomorphic hash `H(u)_(p,M) = u^p mod M` over a 512-bit modulus — needs
//! multi-precision modular arithmetic. This crate provides exactly that,
//! built from scratch on `u64` limbs:
//!
//! * [`BigUint`] — the integer type, with full operator support.
//! * [`Montgomery`] — reusable context for fast modular exponentiation.
//! * [`gen_prime`] / [`BigUint::is_probable_prime`] — Miller–Rabin based
//!   prime generation (PAG receivers mint one prime per predecessor per
//!   round; RSA key generation needs two large primes).
//! * [`random_bits`] / [`random_below`] — uniform random values.
//!
//! # Examples
//!
//! The homomorphic property the whole paper rests on,
//! `H(u1)·H(u2) = H(u1·u2) (mod M)`:
//!
//! ```
//! use pag_bignum::{gen_prime, random_below, BigUint};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let m = &gen_prime(64, &mut rng) * &gen_prime(64, &mut rng);
//! let p = gen_prime(32, &mut rng);
//! let u1 = random_below(&mut rng, &m);
//! let u2 = random_below(&mut rng, &m);
//!
//! let h1 = u1.mod_pow(&p, &m);
//! let h2 = u2.mod_pow(&p, &m);
//! let h12 = u1.mod_mul(&u2, &m).mod_pow(&p, &m);
//! assert_eq!(h1.mod_mul(&h2, &m), h12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod div;
mod error;
mod modular;
mod montgomery;
mod mul;
mod prime;
mod random;
mod uint;

pub use error::ParseBigUintError;
pub use montgomery::{FixedBaseTable, MontAccumulator, Montgomery};
pub use prime::{gen_prime, gen_prime_below, DEFAULT_MILLER_RABIN_ROUNDS};
pub use random::{random_below, random_bits, random_range};
pub use uint::BigUint;
