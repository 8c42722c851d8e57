//! From-scratch cryptographic substrate for the PAG (*Private and
//! Accountable Gossip*, ICDCS 2016) reproduction.
//!
//! The paper assumes "secure asymmetric key encryptions and signatures"
//! plus a multiplicatively homomorphic hash; this crate supplies all of
//! them, built only on [`pag_bignum`]:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (NIST-vector tested).
//! * [`chacha20`] — RFC 8439 stream cipher (RFC-vector tested).
//! * [`rsa`] / [`signature`] — RSA key generation, hash-then-sign
//!   signatures (`⟨m⟩_X` in the paper's notation).
//! * [`encrypt`] — hybrid public-key encryption (`{m}_pk(X)`).
//! * [`homomorphic`] — the hash `H(u)_(p,M) = u^p mod M` with both
//!   multiplicative properties and the monitors' verification equation.
//! * [`keys`] — per-node RSA keyrings derived from seeds.
//! * [`sizes`] — the wire-size constants of the paper's deployment
//!   (938-byte updates, RSA-2048 signatures, 512-bit hashes and primes).
//!
//! **Security disclaimer**: primitives are implemented for protocol
//! fidelity and benchmarking, not hardened against side channels. Do not
//! reuse outside this reproduction.
//!
//! # Examples
//!
//! ```
//! use pag_crypto::homomorphic::HomomorphicParams;
//! use pag_bignum::BigUint;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let params = HomomorphicParams::generate(128, &mut rng);
//! let p = BigUint::from(7919u64);
//! let h1 = params.hash(b"chunk-1", &p);
//! let h2 = params.hash(b"chunk-2", &p);
//! let combined = params.combine(&h1, &h2);
//! let product = params
//!     .residue(b"chunk-1")
//!     .mod_mul(&params.residue(b"chunk-2"), params.modulus());
//! assert_eq!(combined, params.hash_residue(&product, &p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod encrypt;
mod error;
pub mod homomorphic;
pub mod keys;
pub mod rsa;
pub mod sha256;
pub mod signature;
pub mod sizes;

pub use error::CryptoError;
pub use homomorphic::{HomomorphicHash, HomomorphicParams, StoredResidue};
pub use keys::Keyring;
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use signature::Signature;
