//! Hash-then-sign RSA signatures (PKCS#1 v1.5-style padding over SHA-256).
//!
//! Every PAG message `⟨m⟩_X` carries a signature by its emitter; signatures
//! double as the *proofs of misbehaviour* that monitors exhibit when a node
//! deviates (§VI-B: "nodes register the messages they send or receive, and
//! can use them to prove their correctness or that another node deviated").

use std::sync::Arc;

use pag_bignum::BigUint;

use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha256::{sha256, DIGEST_LEN};

/// A detached RSA signature over a message.
///
/// The byte representation always has the length of the signer's modulus,
/// which is what the wire-size accounting in `pag-core` relies on
/// (RSA-2048 -> 256 bytes, as in the paper's §VII-A).
///
/// Signatures travel as relayable evidence through the monitoring
/// pipeline (messages 6–9, accusations, exhibits) and get cloned at
/// every hop; the bytes are `Arc`-shared so a clone is a refcount bump,
/// not a 256-byte copy.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    bytes: Arc<[u8]>,
}

impl Signature {
    /// The raw signature bytes (big-endian, modulus-length).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Signature length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the signature is empty (never produced by [`sign`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reconstructs a signature received from the network.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Signature {
            bytes: bytes.into(),
        }
    }
}

/// Builds the padded encoding `0x00 0x01 0xFF.. 0x00 || digest` of a digest.
fn encode_digest(digest: &[u8; DIGEST_LEN], k: usize) -> BigUint {
    assert!(k >= DIGEST_LEN + 11, "modulus too small for PKCS#1 padding");
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - DIGEST_LEN - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(digest);
    debug_assert_eq!(em.len(), k);
    BigUint::from_bytes_be(&em)
}

/// Signs a message with the key pair's private key.
///
/// # Panics
///
/// Panics if the modulus is smaller than 43 bytes (344 bits), the minimum
/// for SHA-256 PKCS#1 padding.
pub fn sign(keypair: &RsaKeyPair, message: &[u8]) -> Signature {
    let k = keypair.public().modulus_len();
    let em = encode_digest(&sha256(message), k);
    let s = keypair
        .decrypt_raw(&em)
        .expect("encoded digest < modulus by construction");
    Signature {
        bytes: s.to_bytes_be_padded(k).into(),
    }
}

/// Verifies a signature against a message and public key.
///
/// Returns `false` for any malformed or forged signature; never panics on
/// untrusted input.
pub fn verify(public: &RsaPublicKey, message: &[u8], signature: &Signature) -> bool {
    let k = public.modulus_len();
    if signature.bytes.len() != k || k < DIGEST_LEN + 11 {
        return false;
    }
    let s = BigUint::from_bytes_be(&signature.bytes);
    let Ok(em) = public.encrypt_raw(&s) else {
        return false;
    };
    em == encode_digest(&sha256(message), k)
}

/// Verifies a batch of signatures by the same signer, returning one
/// verdict per `(message, signature)` pair in input order.
///
/// The fast path is the product screen of
/// [`RsaPublicKey::verify_batch_raw`]: one shared Montgomery context,
/// two accumulated products and a single `e = 65537` exponentiation for
/// the whole batch. When the screen passes, every well-formed pair is
/// reported valid. When it fails — or a pair is malformed (wrong
/// length, value ≥ n) — the affected pairs are re-checked individually
/// so invalid signatures are attributed exactly, matching [`verify`]
/// pair for pair. See `verify_batch_raw` for the cancellation caveat
/// (only the key holder can craft a cancelling invalid set, and a
/// signer can sign anything it likes anyway).
pub fn verify_batch(public: &RsaPublicKey, items: &[(&[u8], &Signature)]) -> Vec<bool> {
    if items.len() < 2 {
        return items
            .iter()
            .map(|(msg, sig)| verify(public, msg, sig))
            .collect();
    }
    let k = public.modulus_len();
    if k < DIGEST_LEN + 11 {
        return vec![false; items.len()];
    }
    // Decode every pair once; malformed pairs are immediately invalid
    // and excluded from the screen.
    let mut verdicts = vec![false; items.len()];
    let mut screened: Vec<(usize, BigUint, BigUint)> = Vec::with_capacity(items.len());
    for (i, (msg, sig)) in items.iter().enumerate() {
        if sig.bytes.len() != k {
            continue;
        }
        let s = BigUint::from_bytes_be(&sig.bytes);
        if &s >= public.modulus() {
            continue;
        }
        screened.push((i, encode_digest(&sha256(msg), k), s));
    }
    let pairs: Vec<(&BigUint, &BigUint)> =
        screened.iter().map(|(_, em, s)| (em, s)).collect();
    if !pairs.is_empty() && public.verify_batch_raw(&pairs) {
        for (i, _, _) in &screened {
            verdicts[*i] = true;
        }
    } else {
        for (i, em, s) in &screened {
            verdicts[*i] = public
                .encrypt_raw(s)
                .map(|recovered| &recovered == em)
                .unwrap_or(false);
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(99);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let msg = b"Serve, R, A, B, K(R-1,A), updates";
        let sig = sign(&kp, msg);
        assert!(verify(kp.public(), msg, &sig));
    }

    #[test]
    fn signature_has_modulus_length() {
        let kp = keypair();
        let sig = sign(&kp, b"x");
        assert_eq!(sig.len(), kp.public().modulus_len());
        assert!(!sig.is_empty());
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = keypair();
        let sig = sign(&kp, b"original");
        assert!(!verify(kp.public(), b"tampered", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let mut sig = sign(&kp, b"message").as_bytes().to_vec();
        sig[10] ^= 0xff;
        assert!(!verify(kp.public(), b"message", &Signature::from_bytes(sig)));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = StdRng::seed_from_u64(100);
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, &mut rng);
        let sig = sign(&kp1, b"message");
        assert!(!verify(kp2.public(), b"message", &sig));
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = keypair();
        assert!(!verify(kp.public(), b"m", &Signature::from_bytes(vec![0; 10])));
        assert!(!verify(kp.public(), b"m", &Signature::from_bytes(Vec::new())));
    }

    #[test]
    fn all_ff_signature_rejected() {
        let kp = keypair();
        let k = kp.public().modulus_len();
        // Value >= modulus: encrypt_raw must reject rather than panic.
        assert!(!verify(kp.public(), b"m", &Signature::from_bytes(vec![0xff; k])));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = keypair();
        assert_eq!(sign(&kp, b"same"), sign(&kp, b"same"));
    }

    #[test]
    fn batch_all_valid() {
        let kp = keypair();
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 20]).collect();
        let sigs: Vec<Signature> = msgs.iter().map(|m| sign(&kp, m)).collect();
        let items: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        assert_eq!(verify_batch(kp.public(), &items), vec![true; 8]);
    }

    #[test]
    fn batch_attributes_single_invalid() {
        let kp = keypair();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 20]).collect();
        let mut sigs: Vec<Signature> = msgs.iter().map(|m| sign(&kp, m)).collect();
        // Forge one: signature over a different message.
        sigs[3] = sign(&kp, b"not message 3");
        let items: Vec<(&[u8], &Signature)> = msgs
            .iter()
            .zip(&sigs)
            .map(|(m, s)| (m.as_slice(), s))
            .collect();
        let verdicts = verify_batch(kp.public(), &items);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, i != 3, "pair {i}");
        }
    }

    #[test]
    fn batch_matches_individual_verify() {
        // Every batch verdict must equal the one-at-a-time verdict,
        // across valid, forged, truncated and oversized signatures.
        let kp = keypair();
        let k = kp.public().modulus_len();
        let msgs: Vec<&[u8]> = vec![b"a", b"b", b"c", b"d", b"e"];
        let sigs = vec![
            sign(&kp, b"a"),
            sign(&kp, b"wrong"),
            Signature::from_bytes(vec![0x11; 10]),
            Signature::from_bytes(vec![0xff; k]),
            sign(&kp, b"e"),
        ];
        let items: Vec<(&[u8], &Signature)> =
            msgs.iter().zip(&sigs).map(|(m, s)| (*m, s)).collect();
        let batch = verify_batch(kp.public(), &items);
        let individual: Vec<bool> = items
            .iter()
            .map(|(m, s)| verify(kp.public(), m, s))
            .collect();
        assert_eq!(batch, individual);
        assert_eq!(batch, vec![true, false, false, false, true]);
    }

    #[test]
    fn batch_small_inputs() {
        let kp = keypair();
        assert!(verify_batch(kp.public(), &[]).is_empty());
        let sig = sign(&kp, b"solo");
        let items: Vec<(&[u8], &Signature)> = vec![(b"solo", &sig)];
        assert_eq!(verify_batch(kp.public(), &items), vec![true]);
    }

    #[test]
    fn batch_raw_screen_detects_mismatch() {
        let kp = keypair();
        let m1 = sign(&kp, b"one");
        let m2 = sign(&kp, b"two");
        let em1 = encode_digest(&sha256(b"one"), kp.public().modulus_len());
        let em2 = encode_digest(&sha256(b"two"), kp.public().modulus_len());
        let s1 = BigUint::from_bytes_be(m1.as_bytes());
        let s2 = BigUint::from_bytes_be(m2.as_bytes());
        assert!(kp.public().verify_batch_raw(&[(&em1, &s1), (&em2, &s2)]));
        // Corrupt one signature: the products diverge and the screen fails.
        let bad = &s2 + &BigUint::one();
        assert!(!kp.public().verify_batch_raw(&[(&em1, &s1), (&em2, &bad)]));
        // The documented cancellation caveat, pinned: swapping two valid
        // signatures leaves both products unchanged, so the *screen*
        // passes even though neither pair verifies individually. Only a
        // party already holding valid signatures from this signer can
        // construct such a set, but it is why an in-engine batch has to
        // randomise the product (DESIGN.md §16).
        assert!(kp.public().verify_batch_raw(&[(&em1, &s2), (&em2, &s1)]));
        assert!(!kp.public().encrypt_raw(&s2).map(|r| r == em1).unwrap());
    }
}
