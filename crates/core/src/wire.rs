//! Wire-size accounting **and** the byte-level codec.
//!
//! The paper evaluates with 938-byte updates, RSA-2048 signatures and
//! 512-bit hashes/primes (§VII-A). Simulations here may run with smaller,
//! faster crypto while *charging* bandwidth at the paper's sizes — the
//! protocol logic and message counts are identical either way.
//!
//! Since PR 2 the accounting is backed by a real codec:
//! [`encode_frame`] / [`decode_frame`] serialize a [`SignedMessage`]
//! into the exact byte layout the sizes describe, and the encoded length
//! of every message equals [`MessageBody::wire_size`] plus the outer
//! signature — the invariant the codec property tests pin down. The
//! real-time threaded driver in `pag-runtime` ships these bytes through
//! its links, so its traffic report counts real frames, not estimates.
//!
//! Field widths come from the [`WireConfig`]: big integers (hashes,
//! primes, prime products) travel left-padded to their configured width;
//! payloads are padded to `update_payload` with an explicit length
//! prefix; signatures must match the configured signature width exactly
//! (run profiles already guarantee this — MAC tags are minted at
//! `wire.signature` bytes and RSA signatures are modulus-length). The
//! `seal_overhead` region stands in for the hybrid-encryption envelope
//! (`{...}_pk(X)`): the reproduction sends plaintext, so it is zero
//! padding of the charged size.

use std::sync::Arc;

use pag_bignum::BigUint;
use pag_crypto::{sizes, HomomorphicHash, Signature};
use pag_membership::NodeId;

use crate::messages::{HashTriple, MessageBody, ServedRef, ServedUpdate, SignedMessage};
use crate::update::UpdateId;

/// A protocol-defined traffic class (index into per-class counters).
///
/// Lives in `pag-core` so the sans-IO engine can classify its sends
/// without referencing any driver; drivers map it onto their own
/// accounting (the simnet adapter converts to `pag_simnet`'s class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TrafficClass(pub u8);

impl TrafficClass {
    /// Catch-all class 0.
    pub const DEFAULT: TrafficClass = TrafficClass(0);
}

/// Sizes (in bytes) used to compute the wire footprint of every message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireConfig {
    /// One update payload.
    pub update_payload: usize,
    /// One homomorphic hash.
    pub hash: usize,
    /// One prime (and per-factor size of prime products).
    pub prime: usize,
    /// One signature.
    pub signature: usize,
    /// Fixed overhead of a public-key sealed payload.
    pub seal_overhead: usize,
    /// One update identifier.
    pub update_id: usize,
    /// One buffermap reference (index + reception count).
    pub reference: usize,
    /// Fixed per-message header (type, round, sender, receiver).
    pub header: usize,
    /// One collection-length / factor-count field.
    pub count: usize,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            update_payload: sizes::UPDATE_PAYLOAD_BYTES,
            hash: sizes::HASH_BYTES,
            prime: sizes::PRIME_BYTES,
            signature: sizes::SIGNATURE_BYTES,
            seal_overhead: sizes::SEAL_OVERHEAD_BYTES,
            update_id: sizes::UPDATE_ID_BYTES,
            reference: 6,
            header: sizes::MESSAGE_HEADER_BYTES,
            count: 2,
        }
    }
}

impl WireConfig {
    /// Scales the update payload, keeping everything else at paper values
    /// (the Fig. 8 update-size sweep).
    pub fn with_update_payload(mut self, bytes: usize) -> Self {
        self.update_payload = bytes;
        self
    }

    /// Size of a served update: id, creation round (4), reception count
    /// (2), flags (1), payload length (2), padded payload.
    pub fn served_update(&self) -> usize {
        self.update_id + 4 + 2 + 1 + 2 + self.update_payload
    }

    /// Size of a prime product with `factors` prime factors.
    pub fn prime_product(&self, factors: usize) -> usize {
        self.prime * factors.max(1)
    }
}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// Why a message cannot be encoded or decoded under a [`WireConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A numeric or big-integer field does not fit its configured width.
    Overflow {
        /// The offending field.
        field: &'static str,
    },
    /// A signature's length differs from `wire.signature`.
    SignatureLength {
        /// The offending field.
        field: &'static str,
        /// Actual signature length.
        got: usize,
        /// Configured wire width.
        want: usize,
    },
    /// A payload exceeds `wire.update_payload`.
    PayloadTooLarge {
        /// Actual payload length.
        got: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The buffer ended inside `field`.
    Truncated {
        /// The field being read.
        field: &'static str,
    },
    /// Unknown message-type tag.
    UnknownType(u8),
    /// Bytes left over after a complete message.
    TrailingBytes {
        /// How many bytes remained.
        extra: usize,
    },
    /// A stream frame's length prefix exceeds the configured maximum —
    /// a malformed or hostile peer; the connection should be dropped.
    FrameTooLarge {
        /// The announced (or actual) frame length.
        got: usize,
        /// The configured maximum.
        max: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Overflow { field } => write!(f, "field {field} overflows its wire width"),
            CodecError::SignatureLength { field, got, want } => {
                write!(f, "signature {field} is {got} bytes, wire expects {want}")
            }
            CodecError::PayloadTooLarge { got, max } => {
                write!(f, "payload of {got} bytes exceeds wire maximum {max}")
            }
            CodecError::Truncated { field } => write!(f, "frame truncated inside {field}"),
            CodecError::UnknownType(t) => write!(f, "unknown message type {t}"),
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes after message"),
            CodecError::FrameTooLarge { got, max } => {
                write!(f, "stream frame of {got} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A decoded frame: addressing plus the signed message.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Emitting node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// The message, signature included.
    pub msg: SignedMessage,
}

struct Writer<'w> {
    out: Vec<u8>,
    wire: &'w WireConfig,
}

impl<'w> Writer<'w> {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Big-endian unsigned integer in exactly `width` bytes.
    fn uint(&mut self, v: u64, width: usize, field: &'static str) -> Result<(), CodecError> {
        if width < 8 && v >= 1u64 << (8 * width) {
            return Err(CodecError::Overflow { field });
        }
        let be = v.to_be_bytes();
        if width <= 8 {
            self.out.extend_from_slice(&be[8 - width..]);
        } else {
            self.zeros(width - 8);
            self.out.extend_from_slice(&be);
        }
        Ok(())
    }

    fn node(&mut self, id: NodeId) {
        self.out.extend_from_slice(&id.value().to_be_bytes());
    }

    fn count(&mut self, v: usize, field: &'static str) -> Result<(), CodecError> {
        self.uint(v as u64, self.wire.count, field)
    }

    fn zeros(&mut self, n: usize) {
        self.out.resize(self.out.len() + n, 0);
    }

    /// Big integer left-padded to `width`.
    fn biguint(&mut self, v: &BigUint, width: usize, field: &'static str) -> Result<(), CodecError> {
        let bytes = v.to_bytes_be();
        if bytes.len() > width {
            return Err(CodecError::Overflow { field });
        }
        self.zeros(width - bytes.len());
        self.out.extend_from_slice(&bytes);
        Ok(())
    }

    fn sig(&mut self, s: &Signature, field: &'static str) -> Result<(), CodecError> {
        if s.len() != self.wire.signature {
            return Err(CodecError::SignatureLength {
                field,
                got: s.len(),
                want: self.wire.signature,
            });
        }
        self.out.extend_from_slice(s.as_bytes());
        Ok(())
    }

    fn triple(&mut self, t: &HashTriple, field: &'static str) -> Result<(), CodecError> {
        let w = self.wire.hash;
        self.biguint(t.expiring.value(), w, field)?;
        self.biguint(t.fresh.value(), w, field)?;
        self.biguint(t.duplicate.value(), w, field)
    }

    fn served(&mut self, u: &ServedUpdate) -> Result<(), CodecError> {
        self.uint(u.id.0, self.wire.update_id, "served.id")?;
        self.uint(u.created_round, 4, "served.created_round")?;
        self.uint(u.count as u64, 2, "served.count")?;
        self.u8(u.expiring as u8);
        let max = self.wire.update_payload;
        if u.payload.len() > max || u.payload.len() > u16::MAX as usize {
            return Err(CodecError::PayloadTooLarge {
                got: u.payload.len(),
                max,
            });
        }
        self.uint(u.payload.len() as u64, 2, "served.payload_len")?;
        self.out.extend_from_slice(&u.payload);
        self.zeros(max - u.payload.len());
        Ok(())
    }

    fn sref(&mut self, r: &ServedRef) -> Result<(), CodecError> {
        if self.wire.reference != 6 {
            return Err(CodecError::Overflow { field: "reference" });
        }
        self.out.extend_from_slice(&r.index.to_be_bytes());
        self.uint(r.count as u64, 2, "ref.count")
    }

    /// The `k_prev`-style prime product, padded to its charged width.
    fn product(&mut self, v: &BigUint, factors: u32, field: &'static str) -> Result<(), CodecError> {
        let width = self.wire.prime_product(factors as usize);
        self.biguint(v, width, field)
    }

    /// The served-set block shared by Serve, Accuse and ReAsk: factor
    /// count, collection counts, prime product, updates, references.
    fn served_set(
        &mut self,
        k_prev: &BigUint,
        k_prev_factors: u32,
        fresh: &[ServedUpdate],
        refs: &[ServedRef],
    ) -> Result<(), CodecError> {
        self.count(k_prev_factors as usize, "k_prev_factors")?;
        self.count(fresh.len(), "fresh.len")?;
        self.count(refs.len(), "refs.len")?;
        self.product(k_prev, k_prev_factors, "k_prev")?;
        for u in fresh {
            self.served(u)?;
        }
        for r in refs {
            self.sref(r)?;
        }
        Ok(())
    }
}

/// Decoded form of the served-set block (see [`Writer::served_set`]).
struct ServedSet {
    k_prev: BigUint,
    k_prev_factors: u32,
    fresh: Vec<ServedUpdate>,
    refs: Vec<ServedRef>,
}

struct Reader<'r> {
    buf: &'r [u8],
    pos: usize,
    wire: &'r WireConfig,
}

impl<'r> Reader<'r> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'r [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    fn uint(&mut self, width: usize, field: &'static str) -> Result<u64, CodecError> {
        let bytes = self.take(width, field)?;
        let mut v: u64 = 0;
        for &b in bytes.iter().skip(bytes.len().saturating_sub(8)) {
            v = (v << 8) | b as u64;
        }
        Ok(v)
    }

    fn node(&mut self, field: &'static str) -> Result<NodeId, CodecError> {
        Ok(NodeId(self.uint(4, field)? as u32))
    }

    fn count(&mut self, field: &'static str) -> Result<usize, CodecError> {
        Ok(self.uint(self.wire.count, field)? as usize)
    }

    fn biguint(&mut self, width: usize, field: &'static str) -> Result<BigUint, CodecError> {
        Ok(BigUint::from_bytes_be(self.take(width, field)?))
    }

    fn sig(&mut self, field: &'static str) -> Result<Signature, CodecError> {
        Ok(Signature::from_bytes(
            self.take(self.wire.signature, field)?.to_vec(),
        ))
    }

    fn hash(&mut self, field: &'static str) -> Result<HomomorphicHash, CodecError> {
        Ok(HomomorphicHash::from_value(self.biguint(self.wire.hash, field)?))
    }

    fn triple(&mut self, field: &'static str) -> Result<HashTriple, CodecError> {
        Ok(HashTriple {
            expiring: self.hash(field)?,
            fresh: self.hash(field)?,
            duplicate: self.hash(field)?,
        })
    }

    fn served(&mut self) -> Result<ServedUpdate, CodecError> {
        let id = UpdateId(self.uint(self.wire.update_id, "served.id")?);
        let created_round = self.uint(4, "served.created_round")?;
        let count = self.uint(2, "served.count")? as u32;
        let expiring = self.u8("served.flags")? & 1 == 1;
        let plen = self.uint(2, "served.payload_len")? as usize;
        if plen > self.wire.update_payload {
            return Err(CodecError::PayloadTooLarge {
                got: plen,
                max: self.wire.update_payload,
            });
        }
        let payload: Arc<[u8]> = self.take(plen, "served.payload")?.to_vec().into();
        self.take(self.wire.update_payload - plen, "served.padding")?;
        Ok(ServedUpdate {
            id,
            created_round,
            payload,
            count,
            expiring,
        })
    }

    fn sref(&mut self) -> Result<ServedRef, CodecError> {
        let index = self.uint(4, "ref.index")? as u32;
        let count = self.uint(2, "ref.count")? as u32;
        Ok(ServedRef { index, count })
    }

    fn product(&mut self, factors: u32, field: &'static str) -> Result<BigUint, CodecError> {
        let width = self.wire.prime_product(factors as usize);
        self.biguint(width, field)
    }

    fn seal(&mut self) -> Result<(), CodecError> {
        self.take(self.wire.seal_overhead, "seal")?;
        Ok(())
    }

    fn served_set(&mut self) -> Result<ServedSet, CodecError> {
        let k_prev_factors = self.count("k_prev_factors")? as u32;
        let n = self.count("fresh.len")?;
        let m = self.count("refs.len")?;
        let k_prev = self.product(k_prev_factors, "k_prev")?;
        let mut fresh = Vec::with_capacity(n);
        for _ in 0..n {
            fresh.push(self.served()?);
        }
        let mut refs = Vec::with_capacity(m);
        for _ in 0..m {
            refs.push(self.sref()?);
        }
        Ok(ServedSet {
            k_prev,
            k_prev_factors,
            fresh,
            refs,
        })
    }
}

/// Numeric tag of each message variant (shared with
/// [`MessageBody::signable_bytes`]'s domain separation).
fn type_tag(body: &MessageBody) -> u8 {
    match body {
        MessageBody::KeyRequest { .. } => 1,
        MessageBody::KeyResponse { .. } => 2,
        MessageBody::Serve { .. } => 3,
        MessageBody::Attestation { .. } => 4,
        MessageBody::Ack { .. } => 5,
        MessageBody::MonitorAck { .. } => 6,
        MessageBody::MonitorAttestation { .. } => 7,
        MessageBody::MonitorBroadcast { .. } => 8,
        MessageBody::AckForward { .. } => 9,
        MessageBody::SourceDeclare { .. } => 10,
        MessageBody::Accuse { .. } => 11,
        MessageBody::ReAsk { .. } => 12,
        MessageBody::ReAskAck { .. } => 13,
        MessageBody::Confirm { .. } => 14,
        MessageBody::Nack { .. } => 15,
        MessageBody::ExhibitRequest { .. } => 16,
        MessageBody::ExhibitResponse { .. } => 17,
        MessageBody::ExhibitNotice { .. } => 18,
        MessageBody::SelfAccum { .. } => 19,
        MessageBody::JoinAnnounce { .. } => 20,
        MessageBody::LeaveAnnounce { .. } => 21,
        MessageBody::HandshakeHello { .. } => 22,
        MessageBody::HandshakeProof { .. } => 23,
        MessageBody::HandshakeAccept { .. } => 24,
        MessageBody::HandshakeReject { .. } => 25,
    }
}

/// Serializes one frame: 13-byte header (type, round, from, to), the
/// message body at configured field widths, and the outer signature.
///
/// The returned length always equals `msg.wire_size(wire)` — encode
/// errors, never silent divergence, keep the codec and the accounting in
/// lock step.
pub fn encode_frame(
    from: NodeId,
    to: NodeId,
    msg: &SignedMessage,
    wire: &WireConfig,
) -> Result<Vec<u8>, CodecError> {
    // The header layout is fixed (type u8, round u32, two u32 node ids);
    // refuse profiles that charge a different width rather than letting
    // the length invariant silently break in release builds.
    if wire.header != 13 {
        return Err(CodecError::Overflow { field: "header" });
    }
    let mut w = Writer {
        out: Vec::with_capacity(msg.wire_size(wire)),
        wire,
    };
    w.u8(type_tag(&msg.body));
    w.uint(msg.body.round(), 4, "round")?;
    w.node(from);
    w.node(to);

    match &msg.body {
        MessageBody::KeyRequest { .. } => {}
        MessageBody::KeyResponse {
            prime, buffermap, ..
        } => {
            w.count(buffermap.len(), "buffermap.len")?;
            w.biguint(prime, wire.prime, "prime")?;
            for h in buffermap {
                w.biguint(h, wire.hash, "buffermap.hash")?;
            }
            w.zeros(wire.seal_overhead);
        }
        MessageBody::Serve {
            k_prev,
            k_prev_factors,
            fresh,
            refs,
            ..
        } => {
            w.served_set(k_prev, *k_prev_factors, fresh, refs)?;
            w.zeros(wire.seal_overhead);
        }
        MessageBody::Attestation { hashes, .. }
        | MessageBody::Ack { hashes, .. }
        | MessageBody::SourceDeclare { hashes, .. } => {
            w.triple(hashes, "hashes")?;
        }
        MessageBody::MonitorAck {
            sender, ack, ack_sig, ..
        } => {
            w.node(*sender);
            w.triple(ack, "ack")?;
            w.sig(ack_sig, "ack_sig")?;
        }
        MessageBody::MonitorAttestation {
            sender,
            attestation,
            cofactor,
            cofactor_factors,
            ..
        } => {
            w.node(*sender);
            w.count(*cofactor_factors as usize, "cofactor_factors")?;
            w.triple(attestation, "attestation")?;
            w.product(cofactor, *cofactor_factors, "cofactor")?;
            // Reserved evidence slot: the accounting charges the relayed
            // attestation signature the in-memory model elides.
            w.zeros(wire.signature);
            w.zeros(wire.seal_overhead);
        }
        MessageBody::MonitorBroadcast {
            watched,
            sender,
            combined,
            ack,
            ack_sig,
            ..
        } => {
            w.node(*watched);
            w.node(*sender);
            w.triple(combined, "combined")?;
            w.triple(ack, "ack")?;
            w.sig(ack_sig, "ack_sig")?;
        }
        MessageBody::AckForward {
            sender,
            receiver,
            ack,
            ack_sig,
            ..
        } => {
            w.node(*sender);
            w.node(*receiver);
            w.triple(ack, "ack")?;
            w.sig(ack_sig, "ack_sig")?;
        }
        MessageBody::Accuse {
            accused,
            k_prev,
            k_prev_factors,
            fresh,
            refs,
            ..
        } => {
            w.node(*accused);
            w.served_set(k_prev, *k_prev_factors, fresh, refs)?;
        }
        MessageBody::ReAsk {
            accuser,
            k_prev,
            k_prev_factors,
            fresh,
            refs,
            ..
        } => {
            w.node(*accuser);
            w.served_set(k_prev, *k_prev_factors, fresh, refs)?;
        }
        MessageBody::ReAskAck {
            accuser, ack, ack_sig, ..
        } => {
            w.node(*accuser);
            w.triple(ack, "ack")?;
            w.sig(ack_sig, "ack_sig")?;
        }
        MessageBody::Confirm {
            accuser,
            accused,
            ack,
            ack_sig,
            ..
        } => {
            w.node(*accuser);
            w.node(*accused);
            w.triple(ack, "ack")?;
            w.sig(ack_sig, "ack_sig")?;
        }
        MessageBody::Nack {
            accuser, accused, ..
        } => {
            w.node(*accuser);
            w.node(*accused);
        }
        MessageBody::ExhibitRequest { successor, .. } => {
            w.node(*successor);
        }
        MessageBody::ExhibitResponse { successor, ack, .. } => {
            w.node(*successor);
            match ack {
                Some((triple, sig)) => {
                    w.u8(1);
                    w.triple(triple, "ack")?;
                    w.sig(sig, "ack_sig")?;
                }
                None => w.u8(0),
            }
        }
        MessageBody::ExhibitNotice {
            sender,
            receiver,
            ack,
            ack_sig,
            ..
        } => {
            w.node(*sender);
            w.node(*receiver);
            w.triple(ack, "ack")?;
            w.sig(ack_sig, "ack_sig")?;
        }
        MessageBody::SelfAccum { value, .. } => {
            w.triple(value, "value")?;
        }
        MessageBody::JoinAnnounce { node, .. } | MessageBody::LeaveAnnounce { node, .. } => {
            w.node(*node);
        }
        MessageBody::HandshakeHello {
            session,
            node,
            nonce,
        } => {
            w.uint(*session, 8, "session")?;
            w.node(*node);
            w.uint(*nonce, 8, "nonce")?;
        }
        MessageBody::HandshakeProof {
            session,
            node,
            listener_nonce,
            peer_nonce,
        } => {
            w.uint(*session, 8, "session")?;
            w.node(*node);
            w.uint(*listener_nonce, 8, "listener_nonce")?;
            w.uint(*peer_nonce, 8, "peer_nonce")?;
        }
        MessageBody::HandshakeAccept { session, node } => {
            w.uint(*session, 8, "session")?;
            w.node(*node);
        }
        MessageBody::HandshakeReject { session, reason } => {
            w.uint(*session, 8, "session")?;
            w.u8(*reason);
        }
    }

    w.sig(&msg.sig, "sig")?;
    debug_assert_eq!(
        w.out.len(),
        msg.wire_size(wire),
        "codec length diverges from accounting for {:?}",
        type_tag(&msg.body)
    );
    Ok(w.out)
}

/// Parses a frame produced by [`encode_frame`] under the same
/// [`WireConfig`].
///
/// Validation is **structural, not semantic**: field widths, counts and
/// framing are checked, but big-integer values are not range-checked
/// against any modulus (the codec does not know the session's
/// parameters). A driver feeding frames from an untrusted transport
/// must reduce or reject out-of-range hash values before handing the
/// message to the engine — the in-process drivers only ever carry
/// frames encoded by a peer engine, which are reduced by construction.
pub fn decode_frame(bytes: &[u8], wire: &WireConfig) -> Result<Frame, CodecError> {
    if wire.header != 13 {
        return Err(CodecError::Overflow { field: "header" });
    }
    let mut r = Reader {
        buf: bytes,
        pos: 0,
        wire,
    };
    let tag = r.u8("type")?;
    let round = r.uint(4, "round")?;
    let from = r.node("from")?;
    let to = r.node("to")?;

    let body = match tag {
        1 => MessageBody::KeyRequest { round },
        2 => {
            let n = r.count("buffermap.len")?;
            let prime = r.biguint(wire.prime, "prime")?;
            let mut buffermap = Vec::with_capacity(n);
            for _ in 0..n {
                buffermap.push(r.biguint(wire.hash, "buffermap.hash")?);
            }
            r.seal()?;
            MessageBody::KeyResponse {
                round,
                prime,
                buffermap,
            }
        }
        3 => {
            let set = r.served_set()?;
            r.seal()?;
            MessageBody::Serve {
                round,
                k_prev: set.k_prev,
                k_prev_factors: set.k_prev_factors,
                fresh: set.fresh,
                refs: set.refs,
            }
        }
        4 => MessageBody::Attestation {
            round,
            hashes: r.triple("hashes")?,
        },
        5 => MessageBody::Ack {
            round,
            hashes: r.triple("hashes")?,
        },
        6 => MessageBody::MonitorAck {
            round,
            sender: r.node("sender")?,
            ack: r.triple("ack")?,
            ack_sig: r.sig("ack_sig")?,
        },
        7 => {
            let sender = r.node("sender")?;
            let cofactor_factors = r.count("cofactor_factors")? as u32;
            let attestation = r.triple("attestation")?;
            let cofactor = r.product(cofactor_factors, "cofactor")?;
            r.take(wire.signature, "reserved_sig")?;
            r.seal()?;
            MessageBody::MonitorAttestation {
                round,
                sender,
                attestation,
                cofactor,
                cofactor_factors,
            }
        }
        8 => MessageBody::MonitorBroadcast {
            round,
            watched: r.node("watched")?,
            sender: r.node("sender")?,
            combined: r.triple("combined")?,
            ack: r.triple("ack")?,
            ack_sig: r.sig("ack_sig")?,
        },
        9 => MessageBody::AckForward {
            round,
            sender: r.node("sender")?,
            receiver: r.node("receiver")?,
            ack: r.triple("ack")?,
            ack_sig: r.sig("ack_sig")?,
        },
        10 => MessageBody::SourceDeclare {
            round,
            hashes: r.triple("hashes")?,
        },
        11 | 12 => {
            let who = r.node(if tag == 11 { "accused" } else { "accuser" })?;
            let set = r.served_set()?;
            if tag == 11 {
                MessageBody::Accuse {
                    round,
                    accused: who,
                    k_prev: set.k_prev,
                    k_prev_factors: set.k_prev_factors,
                    fresh: set.fresh,
                    refs: set.refs,
                }
            } else {
                MessageBody::ReAsk {
                    round,
                    accuser: who,
                    k_prev: set.k_prev,
                    k_prev_factors: set.k_prev_factors,
                    fresh: set.fresh,
                    refs: set.refs,
                }
            }
        }
        13 => MessageBody::ReAskAck {
            round,
            accuser: r.node("accuser")?,
            ack: r.triple("ack")?,
            ack_sig: r.sig("ack_sig")?,
        },
        14 => MessageBody::Confirm {
            round,
            accuser: r.node("accuser")?,
            accused: r.node("accused")?,
            ack: r.triple("ack")?,
            ack_sig: r.sig("ack_sig")?,
        },
        15 => MessageBody::Nack {
            round,
            accuser: r.node("accuser")?,
            accused: r.node("accused")?,
        },
        16 => MessageBody::ExhibitRequest {
            round,
            successor: r.node("successor")?,
        },
        17 => {
            let successor = r.node("successor")?;
            let present = r.u8("ack.flag")?;
            let ack = if present == 1 {
                Some((r.triple("ack")?, r.sig("ack_sig")?))
            } else {
                None
            };
            MessageBody::ExhibitResponse {
                round,
                successor,
                ack,
            }
        }
        18 => MessageBody::ExhibitNotice {
            round,
            sender: r.node("sender")?,
            receiver: r.node("receiver")?,
            ack: r.triple("ack")?,
            ack_sig: r.sig("ack_sig")?,
        },
        19 => MessageBody::SelfAccum {
            round,
            value: r.triple("value")?,
        },
        20 => MessageBody::JoinAnnounce {
            round,
            node: r.node("node")?,
        },
        21 => MessageBody::LeaveAnnounce {
            round,
            node: r.node("node")?,
        },
        22 => MessageBody::HandshakeHello {
            session: r.uint(8, "session")?,
            node: r.node("node")?,
            nonce: r.uint(8, "nonce")?,
        },
        23 => MessageBody::HandshakeProof {
            session: r.uint(8, "session")?,
            node: r.node("node")?,
            listener_nonce: r.uint(8, "listener_nonce")?,
            peer_nonce: r.uint(8, "peer_nonce")?,
        },
        24 => MessageBody::HandshakeAccept {
            session: r.uint(8, "session")?,
            node: r.node("node")?,
        },
        25 => MessageBody::HandshakeReject {
            session: r.uint(8, "session")?,
            reason: r.u8("reason")?,
        },
        other => return Err(CodecError::UnknownType(other)),
    };

    let sig = r.sig("sig")?;
    if r.pos != bytes.len() {
        return Err(CodecError::TrailingBytes {
            extra: bytes.len() - r.pos,
        });
    }
    Ok(Frame {
        from,
        to,
        msg: SignedMessage { body, sig },
    })
}

// ---------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------

/// Width of the stream-framing length prefix (big-endian `u32`).
pub const STREAM_PREFIX_BYTES: usize = 4;

/// Default upper bound on one stream frame (1 MiB). Every message this
/// protocol produces under paper-sized wire profiles is well under it;
/// a larger announced length on a byte stream is a malformed or hostile
/// peer, not a bigger message.
pub const MAX_STREAM_FRAME_BYTES: usize = 1 << 20;

/// Prefixes `payload` with its big-endian `u32` length, the framing a
/// byte-stream transport (TCP) uses to carry [`encode_frame`] output.
///
/// Fails with [`CodecError::FrameTooLarge`] when `payload` exceeds
/// `max` — the send-side half of the bound [`StreamFramer`] enforces on
/// receive, so a conforming sender can never produce a frame a
/// conforming receiver drops the connection over.
pub fn encode_stream_frame(payload: &[u8], max: usize) -> Result<Vec<u8>, CodecError> {
    if payload.len() > max || payload.len() > u32::MAX as usize {
        return Err(CodecError::FrameTooLarge {
            got: payload.len(),
            max: max.min(u32::MAX as usize),
        });
    }
    let mut out = Vec::with_capacity(STREAM_PREFIX_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental decoder for length-prefixed stream frames.
///
/// Push arbitrary byte chunks as they arrive off a socket; pop complete
/// frames with [`StreamFramer::next_frame`]. The framer is sans-IO like
/// the rest of this module — it never reads a socket itself — so the
/// hostile-input behaviour (truncation mid-prefix or mid-frame waits
/// for more bytes; an oversized length prefix is a hard
/// [`CodecError::FrameTooLarge`] after which the transport must drop
/// the connection) is testable without opening one.
#[derive(Debug)]
pub struct StreamFramer {
    buf: Vec<u8>,
    /// Read offset into `buf`; consumed bytes are compacted away once
    /// they dominate the buffer.
    start: usize,
    max: usize,
}

impl StreamFramer {
    /// A framer rejecting frames longer than `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        StreamFramer {
            buf: Vec::new(),
            start: 0,
            max: max_frame,
        }
    }

    /// Appends bytes read from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed, or [`CodecError::FrameTooLarge`] on a length prefix over
    /// the bound (the framer is poisoned then: the caller must drop the
    /// connection, as stream synchronization is lost).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        let avail = &self.buf[self.start..];
        if avail.len() < STREAM_PREFIX_BYTES {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > self.max {
            return Err(CodecError::FrameTooLarge { got: len, max: self.max });
        }
        if avail.len() < STREAM_PREFIX_BYTES + len {
            return Ok(None);
        }
        let frame = avail[STREAM_PREFIX_BYTES..STREAM_PREFIX_BYTES + len].to_vec();
        self.start += STREAM_PREFIX_BYTES + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let w = WireConfig::default();
        assert_eq!(w.update_payload, 938);
        assert_eq!(w.signature, 256);
        assert_eq!(w.hash, 64);
        assert_eq!(w.prime, 64);
        assert_eq!(w.count, 2);
    }

    #[test]
    fn served_update_dominated_by_payload() {
        let w = WireConfig::default();
        assert!(w.served_update() > w.update_payload);
        assert!(w.served_update() < w.update_payload + 32);
    }

    #[test]
    fn prime_product_scales_with_factors() {
        let w = WireConfig::default();
        assert_eq!(w.prime_product(0), w.prime);
        assert_eq!(w.prime_product(3), 3 * w.prime);
    }

    fn sig_of(wire: &WireConfig) -> Signature {
        Signature::from_bytes(vec![0xAB; wire.signature])
    }

    #[test]
    fn keyrequest_roundtrip_and_length() {
        let wire = WireConfig::default();
        let msg = SignedMessage {
            body: MessageBody::KeyRequest { round: 7 },
            sig: sig_of(&wire),
        };
        let frame = encode_frame(NodeId(3), NodeId(9), &msg, &wire).unwrap();
        assert_eq!(frame.len(), msg.wire_size(&wire));
        let decoded = decode_frame(&frame, &wire).unwrap();
        assert_eq!(decoded.from, NodeId(3));
        assert_eq!(decoded.to, NodeId(9));
        assert_eq!(decoded.msg, msg);
    }

    #[test]
    fn wrong_signature_length_is_an_error() {
        let wire = WireConfig::default();
        let msg = SignedMessage {
            body: MessageBody::KeyRequest { round: 0 },
            sig: Signature::from_bytes(vec![1; 10]),
        };
        assert!(matches!(
            encode_frame(NodeId(0), NodeId(1), &msg, &wire),
            Err(CodecError::SignatureLength { .. })
        ));
    }

    #[test]
    fn oversized_payload_is_an_error() {
        let wire = WireConfig::default();
        let msg = SignedMessage {
            body: MessageBody::Serve {
                round: 0,
                k_prev: BigUint::from(3u64),
                k_prev_factors: 1,
                fresh: vec![ServedUpdate {
                    id: UpdateId(0),
                    created_round: 0,
                    payload: vec![0u8; wire.update_payload + 1].into(),
                    count: 1,
                    expiring: false,
                }],
                refs: vec![],
            },
            sig: sig_of(&wire),
        };
        assert!(matches!(
            encode_frame(NodeId(0), NodeId(1), &msg, &wire),
            Err(CodecError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let wire = WireConfig::default();
        let msg = SignedMessage {
            body: MessageBody::Nack {
                round: 1,
                accuser: NodeId(2),
                accused: NodeId(3),
            },
            sig: sig_of(&wire),
        };
        let frame = encode_frame(NodeId(2), NodeId(5), &msg, &wire).unwrap();
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 1], &wire),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            decode_frame(&[frame.clone(), vec![0]].concat(), &wire),
            Err(CodecError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn handshake_frames_roundtrip_at_accounted_length() {
        let wire = WireConfig::default();
        let bodies = [
            MessageBody::HandshakeHello {
                session: u64::MAX,
                node: NodeId(7),
                nonce: 0xDEAD_BEEF_0BAD_F00D,
            },
            MessageBody::HandshakeProof {
                session: 3,
                node: NodeId(4),
                listener_nonce: u64::MAX - 1,
                peer_nonce: 0,
            },
            MessageBody::HandshakeAccept {
                session: 9,
                node: NodeId(0),
            },
            MessageBody::HandshakeReject {
                session: 1,
                reason: 255,
            },
        ];
        for body in bodies {
            let msg = SignedMessage {
                body,
                sig: sig_of(&wire),
            };
            let frame = encode_frame(NodeId(5), NodeId(6), &msg, &wire).unwrap();
            assert_eq!(frame.len(), msg.wire_size(&wire));
            let decoded = decode_frame(&frame, &wire).unwrap();
            assert_eq!(decoded.msg, msg);
            assert_eq!(decoded.msg.body.round(), 0);
        }
    }

    #[test]
    fn unknown_type_is_an_error() {
        let wire = WireConfig::default();
        let mut frame = vec![0u8; 13 + wire.signature];
        frame[0] = 99;
        assert!(matches!(
            decode_frame(&frame, &wire),
            Err(CodecError::UnknownType(99))
        ));
    }

    /// PR 10's multi-frame container (tag `0xC1`, from, to, count, then
    /// u32-length-prefixed inner frames) is no longer a frame format:
    /// a well-formed one wrapping a valid frame is an unknown type like
    /// any other stray byte, and nothing inside it is looked at.
    #[test]
    fn former_container_is_an_unknown_type() {
        let wire = WireConfig::default();
        let inner = sample_frame(3);
        assert!(decode_frame(&inner, &wire).is_ok());
        let mut container = vec![0xC1];
        container.extend_from_slice(&1u32.to_be_bytes()); // from
        container.extend_from_slice(&2u32.to_be_bytes()); // to
        container.extend_from_slice(&1u16.to_be_bytes()); // count
        container.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        container.extend_from_slice(&inner);
        assert!(matches!(
            decode_frame(&container, &wire),
            Err(CodecError::UnknownType(0xC1))
        ));
    }

    // -- stream framing ------------------------------------------------

    /// An encoded protocol frame to ship through the stream layer.
    fn sample_frame(round: u64) -> Vec<u8> {
        let wire = WireConfig::default();
        let msg = SignedMessage {
            body: MessageBody::KeyRequest { round },
            sig: sig_of(&wire),
        };
        encode_frame(NodeId(1), NodeId(2), &msg, &wire).unwrap()
    }

    #[test]
    fn stream_roundtrip_across_arbitrary_chunking() {
        let frames: Vec<Vec<u8>> = (0..5).map(sample_frame).collect();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend(encode_stream_frame(f, MAX_STREAM_FRAME_BYTES).unwrap());
        }
        // Push in pathological chunk sizes (1, 3, 7, ... bytes).
        for chunk in [1usize, 3, 7, 11, 64, 1024] {
            let mut framer = StreamFramer::new(MAX_STREAM_FRAME_BYTES);
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                framer.push(piece);
                while let Some(frame) = framer.next_frame().unwrap() {
                    out.push(frame);
                }
            }
            assert_eq!(out, frames, "chunk size {chunk}");
            assert_eq!(framer.pending(), 0);
        }
    }

    #[test]
    fn stream_truncation_waits_instead_of_erroring() {
        // The stream analogue of `truncated_frame_is_an_error`: a partial
        // prefix or partial body is an incomplete read, not corruption.
        let frame = sample_frame(3);
        let encoded = encode_stream_frame(&frame, MAX_STREAM_FRAME_BYTES).unwrap();
        let mut framer = StreamFramer::new(MAX_STREAM_FRAME_BYTES);
        framer.push(&encoded[..2]); // half the length prefix
        assert_eq!(framer.next_frame().unwrap(), None);
        framer.push(&encoded[2..encoded.len() - 1]); // all but one byte
        assert_eq!(framer.next_frame().unwrap(), None);
        framer.push(&encoded[encoded.len() - 1..]);
        assert_eq!(framer.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn oversized_stream_frame_is_rejected_on_both_sides() {
        assert!(matches!(
            encode_stream_frame(&[0u8; 100], 64),
            Err(CodecError::FrameTooLarge { got: 100, max: 64 })
        ));
        let mut framer = StreamFramer::new(64);
        framer.push(&1000u32.to_be_bytes());
        assert!(matches!(
            framer.next_frame(),
            Err(CodecError::FrameTooLarge { got: 1000, max: 64 })
        ));
    }

    #[test]
    fn garbage_stream_payload_fails_frame_decode_not_framing() {
        // Framing is content-blind: random bytes under the size bound
        // come through as a "frame" and must be rejected by
        // `decode_frame` — the layering the runtime's rejection path
        // relies on.
        let wire = WireConfig::default();
        let garbage = vec![0xA5u8; 50];
        let encoded = encode_stream_frame(&garbage, MAX_STREAM_FRAME_BYTES).unwrap();
        let mut framer = StreamFramer::new(MAX_STREAM_FRAME_BYTES);
        framer.push(&encoded);
        let frame = framer.next_frame().unwrap().unwrap();
        assert_eq!(frame, garbage);
        assert!(decode_frame(&frame, &wire).is_err());
        // Empty frames are valid at the framing layer, garbage above it.
        let empty = encode_stream_frame(&[], MAX_STREAM_FRAME_BYTES).unwrap();
        framer.push(&empty);
        let frame = framer.next_frame().unwrap().unwrap();
        assert!(frame.is_empty());
        assert!(matches!(
            decode_frame(&frame, &wire),
            Err(CodecError::Truncated { .. })
        ));
    }
}
