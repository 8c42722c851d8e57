//! The PAG protocol messages.
//!
//! Message 1–5 of Fig. 5 (the node-to-node exchange), 6–9 of Fig. 6 (the
//! monitoring traffic), the accusation flow of Fig. 3, and the exhibit
//! flow of §IV-A ("they ask node A for the acknowledgement that node B
//! should have sent").
//!
//! Every message travels as a [`SignedMessage`]; wire sizes are computed
//! from [`crate::wire::WireConfig`] independently of the
//! in-memory representation (see DESIGN.md on size accounting).

use pag_bignum::BigUint;
use pag_crypto::{HomomorphicHash, HomomorphicParams, Signature};
use pag_membership::NodeId;

use crate::update::UpdateId;
use crate::wire::{TrafficClass, WireConfig};

/// Traffic class of exchange control messages (KeyRequest, Attestation,
/// Ack).
pub const CLASS_CONTROL: TrafficClass = TrafficClass(0);
/// Traffic class of update payload transfer (Serve).
pub const CLASS_UPDATES: TrafficClass = TrafficClass(1);
/// Traffic class of buffermaps (KeyResponse).
pub const CLASS_BUFFERMAP: TrafficClass = TrafficClass(2);
/// Traffic class of monitoring traffic (messages 6–9, source declares).
pub const CLASS_MONITORING: TrafficClass = TrafficClass(3);
/// Traffic class of the accusation flow.
pub const CLASS_ACCUSATION: TrafficClass = TrafficClass(4);
/// Traffic class of membership churn announcements (join/leave).
pub const CLASS_MEMBERSHIP: TrafficClass = TrafficClass(5);

/// Hashes of the three parts of a served update set, all under the same
/// exponent.
///
/// PAG splits a served set by the receiver's obligations (§V-D):
/// * `expiring` — updates delivered on their last useful round; received
///   but not re-forwarded.
/// * `fresh` — updates the receiver must forward next round (these are
///   what monitors accumulate).
/// * `duplicate` — updates the receiver already owns (served as
///   buffermap references, no payload, no new obligation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashTriple {
    /// Hash of the expiring part.
    pub expiring: HomomorphicHash,
    /// Hash of the must-forward part.
    pub fresh: HomomorphicHash,
    /// Hash of the already-owned part.
    pub duplicate: HomomorphicHash,
}

impl HashTriple {
    /// The identity triple (hash of the empty set in all parts).
    pub fn identity(params: &HomomorphicParams) -> Self {
        let one = params.identity();
        HashTriple {
            expiring: one.clone(),
            fresh: one.clone(),
            duplicate: one.clone(),
        }
    }

    /// Product of all three components: the hash of the complete served
    /// set, used to check the *sender's* forwarding obligation.
    pub fn combined(&self, params: &HomomorphicParams) -> HomomorphicHash {
        params.combine(&params.combine(&self.expiring, &self.fresh), &self.duplicate)
    }

    /// Appends the canonical byte encoding (for signing).
    fn encode(&self, out: &mut Vec<u8>) {
        encode_biguint(self.expiring.value(), out);
        encode_biguint(self.fresh.value(), out);
        encode_biguint(self.duplicate.value(), out);
    }
}

/// An update served with its payload (the `u_{j ∈ SA\SB}` of message 3).
///
/// The payload is `Arc`-shared with the sender's update store: serve
/// snapshots, accusation replays and re-asks all clone `ServedUpdate`s,
/// and each clone used to copy the full payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServedUpdate {
    /// Identifier.
    pub id: UpdateId,
    /// Source creation round (drives expiration downstream).
    pub created_round: u64,
    /// Payload bytes, shared with the emitting node's store.
    pub payload: std::sync::Arc<[u8]>,
    /// Times the sender received this update in the previous round (the
    /// multiple-receptions counter of §V-D).
    pub count: u32,
    /// True if this update expires after this hop (list 1 of §V-D).
    pub expiring: bool,
}

/// A served update the receiver already owns: a reference into the
/// buffermap it sent (the `S_A ∩ S_B` of message 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServedRef {
    /// Index into the receiver's buffermap hash list.
    pub index: u32,
    /// Reception count at the sender.
    pub count: u32,
}

/// Message bodies; see module docs for the paper mapping.
#[derive(Clone, Debug, PartialEq)]
pub enum MessageBody {
    /// 1. `⟨KeyRequest, R, A, B⟩_A` — A asks its successor B for a prime.
    KeyRequest {
        /// Exchange round.
        round: u64,
    },
    /// 2. `{⟨KeyResponse, R, B, A, p_j, H(u_i∈SB)_(p_j,M)⟩_B}_pk(A)` —
    ///    B answers with a fresh prime and its buffermap hashed under it.
    KeyResponse {
        /// Exchange round.
        round: u64,
        /// The prime `p_j` B minted for this predecessor.
        prime: BigUint,
        /// Hashes (under `p_j`) of the updates B received in the last
        /// `buffermap_window` rounds.
        buffermap: Vec<BigUint>,
    },
    /// 3. `{⟨Serve, R, A, B, K(R-1,A), u_{j∈SA\SB}, SA∩SB⟩_A}_pk(B)`.
    Serve {
        /// Exchange round.
        round: u64,
        /// `K(R-1, A)`: the product of primes A used to receive last
        /// round; B acknowledges under this exponent.
        k_prev: BigUint,
        /// Number of prime factors in `k_prev` (wire accounting).
        k_prev_factors: u32,
        /// Updates B lacks, with payloads.
        fresh: Vec<ServedUpdate>,
        /// Updates B already owns, as buffermap references.
        refs: Vec<ServedRef>,
    },
    /// 4. `⟨Attestation, R, A, B, H(Π u_i)_(p_j,M)⟩_A`, split by part.
    Attestation {
        /// Exchange round.
        round: u64,
        /// Hashes of the served set under `p_j`.
        hashes: HashTriple,
    },
    /// 5. `⟨Ack, R, B, A, H(Π u_i)_(K(R-1,A),M)⟩_B`, split by part.
    Ack {
        /// Exchange round.
        round: u64,
        /// Hashes of the received set under `K(R-1, A)`.
        hashes: HashTriple,
    },
    /// The source declares the hash of freshly created updates to its own
    /// monitors so their accumulator covers injected content (the source
    /// has no predecessors; §III assumes it correct).
    SourceDeclare {
        /// Creation round.
        round: u64,
        /// Hash of the new updates under `K(round-1, source)`.
        hashes: HashTriple,
    },
    /// 6. Copy of the acknowledgement B sent to A, forwarded to one of
    ///    B's monitors.
    MonitorAck {
        /// Exchange round.
        round: u64,
        /// The exchange's sender (A).
        sender: NodeId,
        /// B's acknowledgement hashes.
        ack: HashTriple,
        /// B's signature over the original `Ack` body (relayable
        /// evidence).
        ack_sig: Signature,
    },
    /// 7. A's attestation plus the cofactor `Π_{k≠j} p_k`, sent by B to
    ///    one of its monitors (encrypted to it).
    MonitorAttestation {
        /// Exchange round.
        round: u64,
        /// The exchange's sender (A).
        sender: NodeId,
        /// A's attestation hashes (under `p_j`).
        attestation: HashTriple,
        /// Product of B's other primes this round.
        cofactor: BigUint,
        /// Number of factors in the cofactor (wire accounting).
        cofactor_factors: u32,
    },
    /// 8. The combined hash `H(...)_(K(R,B),M)` broadcast by the monitor
    ///    that received messages 6/7 to B's other monitors, along with
    ///    the acknowledgement.
    MonitorBroadcast {
        /// Exchange round.
        round: u64,
        /// The monitored node (B).
        watched: NodeId,
        /// The exchange's sender (A).
        sender: NodeId,
        /// Attestation raised to the cofactor: under `K(R, B)`.
        combined: HashTriple,
        /// B's acknowledgement (copy of message 6 content).
        ack: HashTriple,
        /// B's signature over the acknowledgement (evidence).
        ack_sig: Signature,
    },
    /// 9. B's monitor forwards B's acknowledgement to A's monitors,
    ///    which use it to verify A's forwarding.
    AckForward {
        /// Exchange round.
        round: u64,
        /// The exchange's sender (A) — addressee monitors watch A.
        sender: NodeId,
        /// The exchange's receiver (B).
        receiver: NodeId,
        /// B's acknowledgement hashes.
        ack: HashTriple,
        /// B's signature over the acknowledgement (evidence).
        ack_sig: Signature,
    },
    /// Accusation (Fig. 3): A did not obtain an acknowledgement from B and
    /// escalates to B's monitors, shipping the served content so they can
    /// replay the serve.
    Accuse {
        /// Exchange round.
        round: u64,
        /// The unresponsive receiver (B).
        accused: NodeId,
        /// `K(R-1, A)` for the acknowledgement exponent.
        k_prev: BigUint,
        /// Factor count of `k_prev`.
        k_prev_factors: u32,
        /// Served payload updates.
        fresh: Vec<ServedUpdate>,
        /// Served buffermap references (empty if B never responded with a
        /// buffermap).
        refs: Vec<ServedRef>,
    },
    /// B's monitor replays the serve to B and asks for an acknowledgement.
    ReAsk {
        /// Exchange round.
        round: u64,
        /// The original sender (A).
        accuser: NodeId,
        /// `K(R-1, A)`.
        k_prev: BigUint,
        /// Factor count of `k_prev`.
        k_prev_factors: u32,
        /// Served payload updates.
        fresh: Vec<ServedUpdate>,
        /// Served references.
        refs: Vec<ServedRef>,
    },
    /// B's acknowledgement in response to a [`MessageBody::ReAsk`].
    ReAskAck {
        /// Exchange round.
        round: u64,
        /// The original sender (A).
        accuser: NodeId,
        /// Acknowledgement hashes under `K(R-1, A)`.
        ack: HashTriple,
        /// B's signature over the equivalent `Ack` body (relayable
        /// evidence).
        ack_sig: Signature,
    },
    /// `Confirm(⟨Ack⟩_B)`: B's monitors report a successful re-ask to A's
    /// monitors.
    Confirm {
        /// Exchange round.
        round: u64,
        /// The original sender (A).
        accuser: NodeId,
        /// The accused receiver (B).
        accused: NodeId,
        /// B's acknowledgement hashes.
        ack: HashTriple,
        /// B's signature over the acknowledgement.
        ack_sig: Signature,
    },
    /// `Nack`: B never answered its monitors' re-ask; A is exonerated and
    /// B convicted of unresponsiveness.
    Nack {
        /// Exchange round.
        round: u64,
        /// The original sender (A).
        accuser: NodeId,
        /// The accused receiver (B).
        accused: NodeId,
    },
    /// A's monitors saw neither an ack-forward nor a Confirm/Nack for a
    /// successor and ask A to exhibit the acknowledgement.
    ExhibitRequest {
        /// Exchange round.
        round: u64,
        /// The successor whose acknowledgement is missing.
        successor: NodeId,
    },
    /// A's answer: the acknowledgement if it has one ("if node A cannot
    /// exhibit this acknowledgement it is considered guilty").
    ExhibitResponse {
        /// Exchange round.
        round: u64,
        /// The successor in question.
        successor: NodeId,
        /// The acknowledgement and its signature, if A holds one.
        ack: Option<(HashTriple, Signature)>,
    },
    /// A's monitors relay a successfully exhibited acknowledgement to the
    /// receiver's monitors so blame lands on whoever starved the
    /// monitoring pipeline (the receiver, or its designated monitor).
    ExhibitNotice {
        /// Exchange round.
        round: u64,
        /// The exchange's sender (A).
        sender: NodeId,
        /// The exchange's receiver (B).
        receiver: NodeId,
        /// The exhibited acknowledgement.
        ack: HashTriple,
        /// B's signature over the `Ack` body.
        ack_sig: Signature,
    },
    /// End-of-round self-report: a node sends the combined hash of its
    /// own receptions under `K(R, self)` to all its monitors ("nodes can
    /// compute this value and send it to their monitors. Monitors are
    /// then able to check each other's correctness", §V-B).
    SelfAccum {
        /// Reception round.
        round: u64,
        /// `H(all fresh receptions)_(K(round, self), M)`.
        value: HashTriple,
    },
    /// Membership announcement: `node` joins the session at the start of
    /// `round`. Emitted by the joiner itself (one round ahead, so every
    /// view switches at the same round boundary) and signed like any
    /// other message; the paper's membership substrate (Fireflies) is
    /// assumed to have distributed keys at session setup.
    JoinAnnounce {
        /// First round the joiner participates in.
        round: u64,
        /// The joining node (must equal the frame's emitter).
        node: NodeId,
    },
    /// Membership announcement: `node` leaves the session at the start of
    /// `round`. Emitted by the leaver during its last round; a source
    /// announcement is invalid and rejected by every view.
    LeaveAnnounce {
        /// First round the leaver no longer participates in.
        round: u64,
        /// The departing node (must equal the frame's emitter).
        node: NodeId,
    },
    /// Connection handshake, step 1: each endpoint opens by advertising
    /// its identity and a fresh nonce for the session it wants to join
    /// (DESIGN.md §13). Handshake frames are connection setup, not round
    /// traffic — their round is always 0 and they never reach the
    /// protocol dispatch of an established session.
    HandshakeHello {
        /// The session the endpoint wants to attach to.
        session: u64,
        /// The advertised identity (proven by the later proof frame).
        node: NodeId,
        /// Fresh challenge nonce minted by this endpoint.
        nonce: u64,
    },
    /// Connection handshake, step 2: the endpoint signs the channel
    /// binding — both nonces, its advertised identity and the session id
    /// — with its RSA identity key. The outer [`SignedMessage`]
    /// signature over [`MessageBody::signable_bytes`] *is* the proof.
    HandshakeProof {
        /// The session being attached to (must match the hello).
        session: u64,
        /// The prover's identity (must match its hello and the frame
        /// emitter).
        node: NodeId,
        /// The challenge nonce the *listener* side minted.
        listener_nonce: u64,
        /// The challenge nonce the *dialing* side minted.
        peer_nonce: u64,
    },
    /// Connection handshake, step 3: the verifier admits the peer.
    HandshakeAccept {
        /// The session the peer was admitted to.
        session: u64,
        /// The admitted identity.
        node: NodeId,
    },
    /// Connection handshake, failure: the verifier refuses the peer and
    /// severs the connection. `reason` is a [`crate::handshake`] error
    /// discriminant for diagnostics; the refusal is counted
    /// ([`crate::metrics::NodeMetrics::handshakes_rejected`]), never
    /// trusted.
    HandshakeReject {
        /// The session the peer tried to attach to.
        session: u64,
        /// Why the proof was refused (diagnostic discriminant).
        reason: u8,
    },
}

/// A message body together with its emitter's signature.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedMessage {
    /// The content.
    pub body: MessageBody,
    /// Signature by the emitting node over [`MessageBody::signable_bytes`].
    pub sig: Signature,
}

fn encode_biguint(v: &BigUint, out: &mut Vec<u8>) {
    let bytes = v.to_bytes_be();
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(&bytes);
}

impl MessageBody {
    /// Canonical byte encoding covered by the emitter's signature.
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        match self {
            MessageBody::KeyRequest { round } => {
                out.push(1);
                out.extend_from_slice(&round.to_be_bytes());
            }
            MessageBody::KeyResponse {
                round,
                prime,
                buffermap,
            } => {
                out.push(2);
                out.extend_from_slice(&round.to_be_bytes());
                encode_biguint(prime, &mut out);
                out.extend_from_slice(&(buffermap.len() as u32).to_be_bytes());
                for h in buffermap {
                    encode_biguint(h, &mut out);
                }
            }
            MessageBody::Serve {
                round,
                k_prev,
                k_prev_factors,
                fresh,
                refs,
            } => {
                out.push(3);
                out.extend_from_slice(&round.to_be_bytes());
                encode_biguint(k_prev, &mut out);
                out.extend_from_slice(&k_prev_factors.to_be_bytes());
                out.extend_from_slice(&(fresh.len() as u32).to_be_bytes());
                for u in fresh {
                    out.extend_from_slice(&u.id.0.to_be_bytes());
                    out.extend_from_slice(&u.created_round.to_be_bytes());
                    out.extend_from_slice(&(u.payload.len() as u32).to_be_bytes());
                    out.extend_from_slice(&u.payload);
                    out.extend_from_slice(&u.count.to_be_bytes());
                    out.push(u.expiring as u8);
                }
                out.extend_from_slice(&(refs.len() as u32).to_be_bytes());
                for r in refs {
                    out.extend_from_slice(&r.index.to_be_bytes());
                    out.extend_from_slice(&r.count.to_be_bytes());
                }
            }
            MessageBody::Attestation { round, hashes } => {
                out.push(4);
                out.extend_from_slice(&round.to_be_bytes());
                hashes.encode(&mut out);
            }
            MessageBody::Ack { round, hashes } => {
                out.push(5);
                out.extend_from_slice(&round.to_be_bytes());
                hashes.encode(&mut out);
            }
            MessageBody::SourceDeclare { round, hashes } => {
                out.push(10);
                out.extend_from_slice(&round.to_be_bytes());
                hashes.encode(&mut out);
            }
            MessageBody::MonitorAck {
                round,
                sender,
                ack,
                ack_sig,
            } => {
                out.push(6);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&sender.value().to_be_bytes());
                ack.encode(&mut out);
                out.extend_from_slice(ack_sig.as_bytes());
            }
            MessageBody::MonitorAttestation {
                round,
                sender,
                attestation,
                cofactor,
                cofactor_factors,
            } => {
                out.push(7);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&sender.value().to_be_bytes());
                attestation.encode(&mut out);
                encode_biguint(cofactor, &mut out);
                out.extend_from_slice(&cofactor_factors.to_be_bytes());
            }
            MessageBody::MonitorBroadcast {
                round,
                watched,
                sender,
                combined,
                ack,
                ack_sig,
            } => {
                out.push(8);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&watched.value().to_be_bytes());
                out.extend_from_slice(&sender.value().to_be_bytes());
                combined.encode(&mut out);
                ack.encode(&mut out);
                out.extend_from_slice(ack_sig.as_bytes());
            }
            MessageBody::AckForward {
                round,
                sender,
                receiver,
                ack,
                ack_sig,
            } => {
                out.push(9);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&sender.value().to_be_bytes());
                out.extend_from_slice(&receiver.value().to_be_bytes());
                ack.encode(&mut out);
                out.extend_from_slice(ack_sig.as_bytes());
            }
            MessageBody::Accuse {
                round,
                accused,
                k_prev,
                ..
            } => {
                out.push(11);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&accused.value().to_be_bytes());
                encode_biguint(k_prev, &mut out);
            }
            MessageBody::ReAsk {
                round, accuser, ..
            } => {
                out.push(12);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&accuser.value().to_be_bytes());
            }
            MessageBody::ReAskAck {
                round,
                accuser,
                ack,
                ack_sig,
            } => {
                out.push(13);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&accuser.value().to_be_bytes());
                ack.encode(&mut out);
                out.extend_from_slice(ack_sig.as_bytes());
            }
            MessageBody::Confirm {
                round,
                accuser,
                accused,
                ack,
                ack_sig,
            } => {
                out.push(14);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&accuser.value().to_be_bytes());
                out.extend_from_slice(&accused.value().to_be_bytes());
                ack.encode(&mut out);
                out.extend_from_slice(ack_sig.as_bytes());
            }
            MessageBody::Nack {
                round,
                accuser,
                accused,
            } => {
                out.push(15);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&accuser.value().to_be_bytes());
                out.extend_from_slice(&accused.value().to_be_bytes());
            }
            MessageBody::ExhibitRequest { round, successor } => {
                out.push(16);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&successor.value().to_be_bytes());
            }
            MessageBody::ExhibitResponse {
                round,
                successor,
                ack,
            } => {
                out.push(17);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&successor.value().to_be_bytes());
                if let Some((triple, sig)) = ack {
                    out.push(1);
                    triple.encode(&mut out);
                    out.extend_from_slice(sig.as_bytes());
                } else {
                    out.push(0);
                }
            }
            MessageBody::ExhibitNotice {
                round,
                sender,
                receiver,
                ack,
                ack_sig,
            } => {
                out.push(18);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&sender.value().to_be_bytes());
                out.extend_from_slice(&receiver.value().to_be_bytes());
                ack.encode(&mut out);
                out.extend_from_slice(ack_sig.as_bytes());
            }
            MessageBody::SelfAccum { round, value } => {
                out.push(19);
                out.extend_from_slice(&round.to_be_bytes());
                value.encode(&mut out);
            }
            MessageBody::JoinAnnounce { round, node } => {
                out.push(20);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&node.value().to_be_bytes());
            }
            MessageBody::LeaveAnnounce { round, node } => {
                out.push(21);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&node.value().to_be_bytes());
            }
            MessageBody::HandshakeHello {
                session,
                node,
                nonce,
            } => {
                out.push(22);
                out.extend_from_slice(&session.to_be_bytes());
                out.extend_from_slice(&node.value().to_be_bytes());
                out.extend_from_slice(&nonce.to_be_bytes());
            }
            MessageBody::HandshakeProof {
                session,
                node,
                listener_nonce,
                peer_nonce,
            } => {
                out.push(23);
                out.extend_from_slice(&session.to_be_bytes());
                out.extend_from_slice(&node.value().to_be_bytes());
                out.extend_from_slice(&listener_nonce.to_be_bytes());
                out.extend_from_slice(&peer_nonce.to_be_bytes());
            }
            MessageBody::HandshakeAccept { session, node } => {
                out.push(24);
                out.extend_from_slice(&session.to_be_bytes());
                out.extend_from_slice(&node.value().to_be_bytes());
            }
            MessageBody::HandshakeReject { session, reason } => {
                out.push(25);
                out.extend_from_slice(&session.to_be_bytes());
                out.push(*reason);
            }
        }
        out
    }

    /// The round this message belongs to.
    pub fn round(&self) -> u64 {
        match self {
            MessageBody::KeyRequest { round }
            | MessageBody::KeyResponse { round, .. }
            | MessageBody::Serve { round, .. }
            | MessageBody::Attestation { round, .. }
            | MessageBody::Ack { round, .. }
            | MessageBody::SourceDeclare { round, .. }
            | MessageBody::MonitorAck { round, .. }
            | MessageBody::MonitorAttestation { round, .. }
            | MessageBody::MonitorBroadcast { round, .. }
            | MessageBody::AckForward { round, .. }
            | MessageBody::Accuse { round, .. }
            | MessageBody::ReAsk { round, .. }
            | MessageBody::ReAskAck { round, .. }
            | MessageBody::Confirm { round, .. }
            | MessageBody::Nack { round, .. }
            | MessageBody::ExhibitRequest { round, .. }
            | MessageBody::ExhibitResponse { round, .. }
            | MessageBody::ExhibitNotice { round, .. }
            | MessageBody::SelfAccum { round, .. }
            | MessageBody::JoinAnnounce { round, .. }
            | MessageBody::LeaveAnnounce { round, .. } => *round,
            // Handshake frames are connection setup: they exist outside
            // round time and always travel in the round-0 header slot.
            MessageBody::HandshakeHello { .. }
            | MessageBody::HandshakeProof { .. }
            | MessageBody::HandshakeAccept { .. }
            | MessageBody::HandshakeReject { .. } => 0,
        }
    }

    /// Wire size in bytes (excluding the outer signature) under `wire`.
    ///
    /// This is exactly the length `crate::wire::encode_frame` produces
    /// for the body (the codec property tests enforce the equality), so
    /// drivers may charge it without serializing.
    pub fn wire_size(&self, wire: &WireConfig) -> usize {
        let h = wire.header;
        let c = wire.count;
        match self {
            MessageBody::KeyRequest { .. } => h,
            MessageBody::KeyResponse { buffermap, .. } => {
                h + c + wire.prime + buffermap.len() * wire.hash + wire.seal_overhead
            }
            MessageBody::Serve {
                k_prev_factors,
                fresh,
                refs,
                ..
            } => {
                h + 3 * c
                    + wire.prime_product(*k_prev_factors as usize)
                    + fresh.len() * wire.served_update()
                    + refs.len() * wire.reference
                    + wire.seal_overhead
            }
            MessageBody::Attestation { .. }
            | MessageBody::Ack { .. }
            | MessageBody::SourceDeclare { .. } => h + 3 * wire.hash,
            MessageBody::MonitorAck { .. } => h + 4 + 3 * wire.hash + wire.signature,
            MessageBody::MonitorAttestation {
                cofactor_factors, ..
            } => {
                h + 4
                    + c
                    + 3 * wire.hash
                    + wire.prime_product(*cofactor_factors as usize)
                    + wire.signature
                    + wire.seal_overhead
            }
            MessageBody::MonitorBroadcast { .. } => h + 8 + 6 * wire.hash + wire.signature,
            MessageBody::AckForward { .. } => h + 8 + 3 * wire.hash + wire.signature,
            MessageBody::Accuse {
                k_prev_factors,
                fresh,
                refs,
                ..
            }
            | MessageBody::ReAsk {
                k_prev_factors,
                fresh,
                refs,
                ..
            } => {
                h + 4
                    + 3 * c
                    + wire.prime_product(*k_prev_factors as usize)
                    + fresh.len() * wire.served_update()
                    + refs.len() * wire.reference
            }
            MessageBody::ReAskAck { .. } => h + 4 + 3 * wire.hash + wire.signature,
            MessageBody::Confirm { .. } => h + 8 + 3 * wire.hash + wire.signature,
            MessageBody::Nack { .. } => h + 8,
            MessageBody::ExhibitRequest { .. } => h + 4,
            MessageBody::ExhibitResponse { ack, .. } => {
                h + 4
                    + 1
                    + ack
                        .as_ref()
                        .map_or(0, |_| 3 * wire.hash + wire.signature)
            }
            MessageBody::ExhibitNotice { .. } => h + 8 + 3 * wire.hash + wire.signature,
            MessageBody::SelfAccum { .. } => h + 3 * wire.hash,
            MessageBody::JoinAnnounce { .. } | MessageBody::LeaveAnnounce { .. } => h + 4,
            MessageBody::HandshakeHello { .. } => h + 20,
            MessageBody::HandshakeProof { .. } => h + 28,
            MessageBody::HandshakeAccept { .. } => h + 12,
            MessageBody::HandshakeReject { .. } => h + 9,
        }
    }

    /// The traffic class this message is accounted under.
    pub fn traffic_class(&self) -> TrafficClass {
        match self {
            MessageBody::KeyRequest { .. }
            | MessageBody::Attestation { .. }
            | MessageBody::Ack { .. } => CLASS_CONTROL,
            MessageBody::Serve { .. } => CLASS_UPDATES,
            MessageBody::KeyResponse { .. } => CLASS_BUFFERMAP,
            MessageBody::SourceDeclare { .. }
            | MessageBody::MonitorAck { .. }
            | MessageBody::MonitorAttestation { .. }
            | MessageBody::MonitorBroadcast { .. }
            | MessageBody::AckForward { .. }
            | MessageBody::SelfAccum { .. } => CLASS_MONITORING,
            MessageBody::Accuse { .. }
            | MessageBody::ReAsk { .. }
            | MessageBody::ReAskAck { .. }
            | MessageBody::Confirm { .. }
            | MessageBody::Nack { .. }
            | MessageBody::ExhibitRequest { .. }
            | MessageBody::ExhibitResponse { .. }
            | MessageBody::ExhibitNotice { .. } => CLASS_ACCUSATION,
            MessageBody::JoinAnnounce { .. } | MessageBody::LeaveAnnounce { .. } => {
                CLASS_MEMBERSHIP
            }
            MessageBody::HandshakeHello { .. }
            | MessageBody::HandshakeProof { .. }
            | MessageBody::HandshakeAccept { .. }
            | MessageBody::HandshakeReject { .. } => CLASS_CONTROL,
        }
    }
}

impl SignedMessage {
    /// Total wire size including the outer signature.
    pub fn wire_size(&self, wire: &WireConfig) -> usize {
        self.body.wire_size(wire) + wire.signature
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> HomomorphicParams {
        let mut rng = StdRng::seed_from_u64(3);
        HomomorphicParams::generate(64, &mut rng)
    }

    #[test]
    fn identity_triple_combines_to_one() {
        let p = params();
        let t = HashTriple::identity(&p);
        assert!(t.combined(&p).value().is_one());
    }

    #[test]
    fn signable_bytes_distinguish_variants() {
        let a = MessageBody::KeyRequest { round: 1 };
        let b = MessageBody::ExhibitRequest {
            round: 1,
            successor: NodeId(0),
        };
        assert_ne!(a.signable_bytes(), b.signable_bytes());
    }

    #[test]
    fn signable_bytes_cover_round() {
        let a = MessageBody::KeyRequest { round: 1 };
        let b = MessageBody::KeyRequest { round: 2 };
        assert_ne!(a.signable_bytes(), b.signable_bytes());
        assert_eq!(a.round(), 1);
    }

    #[test]
    fn wire_sizes_match_paper_shapes() {
        let wire = WireConfig::default();
        // KeyRequest is small control traffic.
        let kr = MessageBody::KeyRequest { round: 0 };
        assert!(kr.wire_size(&wire) < 32);

        // A KeyResponse with 160 buffermap hashes (4 rounds x 40 updates)
        // is dominated by 160 * 64 B = 10 kB of hashes.
        let resp = MessageBody::KeyResponse {
            round: 0,
            prime: BigUint::from(3u64),
            buffermap: vec![BigUint::from(1u64); 160],
        };
        let size = resp.wire_size(&wire);
        assert!(size > 160 * 64 && size < 160 * 64 + 600, "size = {size}");

        // A Serve with 40 fresh paper-sized updates carries ~40*938 B.
        let serve = MessageBody::Serve {
            round: 0,
            k_prev: BigUint::from(1u64),
            k_prev_factors: 3,
            fresh: vec![
                ServedUpdate {
                    id: UpdateId(0),
                    created_round: 0,
                    payload: vec![0u8; 8].into(),
                    count: 1,
                    expiring: false,
                };
                40
            ],
            refs: vec![],
        };
        let size = serve.wire_size(&wire);
        assert!(size > 40 * 938, "size = {size}");
        assert!(size < 40 * 938 + 1200, "size = {size}");
    }

    #[test]
    fn wire_size_charges_configured_not_actual_payload() {
        // An 8-byte synthetic payload is charged as a full 938-byte update.
        let wire = WireConfig::default();
        let small = MessageBody::Serve {
            round: 0,
            k_prev: BigUint::from(1u64),
            k_prev_factors: 1,
            fresh: vec![ServedUpdate {
                id: UpdateId(0),
                created_round: 0,
                payload: vec![0u8; 8].into(),
                count: 1,
                expiring: false,
            }],
            refs: vec![],
        };
        assert!(small.wire_size(&wire) >= 938);
    }

    #[test]
    fn traffic_classes_partition_messages() {
        assert_eq!(
            MessageBody::KeyRequest { round: 0 }.traffic_class(),
            CLASS_CONTROL
        );
        assert_eq!(
            MessageBody::Nack {
                round: 0,
                accuser: NodeId(0),
                accused: NodeId(1)
            }
            .traffic_class(),
            CLASS_ACCUSATION
        );
    }
}
