//! Authenticated connection handshake: challenge/response over the
//! node's existing RSA (or MAC) identity key (DESIGN.md §13).
//!
//! A TCP connection by itself proves nothing about who is on the other
//! end — the seed transport trusted the *order* in which loopback
//! connections arrived, which no real deployment can. The handshake
//! replaces that positional trust with a signed channel binding:
//!
//! 1. each side sends [`MessageBody::HandshakeHello`] carrying its
//!    advertised [`NodeId`] and a fresh random nonce;
//! 2. each side answers with [`MessageBody::HandshakeProof`] naming the
//!    session id and **both** nonces; the frame's outer
//!    [`SignedMessage`] signature over those bytes is the proof — only
//!    the holder of the advertised identity's key can produce it, and
//!    the peer nonce makes it unreplayable;
//! 3. the listener confirms with [`MessageBody::HandshakeAccept`], or
//!    refuses with [`MessageBody::HandshakeReject`] (reason =
//!    [`HandshakeError::discriminant`]) and severs the connection.
//!
//! Verification ([`verify_proof`]) checks, in order: the frame is a
//! proof at all, the advertised node is on the session roster (before
//! any signer lookup — [`SharedContext::signer`] panics on unknown
//! ids), the session id matches, both nonces echo what was actually
//! sent on *this* connection, the body names the same node as the
//! frame header, and finally the signature. Every failure is a typed
//! [`HandshakeError`], never a panic: the bytes come from an
//! untrusted socket.

use pag_membership::NodeId;

use crate::messages::{MessageBody, SignedMessage};
use crate::shared::SharedContext;
use crate::wire::Frame;

/// Why a handshake was refused. The discriminant travels on the wire
/// in [`MessageBody::HandshakeReject`] so the rejected side can log a
/// cause without being trusted to interpret it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeError {
    /// The frame was not the handshake message expected at this step.
    WrongMessage,
    /// The advertised node id is not on this session's key roster.
    UnknownNode,
    /// The proof names a different session than this host runs.
    SessionMismatch,
    /// A nonce in the proof does not echo what was sent on this
    /// connection — a replay of a proof captured elsewhere.
    NonceMismatch,
    /// The frame header and the message body advertise different
    /// identities.
    IdentityMismatch,
    /// The channel-binding signature does not verify under the
    /// advertised identity's key.
    BadSignature,
}

impl HandshakeError {
    /// Stable wire discriminant for [`MessageBody::HandshakeReject`].
    pub fn discriminant(self) -> u8 {
        match self {
            HandshakeError::WrongMessage => 1,
            HandshakeError::UnknownNode => 2,
            HandshakeError::SessionMismatch => 3,
            HandshakeError::NonceMismatch => 4,
            HandshakeError::IdentityMismatch => 5,
            HandshakeError::BadSignature => 6,
        }
    }
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::WrongMessage => write!(f, "unexpected message during handshake"),
            HandshakeError::UnknownNode => write!(f, "advertised node is not on the roster"),
            HandshakeError::SessionMismatch => write!(f, "proof names a different session"),
            HandshakeError::NonceMismatch => write!(f, "proof echoes stale nonces (replay?)"),
            HandshakeError::IdentityMismatch => {
                write!(f, "frame header and body advertise different nodes")
            }
            HandshakeError::BadSignature => write!(f, "channel-binding signature invalid"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Builds the opening [`MessageBody::HandshakeHello`] for `node` with a
/// fresh `nonce`.
pub fn hello(shared: &SharedContext, node: NodeId, nonce: u64) -> SignedMessage {
    shared.sign(
        node,
        MessageBody::HandshakeHello {
            session: shared.config.session_id,
            node,
            nonce,
        },
    )
}

/// Builds `node`'s channel-binding proof, signed over the session id,
/// the remote side's challenge (`their_nonce`) and our own
/// (`our_nonce`).
pub fn proof(
    shared: &SharedContext,
    node: NodeId,
    their_nonce: u64,
    our_nonce: u64,
) -> SignedMessage {
    shared.sign(
        node,
        MessageBody::HandshakeProof {
            session: shared.config.session_id,
            node,
            listener_nonce: their_nonce,
            peer_nonce: our_nonce,
        },
    )
}

/// Builds the listener's [`MessageBody::HandshakeAccept`].
pub fn accept(shared: &SharedContext, node: NodeId) -> SignedMessage {
    shared.sign(
        node,
        MessageBody::HandshakeAccept {
            session: shared.config.session_id,
            node,
        },
    )
}

/// Builds a refusal naming `err` as the reason, signed by `node`.
pub fn reject(shared: &SharedContext, node: NodeId, err: HandshakeError) -> SignedMessage {
    shared.sign(
        node,
        MessageBody::HandshakeReject {
            session: shared.config.session_id,
            reason: err.discriminant(),
        },
    )
}

/// Reads the advertised identity and nonce out of a hello frame, with
/// only the checks possible before any proof exists: it is a hello, for
/// this session, for a roster identity, and internally consistent. The
/// identity is still *unproven* until [`verify_proof`] passes.
pub fn read_hello(shared: &SharedContext, frame: &Frame) -> Result<(NodeId, u64), HandshakeError> {
    let MessageBody::HandshakeHello { session, node, nonce } = frame.msg.body else {
        return Err(HandshakeError::WrongMessage);
    };
    if !shared.knows(node) {
        return Err(HandshakeError::UnknownNode);
    }
    if session != shared.config.session_id {
        return Err(HandshakeError::SessionMismatch);
    }
    if frame.from != node {
        return Err(HandshakeError::IdentityMismatch);
    }
    Ok((node, nonce))
}

/// Verifies a channel-binding proof received on a connection where we
/// issued `our_nonce` and the peer's hello advertised `peer` with
/// `their_nonce`. Returns the now-authenticated identity.
pub fn verify_proof(
    shared: &SharedContext,
    frame: &Frame,
    peer: NodeId,
    our_nonce: u64,
    their_nonce: u64,
) -> Result<NodeId, HandshakeError> {
    let MessageBody::HandshakeProof { session, node, listener_nonce, peer_nonce } = frame.msg.body
    else {
        return Err(HandshakeError::WrongMessage);
    };
    // Roster membership first, so an unknown id is refused as such
    // rather than as a bad signature.
    if !shared.knows(node) {
        return Err(HandshakeError::UnknownNode);
    }
    if session != shared.config.session_id {
        return Err(HandshakeError::SessionMismatch);
    }
    if listener_nonce != our_nonce || peer_nonce != their_nonce {
        return Err(HandshakeError::NonceMismatch);
    }
    if node != peer || frame.from != node {
        return Err(HandshakeError::IdentityMismatch);
    }
    if !shared.verify(node, &frame.msg) {
        return Err(HandshakeError::BadSignature);
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagConfig;
    use crate::wire::{decode_frame, encode_frame};
    use std::sync::Arc;

    fn ctx() -> Arc<SharedContext> {
        SharedContext::new(PagConfig::default(), 6)
    }

    /// Encodes a handshake message as node `from` would put it on the
    /// wire, then decodes it back — verification must operate on what
    /// actually survives the codec.
    fn through_wire(ctx: &SharedContext, from: NodeId, to: NodeId, msg: SignedMessage) -> Frame {
        let bytes =
            encode_frame(from, to, &msg, &ctx.config.wire).expect("encode handshake frame");
        decode_frame(&bytes, &ctx.config.wire).expect("decode handshake frame")
    }

    #[test]
    fn full_exchange_verifies() {
        let ctx = ctx();
        let (dialer, listener) = (NodeId(2), NodeId(4));
        let (dialer_nonce, listener_nonce) = (0xD1A1, 0x115E);

        let hello_frame = through_wire(&ctx, dialer, listener, hello(&ctx, dialer, dialer_nonce));
        let (who, nonce) = read_hello(&ctx, &hello_frame).expect("hello accepted");
        assert_eq!((who, nonce), (dialer, dialer_nonce));

        let proof_frame = through_wire(
            &ctx,
            dialer,
            listener,
            proof(&ctx, dialer, listener_nonce, dialer_nonce),
        );
        let id = verify_proof(&ctx, &proof_frame, dialer, listener_nonce, dialer_nonce)
            .expect("proof accepted");
        assert_eq!(id, dialer);
    }

    #[test]
    fn replayed_proof_is_rejected() {
        let ctx = ctx();
        let dialer = NodeId(2);
        // Proof bound to listener nonce 7, replayed on a connection
        // where the listener issued nonce 8.
        let frame = through_wire(&ctx, dialer, NodeId(4), proof(&ctx, dialer, 7, 1));
        assert_eq!(
            verify_proof(&ctx, &frame, dialer, 8, 1),
            Err(HandshakeError::NonceMismatch)
        );
    }

    #[test]
    fn forged_signature_is_rejected() {
        let ctx = ctx();
        let dialer = NodeId(2);
        // Node 3 signs a proof claiming to be node 2.
        let forged = SignedMessage {
            body: MessageBody::HandshakeProof {
                session: ctx.config.session_id,
                node: dialer,
                listener_nonce: 7,
                peer_nonce: 1,
            },
            sig: ctx
                .signer(NodeId(3))
                .sign(&MessageBody::HandshakeProof {
                    session: ctx.config.session_id,
                    node: dialer,
                    listener_nonce: 7,
                    peer_nonce: 1,
                }
                .signable_bytes()),
        };
        let frame = through_wire(&ctx, dialer, NodeId(4), forged);
        assert_eq!(
            verify_proof(&ctx, &frame, dialer, 7, 1),
            Err(HandshakeError::BadSignature)
        );
    }

    #[test]
    fn wrong_session_is_rejected() {
        let ctx = ctx();
        let dialer = NodeId(2);
        let msg = ctx.sign(
            dialer,
            MessageBody::HandshakeProof {
                session: ctx.config.session_id + 1,
                node: dialer,
                listener_nonce: 7,
                peer_nonce: 1,
            },
        );
        let frame = through_wire(&ctx, dialer, NodeId(4), msg);
        assert_eq!(
            verify_proof(&ctx, &frame, dialer, 7, 1),
            Err(HandshakeError::SessionMismatch)
        );
    }

    #[test]
    fn unknown_node_is_rejected_without_panicking() {
        let ctx = ctx();
        // NodeId(99) is off the roster; build its message under a
        // context that does know it, then verify under one that does
        // not — `knows` must answer before any signer lookup panics.
        let big = SharedContext::new(PagConfig::default(), 100);
        let frame = through_wire(&big, NodeId(99), NodeId(4), hello(&big, NodeId(99), 5));
        assert_eq!(read_hello(&ctx, &frame), Err(HandshakeError::UnknownNode));
        let frame = through_wire(&big, NodeId(99), NodeId(4), proof(&big, NodeId(99), 7, 1));
        assert_eq!(
            verify_proof(&ctx, &frame, NodeId(99), 7, 1),
            Err(HandshakeError::UnknownNode)
        );
    }

    #[test]
    fn header_body_identity_mismatch_is_rejected() {
        let ctx = ctx();
        // Node 3 sends node 2's (validly signed) proof under its own
        // header address.
        let msg = proof(&ctx, NodeId(2), 7, 1);
        let frame = through_wire(&ctx, NodeId(3), NodeId(4), msg);
        assert_eq!(
            verify_proof(&ctx, &frame, NodeId(2), 7, 1),
            Err(HandshakeError::IdentityMismatch)
        );
    }

    #[test]
    fn non_handshake_frame_is_wrong_message() {
        let ctx = ctx();
        let msg = ctx.sign(NodeId(2), MessageBody::KeyRequest { round: 3 });
        let frame = through_wire(&ctx, NodeId(2), NodeId(4), msg);
        assert_eq!(read_hello(&ctx, &frame), Err(HandshakeError::WrongMessage));
        assert_eq!(
            verify_proof(&ctx, &frame, NodeId(2), 7, 1),
            Err(HandshakeError::WrongMessage)
        );
    }

    #[test]
    fn reject_reasons_have_distinct_discriminants() {
        let all = [
            HandshakeError::WrongMessage,
            HandshakeError::UnknownNode,
            HandshakeError::SessionMismatch,
            HandshakeError::NonceMismatch,
            HandshakeError::IdentityMismatch,
            HandshakeError::BadSignature,
        ];
        let mut seen: Vec<u8> = all.iter().map(|e| e.discriminant()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len());
        assert!(seen.iter().all(|&d| d != 0), "0 is reserved for 'unknown'");
    }
}
