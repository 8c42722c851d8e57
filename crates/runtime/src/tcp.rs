//! The TCP driver: the sans-IO engine on real loopback sockets.
//!
//! Same per-node core and worker pool as the threaded driver
//! (`crate::worker`, `crate::pool`), but the [`Link`] writes
//! **length-prefixed codec frames to TCP streams**
//! (`pag_core::wire::encode_stream_frame`) and per-stream reader
//! threads reassemble them with `pag_core::wire::StreamFramer` before
//! funnelling them into the owning node's pool inbox. Every byte a
//! node is charged for crosses the kernel's loopback path; nothing
//! about the protocol, timers, churn or crash semantics changes —
//! which is the point, and what the driver-equivalence suite pins down
//! (verdicts, deliveries and traffic totals identical to the simulator
//! and the channel driver, lockstep mode).
//!
//! Reader and accept threads are per-stream; the pool removes only the
//! *node* threads, which is what dominates at scale. A reader keeps
//! forwarding to a crashed node's slot (the crashed core credits and
//! drops the frames), so every frame a sender charged to the lockstep
//! ledger before its socket write is read and credited.
//!
//! # Topology and lifecycle
//!
//! Each node binds a listener on `127.0.0.1:0`; the harness then
//! establishes a **full mesh of duplex streams** (one per node pair,
//! the lower id connecting) before any worker starts, so session
//! traffic never races connection setup. Every stream is
//! **authenticated** before it carries a single protocol frame: a
//! challenge/response handshake (`pag_core::handshake`, DESIGN.md §13)
//! in which each side signs the channel binding — session id plus both
//! sides' fresh nonces — with its existing identity key. Handshake
//! bytes are connection setup, not protocol traffic, and are never
//! charged to [`crate::NodeTraffic`] (which is what keeps TCP runs
//! bit-identical to the other drivers). Establishment is fallible, not
//! panicking: every bind / connect / accept / configure / handshake
//! step surfaces as a typed [`TcpSetupError`] from [`run_tcp`] (and as
//! [`crate::session::SessionError`] one level up). After the mesh, each
//! listener keeps accepting: a late connection that opens with a
//! `HandshakeHello` gets the same challenge/response treatment (a
//! reconnecting peer proves its identity; a bad proof, replayed nonce
//! or wrong session id is answered with `HandshakeReject`, counted via
//! [`pag_core::engine::MetricEvent::HandshakeRejected`], and severed),
//! while any other late connection remains an untrusted byte source
//! whose frames travel the same framer → `decode_frame` → deliver path
//! — and fail it safely. Malformed or truncated input, and frames
//! misrouted or sent in the name of an id outside the key roster, are
//! dropped and counted
//! ([`pag_core::engine::MetricEvent::FrameRejected`]); an oversized
//! length prefix kills the connection (stream sync is lost) after
//! counting one rejection. No input bytes can panic a node thread, and
//! a reader or accept thread that fails to *spawn* is logged and
//! counted (as a severed link), never a panic.
//!
//! Untrusted connections additionally carry a **rejected-frame budget**
//! ([`TcpConfig::reject_limit`]): a connection that keeps producing
//! undecodable or misrouted frames is severed once the budget is spent,
//! and the cut is counted
//! ([`pag_core::engine::MetricEvent::ConnectionDropped`]) — so a
//! hostile flood costs the node a bounded number of rejections instead
//! of one per hostile frame forever. Mesh streams carry only
//! peer-engine frames and skip the screen entirely.
//!
//! # Self-healing links (DESIGN.md §12)
//!
//! Each peer's write-half lives in a supervised **slot**. Severing a
//! link — via a scheduled [`TcpConfig::link_kills`] entry, or a failed
//! socket write — empties the slot, counts a
//! [`pag_core::engine::MetricEvent::LinkSevered`], and (in real-time
//! mode) spawns a reconnect supervisor: bounded exponential backoff
//! with seeded jitter, redialing the peer's listener. The redialed
//! stream arrives through the peer's accept thread as an untrusted
//! connection — same screen, same reject-don't-panic path — and the
//! healed slot counts a
//! [`pag_core::engine::MetricEvent::LinkReconnected`]. In **lockstep**
//! mode reconnection is disabled: a revived stream would inject frames
//! the quiescence ledger never registered and wedge (or corrupt) the
//! barrier accounting. Lockstep kills still work — both endpoints sever
//! at their own round entry, a quiescent point, so no registered frame
//! is ever in flight across the dying socket, and later sends to the
//! dead slot are refused and balanced by the core's done-on-refused
//! path. That is how a lockstep session tolerates a down link without
//! wedging.
//!
//! Lockstep mode works unchanged over sockets because the quiescence
//! ledger brackets the socket transit: a sender registers its frame
//! with the coordinator *before* the `write`, and the receiving core
//! marks it done only after processing, so barrier phases wait for
//! bytes still sitting in kernel buffers.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pag_core::engine::PagEngine;
use pag_core::handshake::{self, HandshakeError};
use pag_core::messages::{MessageBody, SignedMessage};
use pag_core::wire::{
    decode_frame, encode_frame, encode_stream_frame, Frame, StreamFramer, WireConfig,
    MAX_STREAM_FRAME_BYTES,
};
use pag_core::SharedContext;
use pag_membership::NodeId;

use crate::churn::ChurnEvent;
use crate::faults::FaultPlan;
use crate::hooks::HostHooks;
use crate::pool::{run_pool, PoolQueues, Scheduler};
use crate::worker::{
    down_windows, merged_feeds, Coordination, DriverRun, Envelope, Link, NetEmulation, NodeCore,
};

/// Outcome of a TCP run (same shape as every real-time driver).
pub type TcpRun = DriverRun;

/// Default [`TcpConfig::reject_limit`]: enough rejections to diagnose a
/// misbehaving peer in the metrics, small enough that a flood is cut
/// off within one scheduling quantum.
pub const DEFAULT_REJECT_LIMIT: u32 = 32;

/// First wait of the reconnect supervisor's backoff ladder (ms).
const RECONNECT_BASE_MS: u64 = 8;

/// Ceiling of the reconnect backoff ladder (ms).
const RECONNECT_MAX_MS: u64 = 256;

/// Redial attempts per sever before the supervisor gives up.
const RECONNECT_ATTEMPTS: u32 = 8;

/// Why TCP transport establishment failed. Surfaced by [`run_tcp`]
/// instead of panicking mid-setup; the session layer wraps it in
/// [`crate::session::SessionError`].
#[derive(Debug)]
pub enum TcpSetupError {
    /// Binding a node's loopback listener failed.
    Bind(std::io::Error),
    /// Reading a bound listener's local address failed.
    LocalAddr(std::io::Error),
    /// Dialing a peer's listener while pairing the mesh failed.
    Connect(std::io::Error),
    /// Accepting the matching mesh connection failed.
    Accept(std::io::Error),
    /// Configuring an established mesh stream (nodelay, or cloning the
    /// write half) failed.
    Configure(std::io::Error),
    /// Spawning the worker pool the nodes run on failed.
    SpawnNode(std::io::Error),
    /// A mesh handshake failed verification: the channel-binding proof
    /// on a just-paired stream was refused. With both endpoints in this
    /// process that means a broken session profile (e.g. a wire config
    /// the codec refuses), not an attacker.
    Handshake(HandshakeError),
    /// A mesh handshake failed at the transport level: the stream died,
    /// produced unframeable bytes, or the handshake messages could not
    /// be encoded under the session's wire profile.
    HandshakeIo(std::io::Error),
}

impl std::fmt::Display for TcpSetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpSetupError::Bind(e) => write!(f, "could not bind loopback listener: {e}"),
            TcpSetupError::LocalAddr(e) => write!(f, "could not read listener address: {e}"),
            TcpSetupError::Connect(e) => write!(f, "could not connect mesh stream: {e}"),
            TcpSetupError::Accept(e) => write!(f, "could not accept mesh stream: {e}"),
            TcpSetupError::Configure(e) => write!(f, "could not configure mesh stream: {e}"),
            TcpSetupError::SpawnNode(e) => write!(f, "could not spawn the worker pool: {e}"),
            TcpSetupError::Handshake(e) => write!(f, "mesh handshake refused: {e}"),
            TcpSetupError::HandshakeIo(e) => write!(f, "mesh handshake failed: {e}"),
        }
    }
}

impl std::error::Error for TcpSetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcpSetupError::Bind(e)
            | TcpSetupError::LocalAddr(e)
            | TcpSetupError::Connect(e)
            | TcpSetupError::Accept(e)
            | TcpSetupError::Configure(e)
            | TcpSetupError::SpawnNode(e)
            | TcpSetupError::HandshakeIo(e) => Some(e),
            TcpSetupError::Handshake(e) => Some(e),
        }
    }
}

/// Configuration of the TCP driver.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Wall-clock round duration in real-time mode (engine timer offsets
    /// scale by `round_ms / 1000`). Ignored in lockstep mode.
    pub round_ms: u64,
    /// Deterministic timer mode: virtual time with quiescence barriers
    /// instead of the wall clock (works over sockets; see module docs).
    /// Disables link self-healing — see the module docs' fault section.
    pub lockstep: bool,
    /// Session seed for the engines' deterministic randomness (and the
    /// reconnect supervisors' jitter).
    pub seed: u64,
    /// Optional latency/loss injection, applied in the node core exactly
    /// like the channel driver's (loss before the socket write, latency
    /// as a receive-side delay queue).
    pub net: Option<NetEmulation>,
    /// Upper bound on one stream frame; a length prefix above it is a
    /// framing violation that drops the connection. Senders enforce the
    /// same bound, so conforming peers never trip it.
    pub max_frame_bytes: usize,
    /// Rejected-frame budget per **untrusted** (post-mesh) connection:
    /// after this many undecodable or misrouted frames the connection
    /// is severed and counted as a
    /// [`pag_core::engine::MetricEvent::ConnectionDropped`]. Mesh
    /// streams are exempt (peer engines only produce clean frames).
    pub reject_limit: u32,
    /// Size of the worker pool the nodes run on.
    pub scheduler: Scheduler,
    /// Scheduled transport-level link kills: `(a, b, round)` severs the
    /// socket between `a` and `b` when each endpoint enters `round` (a
    /// quiescent point in lockstep mode). Both directions die; in
    /// real-time mode each endpoint's supervisor then redials. This is
    /// a *transport* fault — unlike [`crate::faults`] cut windows it is
    /// invisible to the other drivers and excluded from equivalence.
    pub link_kills: Vec<(NodeId, NodeId, u64)>,
    /// Test/diagnostics hook: each node's bound listener address is sent
    /// here **after** the session mesh is fully established (so probes
    /// connecting in response can never be mistaken for mesh peers).
    pub addr_probe: Option<Sender<(NodeId, SocketAddr)>>,
    /// Host integration hooks (snapshot vault, live status watch).
    /// Defaults to off; hooks never alter engine inputs.
    pub hooks: HostHooks,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            round_ms: 1000,
            lockstep: true,
            seed: 0,
            net: None,
            max_frame_bytes: MAX_STREAM_FRAME_BYTES,
            reject_limit: DEFAULT_REJECT_LIMIT,
            scheduler: Scheduler::default(),
            link_kills: Vec::new(),
            addr_probe: None,
            hooks: HostHooks::default(),
        }
    }
}

/// Salt folded into the session seed for handshake nonce generation,
/// so nonces never collide with any other seeded stream in the run.
const HANDSHAKE_NONCE_SALT: u64 = 0x4841_4E44_5348_4B45;

/// A fresh per-connection handshake nonce: the session-global counter
/// guarantees uniqueness within the run (which is what defeats proof
/// replay), the seeded mix decorrelates the values.
fn fresh_nonce(seed: u64, counter: &AtomicU64) -> u64 {
    pag_membership::mix(seed ^ HANDSHAKE_NONCE_SALT ^ counter.fetch_add(1, Ordering::SeqCst))
}

/// Writes one length-prefixed handshake frame (`from` → `to`) to a
/// stream. Encode failures mean the session's wire profile refuses its
/// own handshake messages — a setup error, not an attack.
fn send_handshake(
    stream: &mut TcpStream,
    wire: &WireConfig,
    from: NodeId,
    to: NodeId,
    msg: &SignedMessage,
    max_frame: usize,
) -> std::io::Result<()> {
    let frame = encode_frame(from, to, msg, wire)
        .map_err(|e| std::io::Error::other(format!("unencodable handshake frame: {e}")))?;
    let encoded = encode_stream_frame(&frame, max_frame)
        .map_err(|e| std::io::Error::other(format!("oversized handshake frame: {e}")))?;
    stream.write_all(&encoded)
}

/// What one blocking pull of the next length-prefixed frame yielded.
enum Pulled {
    /// A complete frame's bytes.
    Frame(Vec<u8>),
    /// Clean end of stream (or a read error — equivalent here).
    Eof,
    /// A framing violation: the length prefix exceeds the bound, so
    /// stream sync is unrecoverable.
    Violation,
}

/// Blocks until the framer yields one complete frame (reading more
/// bytes as needed), EOF, or a framing violation.
fn pull_frame(stream: &mut TcpStream, framer: &mut StreamFramer, chunk: &mut [u8]) -> Pulled {
    loop {
        match framer.next_frame() {
            Ok(Some(frame)) => return Pulled::Frame(frame),
            Ok(None) => {}
            Err(_) => return Pulled::Violation,
        }
        match stream.read(chunk) {
            Ok(0) | Err(_) => return Pulled::Eof,
            Ok(n) => framer.push(&chunk[..n]),
        }
    }
}

/// Pulls and decodes the next frame during a setup-time handshake,
/// mapping every failure mode to a typed setup error.
fn recv_handshake(
    stream: &mut TcpStream,
    framer: &mut StreamFramer,
    wire: &WireConfig,
) -> Result<Frame, TcpSetupError> {
    let mut chunk = [0u8; 4096];
    match pull_frame(stream, framer, &mut chunk) {
        Pulled::Frame(bytes) => decode_frame(&bytes, wire).map_err(|e| {
            TcpSetupError::HandshakeIo(std::io::Error::other(format!(
                "undecodable handshake frame: {e}"
            )))
        }),
        Pulled::Eof => Err(TcpSetupError::HandshakeIo(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream closed during handshake",
        ))),
        Pulled::Violation => Err(TcpSetupError::HandshakeIo(std::io::Error::other(
            "framing violation during handshake",
        ))),
    }
}

/// Runs the authenticated handshake over one just-paired mesh stream,
/// driving **both** endpoints from the setup thread (the frames are far
/// smaller than loopback socket buffers, so the explicit interleave
/// below can never deadlock):
///
/// 1. dialer and listener exchange `HandshakeHello` (identity + nonce);
/// 2. dialer proves first, then the listener proves back and confirms
///    with `HandshakeAccept`.
///
/// Either side refusing a proof is a [`TcpSetupError::Handshake`] — in
/// the in-process mesh that indicates a broken session profile, and the
/// same verification code is what [`listener_handshake`] applies to
/// genuinely untrusted late connections.
#[allow(clippy::too_many_arguments)]
fn mesh_handshake(
    dialer_stream: &mut TcpStream,
    listener_stream: &mut TcpStream,
    shared: &SharedContext,
    dialer: NodeId,
    listener: NodeId,
    dialer_nonce: u64,
    listener_nonce: u64,
    max_frame: usize,
) -> Result<(), TcpSetupError> {
    let wire = &shared.config.wire;
    let mut dialer_framer = StreamFramer::new(max_frame);
    let mut listener_framer = StreamFramer::new(max_frame);
    let send = |stream: &mut TcpStream, from: NodeId, to: NodeId, msg: &SignedMessage| {
        send_handshake(stream, wire, from, to, msg, max_frame).map_err(TcpSetupError::HandshakeIo)
    };

    // Hellos cross: each side advertises its identity and challenge.
    send(
        dialer_stream,
        dialer,
        listener,
        &handshake::hello(shared, dialer, dialer_nonce),
    )?;
    let frame = recv_handshake(listener_stream, &mut listener_framer, wire)?;
    let (d_id, d_nonce) = handshake::read_hello(shared, &frame).map_err(TcpSetupError::Handshake)?;
    send(
        listener_stream,
        listener,
        dialer,
        &handshake::hello(shared, listener, listener_nonce),
    )?;
    let frame = recv_handshake(dialer_stream, &mut dialer_framer, wire)?;
    let (l_id, l_nonce) = handshake::read_hello(shared, &frame).map_err(TcpSetupError::Handshake)?;

    // The dialer proves first; the listener verifies, proves back, and
    // confirms.
    send(
        dialer_stream,
        dialer,
        listener,
        &handshake::proof(shared, dialer, l_nonce, dialer_nonce),
    )?;
    let frame = recv_handshake(listener_stream, &mut listener_framer, wire)?;
    handshake::verify_proof(shared, &frame, d_id, listener_nonce, d_nonce)
        .map_err(TcpSetupError::Handshake)?;
    send(
        listener_stream,
        listener,
        dialer,
        &handshake::proof(shared, listener, d_nonce, listener_nonce),
    )?;
    send(
        listener_stream,
        listener,
        dialer,
        &handshake::accept(shared, listener),
    )?;
    let frame = recv_handshake(dialer_stream, &mut dialer_framer, wire)?;
    handshake::verify_proof(shared, &frame, l_id, dialer_nonce, l_nonce)
        .map_err(TcpSetupError::Handshake)?;
    let frame = recv_handshake(dialer_stream, &mut dialer_framer, wire)?;
    if !matches!(frame.msg.body, MessageBody::HandshakeAccept { .. }) {
        return Err(TcpSetupError::Handshake(HandshakeError::WrongMessage));
    }
    Ok(())
}

/// The dialer side of the handshake on a **redialed** stream (reconnect
/// supervisor): hello, read the peer's hello, prove, verify the peer's
/// proof, read the accept. `Err` means the heal attempt failed — the
/// supervisor backs off and retries, exactly like a refused connect.
fn dialer_handshake(
    stream: &mut TcpStream,
    shared: &SharedContext,
    owner: NodeId,
    peer: NodeId,
    our_nonce: u64,
    max_frame: usize,
) -> Result<(), ()> {
    let wire = &shared.config.wire;
    let mut framer = StreamFramer::new(max_frame);
    let mut chunk = [0u8; 4096];
    let mut recv = |stream: &mut TcpStream, framer: &mut StreamFramer| -> Result<Frame, ()> {
        match pull_frame(stream, framer, &mut chunk) {
            Pulled::Frame(bytes) => decode_frame(&bytes, wire).map_err(|_| ()),
            Pulled::Eof | Pulled::Violation => Err(()),
        }
    };

    send_handshake(
        stream,
        wire,
        owner,
        peer,
        &handshake::hello(shared, owner, our_nonce),
        max_frame,
    )
    .map_err(|_| ())?;
    let frame = recv(stream, &mut framer)?;
    let (l_id, l_nonce) = handshake::read_hello(shared, &frame).map_err(|_| ())?;
    if l_id != peer {
        return Err(());
    }
    send_handshake(
        stream,
        wire,
        owner,
        peer,
        &handshake::proof(shared, owner, l_nonce, our_nonce),
        max_frame,
    )
    .map_err(|_| ())?;
    let frame = recv(stream, &mut framer)?;
    handshake::verify_proof(shared, &frame, peer, our_nonce, l_nonce).map_err(|_| ())?;
    let frame = recv(stream, &mut framer)?;
    if matches!(frame.msg.body, MessageBody::HandshakeAccept { .. }) {
        Ok(())
    } else {
        Err(())
    }
}

/// Everything a late-connection reader needs to *listener*-authenticate
/// a peer that opens with `HandshakeHello` (a reconnecting node, or a
/// second host's dialer). Connections that open with anything else stay
/// on the legacy screened path.
struct LateAuth {
    shared: Arc<SharedContext>,
    owner: NodeId,
    nonce_counter: Arc<AtomicU64>,
    seed: u64,
    max_frame: usize,
}

/// The listener side of the handshake on an untrusted late connection,
/// entered when its first frame decoded to a `HandshakeHello`.
///
/// `Err(Some(e))` — the peer was *refused* (bad proof, replayed nonce,
/// wrong session, off-roster identity): a `HandshakeReject` naming the
/// reason is sent back (best-effort) and the caller counts the
/// rejection and severs. `Err(None)` — the connection died mid-exchange
/// (nothing to count beyond the drop itself). `Ok(peer)` — the
/// connection is now authenticated as `peer`.
fn listener_handshake(
    stream: &mut TcpStream,
    framer: &mut StreamFramer,
    chunk: &mut [u8],
    auth: &LateAuth,
    hello: &Frame,
) -> Result<NodeId, Option<HandshakeError>> {
    let shared = auth.shared.as_ref();
    let wire = &shared.config.wire;
    let refuse = |stream: &mut TcpStream, to: NodeId, e: HandshakeError| {
        let msg = handshake::reject(shared, auth.owner, e);
        let _ = send_handshake(stream, wire, auth.owner, to, &msg, auth.max_frame);
        Err(Some(e))
    };

    let (peer, their_nonce) = match handshake::read_hello(shared, hello) {
        Ok(read) => read,
        Err(e) => return refuse(stream, hello.from, e),
    };
    let our_nonce = fresh_nonce(auth.seed, &auth.nonce_counter);
    send_handshake(
        stream,
        wire,
        auth.owner,
        peer,
        &handshake::hello(shared, auth.owner, our_nonce),
        auth.max_frame,
    )
    .map_err(|_| None)?;
    let proof_frame = match pull_frame(stream, framer, chunk) {
        Pulled::Frame(bytes) => match decode_frame(&bytes, wire) {
            Ok(frame) => frame,
            Err(_) => return refuse(stream, peer, HandshakeError::WrongMessage),
        },
        Pulled::Eof | Pulled::Violation => return Err(None),
    };
    match handshake::verify_proof(shared, &proof_frame, peer, our_nonce, their_nonce) {
        Ok(authenticated) => {
            send_handshake(
                stream,
                wire,
                auth.owner,
                authenticated,
                &handshake::proof(shared, auth.owner, their_nonce, our_nonce),
                auth.max_frame,
            )
            .map_err(|_| None)?;
            send_handshake(
                stream,
                wire,
                auth.owner,
                authenticated,
                &handshake::accept(shared, auth.owner),
                auth.max_frame,
            )
            .map_err(|_| None)?;
            Ok(authenticated)
        }
        Err(e) => refuse(stream, peer, e),
    }
}

/// One peer's supervised connection: the write half lives in a slot
/// that severing empties and (real-time mode) a reconnect supervisor
/// refills by redialing `addr`.
struct PeerLink {
    slot: Arc<Mutex<Option<TcpStream>>>,
    addr: SocketAddr,
}

/// Locks a slot, riding out poisoning (a reader panicking elsewhere
/// must not cascade into the link).
fn lock_slot(slot: &Mutex<Option<TcpStream>>) -> std::sync::MutexGuard<'_, Option<TcpStream>> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The socket transport: one supervised write-half slot per peer, plus
/// the sever/reconnect counters the node core folds into its engine
/// metrics via `health_delta`.
struct TcpLink {
    owner: NodeId,
    peers: BTreeMap<NodeId, PeerLink>,
    max_frame: usize,
    /// Real-time mode only: severed slots get a reconnect supervisor.
    /// Off in lockstep — see the module docs' fault section.
    self_heal: bool,
    severed: Arc<AtomicU64>,
    reconnected: Arc<AtomicU64>,
    /// Session teardown flag (shared with the accept threads): stops
    /// supervisors from redialing a session that is over.
    stop: Arc<AtomicBool>,
    /// Deterministically seeded state for the supervisors' jitter.
    jitter_seed: u64,
    /// Session context for the reconnect supervisors' dialer handshake
    /// (a redialed stream is untrusted to the peer until proven).
    shared: Arc<SharedContext>,
    /// Session-global handshake nonce counter (uniqueness defeats
    /// proof replay).
    nonce_counter: Arc<AtomicU64>,
    /// Session seed for handshake nonce mixing.
    seed: u64,
}

impl TcpLink {
    /// Empties `to`'s slot (shutting the socket down), counts the
    /// sever, and in self-healing mode starts a reconnect supervisor.
    fn sever_slot(&mut self, to: NodeId) {
        let Some(peer) = self.peers.get(&to) else {
            return;
        };
        let Some(stream) = lock_slot(&peer.slot).take() else {
            return;
        };
        let _ = stream.shutdown(Shutdown::Both);
        self.severed.fetch_add(1, Ordering::SeqCst);
        if self.self_heal {
            self.supervise_reconnect(to);
        }
    }

    /// Spawns the detached reconnect supervisor for `to`: bounded
    /// exponential backoff (base 8ms, ceiling 256ms, 8 attempts) with
    /// seeded jitter, redialing the peer's listener. The redialed
    /// stream lands on the peer's accept thread as an **untrusted**
    /// connection, so the supervisor must re-authenticate: it runs the
    /// dialer handshake (hello/proof/accept) against the peer's late
    /// reader, and only a proven stream refills the slot and counts the
    /// heal. A refused or broken handshake backs off like a refused
    /// connect.
    fn supervise_reconnect(&mut self, to: NodeId) {
        let Some(peer) = self.peers.get(&to) else {
            return;
        };
        let slot = Arc::clone(&peer.slot);
        let addr = peer.addr;
        let reconnected = Arc::clone(&self.reconnected);
        let stop = Arc::clone(&self.stop);
        let shared = Arc::clone(&self.shared);
        let nonce_counter = Arc::clone(&self.nonce_counter);
        let owner = self.owner;
        let seed = self.seed;
        let max_frame = self.max_frame;
        // Advance the link's jitter state so consecutive severs of the
        // same pair don't retry in phase.
        self.jitter_seed = self
            .jitter_seed
            .rotate_left(17)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(to.0);
        let mut jitter = self.jitter_seed | 1;
        let spawned = thread::Builder::new()
            .name(format!("pag-tcp-heal-{}-{to}", self.owner))
            .spawn(move || {
                let mut backoff = RECONNECT_BASE_MS;
                for _ in 0..RECONNECT_ATTEMPTS {
                    // xorshift64 step: cheap, deterministic per seed.
                    jitter ^= jitter << 13;
                    jitter ^= jitter >> 7;
                    jitter ^= jitter << 17;
                    let wait = backoff + jitter % (backoff / 2 + 1);
                    thread::sleep(Duration::from_millis(wait));
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match TcpStream::connect(addr) {
                        Ok(mut stream) => {
                            let _ = stream.set_nodelay(true);
                            let nonce = fresh_nonce(seed, &nonce_counter);
                            // No other thread touches this socket until
                            // the slot is refilled, and the peer writes
                            // on it only during the handshake — so the
                            // supervisor can safely read the replies.
                            if dialer_handshake(
                                &mut stream, &shared, owner, to, nonce, max_frame,
                            )
                            .is_ok()
                            {
                                *lock_slot(&slot) = Some(stream);
                                reconnected.fetch_add(1, Ordering::SeqCst);
                                return;
                            }
                            backoff = (backoff * 2).min(RECONNECT_MAX_MS);
                        }
                        Err(_) => backoff = (backoff * 2).min(RECONNECT_MAX_MS),
                    }
                }
            });
        if spawned.is_err() {
            pag_obs::logger::warn(
                "tcp.heal_spawn",
                format_args!("node={} peer={to} could not spawn reconnect supervisor", self.owner),
            );
        }
    }
}

impl Link for TcpLink {
    fn send_frame(&mut self, to: NodeId, frame: Vec<u8>) -> bool {
        let Some(peer) = self.peers.get(&to) else {
            return false;
        };
        // Over-bound frames cannot be produced by a correctly configured
        // session (the bound is shared with the receive side); treat one
        // like a closed link rather than poisoning the peer's stream.
        let Ok(encoded) = encode_stream_frame(&frame, self.max_frame) else {
            return false;
        };
        let mut slot = lock_slot(&peer.slot);
        let Some(stream) = slot.as_mut() else {
            // Severed and not (yet) healed: refuse, the worker's
            // done-on-refused path balances the lockstep ledger.
            return false;
        };
        if stream.write_all(&encoded).is_ok() {
            return true;
        }
        // The write half died under us: that is a sever, observed here.
        drop(slot);
        self.sever_slot(to);
        false
    }

    fn sever(&mut self, to: NodeId) {
        self.sever_slot(to);
    }

    fn health_delta(&mut self) -> (u64, u64) {
        (
            self.severed.swap(0, Ordering::SeqCst),
            self.reconnected.swap(0, Ordering::SeqCst),
        )
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Half-close every outbound stream so peer reader threads see
        // EOF and exit; the read halves of the same sockets stay open
        // until those peers half-close in turn.
        for peer in self.peers.values() {
            if let Some(stream) = lock_slot(&peer.slot).as_ref() {
                let _ = stream.shutdown(Shutdown::Write);
            }
        }
    }
}

/// The rejected-frame budget of one untrusted connection: the reader
/// pre-decodes each well-framed frame and, once `limit` of them have
/// proven undecodable, misrouted or sent in the name of an id outside
/// the key roster, cuts the connection instead of letting the flood buy
/// a rejection per frame forever.
struct RejectScreen {
    owner: NodeId,
    shared: Arc<SharedContext>,
    limit: u32,
    rejected: u32,
}

/// One screened frame's verdict.
enum Screened {
    /// Decodes, comes from a roster id and is addressed to the owner:
    /// deliver normally.
    Clean,
    /// Bad, budget not yet spent: count it (as a pre-decoded rejection
    /// — the worker must not decode it again).
    Bad,
    /// Bad and the budget is spent: sever the connection.
    Flood,
}

impl RejectScreen {
    fn screen(&mut self, frame: &[u8]) -> Screened {
        let bad = match decode_frame(frame, &self.shared.config.wire) {
            Ok(parsed) => parsed.to != self.owner || !self.shared.knows(parsed.from),
            Err(_) => true,
        };
        if !bad {
            return Screened::Clean;
        }
        self.rejected += 1;
        if self.rejected > self.limit {
            Screened::Flood
        } else {
            Screened::Bad
        }
    }
}

/// Reads length-prefixed frames off one stream and forwards them to the
/// owning node's pool slot `idx`. Truncated input simply waits (and EOF
/// discards it); a framing violation forwards one [`Envelope::Malformed`]
/// so the rejection is counted, then drops the connection — reframing
/// after a bogus length prefix is impossible.
///
/// `registered` distinguishes the lockstep ledger's two cases. Mesh
/// streams (`true`) carry frames a peer core registered with the
/// coordinator *before* its socket write, so forwarding must not add
/// again. Late, untrusted connections (`false`) were registered by
/// nobody — the reader adds each envelope itself right before
/// forwarding, so the pool's unconditional `done()` stays balanced
/// and hostile bytes can never consume a legitimate frame's credit and
/// release a quiescence barrier early.
///
/// `screen` is `Some` exactly on untrusted connections: the
/// per-connection rejected-frame budget (see [`TcpConfig::reject_limit`]
/// and the module docs).
///
/// `late_auth` is `Some` on untrusted connections of a session that
/// authenticates late peers: if the connection's **first** frame is a
/// `HandshakeHello`, the reader runs the listener handshake in-line
/// (same framer, so no bytes are lost) — success lets subsequent frames
/// flow through the normal screened path, refusal sends a
/// `HandshakeReject`, forwards one [`Envelope::HandshakeRejected`] (so
/// the refusal is counted) and severs. A first frame that is anything
/// else keeps the legacy screened path: hostile byte floods are handled
/// exactly as before.
fn read_loop(
    mut stream: TcpStream,
    queues: Arc<PoolQueues>,
    idx: usize,
    max_frame: usize,
    registered: bool,
    mut screen: Option<RejectScreen>,
    late_auth: Option<LateAuth>,
) {
    let mut framer = StreamFramer::new(max_frame);
    let mut chunk = [0u8; 16 * 1024];
    let coord = queues.coord.as_ref();
    let forward = |envelope: Envelope| -> bool {
        if !registered {
            if let Some(coord) = coord {
                coord.add(1);
            }
        }
        if queues.enqueue(idx, envelope) {
            return true;
        }
        // The pool has stopped; balance the ledger for the envelope it
        // will never process (a peer's registration or the add above).
        if let Some(coord) = coord {
            coord.done();
        }
        false
    };
    let mut pending_auth = late_auth;
    loop {
        let frame = match pull_frame(&mut stream, &mut framer, &mut chunk) {
            Pulled::Frame(frame) => frame,
            Pulled::Eof => return,
            Pulled::Violation => {
                // On a mesh stream this consumes the garbled frame's
                // own registration; on an untrusted one `forward`
                // adds first.
                let _ = forward(Envelope::Malformed);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        // First frame of an auth-capable connection: a hello opens the
        // listener handshake; anything else falls through to the
        // legacy screened path below.
        if let Some(auth) = pending_auth.take() {
            let hello = decode_frame(&frame, &auth.shared.config.wire)
                .ok()
                .filter(|f| matches!(f.msg.body, MessageBody::HandshakeHello { .. }));
            if let Some(hello) = hello {
                match listener_handshake(&mut stream, &mut framer, &mut chunk, &auth, &hello) {
                    Ok(_peer) => continue,
                    Err(refused) => {
                        if refused.is_some() {
                            let _ = forward(Envelope::HandshakeRejected);
                        }
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                }
            }
        }
        match screen.as_mut().map_or(Screened::Clean, |s| s.screen(&frame)) {
            Screened::Flood => {
                // Budget spent: sever the flooding connection, count
                // the cut, and stop forwarding its frames.
                let _ = forward(Envelope::ConnectionDropped);
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Screened::Bad => {
                // Already proven bad: count the rejection without
                // making the worker decode the bytes a second time.
                if !forward(Envelope::Malformed) {
                    return;
                }
            }
            Screened::Clean => {
                if !forward(Envelope::Frame { bytes: frame }) {
                    return;
                }
            }
        }
    }
}

/// Runs `engines` for `rounds` rounds linked by real TCP streams over
/// loopback, on a worker pool sized by the configured [`Scheduler`].
///
/// Contract identical to [`crate::threaded::run_threaded`]: every
/// engine's node must belong to `shared`'s key roster, `crashes` are
/// fail-stop rounds, `churn` the scheduled membership changes, and
/// `faults` the session's compiled fault plan. Transport establishment
/// failures come back as a typed [`TcpSetupError`] instead of a panic.
pub fn run_tcp(
    shared: &Arc<SharedContext>,
    engines: Vec<PagEngine>,
    rounds: u64,
    crashes: &[(NodeId, u64)],
    churn: &[ChurnEvent],
    faults: &Arc<FaultPlan>,
    cfg: &TcpConfig,
) -> Result<TcpRun, TcpSetupError> {
    let ids: Vec<NodeId> = engines.iter().map(|e| e.id()).collect();
    let n = ids.len();
    let coord = cfg.lockstep.then(|| Arc::new(Coordination::new(n)));
    let round_ms = cfg.round_ms.max(1);
    let net_seed = cfg.seed ^ 0x4E45_5445_4D55;

    // One loopback listener per node.
    let mut listeners = Vec::with_capacity(n);
    let mut addrs: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
    for &id in &ids {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(TcpSetupError::Bind)?;
        addrs.insert(
            id,
            listener.local_addr().map_err(TcpSetupError::LocalAddr)?,
        );
        listeners.push(listener);
    }

    // Session-global handshake nonce counter: uniqueness across every
    // connection of the run is what defeats proof replay.
    let hs_nonces = Arc::new(AtomicU64::new(1));

    // Full mesh of duplex streams, one per unordered node pair, paired
    // synchronously on this thread: connect i -> j, then accept on j's
    // listener. Pairing alone proves nothing about identity — every
    // stream is then **authenticated** with the challenge/response
    // handshake (`pag_core::handshake`, DESIGN.md §13): hellos carrying
    // fresh nonces cross, then each side signs the channel binding
    // (session id + both nonces) with its identity key. Each side keeps
    // a cloned write-half (for its TcpLink) and the original as
    // read-half (for its reader thread).
    let mut writes: Vec<BTreeMap<NodeId, TcpStream>> = (0..n).map(|_| BTreeMap::new()).collect();
    let mut reads: Vec<Vec<TcpStream>> = (0..n).map(|_| Vec::new()).collect();
    for j in 0..n {
        for i in 0..j {
            let mut initiated =
                TcpStream::connect(addrs[&ids[j]]).map_err(TcpSetupError::Connect)?;
            let (mut accepted, _) = listeners[j].accept().map_err(TcpSetupError::Accept)?;
            initiated.set_nodelay(true).map_err(TcpSetupError::Configure)?;
            accepted.set_nodelay(true).map_err(TcpSetupError::Configure)?;
            let dialer_nonce = fresh_nonce(cfg.seed, &hs_nonces);
            let listener_nonce = fresh_nonce(cfg.seed, &hs_nonces);
            mesh_handshake(
                &mut initiated,
                &mut accepted,
                shared,
                ids[i],
                ids[j],
                dialer_nonce,
                listener_nonce,
                cfg.max_frame_bytes,
            )?;
            writes[i].insert(
                ids[j],
                initiated.try_clone().map_err(TcpSetupError::Configure)?,
            );
            reads[i].push(initiated);
            writes[j].insert(
                ids[i],
                accepted.try_clone().map_err(TcpSetupError::Configure)?,
            );
            reads[j].push(accepted);
        }
    }

    // The mesh is closed; only now advertise addresses (probes that
    // connect in response land on the accept threads below, never in
    // the mesh pairing above).
    if let Some(probe) = &cfg.addr_probe {
        for (&id, &addr) in &addrs {
            let _ = probe.send((id, addr));
        }
    }

    let queues = PoolQueues::new(n, coord.clone(), cfg.hooks.trace.is_some());

    // Per-node link health counters, shared between each node's TcpLink
    // and (for spawn failures) this setup path; the node core drains
    // them into its engine metrics every round.
    let severed: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let reconnected: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();

    // Reader threads: one per established inbound stream. Mesh peers
    // are trusted engines — no reject screen. A spawn failure is not a
    // panic: the inbound half of that link is simply dead, which we log
    // and count as a sever (the write half keeps working).
    for (idx, streams) in reads.into_iter().enumerate() {
        for stream in streams {
            let queues = Arc::clone(&queues);
            let max = cfg.max_frame_bytes;
            let spawned = thread::Builder::new()
                .name(format!("pag-tcp-read-{}", ids[idx]))
                .spawn(move || read_loop(stream, queues, idx, max, true, None, None));
            if spawned.is_err() {
                pag_obs::logger::warn(
                    "tcp.reader_spawn",
                    format_args!(
                        "node={} could not spawn a mesh reader thread, counting the \
                         inbound link as severed",
                        ids[idx]
                    ),
                );
                severed[idx].fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    // Accept threads: keep each listener open for late (untrusted)
    // connections; their bytes go through the same reject-don't-panic
    // frame path, behind the per-connection rejected-frame budget. A
    // stop flag plus a wake-up connection ends them. Spawn failures —
    // of an accept thread, or of one of its per-connection readers —
    // are logged and counted, never panics.
    let stop_accepting = Arc::new(AtomicBool::new(false));
    let mut accept_handles = Vec::with_capacity(n);
    for (idx, listener) in listeners.into_iter().enumerate() {
        let queues = Arc::clone(&queues);
        let owner = ids[idx];
        let stop = Arc::clone(&stop_accepting);
        let max = cfg.max_frame_bytes;
        let limit = cfg.reject_limit;
        let auth_shared = Arc::clone(shared);
        let auth_nonces = Arc::clone(&hs_nonces);
        let auth_seed = cfg.seed;
        let spawned = thread::Builder::new()
            .name(format!("pag-tcp-accept-{}", ids[idx]))
            .spawn(move || loop {
                let Ok((conn, _)) = listener.accept() else {
                    return;
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let _ = conn.set_nodelay(true);
                let queues = Arc::clone(&queues);
                let screen = RejectScreen {
                    owner,
                    shared: Arc::clone(&auth_shared),
                    limit,
                    rejected: 0,
                };
                let auth = LateAuth {
                    shared: Arc::clone(&auth_shared),
                    owner,
                    nonce_counter: Arc::clone(&auth_nonces),
                    seed: auth_seed,
                    max_frame: max,
                };
                let closer = conn.try_clone().ok();
                let reader = thread::Builder::new()
                    .name(format!("pag-tcp-late-{owner}"))
                    .spawn(move || {
                        read_loop(conn, queues, idx, max, false, Some(screen), Some(auth))
                    });
                if reader.is_err() {
                    pag_obs::logger::warn(
                        "tcp.late_reader_spawn",
                        format_args!(
                            "node={owner} could not spawn a reader for a late \
                             connection, dropping it"
                        ),
                    );
                    if let Some(closer) = closer {
                        let _ = closer.shutdown(Shutdown::Both);
                    }
                }
            });
        match spawned {
            Ok(handle) => accept_handles.push(handle),
            Err(_) => {
                pag_obs::logger::warn(
                    "tcp.accept_spawn",
                    format_args!(
                        "node={} could not spawn its accept thread, late connections \
                         to it will be refused",
                        ids[idx]
                    ),
                );
                severed[idx].fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    // The epoch starts only now — after mesh setup and thread spawning —
    // so neither connection establishment nor spawning the ~n² reader
    // threads eats into round 0's real-time budget. The pool's timer
    // wheel is clocked by the same instant as the node cores (run_pool
    // passes it to the timekeeper alongside the queues).
    let epoch = Instant::now();

    // Ends the accept threads: unblock each listener with a throwaway
    // connection, then join. Runs before the pool joins its workers, so
    // a panicking node cannot leak n blocked accept threads and their
    // bound listeners. Setting the stop flag also ends any in-flight
    // reconnect supervisors.
    let probe_addrs: Vec<SocketAddr> = addrs.values().copied().collect();
    let stop_flag = Arc::clone(&stop_accepting);
    let stop_accepts = move || {
        stop_flag.store(true, Ordering::SeqCst);
        for addr in &probe_addrs {
            let _ = TcpStream::connect(addr);
        }
        for handle in accept_handles {
            let _ = handle.join();
        }
    };

    // One core per node, built like the channel driver's.
    let cores: Vec<NodeCore<TcpLink>> = engines
        .into_iter()
        .enumerate()
        .map(|(idx, engine)| {
            let id = ids[idx];
            let peers = std::mem::take(&mut writes[idx])
                .into_iter()
                .map(|(peer, stream)| {
                    (
                        peer,
                        PeerLink {
                            slot: Arc::new(Mutex::new(Some(stream))),
                            addr: addrs[&peer],
                        },
                    )
                })
                .collect();
            let mut kills: Vec<(u64, NodeId)> = cfg
                .link_kills
                .iter()
                .filter_map(|&(a, b, round)| {
                    if a == id {
                        Some((round, b))
                    } else if b == id {
                        Some((round, a))
                    } else {
                        None
                    }
                })
                .collect();
            kills.sort_unstable();
            NodeCore::new(
                id,
                engine,
                shared.config.wire.clone(),
                TcpLink {
                    owner: id,
                    peers,
                    max_frame: cfg.max_frame_bytes,
                    self_heal: !cfg.lockstep,
                    severed: Arc::clone(&severed[idx]),
                    reconnected: Arc::clone(&reconnected[idx]),
                    stop: Arc::clone(&stop_accepting),
                    jitter_seed: cfg.seed ^ 0x5E1F_4EA1 ^ (u64::from(id.0) << 32),
                    shared: Arc::clone(shared),
                    nonce_counter: Arc::clone(&hs_nonces),
                    seed: cfg.seed,
                },
                coord.clone(),
                down_windows(crashes, faults, id),
                merged_feeds(churn, faults, id),
                epoch,
                round_ms,
                cfg.net.clone(),
                net_seed,
                Arc::clone(faults),
                kills,
                cfg.hooks.clone(),
            )
        })
        .collect();

    run_pool(cores, queues, cfg.scheduler, epoch, rounds, round_ms, stop_accepts)
        .map_err(TcpSetupError::SpawnNode)
}
