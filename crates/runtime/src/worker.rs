//! The transport-generic per-node state machine behind every real-time
//! driver.
//!
//! The threaded and TCP drivers run the *same* node logic: feed the
//! sans-IO engine, account traffic from encoded frames, apply
//! [`NetEmulation`] faults, announce churn, and participate in the
//! lockstep barrier protocol. That logic is [`NodeCore`] (engine,
//! timers, stash, delayed frames, crash/churn bookkeeping) with one
//! method per envelope kind. It never blocks and never owns a thread:
//! the worker pool (`crate::pool`) parks every core in a slot and steps
//! whichever have ready input.
//!
//! Transports plug in through the [`Link`] trait:
//!
//! * the **channel** link (`crate::pool::PoolLink`) pushes encoded
//!   frames straight into the peer's pool inbox;
//! * the **socket** link (`tcp.rs`) writes length-prefixed frames to a
//!   real TCP stream on loopback, with reader threads funnelling
//!   incoming frames back into the owner's pool inbox.
//!
//! Because timers, barriers, crash semantics, churn feeds and traffic
//! accounting all live here, driver equivalence (identical verdicts,
//! deliveries and traffic totals across Simnet, the channel pool and
//! Tcp) is a property of one code path, enforced for all transports by
//! `tests/driver_equivalence.rs`.
//!
//! **The frame path never panics on input.** Incoming bytes that fail
//! [`decode_frame`], violate stream framing (surfaced by the transport
//! as [`Envelope::Malformed`]) or address another node are dropped and
//! counted via [`PagEngine::note_frame_rejected`] — mandatory the
//! moment bytes arrive from a socket rather than a peer engine.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pag_core::engine::{Effect, Input, PagEngine};
use pag_core::messages::CLASS_MEMBERSHIP;
use pag_core::wire::{decode_frame, encode_frame, TrafficClass};
use pag_core::WireConfig;
use pag_membership::NodeId;
use pag_obs::{CryptoOp, EventKind, NodeRecorder, Phase};
use pag_simnet::SimConfig;

use crate::churn::ChurnEvent;
use crate::faults::FaultPlan;
use crate::hooks::{HostHooks, NodeStatus};
use crate::report::{NodeTraffic, TrafficReport};

/// Virtual milliseconds per round in lockstep mode — the one-second
/// rounds the protocol's timer offsets assume (§VII-A).
pub(crate) const VIRTUAL_ROUND_MS: u64 = 1000;

/// A misconfigured [`NetEmulation`].
#[derive(Clone, Debug, PartialEq)]
pub enum NetEmulationError {
    /// `latency_max_ms` is below `latency_min_ms` — an empty jitter
    /// range the driver refuses to silently collapse.
    LatencyRange {
        /// Configured minimum (protocol ms).
        min: u64,
        /// Configured maximum (protocol ms).
        max: u64,
    },
    /// The loss probability is not a finite value in `[0, 1]`.
    LossProbability(
        /// The offending value.
        f64,
    ),
}

impl std::fmt::Display for NetEmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetEmulationError::LatencyRange { min, max } => write!(
                f,
                "latency range is empty: max {max} ms < min {min} ms"
            ),
            NetEmulationError::LossProbability(p) => {
                write!(f, "loss probability {p} is not a finite value in [0, 1]")
            }
        }
    }
}

impl std::error::Error for NetEmulationError {}

/// Network-fault injection on the links, mirroring the simulator's
/// `SimConfig` fields (latency range in protocol milliseconds, loss
/// probability per frame). Construct via [`NetEmulation::new`] or
/// [`NetEmulation::from_sim`] — both validate, so an emulation that
/// exists is well-formed.
#[derive(Clone, Debug)]
pub struct NetEmulation {
    /// Minimum one-way latency in protocol milliseconds (scaled by
    /// `round_ms / 1000` like engine timers). Real-time mode only.
    pub(crate) latency_min_ms: u64,
    /// Maximum one-way latency in protocol milliseconds (uniform in
    /// `[min, max]`). Real-time mode only.
    pub(crate) latency_max_ms: u64,
    /// Probability that a frame is silently lost after send-side
    /// accounting. Applies in both clock modes. Membership
    /// announcements (`CLASS_MEMBERSHIP`) are exempt: the paper
    /// assumes a reliable membership substrate, and a lost announce
    /// would permanently split views (DESIGN.md §9).
    pub(crate) loss_probability: f64,
}

impl NetEmulation {
    /// Validates and builds an emulation profile: uniform one-way
    /// latency in `[latency_min_ms, latency_max_ms]` (protocol ms,
    /// real-time mode only) and per-frame `loss_probability` in
    /// `[0, 1]`.
    pub fn new(
        latency_min_ms: u64,
        latency_max_ms: u64,
        loss_probability: f64,
    ) -> Result<Self, NetEmulationError> {
        if latency_max_ms < latency_min_ms {
            return Err(NetEmulationError::LatencyRange {
                min: latency_min_ms,
                max: latency_max_ms,
            });
        }
        if !loss_probability.is_finite() || !(0.0..=1.0).contains(&loss_probability) {
            return Err(NetEmulationError::LossProbability(loss_probability));
        }
        Ok(NetEmulation {
            latency_min_ms,
            latency_max_ms,
            loss_probability,
        })
    }

    /// A loss-only profile (no latency emulation).
    pub fn loss(probability: f64) -> Result<Self, NetEmulationError> {
        NetEmulation::new(0, 0, probability)
    }

    /// Copies the fault fields of a simulator configuration, so one
    /// scenario description drives every substrate. Fails like
    /// [`NetEmulation::new`] when the simulator profile itself is
    /// inverted or out of range.
    pub fn from_sim(sim: &SimConfig) -> Result<Self, NetEmulationError> {
        NetEmulation::new(
            sim.latency_min.as_micros() / 1000,
            sim.latency_max.as_micros() / 1000,
            sim.loss_probability,
        )
    }

    /// Minimum emulated one-way latency (protocol ms).
    pub fn latency_min_ms(&self) -> u64 {
        self.latency_min_ms
    }

    /// Maximum emulated one-way latency (protocol ms).
    pub fn latency_max_ms(&self) -> u64 {
        self.latency_max_ms
    }

    /// Per-frame loss probability.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }
}

/// FNV-1a over the frame bytes folded with the session seed: the
/// order-independent randomness behind per-frame loss and latency
/// decisions (frames already carry sender, receiver, type and round in
/// their header, so distinct frames mix differently).
pub(crate) fn frame_mix(seed: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    pag_membership::mix(h)
}

/// Maps a 64-bit mix to a uniform float in `[0, 1)`.
pub(crate) fn mix_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One transport's outbound half: ships an encoded frame to a peer.
///
/// Loss emulation, lockstep bookkeeping and traffic accounting all
/// happen in the [`NodeCore`] *before* this is called — an
/// implementation only moves bytes. Returning `false` means the peer's
/// link is gone (a closed socket, a stopped pool); the core then
/// balances the lockstep ledger for the frame that will never be
/// processed.
pub trait Link: Send {
    /// Ships one encoded frame to `to`; `false` when the link is closed.
    fn send_frame(&mut self, to: NodeId, frame: Vec<u8>) -> bool;

    /// Tears down the physical link to `to`, if this transport has one
    /// — the fault-injection hook behind `TcpConfig::link_kills`.
    /// Subsequent sends to `to` fail (and are ledger-balanced like any
    /// closed link) until the transport heals the connection, if its
    /// mode allows reconnection. In-process transports have no physical
    /// links to cut; the default does nothing.
    fn sever(&mut self, to: NodeId) {
        let _ = to;
    }

    /// Drains the transport's link-health counters accumulated since
    /// the last poll: `(severed, reconnected)` event counts. The core
    /// folds them into the engine's metrics via
    /// [`PagEngine::note_link_severed`] /
    /// [`PagEngine::note_link_reconnected`]. A transport without health
    /// tracking reports nothing.
    fn health_delta(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// What node cores receive: protocol frames and clock commands.
pub(crate) enum Envelope {
    /// The gossip clock entered this round.
    Round(u64),
    /// An encoded protocol frame, exactly as it crossed the link. The
    /// core decodes it (rejecting undecodable bytes) and applies
    /// receive-side latency emulation.
    Frame {
        /// Encoded bytes.
        bytes: Vec<u8>,
    },
    /// The transport detected a framing violation on this node's inbound
    /// path (oversized length prefix on a socket): no frame bytes exist
    /// to decode, but the rejection must still be counted.
    Malformed,
    /// The transport severed an inbound connection that exceeded its
    /// rejected-frame budget (hostile flood); the drop is counted via
    /// [`PagEngine::note_connection_dropped`].
    ConnectionDropped,
    /// The transport rejected a late connection's authentication
    /// handshake (bad proof, wrong session, unknown identity) and
    /// severed it; counted via [`PagEngine::note_handshake_rejected`].
    HandshakeRejected,
    /// Lockstep only: release the frames stashed during the last
    /// round-start or timer phase.
    ///
    /// Phase outputs are buffered until every node has processed its own
    /// phase envelope — otherwise a fast node's `KeyRequest` could reach
    /// a peer that has not minted its round primes yet, or an eval-phase
    /// `Nack` could overtake a peer monitor's own evaluation. The
    /// simulator cannot interleave these either: events at one instant
    /// all precede any same-instant send's delivery (latency > 0).
    Flush,
    /// Lockstep only: fire every timer due at or before this virtual ms.
    TimersUpTo(u64),
    /// Wall-clock mode only: the shared timer wheel says this node's
    /// earliest deadline (timer or delayed frame) has passed.
    Wake,
}

/// Quiescence tracking for lockstep mode: the count of outstanding
/// envelopes plus each node's next timer deadline.
pub(crate) struct Coordination {
    pending: Mutex<u64>,
    quiet: Condvar,
    deadlines: Mutex<Vec<Option<u64>>>,
    /// Set when a worker panics, so `wait_quiet` unblocks instead of
    /// waiting forever on work the dead thread can no longer drain; the
    /// coordinator then joins and propagates the original panic.
    aborted: std::sync::atomic::AtomicBool,
}

/// Locks `m`, recovering the guard when a panicking thread poisoned
/// it. The coordination mutexes guard plain counters that stay valid
/// across an unwinding worker, and the panic itself is signalled
/// through the abort flag — treating poison as fatal here used to turn
/// one worker's panic into a second panic on every thread that touched
/// the ledger afterwards, masking the original backtrace.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// [`Condvar::wait`] with the same poison recovery as
/// [`lock_unpoisoned`].
fn wait_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Coordination {
    pub(crate) fn new(nodes: usize) -> Self {
        Coordination {
            pending: Mutex::new(0),
            quiet: Condvar::new(),
            deadlines: Mutex::new(vec![None; nodes]),
            aborted: std::sync::atomic::AtomicBool::new(false),
        }
    }

    pub(crate) fn abort(&self) {
        self.aborted
            .store(true, std::sync::atomic::Ordering::SeqCst);
        let _unused = lock_unpoisoned(&self.pending);
        self.quiet.notify_all();
    }

    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Registers `n` envelopes about to be enqueued. Always called
    /// *before* the matching `send`, so the counter can never observe
    /// zero while work is in flight.
    pub(crate) fn add(&self, n: u64) {
        *lock_unpoisoned(&self.pending) += n;
    }

    /// Marks one envelope fully processed (all its own sends already
    /// registered). Every forwarding path registers its envelopes
    /// (senders before the link write, transports before forwarding
    /// unsolicited input), so the counter is balanced by construction;
    /// saturating arithmetic is a backstop so a bookkeeping bug in a
    /// future transport degrades determinism instead of wrapping the
    /// ledger and deadlocking `wait_quiet`.
    pub(crate) fn done(&self) {
        let mut p = lock_unpoisoned(&self.pending);
        *p = p.saturating_sub(1);
        if *p == 0 {
            self.quiet.notify_all();
        }
    }

    /// Blocks until every outstanding envelope (and the cascades they
    /// spawned) is processed, or until a worker aborted.
    pub(crate) fn wait_quiet(&self) {
        let mut p = lock_unpoisoned(&self.pending);
        while *p != 0 && !self.is_aborted() {
            p = wait_unpoisoned(&self.quiet, p);
        }
    }

    pub(crate) fn publish_deadline(&self, idx: usize, deadline: Option<u64>) {
        lock_unpoisoned(&self.deadlines)[idx] = deadline;
    }

    pub(crate) fn min_deadline(&self) -> Option<u64> {
        lock_unpoisoned(&self.deadlines)
            .iter()
            .flatten()
            .copied()
            .min()
    }
}

/// Final state a node reports.
pub(crate) struct WorkerResult {
    pub(crate) id: NodeId,
    pub(crate) engine: PagEngine,
    pub(crate) traffic: NodeTraffic,
}

/// Outcome of a real-time run on any transport: per-node traffic plus
/// the final engines (verdicts, metrics, stores).
pub struct DriverRun {
    /// Traffic accounted from real encoded frames.
    pub report: TrafficReport,
    /// Final engine states by node.
    pub engines: BTreeMap<NodeId, PagEngine>,
}

/// The crash round scheduled for `id`, if any (earliest wins).
pub(crate) fn crash_round_of(crashes: &[(NodeId, u64)], id: NodeId) -> Option<u64> {
    crashes
        .iter()
        .filter(|(node, _)| *node == id)
        .map(|&(_, round)| round)
        .min()
}

/// The down windows of `id`: the fault plan's crash-restart windows
/// plus an open-ended window for a legacy fail-stop crash
/// (`SessionConfig::crashes`). One helper shared by every driver, so
/// the two crash vocabularies merge identically everywhere.
pub(crate) fn down_windows(
    crashes: &[(NodeId, u64)],
    faults: &FaultPlan,
    id: NodeId,
) -> Vec<(u64, u64)> {
    let mut downs = faults.down_windows_for(id);
    if let Some(cr) = crash_round_of(crashes, id) {
        downs.push((cr, u64::MAX));
    }
    downs
}

/// The announce-round input feeds of `id`: churn joins/leaves merged
/// with the fault plan's crash-restart leave/recover pairs, sorted by
/// announce round (stable, so same-round churn precedes fault feeds on
/// every driver alike).
pub(crate) fn merged_feeds(
    churn: &[ChurnEvent],
    faults: &FaultPlan,
    id: NodeId,
) -> Vec<(u64, Input)> {
    let mut feeds = crate::churn::inputs_for(churn, id);
    feeds.extend(faults.feeds_for(id));
    feeds.sort_by_key(|&(round, _)| round);
    feeds
}

/// Feeds one input to `engine`, appending its effects to `fx`. With a
/// recorder, the step is timed and its wall time is split over the op
/// classes the counters say ran, in proportion to their counts: the
/// engine stays pure and every timing is taken out here (DESIGN.md
/// §14). One helper shared by the worker cores and the simnet adapter.
pub(crate) fn step_engine(
    engine: &mut PagEngine,
    input: Input,
    fx: &mut Vec<Effect>,
    rec: Option<&mut NodeRecorder>,
) {
    let Some(rec) = rec else {
        engine.handle_into(input, fx);
        return;
    };
    let before = engine.metrics().ops.clone();
    let t0 = Instant::now();
    engine.handle_into(input, fx);
    let wall_us = t0.elapsed().as_micros() as u64;
    let delta = engine.metrics().ops.delta_since(&before);
    let total = delta.total();
    for (op, count) in [
        (CryptoOp::Hash, delta.hashes),
        (CryptoOp::Sign, delta.signatures),
        (CryptoOp::Verify, delta.verifications),
        (CryptoOp::Prime, delta.primes),
    ] {
        // count > 0 implies total > 0, so the division is live.
        if let (true, Some(share)) = (count > 0, (wall_us * count).checked_div(total)) {
            rec.crypto(op, count, share);
        }
    }
}

/// The per-node protocol state machine, generic over the outbound
/// transport and neutral to the scheduler stepping it.
///
/// A `NodeCore` never blocks: each method consumes one stimulus (an
/// envelope, a timer pass) and returns. The worker pool keeps thousands
/// of them in slots and steps whichever have ready input
/// (`crate::pool`).
pub(crate) struct NodeCore<L: Link> {
    pub(crate) id: NodeId,
    pub(crate) engine: PagEngine,
    pub(crate) wire: WireConfig,
    pub(crate) link: L,
    pub(crate) coord: Option<Arc<Coordination>>,
    pub(crate) traffic: NodeTraffic,
    /// Pending timers: (due, sequence, tag). `due` is virtual ms in
    /// lockstep mode, scaled ms since `epoch` in real-time mode.
    pub(crate) timers: Vec<(u64, u64, u64)>,
    pub(crate) timer_seq: u64,
    pub(crate) now_ms: u64,
    /// Last round entered (for the `FrameRejected` metric's timestamp).
    pub(crate) round: u64,
    /// Rounds this node is down, as `[from, until)` windows: legacy
    /// fail-stop crashes are `(round, u64::MAX)`, fault-plan
    /// crash-restarts end one round before the membership restart.
    pub(crate) downs: Vec<(u64, u64)>,
    /// Whether the current round falls in a down window (recomputed at
    /// every round entry, so a restart flips it back off).
    pub(crate) crashed: bool,
    /// The session's compiled fault plan (shared, possibly empty):
    /// send-side link cuts, partitions, corruption windows and peer
    /// down-checks, consulted per outgoing frame.
    pub(crate) faults: Arc<FaultPlan>,
    /// Scheduled physical link kills `(round, peer)` — executed via
    /// [`Link::sever`] when the round is entered (TCP fault injection).
    pub(crate) kills: Vec<(u64, NodeId)>,
    pub(crate) effects: Vec<Effect>,
    /// Lockstep: frames produced during round start, held for `Flush`.
    pub(crate) stash: Vec<(NodeId, Vec<u8>, TrafficClass)>,
    pub(crate) buffering: bool,
    /// Real-time mode: wall-clock epoch and per-round milliseconds.
    pub(crate) epoch: Instant,
    pub(crate) round_ms: u64,
    /// Churn inputs this node must announce, keyed by announce round
    /// (= effective round - 1).
    pub(crate) churn: Vec<(u64, Input)>,
    /// Link-fault injection (see [`NetEmulation`]).
    pub(crate) net: Option<NetEmulation>,
    /// Seed for the content-keyed loss/latency decisions.
    pub(crate) net_seed: u64,
    /// Real-time mode: frames held back by latency emulation, as
    /// (due, arrival order, bytes).
    pub(crate) delayed: Vec<(u64, u64, Vec<u8>)>,
    pub(crate) delay_seq: u64,
    /// Host integration: snapshot vault and live status watch. Both
    /// default to off and never alter engine inputs, so a hooked run
    /// stays bit-identical to an unhooked one (DESIGN.md §13).
    pub(crate) hooks: HostHooks,
    /// Per-node flight recorder, derived from `hooks.trace` at
    /// construction. `None` when tracing is off — then no timestamp is
    /// ever taken on the node path (DESIGN.md §14). Owned by the core
    /// (single-stepper invariant), so recording is lock-free.
    pub(crate) rec: Option<Box<NodeRecorder>>,
}

impl<L: Link> NodeCore<L> {
    /// Assembles a core; every driver builds nodes through this one
    /// constructor so the initial state cannot drift between
    /// transports.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        engine: PagEngine,
        wire: WireConfig,
        link: L,
        coord: Option<Arc<Coordination>>,
        downs: Vec<(u64, u64)>,
        churn: Vec<(u64, Input)>,
        epoch: Instant,
        round_ms: u64,
        net: Option<NetEmulation>,
        net_seed: u64,
        faults: Arc<FaultPlan>,
        kills: Vec<(u64, NodeId)>,
        hooks: HostHooks,
    ) -> Self {
        let rec = hooks
            .trace
            .as_ref()
            .map(|session| Box::new(session.node(u64::from(id.value()))));
        NodeCore {
            id,
            engine,
            wire,
            link,
            coord,
            traffic: NodeTraffic::default(),
            timers: Vec::new(),
            timer_seq: 0,
            now_ms: 0,
            round: 0,
            downs,
            crashed: false,
            faults,
            kills,
            effects: Vec::new(),
            stash: Vec::new(),
            buffering: false,
            epoch,
            round_ms: round_ms.max(1),
            churn,
            net,
            net_seed,
            delayed: Vec::new(),
            delay_seq: 0,
            hooks,
            rec,
        }
    }

    /// Records a barrier-stall span: time this core's slot sat in the
    /// pool's run queue. No-op when untraced.
    pub(crate) fn note_wait(&mut self, dur: Duration) {
        let round = self.round;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.stall(round, dur);
        }
    }

    pub(crate) fn lockstep(&self) -> bool {
        self.coord.is_some()
    }

    /// Scales a protocol-ms delay to this driver's clock.
    fn scale(&self, after_ms: u64) -> u64 {
        if self.lockstep() {
            after_ms
        } else {
            after_ms * self.round_ms / VIRTUAL_ROUND_MS
        }
    }

    pub(crate) fn next_deadline(&self) -> Option<u64> {
        self.timers.iter().map(|&(due, _, _)| due).min()
    }

    /// Earliest wake-up in real-time mode: a timer or a delayed frame.
    pub(crate) fn next_wake(&self) -> Option<u64> {
        let frames = self.delayed.iter().map(|&(due, _, _)| due).min();
        match (self.next_deadline(), frames) {
            (Some(t), Some(f)) => Some(t.min(f)),
            (t, f) => t.or(f),
        }
    }

    /// Delivers every delayed frame due at or before `upto`, in (due,
    /// arrival) order. Crashed nodes drop them, like live envelopes.
    fn release_delayed(&mut self, upto: u64) {
        while let Some(pos) = self
            .delayed
            .iter()
            .enumerate()
            .filter(|(_, &(due, _, _))| due <= upto)
            .min_by_key(|(_, &(due, seq, _))| (due, seq))
            .map(|(i, _)| i)
        {
            let (_, _, bytes) = self.delayed.swap_remove(pos);
            if !self.crashed {
                self.deliver(bytes);
            }
        }
    }

    /// Runs one engine input and executes the effects: encode + ship
    /// frames, arm timers.
    fn feed(&mut self, input: Input) {
        let mut fx = std::mem::take(&mut self.effects);
        fx.clear();
        step_engine(&mut self.engine, input, &mut fx, self.rec.as_deref_mut());
        for effect in fx.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    // Fault-plan cuts happen *before* accounting or
                    // encoding, so a cut frame costs nothing on any
                    // driver — the simulator applies the identical check
                    // before charging its own send, keeping faulted
                    // traffic totals bit-identical (DESIGN.md §12).
                    if self.faults.cuts_frame(self.round, self.id, to, class)
                        || self.faults.is_down(to, self.round)
                    {
                        continue;
                    }
                    // Audited panic site: a profile the codec refuses is
                    // an invariant violation (the engine sized `bytes`
                    // with this same profile), and the de-panic tests
                    // pin that it fails the session with the node named
                    // — dropping the frame would silently diverge from
                    // the simulator's accounting instead.
                    let mut frame = encode_frame(self.id, to, &msg, &self.wire)
                        .expect("session messages encode under the session wire profile");
                    debug_assert_eq!(frame.len(), bytes, "codec/accounting divergence");
                    self.traffic.record_send(frame.len(), class);
                    // Corruption happens *after* accounting: the bytes
                    // cross the link and the receiver pays a rejected
                    // frame, exactly like hostile socket input. The
                    // flipped byte is the type tag — decode_frame's
                    // validation is structural, so mangling a payload
                    // byte could still parse and change semantics; a
                    // bogus tag is guaranteed to be rejected, keeping
                    // the receiver's view identical to the simulator's
                    // drop of the same frame.
                    if self.faults.corrupts_frame(self.round, self.id, to, class) {
                        frame[0] ^= 0xA5;
                    }
                    if self.buffering {
                        self.stash.push((to, frame, class));
                    } else {
                        self.ship(to, frame, class);
                    }
                }
                Effect::SetTimer { tag, after_ms } => {
                    let due = self.now_ms + self.scale(after_ms);
                    self.timers.push((due, self.timer_seq, tag));
                    self.timer_seq += 1;
                }
                // Retained inside the engine; harvested after the run.
                Effect::Verdict(_) | Effect::Metric(_) => {}
            }
        }
        self.effects = fx;
    }

    /// Enqueues one frame on the peer link, applying loss emulation.
    /// Sends are already accounted by the caller, so a lost frame is
    /// charged like a frame a dead TCP peer never reads.
    fn ship(&mut self, to: NodeId, frame: Vec<u8>, class: TrafficClass) {
        if let Some(net) = &self.net {
            if net.loss_probability > 0.0
                && class != CLASS_MEMBERSHIP
                && mix_unit(frame_mix(self.net_seed, &frame)) < net.loss_probability
            {
                return;
            }
        }
        if let Some(coord) = &self.coord {
            coord.add(1);
            // A closed link is fine to lose: credit the frame back.
            if !self.link.send_frame(to, frame) {
                coord.done();
            }
        } else {
            let _ = self.link.send_frame(to, frame);
        }
    }

    /// Receive-side latency emulation: the deadline (scaled ms since the
    /// epoch) a just-arrived frame becomes deliverable at, or 0 for
    /// immediate delivery. Content-keyed like loss, so the delay is the
    /// same whatever the arrival interleaving; lockstep mode ignores
    /// latency entirely (its quiescence barriers already guarantee
    /// same-phase delivery, and reordering within a phase is
    /// unobservable by design).
    fn arrival_due_ms(&self, bytes: &[u8]) -> u64 {
        let Some(net) = &self.net else { return 0 };
        if self.lockstep() || net.latency_max_ms == 0 {
            return 0;
        }
        let h = frame_mix(self.net_seed, bytes);
        // Uniform in the inclusive range [min, max] (non-empty by
        // construction: NetEmulation validates max >= min).
        let draw = net.latency_min_ms
            + pag_membership::mix(h) % (net.latency_max_ms - net.latency_min_ms + 1);
        (Instant::now() - self.epoch).as_millis() as u64 + self.scale(draw)
    }

    /// Counts one rejected incoming frame (undecodable, misrouted, or a
    /// transport-level framing violation) instead of delivering it.
    fn reject_frame(&mut self) {
        let _metric = self.engine.note_frame_rejected(self.round);
        let round = self.round;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.record(EventKind::FrameRejected { round });
        }
    }

    /// Counts one severed inbound connection (rejected-frame flood).
    fn note_connection_dropped(&mut self) {
        let _metric = self.engine.note_connection_dropped(self.round);
        let round = self.round;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.record(EventKind::ConnectionDropped { round });
        }
    }

    /// Counts one rejected (and severed) authentication handshake.
    fn note_handshake_rejected(&mut self) {
        let _metric = self.engine.note_handshake_rejected(self.round);
        let round = self.round;
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.record(EventKind::HandshakeRejected { round });
        }
    }

    /// Decodes an incoming frame, accounts it, and delivers it. Bytes
    /// that do not decode, or frames addressed to another node, are
    /// dropped and counted — never a panic, whatever the transport
    /// carried them.
    fn deliver(&mut self, frame: Vec<u8>) {
        let parsed = match decode_frame(&frame, &self.wire) {
            Ok(parsed) if parsed.to == self.id => parsed,
            Ok(_misrouted) => return self.reject_frame(),
            Err(_) => return self.reject_frame(),
        };
        self.traffic
            .record_recv(frame.len(), parsed.msg.body.traffic_class());
        self.feed(Input::Deliver {
            from: parsed.from,
            msg: parsed.msg,
        });
    }

    /// Fires every pending timer due at or before `upto`, in (due,
    /// arming-order) order.
    fn fire_due(&mut self, upto: u64) {
        loop {
            let Some(pos) = self
                .timers
                .iter()
                .enumerate()
                .filter(|(_, &(due, _, _))| due <= upto)
                .min_by_key(|(_, &(due, seq, _))| (due, seq))
                .map(|(i, _)| i)
            else {
                return;
            };
            let (due, _, tag) = self.timers.swap_remove(pos);
            self.now_ms = due.max(self.now_ms);
            self.feed(Input::TimerFired { tag });
        }
    }

    /// True while the current round is inside a down window.
    fn down_now(&self, round: u64) -> bool {
        self.downs.iter().any(|&(c, r)| round >= c && round < r)
    }

    /// Folds the transport's link-health deltas into the engine metrics.
    fn poll_link_health(&mut self) {
        let (severed, reconnected) = self.link.health_delta();
        for _ in 0..severed {
            let _metric = self.engine.note_link_severed(self.round);
        }
        for _ in 0..reconnected {
            let _metric = self.engine.note_link_reconnected(self.round);
        }
        let round = self.round;
        if let Some(rec) = self.rec.as_deref_mut() {
            if severed > 0 {
                rec.record(EventKind::LinkSevered {
                    round,
                    count: severed,
                });
            }
            if reconnected > 0 {
                rec.record(EventKind::LinkReconnected {
                    round,
                    count: reconnected,
                });
            }
        }
    }

    fn enter_round(&mut self, round: u64) {
        self.round = round;
        if self.lockstep() {
            self.now_ms = round * VIRTUAL_ROUND_MS;
        } else {
            self.now_ms = round * self.round_ms;
        }
        let was_crashed = self.crashed;
        self.crashed = self.down_now(round);
        if let Some(rec) = self.rec.as_deref_mut() {
            rec.round_enter(round);
        }
        if let Some(watch) = self.hooks.watch.as_deref() {
            let mut status =
                NodeStatus::untraced(round, self.engine.metrics().clone(), self.traffic.clone());
            if let Some(rec) = self.rec.as_deref() {
                status.lat = Some(rec.summary());
                status.recent = rec.recent();
            }
            watch.publish(self.id, status);
        }
        if self.crashed {
            // Crash entry: the node's last coherent state goes to the
            // vault *before* in-flight state is discarded, so a process
            // restarted from disk recovers exactly what the in-memory
            // recovery path would have. Persistence failure is logged by
            // the vault and degrades to in-memory recovery — it can
            // never change protocol behaviour.
            if !was_crashed {
                if let Some(vault) = self.hooks.vault.as_deref() {
                    let persisted = vault.save(&self.engine.snapshot());
                    if let Some(rec) = self.rec.as_deref_mut() {
                        rec.record(EventKind::SnapshotSaved {
                            round,
                            ok: persisted,
                        });
                    }
                }
            }
            self.timers.clear();
            self.delayed.clear();
        } else {
            // Scheduled physical link kills due this round execute at
            // the round boundary — a quiescent point in lockstep mode,
            // so the teardown never races a stashed frame.
            let kills: Vec<NodeId> = self
                .kills
                .iter()
                .filter(|&&(r, _)| r == round)
                .map(|&(_, to)| to)
                .collect();
            for to in kills {
                self.link.sever(to);
            }
            self.poll_link_health();
            // Lockstep holds round-start frames until the Flush barrier.
            // Churn announcements scheduled for this round ride in the
            // same phase, right after the round-start cascade.
            self.buffering = self.lockstep();
            self.feed(Input::RoundStart(round));
            let due: Vec<Input> = self
                .churn
                .iter()
                .filter(|&&(announce, _)| announce == round)
                .map(|(_, input)| input.clone())
                .collect();
            for input in due {
                // A recovery of *this* node is where a restarted host
                // process reloads its vaulted snapshot. The load is a
                // durability check, not an input source: the engine's
                // own recovery path stays authoritative, so a missing
                // or stale vault entry degrades to in-memory recovery
                // with a log line instead of diverging from the other
                // drivers.
                if let Input::Recover { node, .. } = &input {
                    if *node == self.id {
                        if let Some(rec) = self.rec.as_deref_mut() {
                            rec.record(EventKind::Recovered { round });
                        }
                        if let Some(vault) = self.hooks.vault.as_deref() {
                            let loaded = match vault.load(self.id) {
                                Some(snap) if snap.id == self.id => true,
                                Some(snap) => {
                                    pag_obs::logger::warn(
                                        "worker.vault_recover",
                                        format_args!(
                                            "node={} vault_returned={} recovering from memory",
                                            self.id, snap.id
                                        ),
                                    );
                                    false
                                }
                                None => {
                                    pag_obs::logger::warn(
                                        "worker.vault_recover",
                                        format_args!(
                                            "node={} no vaulted snapshot, recovering from memory",
                                            self.id
                                        ),
                                    );
                                    false
                                }
                            };
                            if let Some(rec) = self.rec.as_deref_mut() {
                                rec.record(EventKind::SnapshotLoaded { round, ok: loaded });
                            }
                        }
                    }
                }
                self.feed(input);
            }
            self.buffering = false;
        }
    }

    /// Processes one lockstep envelope — the *entire* semantics of a
    /// lockstep phase step. A down node (crash-restart window or
    /// fail-stop crash alike) drops its frames and skips its timer
    /// phases but still consumes every envelope, so whatever the ledger
    /// charged to it is credited like anyone else's. `Wake` is a
    /// wall-clock command and a no-op here.
    pub(crate) fn lockstep_envelope(&mut self, envelope: Envelope) {
        // Phase spans: bracket the three lockstep phases with
        // begin/end events when traced. Frame/notification envelopes
        // are covered by the crypto timing inside `feed` instead.
        let span = if self.rec.is_some() {
            match &envelope {
                Envelope::Round(round) => Some((Phase::Round, *round, Instant::now())),
                Envelope::Flush => Some((Phase::Flush, self.round, Instant::now())),
                Envelope::TimersUpTo(_) => Some((Phase::Timers, self.round, Instant::now())),
                _ => None,
            }
        } else {
            None
        };
        if let Some((phase, round, _)) = span {
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.record(EventKind::PhaseBegin { round, phase });
            }
        }
        match envelope {
            Envelope::Round(round) => self.enter_round(round),
            Envelope::Frame { bytes } => {
                // Lockstep: latency is not emulated; deliver in-phase.
                if !self.crashed {
                    self.deliver(bytes);
                }
            }
            Envelope::Malformed => self.reject_frame(),
            Envelope::ConnectionDropped => self.note_connection_dropped(),
            Envelope::HandshakeRejected => self.note_handshake_rejected(),
            Envelope::Flush => {
                for (to, frame, class) in std::mem::take(&mut self.stash) {
                    self.ship(to, frame, class);
                }
            }
            Envelope::TimersUpTo(upto) => {
                if !self.crashed {
                    self.buffering = true;
                    self.fire_due(upto);
                    self.buffering = false;
                }
            }
            Envelope::Wake => {}
        }
        if let Some((phase, round, t0)) = span {
            let wall_us = t0.elapsed().as_micros() as u64;
            if let Some(rec) = self.rec.as_deref_mut() {
                rec.record(EventKind::PhaseEnd {
                    round,
                    phase,
                    wall_us,
                });
            }
        }
    }

    /// A just-arrived frame in real-time mode: apply receive-side
    /// latency emulation, then deliver or park it.
    fn realtime_frame(&mut self, bytes: Vec<u8>) {
        let due_ms = self.arrival_due_ms(&bytes);
        let now = (Instant::now() - self.epoch).as_millis() as u64;
        if due_ms > now {
            self.delayed.push((due_ms, self.delay_seq, bytes));
            self.delay_seq += 1;
        } else if !self.crashed {
            self.deliver(bytes);
        }
    }

    /// The wall clock reached `upto` (scaled ms since the epoch):
    /// release delayed frames and fire due timers.
    fn realtime_tick(&mut self, upto: u64) {
        self.release_delayed(upto);
        if self.crashed {
            self.timers.clear();
        } else {
            self.fire_due(upto);
        }
    }

    /// Processes one real-time envelope. `Flush`/`TimersUpTo` are
    /// lockstep-only and ignored; `Wake` consults the wall clock.
    pub(crate) fn realtime_envelope(&mut self, envelope: Envelope) {
        match envelope {
            Envelope::Round(round) => self.enter_round(round),
            Envelope::Frame { bytes } => self.realtime_frame(bytes),
            Envelope::Malformed => self.reject_frame(),
            Envelope::ConnectionDropped => self.note_connection_dropped(),
            Envelope::HandshakeRejected => self.note_handshake_rejected(),
            Envelope::Wake => {
                let now = (Instant::now() - self.epoch).as_millis() as u64;
                self.realtime_tick(now);
            }
            Envelope::Flush | Envelope::TimersUpTo(_) => {}
        }
    }

    /// Consumes the core into its final report.
    pub(crate) fn finish(mut self) -> WorkerResult {
        // Pick up link events since the last round entry (a reconnect
        // landing during the final round would otherwise go uncounted).
        self.poll_link_health();
        WorkerResult {
            id: self.id,
            engine: self.engine,
            traffic: self.traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_emulation_rejects_inverted_latency_range() {
        assert!(matches!(
            NetEmulation::new(60, 10, 0.0),
            Err(NetEmulationError::LatencyRange { min: 60, max: 10 })
        ));
        assert!(NetEmulation::new(10, 60, 0.0).is_ok());
        assert!(NetEmulation::new(10, 10, 0.5).is_ok(), "degenerate range is fine");
    }

    #[test]
    fn net_emulation_rejects_bad_loss_probability() {
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    NetEmulation::loss(bad),
                    Err(NetEmulationError::LossProbability(_))
                ),
                "accepted loss probability {bad}"
            );
        }
        assert!(NetEmulation::loss(0.0).is_ok());
        assert!(NetEmulation::loss(1.0).is_ok());
    }

    /// A link that accepts and discards everything: the hostile-input
    /// test below only feeds the inbound side.
    struct NullLink;

    impl Link for NullLink {
        fn send_frame(&mut self, _to: NodeId, _frame: Vec<u8>) -> bool {
            true
        }
    }

    fn core_for(id: NodeId, shared: &Arc<pag_core::SharedContext>) -> NodeCore<NullLink> {
        let engine = PagEngine::new(
            id,
            Arc::clone(shared),
            pag_core::SelfishStrategy::Honest,
            7,
        );
        NodeCore::new(
            id,
            engine,
            shared.config.wire.clone(),
            NullLink,
            None,
            Vec::new(),
            Vec::new(),
            Instant::now(),
            1000,
            None,
            0,
            Arc::new(FaultPlan::default()),
            Vec::new(),
            HostHooks::default(),
        )
    }

    /// Hostile input on the path mesh peers and the in-process channel
    /// reach (no transport pre-screen): a well-formed PR 10 multi-frame
    /// container — tag `0xC1`, from, to, count, u32-length-prefixed
    /// inner frames — wrapping a frame this node would accept on its
    /// own is one rejected frame, and nothing inside it is delivered.
    #[test]
    fn former_container_frame_is_rejected_whole() {
        let shared = pag_core::SharedContext::new(pag_core::PagConfig::default(), 4);
        let me = NodeId(1);
        let msg = shared.sign(
            NodeId(0),
            pag_core::messages::MessageBody::KeyRequest { round: 0 },
        );
        let Ok(inner) = encode_frame(NodeId(0), me, &msg, &shared.config.wire) else {
            panic!("a signed KeyRequest encodes under the default profile");
        };

        // Control: shipped on its own, the inner frame is delivered.
        let mut plain = core_for(me, &shared);
        plain.realtime_envelope(Envelope::Frame { bytes: inner.clone() });
        assert_eq!(plain.traffic.recv_msgs, 1);
        assert_eq!(plain.engine.metrics().frames_rejected, 0);

        let mut container = vec![0xC1];
        container.extend_from_slice(&0u32.to_be_bytes()); // from
        container.extend_from_slice(&me.value().to_be_bytes()); // to
        container.extend_from_slice(&1u16.to_be_bytes()); // count
        container.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        container.extend_from_slice(&inner);
        let mut core = core_for(me, &shared);
        core.realtime_envelope(Envelope::Frame { bytes: container });
        assert_eq!(core.engine.metrics().frames_rejected, 1, "exactly one rejection");
        assert_eq!(core.traffic.recv_msgs, 0, "inner frame must not be delivered");
        assert_eq!(core.traffic.recv_bytes, 0, "nothing accounted");
    }

    #[test]
    fn from_sim_validates_the_copied_fields() {
        let mut sim = SimConfig::default();
        assert!(NetEmulation::from_sim(&sim).is_ok());
        std::mem::swap(&mut sim.latency_min, &mut sim.latency_max);
        assert!(matches!(
            NetEmulation::from_sim(&sim),
            Err(NetEmulationError::LatencyRange { .. })
        ));
    }
}
