//! The sans-IO protocol engine: PAG as a pure state machine over typed
//! inputs and effects.
//!
//! [`PagEngine`] contains the complete protocol logic of a node — both
//! gossip roles of the Fig. 5 exchange plus the monitor of Fig. 6 — but
//! performs **no IO**: it never sends a byte, reads a clock or sleeps.
//! A *driver* feeds it [`Input`]s (round starts, message deliveries,
//! expired timers) and executes the [`Effect`]s it emits (sends, timer
//! requests, verdicts, metric events). The same engine therefore runs
//! unmodified on any substrate:
//!
//! * the deterministic discrete-event simulator (`pag-simnet`, via the
//!   adapter in `pag-runtime`),
//! * the real-time multi-threaded in-process driver (`pag-runtime`),
//! * or any future transport (TCP, QUIC, a test harness replaying a
//!   trace).
//!
//! # Determinism contract
//!
//! The engine owns its randomness: a [`rand::rngs::StdRng`] seeded from
//! `session_seed ^ mix(node_id)` at construction. Given the same shared
//! context, the same seed and the same input sequence, an engine emits
//! the same effect sequence — byte for byte. Drivers that deliver the
//! same inputs in an order-equivalent schedule (message handling is
//! commutative within a timer phase; see DESIGN.md §8) produce identical
//! verdict sets, delivery metrics and traffic totals. This is the
//! property the driver-equivalence test in `pag-runtime` pins down.
//!
//! # Example
//!
//! ```
//! use pag_core::engine::{Effect, Input, PagEngine};
//! use pag_core::{PagConfig, SelfishStrategy, SharedContext};
//! use pag_membership::NodeId;
//!
//! let shared = SharedContext::new(PagConfig::default(), 4);
//! let mut engine = PagEngine::new(NodeId(1), shared, SelfishStrategy::Honest, 42);
//! let effects = engine.handle(Input::RoundStart(0));
//! // Round 0: the node opens exchanges and arms its round timers.
//! assert!(effects.iter().any(|e| matches!(e, Effect::Send { .. })));
//! assert!(effects.iter().any(|e| matches!(e, Effect::SetTimer { .. })));
//! ```

use std::sync::Arc;

use pag_membership::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::messages::SignedMessage;
use crate::metrics::NodeMetrics;
use crate::node::PagNode;
use crate::selfish::SelfishStrategy;
use crate::shared::SharedContext;
use crate::update::{UpdateId, UpdateStore};
use crate::verdict::Verdict;
use crate::wire::TrafficClass;

/// One stimulus a driver feeds the engine.
#[derive(Clone, Debug)]
pub enum Input {
    /// The gossip clock entered `round`.
    RoundStart(u64),
    /// A message from `from` arrived.
    Deliver {
        /// Emitting node.
        from: NodeId,
        /// The signed message.
        msg: SignedMessage,
    },
    /// A timer armed via [`Effect::SetTimer`] expired.
    TimerFired {
        /// The tag the timer was armed with.
        tag: u64,
    },
    /// The membership service announces that `node` joins at the start
    /// of `round`. Drivers feed this during round `round - 1`; the
    /// change is staged and every view applies it at the `round`
    /// boundary, so all nodes compute round-`round` topologies from the
    /// same epoch. When `node` is this engine's own id, the engine also
    /// emits a signed `JoinAnnounce` to the whole key roster, which is
    /// how peers (and waiting joiners) learn of the change on the wire.
    Join {
        /// The joining node.
        node: NodeId,
        /// First round of membership.
        round: u64,
    },
    /// The membership service announces that `node` leaves at the start
    /// of `round`. Semantics mirror [`Input::Join`]; a leave of the
    /// session source is a rejected no-op surfaced as
    /// [`MetricEvent::ChurnRejected`].
    Leave {
        /// The departing node.
        node: NodeId,
        /// First round out of the membership.
        round: u64,
    },
    /// `node` restarts after a crash and rejoins at the start of
    /// `round`. Drivers feed this during round `round - 1`, after the
    /// node's downtime was announced as an [`Input::Leave`] (see
    /// DESIGN.md §12: crash-recovery models an announced shutdown).
    ///
    /// When `node` is this engine's own id, the engine discards the
    /// in-flight exchange state its crash lost (pending serves,
    /// half-open exchanges, cached accumulators), proves the surviving
    /// state snapshot round-trips through
    /// [`crate::snapshot::NodeSnapshot`], emits
    /// [`MetricEvent::Recovered`], and re-announces itself through the
    /// exact join machinery of [`Input::Join`] — so peers admit it back
    /// at `round` with fresh monitor state and it is never convicted
    /// for its downtime. For other ids the input is equivalent to
    /// [`Input::Join`]: the restart reaches peers on the wire as a
    /// `JoinAnnounce`.
    Recover {
        /// The restarting node.
        node: NodeId,
        /// First round back in the membership.
        round: u64,
    },
}

/// One action the engine asks its driver to perform.
#[derive(Clone, Debug)]
pub enum Effect {
    /// Transmit `msg` to `to`.
    ///
    /// `bytes` is the wire footprint under the session's `WireConfig`
    /// (equal to the length `pag_core::wire::encode_frame` produces);
    /// drivers that do not serialize may charge it directly.
    Send {
        /// Destination node.
        to: NodeId,
        /// The signed message.
        msg: SignedMessage,
        /// Wire size in bytes (accounting and codec agree; see
        /// DESIGN.md §4).
        bytes: usize,
        /// Traffic class for bandwidth attribution.
        class: TrafficClass,
    },
    /// Arm a timer: feed back [`Input::TimerFired`] with `tag` after
    /// `after_ms` milliseconds of protocol time (one round = 1000 ms;
    /// real-time drivers may scale).
    SetTimer {
        /// Opaque tag returned on expiry.
        tag: u64,
        /// Delay in protocol milliseconds.
        after_ms: u64,
    },
    /// The node's monitor convicted someone. Also retained internally
    /// (see [`PagEngine::verdicts`]); drivers may stream or ignore it.
    Verdict(Verdict),
    /// A measurement event. Also folded into [`PagEngine::metrics`];
    /// drivers may stream or ignore it.
    Metric(MetricEvent),
}

/// Measurement events emitted as [`Effect::Metric`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricEvent {
    /// An update's payload reached this node for the first time.
    Delivered {
        /// The update.
        update: UpdateId,
        /// Round of first delivery.
        round: u64,
    },
    /// A full serve/ack exchange completed on the receiver side.
    ExchangeCompleted {
        /// The exchange round.
        round: u64,
    },
    /// A staged membership change was refused when it came due (today
    /// only: the session source attempting to leave).
    ChurnRejected {
        /// The node whose change was refused.
        node: NodeId,
        /// The round the change would have taken effect.
        round: u64,
    },
    /// The driver dropped an incoming frame before delivery: the bytes
    /// failed [`crate::wire::decode_frame`], violated stream framing, or
    /// were addressed to another node. Recorded via
    /// [`PagEngine::note_frame_rejected`] — malformed input from a real
    /// transport is a counted event, never a crash.
    FrameRejected {
        /// The round the frame arrived in (driver clock).
        round: u64,
    },
    /// The driver severed an inbound connection that exceeded its
    /// rejected-frame budget (a hostile flood of undecodable or
    /// misrouted frames). Recorded via
    /// [`PagEngine::note_connection_dropped`] — like frame rejection,
    /// this happens below the protocol and is counted, never fatal.
    ConnectionDropped {
        /// The round the connection was cut (driver clock).
        round: u64,
    },
    /// A peer link went down mid-session (fault-schedule sever, remote
    /// crash, or socket failure). Recorded via
    /// [`PagEngine::note_link_severed`] — transport health events live
    /// below the protocol and are counted, never fatal (DESIGN.md §12).
    LinkSevered {
        /// The round the link went down (driver clock).
        round: u64,
    },
    /// A severed peer link was re-established by the transport's
    /// supervised reconnect (realtime TCP backoff; DESIGN.md §12).
    /// Recorded via [`PagEngine::note_link_reconnected`].
    LinkReconnected {
        /// The round the link came back (driver clock).
        round: u64,
    },
    /// This node restarted after a crash: it dropped the in-flight state
    /// its downtime lost, round-tripped its recoverable snapshot, and
    /// re-announced itself ([`Input::Recover`]).
    Recovered {
        /// The first round back in the membership.
        round: u64,
    },
    /// The driver refused a connection handshake: the peer advertised an
    /// unknown identity, presented a bad channel-binding proof, replayed
    /// a stale nonce, or named the wrong session. Recorded via
    /// [`PagEngine::note_handshake_rejected`] — authentication happens
    /// below the protocol and a refusal is counted, never fatal
    /// (DESIGN.md §13).
    HandshakeRejected {
        /// The round the handshake was refused in (driver clock).
        round: u64,
    },
}

/// The effect sink handed to protocol handlers: buffered sends, timers
/// and metric events plus the engine's deterministic randomness.
///
/// This is the sans-IO analogue of a network context — handlers stay
/// free of driver and borrow concerns.
pub(crate) struct EngineCtx<'a> {
    rng: &'a mut StdRng,
    effects: &'a mut Vec<Effect>,
}

impl<'a> EngineCtx<'a> {
    /// The engine's deterministic random source.
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues a transmission.
    pub(crate) fn send(&mut self, to: NodeId, msg: SignedMessage, bytes: usize, class: TrafficClass) {
        self.effects.push(Effect::Send {
            to,
            msg,
            bytes,
            class,
        });
    }

    /// Queues a timer request.
    pub(crate) fn set_timer_ms(&mut self, after_ms: u64, tag: u64) {
        self.effects.push(Effect::SetTimer { tag, after_ms });
    }

    /// Queues a metric event.
    pub(crate) fn metric(&mut self, event: MetricEvent) {
        self.effects.push(Effect::Metric(event));
    }
}

/// A PAG node as a sans-IO state machine.
///
/// Wraps the protocol state ([`PagNode`]) together with the node's
/// deterministic RNG and turns `(state, input) -> (state', effects)`.
///
/// `Clone` exists for the model checker (`pag-model`): exhaustive
/// traversal forks an engine at every interleaving choice point. Clones
/// share the session context and payload buffers (`Arc`), so a fork
/// copies BTree spines and counters, not crypto material.
#[derive(Clone, Debug)]
pub struct PagEngine {
    node: PagNode,
    rng: StdRng,
    verdicts_reported: usize,
}

impl PagEngine {
    /// Creates the engine for `id`.
    ///
    /// `session_seed` is the run-wide seed; the engine derives its
    /// private stream as `session_seed ^ mix(id)`, so distinct nodes of
    /// one session draw independent primes while two engines built with
    /// identical arguments behave identically.
    pub fn new(
        id: NodeId,
        shared: Arc<SharedContext>,
        strategy: SelfishStrategy,
        session_seed: u64,
    ) -> Self {
        let rng = StdRng::seed_from_u64(session_seed ^ pag_membership::mix(id.value() as u64));
        PagEngine {
            node: PagNode::new(id, shared, strategy),
            rng,
            verdicts_reported: 0,
        }
    }

    /// Processes one input, returning the effects it produced.
    pub fn handle(&mut self, input: Input) -> Vec<Effect> {
        let mut out = Vec::new();
        self.handle_into(input, &mut out);
        out
    }

    /// Processes one input, appending effects to `out` (allocation-free
    /// drivers reuse one buffer across calls).
    pub fn handle_into(&mut self, input: Input, out: &mut Vec<Effect>) {
        {
            let mut ctx = EngineCtx {
                rng: &mut self.rng,
                effects: out,
            };
            match input {
                Input::RoundStart(round) => self.node.handle_round(round, &mut ctx),
                Input::Deliver { from, msg } => self.node.handle_delivery(from, msg, &mut ctx),
                Input::TimerFired { tag } => self.node.handle_timer(tag, &mut ctx),
                Input::Join { node, round } => self.node.handle_join(node, round, &mut ctx),
                Input::Leave { node, round } => self.node.handle_leave(node, round, &mut ctx),
                Input::Recover { node, round } => self.node.handle_recover(node, round, &mut ctx),
            }
        }
        // Surface verdicts the monitor emitted while handling this input.
        let verdicts = self.node.verdicts();
        for v in &verdicts[self.verdicts_reported.min(verdicts.len())..] {
            out.push(Effect::Verdict(v.clone()));
        }
        self.verdicts_reported = verdicts.len();
    }

    /// Records a frame the driver rejected before delivery (decode
    /// failure, framing violation or misrouting on an untrusted
    /// transport) and returns the [`Effect::Metric`] it folded into
    /// [`PagEngine::metrics`], in case the driver streams metrics.
    ///
    /// The engine never sees the rejected bytes: rejection happens below
    /// the protocol, this merely keeps the count with the rest of the
    /// node's measurements so session outcomes surface it uniformly.
    pub fn note_frame_rejected(&mut self, round: u64) -> Effect {
        self.node.metrics_mut().frames_rejected += 1;
        Effect::Metric(MetricEvent::FrameRejected { round })
    }

    /// Records an inbound connection the driver severed for flooding the
    /// rejected-frame budget (see
    /// [`crate::metrics::NodeMetrics::connections_dropped`]) and returns
    /// the [`Effect::Metric`] it folded into [`PagEngine::metrics`].
    ///
    /// Like [`PagEngine::note_frame_rejected`], this is bookkeeping for
    /// an event below the protocol: the engine never saw the hostile
    /// bytes, it only keeps the count with the node's other metrics.
    pub fn note_connection_dropped(&mut self, round: u64) -> Effect {
        self.node.metrics_mut().connections_dropped += 1;
        Effect::Metric(MetricEvent::ConnectionDropped { round })
    }

    /// Records a connection handshake the driver refused (unknown
    /// identity, bad channel-binding proof, replayed nonce, or wrong
    /// session id — see [`crate::handshake`]) and returns the
    /// [`Effect::Metric`] it folded into [`PagEngine::metrics`].
    ///
    /// Like [`PagEngine::note_frame_rejected`], this is bookkeeping for
    /// an event below the protocol: the engine never saw the refused
    /// connection, it only keeps the count with the node's other
    /// metrics.
    pub fn note_handshake_rejected(&mut self, round: u64) -> Effect {
        self.node.metrics_mut().handshakes_rejected += 1;
        Effect::Metric(MetricEvent::HandshakeRejected { round })
    }

    /// Records a peer link the transport observed going down (a
    /// fault-schedule sever or a failed socket) and returns the
    /// [`Effect::Metric`] it folded into [`PagEngine::metrics`].
    ///
    /// Link health is a transport concern: the engine never acts on it
    /// (monitoring traffic rides the resilient control path, DESIGN.md
    /// §12), it only keeps the count with the node's other metrics.
    pub fn note_link_severed(&mut self, round: u64) -> Effect {
        self.node.metrics_mut().links_severed += 1;
        Effect::Metric(MetricEvent::LinkSevered { round })
    }

    /// Records a severed peer link the transport re-established (the
    /// realtime TCP driver's supervised reconnect with bounded backoff)
    /// and returns the [`Effect::Metric`] it folded into
    /// [`PagEngine::metrics`].
    pub fn note_link_reconnected(&mut self, round: u64) -> Effect {
        self.node.metrics_mut().links_reconnected += 1;
        Effect::Metric(MetricEvent::LinkReconnected { round })
    }

    /// Captures the node's recoverable state as a
    /// [`crate::snapshot::NodeSnapshot`] — what a crash-restart path
    /// persists so the host rejoins instead of being convicted
    /// (ROADMAP item 3, DESIGN.md §12).
    pub fn snapshot(&self) -> crate::snapshot::NodeSnapshot {
        self.node.snapshot()
    }

    /// The canonical projection of this engine's semantic state
    /// ([`crate::model::ModelState`], DESIGN.md §15): every field that
    /// can influence a future effect, minus derived caches and the RNG's
    /// raw words. Model checkers deduplicate explored states on it; two
    /// engines with equal projections emit identical effect sequences on
    /// every identical future input sequence.
    pub fn model_state(&self) -> crate::model::ModelState {
        let mut p = crate::model::StateProj::new();
        self.node.project(&mut p);
        // `verdicts_reported` is engine- not node-level bookkeeping, but
        // it governs which verdicts future inputs will surface.
        p.tag("reported");
        p.u64(self.verdicts_reported as u64);
        p.finish()
    }

    /// Whether the node holds protocol state that awaits further driver
    /// input: staged membership changes waiting for their effective
    /// round boundary, or half-completed exchanges waiting for a peer's
    /// serve or attestation. O(1) — schedulers that multiplex many
    /// engines over few threads (`pag-runtime`'s worker pool) call this
    /// per scheduling decision, so it must stay free of traversal.
    ///
    /// `false` means the engine is quiescent: absent new inputs it will
    /// never emit another effect. A completed honest session ends with
    /// every live engine quiescent — the pool's scale tests assert it.
    pub fn has_pending_work(&self) -> bool {
        self.node.has_pending_work()
    }

    /// Number of [`Input::RoundStart`]s this engine has processed —
    /// idle joiners included (their round handling is inert but still
    /// counted). Schedulers use this to prove no engine starves: after
    /// a lockstep run every non-crashed engine must have entered every
    /// round.
    pub fn rounds_entered(&self) -> u64 {
        self.node.rounds_entered()
    }

    /// This engine's node identifier.
    pub fn id(&self) -> NodeId {
        self.node.id()
    }

    /// The strategy the node plays.
    pub fn strategy(&self) -> SelfishStrategy {
        self.node.strategy()
    }

    /// The engine's current membership view (epoch-stamped; evolves as
    /// staged churn takes effect at round boundaries).
    pub fn view(&self) -> &pag_membership::Membership {
        self.node.view()
    }

    /// Execution metrics accumulated so far.
    pub fn metrics(&self) -> &NodeMetrics {
        self.node.metrics()
    }

    /// Verdicts the node emitted in its monitor role.
    pub fn verdicts(&self) -> &[Verdict] {
        self.node.verdicts()
    }

    /// The node's update store.
    pub fn store(&self) -> &UpdateStore {
        self.node.store()
    }

    /// Creation rounds of updates this node injected (source only).
    pub fn creations(&self) -> &std::collections::BTreeMap<UpdateId, u64> {
        self.node.creations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagConfig;

    fn engine_for(n: usize, id: u32) -> PagEngine {
        let cfg = PagConfig {
            stream_rate_kbps: 16.0, // keep tests fast
            ..PagConfig::default()
        };
        let shared = SharedContext::new(cfg, n);
        PagEngine::new(NodeId(id), shared, SelfishStrategy::Honest, 0)
    }

    #[test]
    fn round_start_arms_three_timers() {
        let mut e = engine_for(6, 2);
        let effects = e.handle(Input::RoundStart(0));
        let timers: Vec<u64> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::SetTimer { after_ms, .. } => Some(*after_ms),
                _ => None,
            })
            .collect();
        assert_eq!(timers.len(), 3, "ack-check, eval, exhibit");
        assert!(timers.iter().all(|&ms| ms < 1000), "within the round");
    }

    #[test]
    fn source_round_start_emits_delivery_metrics() {
        let mut e = engine_for(6, 0); // node 0 is the source
        let effects = e.handle(Input::RoundStart(0));
        let deliveries = effects
            .iter()
            .filter(|e| matches!(e, Effect::Metric(MetricEvent::Delivered { .. })))
            .count();
        assert_eq!(deliveries, e.metrics().delivered_count());
        assert!(deliveries > 0, "source injects its window");
    }

    #[test]
    fn identical_engines_emit_identical_effects() {
        let run = || {
            let mut e = engine_for(6, 1);
            let fx = e.handle(Input::RoundStart(0));
            fx.iter()
                .map(|f| match f {
                    Effect::Send { to, bytes, .. } => (0u8, to.value() as u64, *bytes as u64),
                    Effect::SetTimer { tag, after_ms } => (1, *tag, *after_ms),
                    Effect::Verdict(_) => (2, 0, 0),
                    Effect::Metric(_) => (3, 0, 0),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Drives one engine through round start plus a predecessor's
    /// KeyRequest and returns the prime it minted for that predecessor
    /// (from the KeyResponse effect).
    fn minted_prime(seed: u64) -> pag_bignum::BigUint {
        let cfg = PagConfig {
            stream_rate_kbps: 16.0,
            ..PagConfig::default()
        };
        let shared = SharedContext::new(cfg, 6);
        let me = NodeId(1);
        let pred = shared.topology(0).predecessors(me)[0];
        let mut engine = PagEngine::new(me, Arc::clone(&shared), SelfishStrategy::Honest, seed);
        engine.handle(Input::RoundStart(0));
        let request = shared.sign(pred, crate::messages::MessageBody::KeyRequest { round: 0 });
        let effects = engine.handle(Input::Deliver {
            from: pred,
            msg: request,
        });
        effects
            .iter()
            .find_map(|e| match e {
                Effect::Send { msg, .. } => match &msg.body {
                    crate::messages::MessageBody::KeyResponse { prime, .. } => {
                        Some(prime.clone())
                    }
                    _ => None,
                },
                _ => None,
            })
            .expect("predecessor receives a KeyResponse")
    }

    #[test]
    fn engine_seed_drives_minted_primes() {
        // The seed is the engine's only randomness: equal seeds must
        // reproduce the same prime, different seeds must diverge.
        assert_eq!(minted_prime(7), minted_prime(7), "same seed, same prime");
        assert_ne!(minted_prime(1), minted_prime(2), "seed changes the draw");
    }

    #[test]
    fn empty_and_single_update_exchanges_hash_as_before() {
        // The formula the identity-aware hash path replaced: every part
        // of every triple, empty or not, is (product mod M)^exp mod M —
        // spelled out here by plain square-and-multiply, which shares no
        // code with `Montgomery::pow`.
        use crate::messages::{HashTriple, MessageBody};
        use pag_bignum::BigUint;
        let cfg = PagConfig {
            stream_rate_kbps: 1.0, // the source injects one update a round
            ..PagConfig::default()
        };
        let shared = SharedContext::new(cfg, 6);
        let m = shared.params.modulus().clone();
        let formula = |products: [&BigUint; 3], exp: &BigUint| {
            let [expiring, fresh, duplicate] = products
                .map(|p| pag_crypto::HomomorphicHash::from_value((p % &m).mod_pow_naive(exp, &m)));
            HashTriple { expiring, fresh, duplicate }
        };
        let one = BigUint::one();
        let sends = |effects: &[Effect]| -> Vec<SignedMessage> {
            effects
                .iter()
                .filter_map(|e| match e {
                    Effect::Send { msg, .. } => Some(msg.clone()),
                    _ => None,
                })
                .collect()
        };

        // A relay has nothing to forward in round 0 (three empty parts);
        // the source serves its one fresh update.
        for (sender, served_updates) in [(NodeId(3), 0usize), (shared.source(), 1)] {
            let receiver = shared.topology(0).successors(sender)[0];
            let mut a = PagEngine::new(sender, Arc::clone(&shared), SelfishStrategy::Honest, 1);
            let mut b = PagEngine::new(receiver, Arc::clone(&shared), SelfishStrategy::Honest, 2);
            a.handle(Input::RoundStart(0));
            b.handle(Input::RoundStart(0));

            // Messages 1-2: b mints the prime of this exchange.
            let request = shared.sign(sender, MessageBody::KeyRequest { round: 0 });
            let response = sends(&b.handle(Input::Deliver { from: sender, msg: request }))
                .into_iter()
                .find(|msg| matches!(msg.body, MessageBody::KeyResponse { .. }))
                .expect("key response");
            let MessageBody::KeyResponse { prime, .. } = response.body.clone() else {
                unreachable!()
            };

            // Messages 3-4: a serves and attests under that prime.
            let served = sends(&a.handle(Input::Deliver { from: receiver, msg: response }));
            let mut product = one.clone();
            let mut attestation = None;
            for msg in &served {
                match &msg.body {
                    MessageBody::Serve { fresh, refs, .. } => {
                        assert_eq!((fresh.len(), refs.len()), (served_updates, 0));
                        for u in fresh {
                            product = (&product * &BigUint::from_bytes_be(&u.payload)) % &m;
                        }
                    }
                    MessageBody::Attestation { hashes, .. } => attestation = Some(hashes.clone()),
                    _ => {}
                }
            }
            assert_eq!(
                attestation.expect("attestation"),
                formula([&one, &product, &one], &prime),
                "attestation of {sender}"
            );

            // Message 5: b acknowledges under K(-1, a) = 1.
            let mut replies = Vec::new();
            for msg in served {
                replies.extend(sends(&b.handle(Input::Deliver { from: sender, msg })));
            }
            let ack = replies
                .iter()
                .find_map(|msg| match &msg.body {
                    MessageBody::Ack { hashes, .. } => Some(hashes.clone()),
                    _ => None,
                })
                .expect("ack");
            assert_eq!(ack, formula([&one, &product, &one], &one), "ack to {sender}");
        }
    }

    /// Feeds the monitor `m` of sender `s` an `AckForward` carrying an
    /// acknowledgement that successor `h` signed with `fresh` as its
    /// must-forward hash, runs round 0's evaluation and returns the
    /// verdicts `m` reached about the `s → h` exchange.
    fn verdicts_on_forwarded_ack(fresh: pag_bignum::BigUint) -> Vec<Verdict> {
        use crate::messages::{HashTriple, MessageBody};
        let shared = SharedContext::new(PagConfig::default(), 12);
        let s = NodeId(2);
        let h = shared.topology(0).successors(s)[0];
        let m = *shared
            .membership
            .monitors_of(s, 0)
            .iter()
            .find(|&&m| m != h)
            .expect("a monitor of s other than h");
        let mut monitor = PagEngine::new(m, Arc::clone(&shared), SelfishStrategy::Honest, 0);
        let eval_tag = monitor
            .handle(Input::RoundStart(0))
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { tag, after_ms } if *after_ms == shared.config.monitor_eval_ms => {
                    Some(*tag)
                }
                _ => None,
            })
            .expect("round start arms the evaluation timer");

        let ack = HashTriple {
            fresh: pag_crypto::HomomorphicHash::from_value(fresh),
            ..HashTriple::identity(&shared.params)
        };
        let ack_sig = shared
            .sign(h, MessageBody::Ack { round: 0, hashes: ack.clone() })
            .sig;
        let forward = shared.sign(
            h,
            MessageBody::AckForward { round: 0, sender: s, receiver: h, ack, ack_sig },
        );
        monitor.handle(Input::Deliver { from: h, msg: forward });
        monitor.handle(Input::TimerFired { tag: eval_tag });
        monitor
            .verdicts()
            .iter()
            .filter(|v| matches!(v.fault, crate::verdict::Fault::WrongForward { successor } if successor == h))
            .cloned()
            .collect()
    }

    #[test]
    fn out_of_range_ack_hash_is_judged_not_fatal() {
        // A roster member may sign an Ack whose hash field holds any
        // `wire.hash`-byte value, including one >= M. It used to reach
        // `Montgomery::mul_mod`'s range assert through
        // `HashTriple::combined` and kill the evaluating monitor.
        let modulus = SharedContext::new(PagConfig::default(), 12)
            .params
            .modulus()
            .clone();
        let two = pag_bignum::BigUint::from(2u64);
        // s received nothing before round 0, so it owes the identity.
        // M + 1 is congruent to it: the monitor must not convict the
        // honest sender over h's malformed encoding …
        let congruent = verdicts_on_forwarded_ack(&modulus + &pag_bignum::BigUint::one());
        assert!(congruent.is_empty(), "honest sender convicted: {congruent:?}");
        // … and M + 2 is a wrong ack, judged exactly as the in-range 2.
        let hostile = verdicts_on_forwarded_ack(&modulus + &two);
        assert_eq!(hostile, verdicts_on_forwarded_ack(two));
        assert_eq!(hostile.len(), 1, "one wrong-forward finding: {hostile:?}");
    }

    #[test]
    fn frame_from_outside_the_roster_is_dropped_not_fatal() {
        // `from` comes off the wire: an id with no key is a failed
        // verification, not a missing-signer panic.
        use crate::messages::MessageBody;
        let mut e = engine_for(6, 2);
        e.handle(Input::RoundStart(0));
        let msg = SignedMessage {
            body: MessageBody::KeyRequest { round: 0 },
            sig: pag_crypto::Signature::from_bytes(vec![0; PagConfig::default().wire.signature]),
        };
        let effects = e.handle(Input::Deliver { from: NodeId(999), msg });
        assert!(effects.is_empty(), "{effects:?}");
    }

    #[test]
    fn evidence_naming_an_id_outside_the_roster_is_dropped_not_fatal() {
        // A roster member's validly signed body may name any id as the
        // signer of the evidence it carries; an unknown one fails
        // verification and records nothing.
        use crate::messages::{HashTriple, MessageBody};
        let shared = SharedContext::new(PagConfig::default(), 12);
        let s = NodeId(2);
        let m = shared.membership.monitors_of(s, 0)[0];
        let relay = shared.membership.monitors_of(s, 0)[1];
        let stranger = NodeId(999);
        let ack = HashTriple::identity(&shared.params);
        let ack_sig = shared.sign(s, MessageBody::Ack { round: 0, hashes: ack.clone() }).sig;
        let bodies = [
            MessageBody::AckForward {
                round: 0,
                sender: s,
                receiver: stranger,
                ack: ack.clone(),
                ack_sig: ack_sig.clone(),
            },
            MessageBody::MonitorBroadcast {
                round: 0,
                watched: stranger,
                sender: s,
                combined: ack.clone(),
                ack: ack.clone(),
                ack_sig: ack_sig.clone(),
            },
            MessageBody::Confirm {
                round: 0,
                accuser: s,
                accused: stranger,
                ack: ack.clone(),
                ack_sig: ack_sig.clone(),
            },
        ];
        for body in bodies {
            let mut monitor = PagEngine::new(m, Arc::clone(&shared), SelfishStrategy::Honest, 0);
            monitor.handle(Input::RoundStart(0));
            let msg = shared.sign(relay, body.clone());
            let effects = monitor.handle(Input::Deliver { from: relay, msg });
            assert!(effects.is_empty(), "{body:?}: {effects:?}");
            assert!(monitor.verdicts().is_empty(), "{body:?}");
        }
    }

    /// A six-member context with one registered joiner (node 100).
    fn shared_with_joiner() -> Arc<SharedContext> {
        let cfg = PagConfig {
            stream_rate_kbps: 16.0,
            ..PagConfig::default()
        };
        let membership =
            pag_membership::Membership::with_uniform_nodes(cfg.session_id, 6, cfg.fanout, cfg.monitor_count);
        SharedContext::with_roster(cfg, membership, &[NodeId(100)])
    }

    #[test]
    fn joiner_announces_then_participates() {
        let shared = shared_with_joiner();
        let mut joiner = PagEngine::new(NodeId(100), Arc::clone(&shared), SelfishStrategy::Honest, 3);

        // Before joining: round starts are inert.
        assert!(joiner.handle(Input::RoundStart(0)).is_empty());

        // The membership service schedules the join for round 1.
        let fx = joiner.handle(Input::Join { node: NodeId(100), round: 1 });
        let announces = fx
            .iter()
            .filter(|e| matches!(
                e,
                Effect::Send { msg, .. }
                    if matches!(msg.body, crate::messages::MessageBody::JoinAnnounce { .. })
            ))
            .count();
        assert_eq!(announces, 6, "one announcement per roster peer");

        // At the effective round the joiner mints primes and opens
        // exchanges like any member.
        let fx = joiner.handle(Input::RoundStart(1));
        assert!(joiner.view().contains(NodeId(100)));
        assert_eq!(joiner.view().epoch(), 1);
        assert!(fx.iter().any(|e| matches!(e, Effect::SetTimer { .. })));
    }

    #[test]
    fn member_applies_announced_leave_at_boundary() {
        let shared = shared_with_joiner();
        let mut observer = PagEngine::new(NodeId(1), Arc::clone(&shared), SelfishStrategy::Honest, 3);
        observer.handle(Input::RoundStart(0));
        let announce = shared.sign(
            NodeId(2),
            crate::messages::MessageBody::LeaveAnnounce { round: 1, node: NodeId(2) },
        );
        observer.handle(Input::Deliver { from: NodeId(2), msg: announce });
        assert!(observer.view().contains(NodeId(2)), "staged, not yet applied");
        observer.handle(Input::RoundStart(1));
        assert!(!observer.view().contains(NodeId(2)), "applied at the boundary");
        assert_eq!(observer.view().epoch(), 1);
    }

    #[test]
    fn source_leave_is_rejected_and_not_announced() {
        let shared = shared_with_joiner();
        let source = shared.source();
        let mut engine = PagEngine::new(source, Arc::clone(&shared), SelfishStrategy::Honest, 3);
        engine.handle(Input::RoundStart(0));
        let fx = engine.handle(Input::Leave { node: source, round: 1 });
        assert!(
            fx.iter().any(|e| matches!(
                e,
                Effect::Metric(MetricEvent::ChurnRejected { node, round: 1 }) if *node == source
            )),
            "rejection surfaced: {fx:?}"
        );
        assert!(
            !fx.iter().any(|e| matches!(e, Effect::Send { .. })),
            "no departure announcement"
        );
        engine.handle(Input::RoundStart(1));
        assert!(engine.view().contains(source));
    }
}
