//! The traced replay: a workload's session re-run on the simulator
//! under a benchmark-owned adapter that records a span around every
//! call into the engine and the codec.
//!
//! [`TracedPag`] has the shape of the program's own `SimnetPag` adapter
//! (round start, then the round's churn feeds; send-side fault checks
//! before any accounting), so by driver equivalence its outputs must
//! equal the driver run's — the stage asserts that. What it adds: every
//! `handle_into` sits in an `engine.*` span named by input kind, and
//! every `Effect::Send` is really encoded and decoded back, each in a
//! `wire.*` span, with the encoded length checked against the bytes the
//! engine charged. The simulator itself carries typed messages, so the
//! codec work here is exactly what a byte transport adds per frame.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use pag_core::engine::{Effect, Input, PagEngine};
use pag_core::selfish::SelfishStrategy;
use pag_core::verdict::Verdict;
use pag_core::wire::{decode_frame, encode_frame, WireConfig};
use pag_core::{SharedContext, SignedMessage};
use pag_membership::{Membership, NodeId};
use pag_runtime::churn::inputs_for;
use pag_runtime::{ChurnKind, FaultPlan, FaultSchedule, SessionConfig, TrafficReport};
use pag_simnet::{Context, Protocol, SimDuration, Simulation, TrafficClass as SimClass};

use crate::spans::SpanRecorder;
use crate::workloads::{Outputs, Workload};

/// Span names. `simnet.callback` encloses one simulator callback; the
/// engine and wire spans nest in it.
pub const REPLAY: &str = "replay";
pub const CALLBACK: &str = "simnet.callback";
pub const ROUND_START: &str = "engine.round_start";
pub const DELIVER: &str = "engine.deliver";
pub const TIMER: &str = "engine.timer";
pub const FEED: &str = "engine.feed";
pub const ENCODE: &str = "wire.encode";
pub const DECODE: &str = "wire.decode";
/// The benchmark sampling the signed length of a sent message.
pub const SAMPLE: &str = "bench.sample";

/// State the replay's adapters share (one thread: the simulator).
struct Shared {
    rec: SpanRecorder,
    frames: u64,
    bytes: u64,
    /// Total length of the signed bodies of the messages sent, for the
    /// micro stage's message size.
    signed_bytes: u64,
    /// First codec disagreement, if any.
    codec_error: Option<String>,
}

impl Shared {
    /// Sends `msg` through the codec as a byte transport would — encode,
    /// then decode, each in its span — and returns what came out. A
    /// disagreement between codec, engine accounting and message is
    /// noted (the first one is kept) and the original forwarded.
    fn through_codec(
        &mut self,
        wire: &WireConfig,
        me: NodeId,
        to: NodeId,
        msg: SignedMessage,
        charged: usize,
    ) -> SignedMessage {
        match self.codec_round_trip(wire, me, to, &msg, charged) {
            Ok(decoded) => decoded,
            Err(e) => {
                self.codec_error
                    .get_or_insert_with(|| format!("frame {me}->{to} {e}"));
                msg
            }
        }
    }

    fn codec_round_trip(
        &mut self,
        wire: &WireConfig,
        me: NodeId,
        to: NodeId,
        msg: &SignedMessage,
        charged: usize,
    ) -> Result<SignedMessage, String> {
        let id = self.rec.enter(ENCODE);
        let encoded = encode_frame(me, to, msg, wire);
        self.rec.exit(id);
        let frame = encoded.map_err(|e| format!("does not encode: {e}"))?;
        self.frames += 1;
        self.bytes += frame.len() as u64;

        let id = self.rec.enter(DECODE);
        let decoded = decode_frame(&frame, wire);
        self.rec.exit(id);
        let decoded = decoded.map_err(|e| format!("does not decode: {e}"))?;

        if frame.len() != charged {
            return Err(format!(
                "encodes to {} bytes, the engine charged {charged}",
                frame.len()
            ));
        }
        if decoded.from != me || decoded.to != to || decoded.msg != *msg {
            return Err("decodes to a different message".to_string());
        }
        Ok(decoded.msg)
    }
}

struct TracedPag {
    engine: PagEngine,
    effects: Vec<Effect>,
    feeds: Vec<(u64, Input)>,
    faults: Arc<FaultPlan>,
    wire: WireConfig,
    round: u64,
    shared: Rc<RefCell<Shared>>,
}

impl TracedPag {
    fn down(&self) -> bool {
        self.faults.is_down(self.engine.id(), self.round)
    }

    fn pump(&mut self, span: &'static str, input: Input, ctx: &mut Context<'_, SignedMessage>) {
        let mut guard = self.shared.borrow_mut();
        let shared = &mut *guard;
        self.effects.clear();
        let id = shared.rec.enter(span);
        self.engine.handle_into(input, &mut self.effects);
        shared.rec.exit(id);

        let me = self.engine.id();
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    if self.faults.cuts_frame(self.round, me, to, class)
                        || self.faults.corrupts_frame(self.round, me, to, class)
                        || self.faults.is_down(to, self.round)
                    {
                        continue;
                    }
                    let msg = shared.through_codec(&self.wire, me, to, msg, bytes);
                    if shared.rec.enabled() {
                        // Priced as its own span so it is not mistaken
                        // for simulator time.
                        let id = shared.rec.enter(SAMPLE);
                        shared.signed_bytes += msg.body.signable_bytes().len() as u64;
                        shared.rec.exit(id);
                    }
                    // Deliver what came back out of the codec.
                    ctx.send_classified(to, msg, bytes, SimClass(class.0));
                }
                Effect::SetTimer { tag, after_ms } => {
                    ctx.set_timer(SimDuration::from_millis(after_ms), tag)
                }
                Effect::Verdict(_) | Effect::Metric(_) => {}
            }
        }
    }

    fn callback(&mut self, f: impl FnOnce(&mut Self)) {
        let id = self.shared.borrow_mut().rec.enter(CALLBACK);
        f(self);
        self.shared.borrow_mut().rec.exit(id);
    }
}

impl Protocol for TracedPag {
    type Message = SignedMessage;

    fn on_round(&mut self, round: u64, ctx: &mut Context<'_, SignedMessage>) {
        self.round = round;
        if self.down() {
            return;
        }
        self.callback(|node| {
            node.pump(ROUND_START, Input::RoundStart(round), ctx);
            let due: Vec<Input> = node
                .feeds
                .iter()
                .filter(|&&(announce, _)| announce == round)
                .map(|(_, input)| input.clone())
                .collect();
            for input in due {
                node.pump(FEED, input, ctx);
            }
        });
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: SignedMessage,
        ctx: &mut Context<'_, SignedMessage>,
    ) {
        if self.down() {
            return;
        }
        self.callback(|node| node.pump(DELIVER, Input::Deliver { from, msg }, ctx));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, SignedMessage>) {
        if self.down() {
            return;
        }
        self.callback(|node| node.pump(TIMER, Input::TimerFired { tag }, ctx));
    }
}

/// Wall-clock split of session set-up, as `try_run_session` performs it.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `Membership` + `SharedContext::with_roster` (key generation).
    pub keyring_s: f64,
    /// `PagEngine::new` for every roster node.
    pub engines_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.keyring_s + self.engines_s
    }
}

/// Builds a session's shared context and engines the way
/// `try_run_session` does, timing the two halves. `session_id`
/// overrides the configured one: key material derives from it, so a
/// fresh id is a cold key generation whatever the keyring memo holds.
pub fn build_session(
    sc: &SessionConfig,
    seed: u64,
    session_id: u64,
) -> (Arc<SharedContext>, Vec<PagEngine>, SetupTimes) {
    let t0 = Instant::now();
    let mut pag = sc.pag.clone();
    pag.session_id = session_id;
    let membership =
        Membership::with_uniform_nodes(pag.session_id, sc.nodes, pag.fanout, pag.monitor_count);
    let mut joiners: Vec<NodeId> = sc
        .churn
        .iter()
        .filter(|e| e.kind == ChurnKind::Join)
        .map(|e| e.node)
        .filter(|n| !membership.contains(*n))
        .collect();
    joiners.sort();
    joiners.dedup();
    let shared = SharedContext::with_roster(pag, membership, &joiners);
    let keyring_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let engines: Vec<PagEngine> = shared
        .roster()
        .map(|id| {
            let strategy = sc
                .selfish
                .iter()
                .find(|(n, _)| *n == id)
                .map_or(SelfishStrategy::Honest, |(_, s)| *s);
            PagEngine::new(id, Arc::clone(&shared), strategy, seed)
        })
        .collect();
    let engines_s = t1.elapsed().as_secs_f64();
    (
        shared,
        engines,
        SetupTimes {
            keyring_s,
            engines_s,
        },
    )
}

/// What one replay yields.
pub struct Replay {
    pub outputs: Outputs,
    pub rec: SpanRecorder,
    /// Wall clock of the simulation run (the root span, also measured
    /// when spans are off).
    pub wall_s: f64,
    pub frames: u64,
    pub bytes: u64,
    /// Σ signed-body length over the frames sent (spans on only).
    pub signed_bytes: u64,
    /// Highest membership epoch any engine's view reached.
    pub epochs: u64,
    pub codec_error: Option<String>,
}

/// Replays `w` on the simulator under [`TracedPag`]. With `spans` off
/// the same code runs with a disabled recorder.
pub fn replay(w: &Workload, spans: bool, session: u32) -> Replay {
    let sc = &w.config;
    let (shared_ctx, engines, _) = build_session(sc, w.seed, sc.pag.session_id);
    let faults = Arc::new(FaultSchedule::from_events(sc.faults.clone()).plan());
    let shared = Rc::new(RefCell::new(Shared {
        rec: SpanRecorder::new(spans, session),
        frames: 0,
        bytes: 0,
        signed_bytes: 0,
        codec_error: None,
    }));

    let mut sim = Simulation::new(w.sim_config());
    for engine in engines {
        let id = engine.id();
        // Churn feeds, then the fault plan's crash-restart feeds, by
        // announce round: the order every driver of the program uses.
        let mut feeds = inputs_for(&sc.churn, id);
        feeds.extend(faults.feeds_for(id));
        feeds.sort_by_key(|&(round, _)| round);
        sim.add_node(
            id,
            TracedPag {
                engine,
                effects: Vec::new(),
                feeds,
                faults: Arc::clone(&faults),
                wire: shared_ctx.config.wire.clone(),
                round: 0,
                shared: Rc::clone(&shared),
            },
        );
    }
    for &(node, round) in &sc.crashes {
        sim.schedule_crash(node, round);
    }

    let root = shared.borrow_mut().rec.enter(REPLAY);
    let t0 = Instant::now();
    let report = sim.run(sc.rounds);
    let wall_s = t0.elapsed().as_secs_f64();
    shared.borrow_mut().rec.exit(root);

    let engines: Vec<PagEngine> = sim
        .into_nodes()
        .into_values()
        .map(|node| node.engine)
        .collect();
    let epochs = engines.iter().map(|e| e.view().epoch()).max().unwrap_or(0);
    let verdicts: Vec<Verdict> = engines
        .iter()
        .flat_map(|e| e.verdicts().iter().cloned())
        .collect();
    let outputs = Outputs::from_parts(
        engines.iter().map(PagEngine::metrics),
        &verdicts,
        &TrafficReport::from_sim(&report),
    );

    let shared = Rc::try_unwrap(shared)
        .ok()
        .expect("the simulation and its adapters are gone")
        .into_inner();
    Replay {
        outputs,
        rec: shared.rec,
        wall_s,
        frames: shared.frames,
        bytes: shared.bytes,
        signed_bytes: shared.signed_bytes,
        epochs,
        codec_error: shared.codec_error,
    }
}
