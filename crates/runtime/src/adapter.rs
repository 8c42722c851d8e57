//! The simnet adapter: runs the sans-IO engine on the discrete-event
//! simulator by translating callbacks into [`Input`]s and draining the
//! resulting [`Effect`]s back into the simulator's context.
//!
//! This is deliberately thin — the protocol lives entirely in
//! [`PagEngine`]; everything here is plumbing, which is the point of the
//! sans-IO split (DESIGN.md §8). Fault injection rides the same seam:
//! the adapter consults the session's [`FaultPlan`] with the identical
//! send-side checks the transport workers apply (`crate::worker`), so a
//! faulted simulation and a faulted socket run drop exactly the same
//! frames (DESIGN.md §12). Corruption windows degrade to drops here —
//! the simulator carries typed messages, not bytes, so there is nothing
//! to mangle; corrupted scenarios therefore compare verdicts and
//! deliveries across drivers, not raw traffic.

use std::sync::Arc;

use pag_core::engine::{Effect, Input, PagEngine};
use pag_core::SignedMessage;
use pag_membership::NodeId;
use pag_obs::NodeRecorder;
use pag_simnet::{Context, Protocol, SimDuration, TrafficClass as SimClass};

use crate::faults::FaultPlan;
use crate::worker::step_engine;

/// A [`PagEngine`] speaking the simulator's [`Protocol`] trait.
#[derive(Debug)]
pub struct SimnetPag {
    engine: PagEngine,
    effects: Vec<Effect>,
    /// Membership-service inputs this node must receive, keyed by the
    /// round they are pumped in (= effective round - 1, so the
    /// announcement propagates before the change takes effect). Fault
    /// crash-restart feeds (leave/recover) merge into the same list.
    churn: Vec<(u64, Input)>,
    /// The session's compiled fault plan (shared, possibly empty).
    faults: Arc<FaultPlan>,
    /// Last round entered — the clock for the plan's per-frame checks.
    round: u64,
    /// Flight recorder for this node, when the session traces. `None`
    /// keeps the hot path free of clock reads (DESIGN.md §14).
    rec: Option<Box<NodeRecorder>>,
}

impl SimnetPag {
    /// Wraps an engine for simulation.
    pub fn new(engine: PagEngine) -> Self {
        Self::with_churn(engine, Vec::new())
    }

    /// Wraps an engine together with its scheduled churn inputs
    /// (`(announce round, input)` pairs).
    pub fn with_churn(engine: PagEngine, churn: Vec<(u64, Input)>) -> Self {
        Self::with_faults(engine, churn, Arc::new(FaultPlan::default()))
    }

    /// Wraps an engine with its scheduled inputs *and* the session's
    /// fault plan, whose down windows and link cuts this adapter applies
    /// exactly like the transport workers do.
    pub fn with_faults(
        engine: PagEngine,
        churn: Vec<(u64, Input)>,
        faults: Arc<FaultPlan>,
    ) -> Self {
        SimnetPag {
            engine,
            effects: Vec::new(),
            churn,
            faults,
            round: 0,
            rec: None,
        }
    }

    /// Attaches a per-node flight recorder; its ring and histograms are
    /// absorbed into the session recorder when the adapter drops (after
    /// [`SimnetPag::into_engine`]).
    pub fn attach_recorder(&mut self, rec: NodeRecorder) {
        self.rec = Some(Box::new(rec));
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &PagEngine {
        &self.engine
    }

    /// Unwraps the engine (to harvest verdicts and metrics after a run).
    pub fn into_engine(self) -> PagEngine {
        self.engine
    }

    /// True while this node sits in one of its fault-plan down windows:
    /// a crashed node pumps nothing — no round starts, deliveries or
    /// timers — mirroring the worker cores' `crashed` handling.
    fn down(&self) -> bool {
        self.faults.is_down(self.engine.id(), self.round)
    }

    /// Feeds one input and executes the effects against the simulator.
    fn pump(&mut self, input: Input, ctx: &mut Context<'_, SignedMessage>) {
        self.effects.clear();
        step_engine(
            &mut self.engine,
            input,
            &mut self.effects,
            self.rec.as_deref_mut(),
        );
        let me = self.engine.id();
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    bytes,
                    class,
                } => {
                    // Send-side fault checks, identical to the worker
                    // cores': cut/corrupt frames and frames to down
                    // peers vanish before any accounting.
                    if self.faults.cuts_frame(self.round, me, to, class)
                        || self.faults.corrupts_frame(self.round, me, to, class)
                        || self.faults.is_down(to, self.round)
                    {
                        continue;
                    }
                    ctx.send_classified(to, msg, bytes, SimClass(class.0))
                }
                Effect::SetTimer { tag, after_ms } => {
                    ctx.set_timer(SimDuration::from_millis(after_ms), tag)
                }
                // The engine retains verdicts and metrics; the session
                // harvests them from the final states.
                Effect::Verdict(_) | Effect::Metric(_) => {}
            }
        }
    }
}

impl Protocol for SimnetPag {
    type Message = SignedMessage;

    fn on_round(&mut self, round: u64, ctx: &mut Context<'_, SignedMessage>) {
        self.round = round;
        if self.down() {
            return;
        }
        if let Some(rec) = &mut self.rec {
            rec.round_enter(round);
        }
        self.pump(Input::RoundStart(round), ctx);
        // Churn announcements scheduled for this round follow the round
        // start, exactly like the threaded driver's round phase.
        let due: Vec<Input> = self
            .churn
            .iter()
            .filter(|&&(announce, _)| announce == round)
            .map(|(_, input)| input.clone())
            .collect();
        for input in due {
            self.pump(input, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: SignedMessage, ctx: &mut Context<'_, SignedMessage>) {
        if self.down() {
            return;
        }
        self.pump(Input::Deliver { from, msg }, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, SignedMessage>) {
        if self.down() {
            return;
        }
        self.pump(Input::TimerFired { tag }, ctx);
    }
}
