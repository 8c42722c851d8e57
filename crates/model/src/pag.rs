//! [`PagMachine`]: the PAG engine plus the lockstep quiescence ledger
//! as an explorable [`Machine`] (DESIGN.md §15).
//!
//! One transition is one unit of driver work at one node: delivering
//! the head of a node's FIFO inbox (a `Round` broadcast envelope, a
//! peer frame, or a due-timer shot), retiring a crashing node, or — as
//! a deterministic barrier action enabled only at quiescence — the
//! driver advancing its phase program (`Round(r)` broadcast →
//! `TimersUpTo(350/650/900)` → next round), exactly the envelope
//! protocol `pag_runtime::pool::drive_rounds` runs. Effects fold
//! straight back into the frontier: an engine's `Send`s enqueue onto
//! the target inboxes, its `SetTimer`s arm the per-node deadline maps.
//!
//! The **quiescence ledger** is modeled alongside: `pending` is
//! credited on every enqueue and debited after every delivery, and the
//! driver's barrier (the `Advance` guard) is `pending == 0` — the same
//! condvar condition `pag_runtime::worker::Coordination` blocks on.
//! Crash retirement releases the credits of the mail it discards — the
//! abstraction of the runtime's crashed core, which keeps its pool slot
//! and credits and drops every envelope it is sent. The
//! `#[cfg(test)]`-gated [`PagMachine::with_early_credit_bug`] fault
//! flag reintroduces the PR 5 race: the retirement path *also* credits
//! the `Round` broadcast envelope it assumes is still in flight, so in
//! interleavings where the worker consumed that envelope before
//! retiring the credit is released twice, the barrier opens early, and
//! the ledger goes negative once the stale mail drains — which the
//! `pending >= 0` invariant catches with a shortest-trace
//! counterexample. The race exists in the model only: the runtime no
//! longer has the pool-slot retirement it came from.
//!
//! Crash-restarts follow the runtime's announced-shutdown discipline
//! (`pag_runtime::faults`): `Leave` fed to the subject during
//! `crash_round - 1`, worker down over `[crash_round, restart_round -
//! 1)`, `Recover` fed during `restart_round - 1`, peers learning both
//! on the wire.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use pag_core::engine::{Effect, Input, PagEngine};
use pag_core::model::{fnv1a, StateProj};
use pag_core::{PagConfig, SelfishStrategy, SharedContext, SignedMessage};
use pag_membership::NodeId;

use crate::machine::Machine;

/// Protocol milliseconds per round (the lockstep drivers' virtual
/// round; `pag_runtime` uses the same constant).
pub const VIRTUAL_ROUND_MS: u64 = 1000;

/// A model-checking scenario: a small topology with freerider, crash
/// and churn schedules.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Initial members (`NodeId(0)..NodeId(nodes)`).
    pub nodes: usize,
    /// Rounds to drive (`0..rounds`).
    pub rounds: u64,
    /// Session seed (each engine mixes in its own id).
    pub seed: u64,
    /// Gossip fanout (keep at 1 for exhaustive runs).
    pub fanout: usize,
    /// Monitors per node (keep at 1 for exhaustive runs).
    pub monitor_count: usize,
    /// Stream rate; 16 kbps ≈ 2 updates per round.
    pub stream_rate_kbps: f64,
    /// Per-node strategy overrides (everyone else is honest).
    pub selfish: Vec<(NodeId, SelfishStrategy)>,
    /// Announced crash-restarts `(node, crash_round, restart_round)`:
    /// `Leave` effective `crash_round` (announced one round early),
    /// down over `[crash_round, restart_round - 1)`, `Recover`
    /// announced during `restart_round - 1`. Use `restart_round =
    /// u64::MAX` for a crash with no restart. `crash_round >= 1`.
    pub crashes: Vec<(NodeId, u64, u64)>,
    /// Late joiners `(node, join_round)`: the node exists from the
    /// start (registered keys, idle engine) and is fed `Input::Join`
    /// during `join_round - 1`. Ids must continue after `nodes`.
    pub joins: Vec<(NodeId, u64)>,
}

impl Scenario {
    /// The acceptance topology: 4 nodes, 2 rounds, node 2 freeriding
    /// (drops its forwards), node 3 crash-restarting at round 1.
    pub fn canonical() -> Self {
        Scenario {
            nodes: 4,
            rounds: 2,
            seed: 9,
            fanout: 1,
            monitor_count: 2,
            stream_rate_kbps: 16.0,
            selfish: vec![(NodeId(2), SelfishStrategy::DropForward)],
            crashes: vec![(NodeId(3), 1, 3)],
            joins: Vec::new(),
        }
    }

    /// Renders the scenario as Rust constructor source (used when a
    /// counterexample is turned into a regression-test body).
    pub fn to_code(&self) -> String {
        format!(
            "Scenario {{ nodes: {}, rounds: {}, seed: {}, fanout: {}, monitor_count: {}, stream_rate_kbps: {:?}, selfish: vec!{:?}, crashes: vec!{:?}, joins: vec!{:?} }}",
            self.nodes,
            self.rounds,
            self.seed,
            self.fanout,
            self.monitor_count,
            self.stream_rate_kbps,
            self.selfish,
            self.crashes,
            self.joins,
        )
    }
}

/// One queued unit of driver mail (mirrors the runtime's `Envelope`).
#[derive(Clone, Debug)]
pub enum Mail {
    /// The driver's `Round(r)` broadcast.
    Round(u64),
    /// A peer frame.
    Frame {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: SignedMessage,
    },
    /// A due timer shot.
    Timer {
        /// The tag the engine armed.
        tag: u64,
    },
}

/// One global state: every engine, every inbox, the armed timers, the
/// driver's phase program counter, and the quiescence ledger.
#[derive(Clone, Debug)]
pub struct PagState {
    engines: Vec<PagEngine>,
    inbox: Vec<VecDeque<Mail>>,
    /// Per node: absolute protocol-ms deadline → tags in arm order.
    timers: Vec<BTreeMap<u64, Vec<u64>>>,
    crashed: Vec<bool>,
    /// Node must retire (crash) during the current round's drain.
    retiring: Vec<bool>,
    /// A retiring node consumed its `Round` broadcast before retiring
    /// (the PR 5 race window).
    round_seen: Vec<bool>,
    /// Retirements applied per node (the no-double-retirement check).
    retire_count: Vec<u8>,
    round: u64,
    /// Virtual time of the last driver broadcast (round start or the
    /// latest `TimersUpTo` deadline).
    fired_upto: u64,
    /// The quiescence ledger: enqueues minus completed deliveries.
    pending: i64,
    done: bool,
}

/// A typed transition of [`PagMachine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Act {
    /// Process the head of `0`'s FIFO inbox.
    Deliver(NodeId),
    /// Retire a node whose crash round has arrived.
    Crash(NodeId),
    /// The driver's barrier step: fire the next timer deadline, start
    /// the next round, or finish. Enabled only at ledger quiescence
    /// with all due retirements taken.
    Advance,
}

/// The PAG engine + lockstep ledger as a [`Machine`].
pub struct PagMachine {
    scenario: Scenario,
    shared: Arc<SharedContext>,
    /// Membership feeds by announce round: `(subject, input)`.
    feeds: BTreeMap<u64, Vec<(NodeId, Input)>>,
    bug_early_credit: bool,
}

impl PagMachine {
    /// Builds the machine for `scenario`.
    pub fn new(scenario: Scenario) -> Self {
        let cfg = PagConfig {
            fanout: scenario.fanout,
            monitor_count: scenario.monitor_count,
            stream_rate_kbps: scenario.stream_rate_kbps,
            ..PagConfig::default()
        };
        let joiners: Vec<NodeId> = scenario.joins.iter().map(|&(n, _)| n).collect();
        let shared = if joiners.is_empty() {
            SharedContext::new(cfg, scenario.nodes)
        } else {
            let membership = pag_membership::Membership::with_uniform_nodes(
                cfg.session_id,
                scenario.nodes,
                cfg.fanout,
                cfg.monitor_count,
            );
            SharedContext::with_roster(cfg, membership, &joiners)
        };
        let mut feeds: BTreeMap<u64, Vec<(NodeId, Input)>> = BTreeMap::new();
        for &(node, crash_round, restart_round) in &scenario.crashes {
            assert!(crash_round >= 1, "crashes are announced one round early");
            feeds
                .entry(crash_round - 1)
                .or_default()
                .push((node, Input::Leave { node, round: crash_round }));
            if restart_round != u64::MAX {
                feeds
                    .entry(restart_round - 1)
                    .or_default()
                    .push((node, Input::Recover { node, round: restart_round }));
            }
        }
        for &(node, join_round) in &scenario.joins {
            assert!(join_round >= 1, "joins are announced one round early");
            feeds
                .entry(join_round - 1)
                .or_default()
                .push((node, Input::Join { node, round: join_round }));
        }
        PagMachine {
            scenario,
            shared,
            feeds,
            bug_early_credit: false,
        }
    }

    /// Reintroduces the PR 5 early-credit race in the modeled ledger:
    /// crash retirement credits the in-flight `Round` broadcast without
    /// checking whether the worker loop already consumed it.
    #[cfg(test)]
    pub(crate) fn with_early_credit_bug(mut self) -> Self {
        self.bug_early_credit = true;
        self
    }

    /// The scenario under check.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn node_count(&self) -> usize {
        self.scenario.nodes + self.scenario.joins.len()
    }

    fn strategy_of(&self, node: NodeId) -> SelfishStrategy {
        self.scenario
            .selfish
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, s)| s)
            .unwrap_or(SelfishStrategy::Honest)
    }

    /// Feeds `input` to `node`'s engine and folds the effects back into
    /// the frontier: sends enqueue (with ledger credit) onto live
    /// targets — sends to crashed nodes are counted-and-credited
    /// atomically by the transport, i.e. dropped with net-zero ledger
    /// impact — and timers arm at `virtual now + after_ms`.
    fn feed(&self, st: &mut PagState, node: usize, input: Input) {
        let fx = st.engines[node].handle(input);
        for effect in fx {
            match effect {
                Effect::Send { to, msg, .. } => {
                    let t = to.value() as usize;
                    if t < st.crashed.len() && !st.crashed[t] {
                        st.inbox[t].push_back(Mail::Frame {
                            from: NodeId(node as u32),
                            msg,
                        });
                        st.pending += 1;
                    }
                }
                Effect::SetTimer { tag, after_ms } => {
                    let deadline = st.fired_upto + after_ms;
                    st.timers[node].entry(deadline).or_default().push(tag);
                }
                // Verdicts and metrics are retained inside the engine;
                // the property layer reads them from there.
                Effect::Verdict(_) | Effect::Metric(_) => {}
            }
        }
    }

    /// Enters round `r`: wakes restarted workers, marks retirements
    /// racing this broadcast, broadcasts `Round(r)` on one snapshot of
    /// the live set, and feeds the membership announcements scheduled
    /// for `r`.
    fn enter_round(&self, st: &mut PagState, r: u64) {
        for &(node, crash_round, restart_round) in &self.scenario.crashes {
            let i = node.value() as usize;
            let down = r >= crash_round && restart_round != u64::MAX && r < restart_round - 1;
            if st.crashed[i] && !down {
                st.crashed[i] = false;
            }
            if r == crash_round {
                st.retiring[i] = true;
            }
        }
        for seen in &mut st.round_seen {
            *seen = false;
        }
        st.round = r;
        st.fired_upto = r * VIRTUAL_ROUND_MS;
        for i in 0..st.engines.len() {
            if !st.crashed[i] {
                st.inbox[i].push_back(Mail::Round(r));
                st.pending += 1;
            }
        }
        if let Some(feeds) = self.feeds.get(&r) {
            for (node, input) in feeds.clone() {
                let i = node.value() as usize;
                if !st.crashed[i] {
                    self.feed(st, i, input);
                }
            }
        }
    }

    /// All verdicts across all engines in `s`, as a canonically ordered
    /// set of `(round, monitor, accused, fault)` — for comparing the
    /// model's outcome with a concrete driver run.
    pub fn verdict_set(&self, s: &PagState) -> BTreeSet<(u64, u32, u32, String)> {
        s.engines
            .iter()
            .flat_map(|e| e.verdicts().iter())
            .map(|v| {
                (
                    v.round,
                    v.monitor.value(),
                    v.accused.value(),
                    v.fault.to_string(),
                )
            })
            .collect()
    }

    /// The ledger balance of `s` (exposed for tests).
    pub fn pending(&self, s: &PagState) -> i64 {
        s.pending
    }

    /// Whether `s` is the quiescent end of the session.
    pub fn is_quiescent_end(&self, s: &PagState) -> bool {
        s.done && s.pending == 0 && s.inbox.iter().all(VecDeque::is_empty)
    }
}

impl Machine for PagMachine {
    type State = PagState;
    type Action = Act;

    fn initial(&self) -> PagState {
        let n = self.node_count();
        let mut st = PagState {
            engines: (0..n as u32)
                .map(|id| {
                    PagEngine::new(
                        NodeId(id),
                        Arc::clone(&self.shared),
                        self.strategy_of(NodeId(id)),
                        self.scenario.seed,
                    )
                })
                .collect(),
            inbox: vec![VecDeque::new(); n],
            timers: vec![BTreeMap::new(); n],
            crashed: vec![false; n],
            retiring: vec![false; n],
            round_seen: vec![false; n],
            retire_count: vec![0; n],
            round: 0,
            fired_upto: 0,
            pending: 0,
            done: false,
        };
        self.enter_round(&mut st, 0);
        st
    }

    fn actions(&self, s: &PagState, out: &mut Vec<Act>) {
        for i in 0..s.engines.len() {
            if !s.crashed[i] && !s.inbox[i].is_empty() {
                out.push(Act::Deliver(NodeId(i as u32)));
            }
            if s.retiring[i] && !s.crashed[i] {
                out.push(Act::Crash(NodeId(i as u32)));
            }
        }
        // The barrier: exactly the ledger condition the runtime's
        // Coordination condvar waits on, plus all due retirements
        // taken. Under the early-credit bug the ledger can hit zero
        // with mail still queued — the barrier opens early, exactly
        // like the real race.
        if !s.done && s.pending == 0 && !s.retiring.iter().any(|&r| r) {
            out.push(Act::Advance);
        }
    }

    fn step(&self, s: &PagState, a: &Act) -> PagState {
        let mut st = s.clone();
        match a {
            Act::Deliver(node) => {
                let i = node.value() as usize;
                let mail = st.inbox[i].pop_front().expect("Deliver requires mail");
                match mail {
                    Mail::Round(r) => {
                        if st.retiring[i] {
                            // The worker got the broadcast after its
                            // leave took effect: driver-level drop.
                            st.round_seen[i] = true;
                        } else {
                            self.feed(&mut st, i, Input::RoundStart(r));
                        }
                    }
                    Mail::Frame { from, msg } => {
                        self.feed(&mut st, i, Input::Deliver { from, msg });
                    }
                    Mail::Timer { tag } => {
                        self.feed(&mut st, i, Input::TimerFired { tag });
                    }
                }
                st.pending -= 1;
            }
            Act::Crash(node) => {
                let i = node.value() as usize;
                st.crashed[i] = true;
                st.retiring[i] = false;
                st.retire_count[i] = st.retire_count[i].saturating_add(1);
                let mut released = st.inbox[i].len() as i64;
                if self.bug_early_credit && st.round_seen[i] {
                    // PR 5 race, reintroduced: retirement credits the
                    // broadcast envelope it assumes is still in flight
                    // — but this interleaving already consumed it, so
                    // the credit is released twice.
                    released += 1;
                }
                st.inbox[i].clear();
                st.timers[i].clear();
                st.pending -= released;
            }
            Act::Advance => {
                let round_end = (st.round + 1) * VIRTUAL_ROUND_MS;
                let next_deadline = st
                    .timers
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !st.crashed[i])
                    .filter_map(|(_, t)| t.keys().next().copied())
                    .min()
                    .filter(|&d| d < round_end);
                if let Some(d) = next_deadline {
                    // TimersUpTo(d): every live node's shots due by d.
                    for i in 0..st.engines.len() {
                        if st.crashed[i] {
                            continue;
                        }
                        let due: Vec<u64> = st.timers[i]
                            .range(..=d)
                            .map(|(&dl, _)| dl)
                            .collect();
                        for dl in due {
                            for tag in st.timers[i].remove(&dl).unwrap_or_default() {
                                st.inbox[i].push_back(Mail::Timer { tag });
                                st.pending += 1;
                            }
                        }
                    }
                    st.fired_upto = d;
                } else if st.round + 1 < self.scenario.rounds {
                    let next = st.round + 1;
                    self.enter_round(&mut st, next);
                } else {
                    for t in &mut st.timers {
                        t.clear();
                    }
                    st.done = true;
                }
            }
        }
        st
    }

    fn fingerprint(&self, s: &PagState) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in &s.engines {
            h = fnv1a(h, e.model_state().bytes());
        }
        let mut p = StateProj::new();
        p.tag("driver");
        p.u64(s.round);
        p.u64(s.fired_upto);
        p.u64(s.pending as u64);
        p.bool(s.done);
        for i in 0..s.engines.len() {
            p.bool(s.crashed[i]);
            p.bool(s.retiring[i]);
            p.bool(s.round_seen[i]);
            p.u32(s.retire_count[i] as u32);
            p.count(s.inbox[i].len());
            for mail in &s.inbox[i] {
                match mail {
                    Mail::Round(r) => {
                        p.u32(1);
                        p.u64(*r);
                    }
                    Mail::Frame { from, msg } => {
                        p.u32(2);
                        p.u32(from.value());
                        p.bytes(&msg.body.signable_bytes());
                        p.bytes(msg.sig.as_bytes());
                    }
                    Mail::Timer { tag } => {
                        p.u32(3);
                        p.u64(*tag);
                    }
                }
            }
            p.count(s.timers[i].len());
            for (deadline, tags) in &s.timers[i] {
                p.u64(*deadline);
                p.count(tags.len());
                for tag in tags {
                    p.u64(*tag);
                }
            }
        }
        fnv1a(h, p.finish().bytes())
    }

    fn invariant(&self, s: &PagState) -> Result<(), String> {
        if s.pending < 0 {
            return Err(format!(
                "ledger credit went negative (pending = {})",
                s.pending
            ));
        }
        for (i, &count) in s.retire_count.iter().enumerate() {
            if count > 1 {
                return Err(format!("node {i} retired {count} times"));
            }
        }
        for e in &s.engines {
            for v in e.verdicts() {
                if self.strategy_of(v.accused) == SelfishStrategy::Honest {
                    return Err(format!("honest node convicted: {v}"));
                }
            }
        }
        Ok(())
    }

    fn deadlock(&self, s: &PagState) -> Result<(), String> {
        if !self.is_quiescent_end(s) {
            return Err(format!(
                "wedged before quiescence (round {}, pending {}, done {})",
                s.round, s.pending, s.done
            ));
        }
        let verdicts = self.verdict_set(s);
        for &(node, strategy) in &self.scenario.selfish {
            if strategy == SelfishStrategy::DropForward
                && !verdicts.iter().any(|&(_, _, accused, _)| accused == node.value())
            {
                return Err(format!("freerider {node} not convicted at termination"));
            }
        }
        Ok(())
    }
}
