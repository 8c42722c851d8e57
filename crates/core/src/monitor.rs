//! The monitor engine: the log-less monitoring infrastructure of §IV-A
//! and §V-B/C.
//!
//! Each node runs one [`MonitorEngine`] covering the nodes it monitors.
//! The engine is a pure state machine: handlers consume monitoring
//! messages and return *effects* (messages to send), which the owning
//! [`crate::node::PagNode`] signs and dispatches. This keeps the engine
//! independently testable.
//!
//! Per watched node `B` and round `R`, the engine maintains the
//! *obligation accumulator*
//! `Π_j H(S_j fresh)_(K(R-1,B),M) = H(everything B must forward in R)`,
//! built by raising each predecessor attestation (message 7) to its
//! cofactor and multiplying (message 8 keeps co-monitors in sync). In
//! round `R` the acknowledgements of B's successors (relayed by message
//! 9) must multiply out to exactly this value.

use std::collections::{BTreeMap, BTreeSet};

use pag_bignum::BigUint;
use pag_crypto::{HomomorphicHash, Signature};
use pag_membership::{Membership, NodeId, PrfStream};

use crate::messages::{HashTriple, MessageBody};
use crate::metrics::OpCounters;
use crate::shared::SharedContext;
use crate::verdict::{Fault, Verdict};

/// The monitor a node sends messages 6/7 to in a given round ("node B
/// sends two messages to only one of its own monitors, to prevent
/// monitors from receiving all the products of the prime numbers").
///
/// `view` is the caller's membership view of that round — under churn,
/// monitor sets are a function of the current epoch's node set.
pub fn designated_monitor(
    shared: &SharedContext,
    view: &Membership,
    node: NodeId,
    round: u64,
) -> NodeId {
    let monitors = view.monitors_of(node, round);
    let mut stream = PrfStream::new(
        shared.config.session_id,
        round,
        node.value() as u64,
        0xD1,
    );
    monitors[stream.next_below(monitors.len() as u64) as usize]
}

/// A half-assembled report: messages 6 and 7 arrive separately.
#[derive(Clone, Debug, Default)]
struct PendingReport {
    ack: Option<(HashTriple, Signature)>,
    attestation: Option<(HashTriple, BigUint)>,
}

/// Monitoring state of one node, covering every node it watches.
#[derive(Clone, Debug, Default)]
pub struct MonitorEngine {
    me: NodeId,
    /// Nodes this node monitors (stable within a membership epoch;
    /// recomputed by [`MonitorEngine::refresh_watch`] on churn).
    watched: Vec<NodeId>,
    /// Round at which each watch relationship began. `0` means "since
    /// session start". Obligations for round `R` are reported during
    /// `R-1`, so a monitor that picked up a node at round `e > 0` cannot
    /// evaluate rounds `<= e` — it skips them (one grace round per
    /// monitor-set rotation) instead of convicting on a missing
    /// accumulator.
    watch_started: BTreeMap<NodeId, u64>,
    /// Obligation accumulator keyed by (watched node, serve round):
    /// the hash of everything the node must forward in that round.
    obligation: BTreeMap<(NodeId, u64), HomomorphicHash>,
    /// Exchanges whose reports (6/7 or a broadcast) were seen:
    /// (watched receiver, round, sender).
    got_report: BTreeSet<(NodeId, u64, NodeId)>,
    /// Self-reported accumulators: (node, reception round) -> hash.
    self_reports: BTreeMap<(NodeId, u64), HomomorphicHash>,
    /// Successor acknowledgements: (sender, round, successor) -> evidence.
    acks: BTreeMap<(NodeId, u64, NodeId), (HashTriple, Signature)>,
    /// Exonerations from accusation outcomes: (sender, round, successor).
    nacks: BTreeSet<(NodeId, u64, NodeId)>,
    /// 6/7 pairing buffer: (watched receiver, round, sender).
    pending_reports: BTreeMap<(NodeId, u64, NodeId), PendingReport>,
    /// Accusations being handled: (round, accuser, accused) -> answered.
    pending_accusations: BTreeMap<(u64, NodeId, NodeId), bool>,
    /// Outstanding exhibit requests: (sender, round, successor).
    pending_exhibits: BTreeSet<(NodeId, u64, NodeId)>,
    /// Verdict deduplication.
    verdict_keys: BTreeSet<(NodeId, u64, Fault)>,
    /// Emitted verdicts.
    verdicts: Vec<Verdict>,
}

/// Messages the engine wants sent (the owning node signs them).
pub(crate) type Effects = Vec<(NodeId, MessageBody)>;

impl MonitorEngine {
    /// Creates the engine for `me`, taking its watch list from the
    /// session-start view's cached round-0 topology (relationships start
    /// at round 0).
    pub fn new(me: NodeId, shared: &SharedContext) -> Self {
        let watched = shared.topology(0).watched_by(me).to_vec();
        let watch_started = watched.iter().map(|&b| (b, 0)).collect();
        MonitorEngine {
            me,
            watched,
            watch_started,
            ..MonitorEngine::default()
        }
    }

    /// The nodes this engine watches.
    pub fn watched(&self) -> &[NodeId] {
        &self.watched
    }

    /// Recomputes the watch list after a membership-epoch change taking
    /// effect at `round`, from `view`'s cached topology of that round.
    /// Nodes newly assigned to this monitor start with `watch_started =
    /// round` (their first evaluable serve round is `round + 1`); nodes
    /// no longer assigned are retired together with their monitoring
    /// state.
    pub fn refresh_watch(&mut self, shared: &SharedContext, view: &Membership, round: u64) {
        let new = shared.topology_for(view, round).watched_by(self.me).to_vec();
        let old: BTreeSet<NodeId> = self.watched.iter().copied().collect();
        let now: BTreeSet<NodeId> = new.iter().copied().collect();
        for &b in old.difference(&now) {
            self.watch_started.remove(&b);
            self.drop_watch_state(b);
        }
        for &b in now.difference(&old) {
            self.watch_started.entry(b).or_insert(round);
        }
        self.watched = new;
    }

    /// Retires every trace of a departed node: watch state if we watched
    /// it, plus its roles as accuser, accused, exhibit party and ack
    /// sender. Nacks where the departed is the *accused* are kept — they
    /// exonerate a live accuser. Called when a leave takes effect, so a
    /// node that left cleanly can never be convicted afterwards.
    pub fn retire(&mut self, node: NodeId) {
        if let Some(pos) = self.watched.iter().position(|&b| b == node) {
            self.watched.remove(pos);
        }
        self.watch_started.remove(&node);
        self.drop_watch_state(node);
        self.acks.retain(|&(sender, _, _), _| sender != node);
        self.nacks.retain(|&(accuser, _, _)| accuser != node);
        self.pending_accusations
            .retain(|&(_, accuser, accused), _| accuser != node && accused != node);
        self.pending_exhibits
            .retain(|&(sender, _, succ)| sender != node && succ != node);
    }

    /// Drops the per-watched-node accumulators of `b`.
    fn drop_watch_state(&mut self, b: NodeId) {
        self.obligation.retain(|&(n, _), _| n != b);
        self.self_reports.retain(|&(n, _), _| n != b);
        self.got_report.retain(|&(n, _, _)| n != b);
        self.pending_reports.retain(|&(n, _, _), _| n != b);
    }

    /// True if this monitor held the watch on `b` early enough to have
    /// accumulated `b`'s obligations for serve round `round`.
    fn can_evaluate(&self, b: NodeId, round: u64) -> bool {
        match self.watch_started.get(&b) {
            Some(0) => true,
            Some(&started) => round > started,
            None => false,
        }
    }

    /// Verdicts emitted so far.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    fn emit(&mut self, accused: NodeId, round: u64, fault: Fault) {
        if self.verdict_keys.insert((accused, round, fault.clone())) {
            self.verdicts.push(Verdict {
                monitor: self.me,
                accused,
                round,
                fault,
            });
        }
    }

    fn fold_obligation(
        &mut self,
        shared: &SharedContext,
        node: NodeId,
        serve_round: u64,
        value: &HomomorphicHash,
    ) {
        let entry = self
            .obligation
            .entry((node, serve_round))
            .or_insert_with(|| shared.params.identity().clone());
        *entry = shared.params.combine(entry, value);
    }

    /// Expected acknowledgement value for `node`'s serves in
    /// `serve_round`: the accumulated obligation, falling back to the
    /// node's self-report, then to the identity (no receptions).
    fn expected(&self, shared: &SharedContext, node: NodeId, serve_round: u64) -> HomomorphicHash {
        if let Some(h) = self.obligation.get(&(node, serve_round)) {
            return h.clone();
        }
        if serve_round > 0 {
            if let Some(h) = self.self_reports.get(&(node, serve_round - 1)) {
                return h.clone();
            }
        }
        shared.params.identity().clone()
    }

    /// Handles message 6 (ack copy) from watched node `from`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_monitor_ack(
        &mut self,
        shared: &SharedContext,
        view: &Membership,
        ops: &mut OpCounters,
        from: NodeId,
        round: u64,
        sender: NodeId,
        ack: HashTriple,
        ack_sig: Signature,
    ) -> Effects {
        let pending = self
            .pending_reports
            .entry((from, round, sender))
            .or_default();
        pending.ack = Some((ack, ack_sig));
        self.try_complete_report(shared, view, ops, from, round, sender)
    }

    /// Handles message 7 (attestation + cofactor) from watched node
    /// `from`.
    #[allow(clippy::too_many_arguments)]
    pub fn on_monitor_attestation(
        &mut self,
        shared: &SharedContext,
        view: &Membership,
        ops: &mut OpCounters,
        from: NodeId,
        round: u64,
        sender: NodeId,
        attestation: HashTriple,
        cofactor: BigUint,
    ) -> Effects {
        let pending = self
            .pending_reports
            .entry((from, round, sender))
            .or_default();
        pending.attestation = Some((attestation, cofactor));
        self.try_complete_report(shared, view, ops, from, round, sender)
    }

    /// When both 6 and 7 are in: compute the combined hash, fold it,
    /// broadcast to co-monitors (8) and forward the ack to the sender's
    /// monitors (9).
    fn try_complete_report(
        &mut self,
        shared: &SharedContext,
        view: &Membership,
        ops: &mut OpCounters,
        watched: NodeId,
        round: u64,
        sender: NodeId,
    ) -> Effects {
        let key = (watched, round, sender);
        if !view.contains(watched) {
            // A straggler report about a node whose leave already
            // applied: the watch gate upstream normally filters this,
            // but a departed subject has no monitors to inform either.
            self.pending_reports.remove(&key);
            return Vec::new();
        }
        let Some(pending) = self.pending_reports.get(&key) else {
            return Vec::new();
        };
        let (Some((ack, ack_sig)), Some((attestation, cofactor))) =
            (pending.ack.clone(), pending.attestation.clone())
        else {
            return Vec::new();
        };
        self.pending_reports.remove(&key);
        self.got_report.insert(key);

        // Message 8 computation: raise the attestation to the cofactor,
        // yielding hashes under K(round, watched).
        let combined = HashTriple {
            expiring: shared.params.raise(&attestation.expiring, &cofactor),
            fresh: shared.params.raise(&attestation.fresh, &cofactor),
            duplicate: shared.params.raise(&attestation.duplicate, &cofactor),
        };
        ops.hashes += 3;

        // Receptions of `round` must be forwarded in `round + 1`.
        self.fold_obligation(shared, watched, round + 1, &combined.fresh);

        let mut effects = Vec::new();
        for m in view.monitors_of(watched, round) {
            if m == self.me {
                continue;
            }
            effects.push((
                m,
                MessageBody::MonitorBroadcast {
                    round,
                    watched,
                    sender,
                    combined: combined.clone(),
                    ack: ack.clone(),
                    ack_sig: ack_sig.clone(),
                },
            ));
        }
        // Message 9: tell the sender's monitors their node was acked.
        // A sender that already left the view has no monitors to tell.
        let sender_monitors = if view.contains(sender) {
            view.monitors_of(sender, round)
        } else {
            Vec::new()
        };
        for m in sender_monitors {
            if m == self.me {
                self.record_ack(sender, round, watched, ack.clone(), ack_sig.clone());
            } else {
                effects.push((
                    m,
                    MessageBody::AckForward {
                        round,
                        sender,
                        receiver: watched,
                        ack: ack.clone(),
                        ack_sig: ack_sig.clone(),
                    },
                ));
            }
        }
        effects
    }

    /// Handles message 8 from a co-monitor.
    #[allow(clippy::too_many_arguments)]
    pub fn on_monitor_broadcast(
        &mut self,
        shared: &SharedContext,
        view: &Membership,
        from: NodeId,
        round: u64,
        watched: NodeId,
        sender: NodeId,
        combined: HashTriple,
    ) {
        // Only accept from fellow monitors of the watched node (a
        // departed subject has none).
        if !view.contains(watched) || !view.monitors_of(watched, round).contains(&from) {
            return;
        }
        if !self.got_report.insert((watched, round, sender)) {
            return; // duplicate
        }
        self.fold_obligation(shared, watched, round + 1, &combined.fresh);
    }

    /// Records an acknowledgement relayed by message 9 (or locally).
    pub fn record_ack(
        &mut self,
        sender: NodeId,
        round: u64,
        successor: NodeId,
        ack: HashTriple,
        ack_sig: Signature,
    ) {
        self.acks
            .entry((sender, round, successor))
            .or_insert((ack, ack_sig));
    }

    /// Handles a node's end-of-round self-reported accumulator.
    pub fn on_self_accum(&mut self, from: NodeId, round: u64, value: HomomorphicHash) {
        self.self_reports.entry((from, round)).or_insert(value);
    }

    /// Handles the source's declaration of freshly injected updates.
    pub fn on_source_declare(
        &mut self,
        shared: &SharedContext,
        from: NodeId,
        round: u64,
        hashes: &HashTriple,
    ) {
        if from != shared.source() {
            return;
        }
        // Created in `round`, served in `round` (under K(round-1, src)).
        self.fold_obligation(shared, from, round, &hashes.fresh);
    }

    /// Handles an accusation: replay the serve to the accused (Fig. 3).
    pub fn on_accuse(
        &mut self,
        round: u64,
        accuser: NodeId,
        accused: NodeId,
        body: MessageBody,
    ) -> Effects {
        let MessageBody::Accuse {
            k_prev,
            k_prev_factors,
            fresh,
            refs,
            ..
        } = body
        else {
            return Vec::new();
        };
        self.pending_accusations
            .entry((round, accuser, accused))
            .or_insert(false);
        vec![(
            accused,
            MessageBody::ReAsk {
                round,
                accuser,
                k_prev,
                k_prev_factors,
                fresh,
                refs,
            },
        )]
    }

    /// Handles the accused node's answer to a replayed serve.
    #[allow(clippy::too_many_arguments)]
    pub fn on_reask_ack(
        &mut self,
        view: &Membership,
        from: NodeId,
        round: u64,
        accuser: NodeId,
        ack: HashTriple,
        ack_sig: Signature,
    ) -> Effects {
        let Some(answered) = self.pending_accusations.get_mut(&(round, accuser, from)) else {
            return Vec::new();
        };
        if *answered {
            return Vec::new();
        }
        *answered = true;
        if !view.contains(accuser) {
            return Vec::new();
        }
        let mut effects = Vec::new();
        for m in view.monitors_of(accuser, round) {
            if m == self.me {
                self.record_ack(accuser, round, from, ack.clone(), ack_sig.clone());
            } else {
                effects.push((
                    m,
                    MessageBody::Confirm {
                        round,
                        accuser,
                        accused: from,
                        ack: ack.clone(),
                        ack_sig: ack_sig.clone(),
                    },
                ));
            }
        }
        effects
    }

    /// Handles a `Confirm` from the accused node's monitors.
    pub fn on_confirm(
        &mut self,
        round: u64,
        accuser: NodeId,
        accused: NodeId,
        ack: HashTriple,
        ack_sig: Signature,
    ) {
        self.record_ack(accuser, round, accused, ack, ack_sig);
    }

    /// Handles a `Nack`: the accused never answered; the accuser is
    /// exonerated for this successor.
    pub fn on_nack(&mut self, round: u64, accuser: NodeId, accused: NodeId) {
        self.nacks.insert((accuser, round, accused));
        // A Nack may arrive after our evaluation already asked the
        // accuser to exhibit; withdraw the request.
        self.pending_exhibits.remove(&(accuser, round, accused));
    }

    /// End-of-round evaluation of every watched node's obligations for
    /// `round` (§IV-A's verification that a node "(i) contacted all its
    /// successors, and (ii) forwarded the right update").
    pub fn eval_round(&mut self, shared: &SharedContext, view: &Membership, round: u64) -> Effects {
        let mut effects = Vec::new();

        // Resolve this round's unanswered accusations with a Nack.
        let unanswered: Vec<(u64, NodeId, NodeId)> = self
            .pending_accusations
            .iter()
            .filter(|(&(r, _, _), &answered)| r == round && !answered)
            .map(|(&k, _)| k)
            .collect();
        for (r, accuser, accused) in unanswered {
            self.pending_accusations.remove(&(r, accuser, accused));
            self.emit(accused, r, Fault::Unresponsive { accuser });
            self.nacks.insert((accuser, r, accused));
            for m in view.monitors_of(accuser, r) {
                if m != self.me {
                    effects.push((
                        m,
                        MessageBody::Nack {
                            round: r,
                            accuser,
                            accused,
                        },
                    ));
                }
            }
        }

        // Forwarding obligations.
        let topo = shared.topology_for(view, round);
        for b in self.watched.clone() {
            if !self.can_evaluate(b, round) {
                // Fresh watch relationship: the obligations for this
                // round were reported to the previous epoch's monitors.
                continue;
            }
            let expected = self.expected(shared, b, round);
            for &succ in topo.successors(b) {
                if let Some((ack, _)) = self.acks.get(&(b, round, succ)) {
                    if ack.combined(&shared.params) != expected {
                        self.emit(b, round, Fault::WrongForward { successor: succ });
                    }
                } else if self.nacks.contains(&(b, round, succ)) {
                    // Successor convicted; b exonerated.
                } else {
                    self.pending_exhibits.insert((b, round, succ));
                    effects.push((
                        b,
                        MessageBody::ExhibitRequest {
                            round,
                            successor: succ,
                        },
                    ));
                }
            }
        }
        effects
    }

    /// Handles a node's answer to an exhibit request.
    #[allow(clippy::too_many_arguments)]
    pub fn on_exhibit_response(
        &mut self,
        shared: &SharedContext,
        view: &Membership,
        from: NodeId,
        round: u64,
        successor: NodeId,
        ack: Option<(HashTriple, Signature)>,
    ) -> Effects {
        if !self.pending_exhibits.contains(&(from, round, successor)) {
            return Vec::new();
        }
        let Some((ack, ack_sig)) = ack else {
            // "If node A cannot exhibit this acknowledgement it is
            // considered guilty because it did not accuse node B" — but a
            // Nack exonerating the node may still be in flight, so the
            // conviction waits for the exhibit-resolve deadline.
            return Vec::new();
        };
        self.pending_exhibits.remove(&(from, round, successor));
        // Check the exhibited evidence: signed by the successor over the
        // Ack body.
        let ack_body = MessageBody::Ack {
            round,
            hashes: ack.clone(),
        };
        if !shared.verify_evidence(successor, &ack_body.signable_bytes(), &ack_sig) {
            self.emit(from, round, Fault::FailedToForward { successor });
            return Vec::new();
        }
        if ack.combined(&shared.params) != self.expected(shared, from, round) {
            self.emit(from, round, Fault::WrongForward { successor });
            return Vec::new();
        }
        // The exchange was fine but the monitoring pipeline was starved:
        // let the receiver's monitors attribute blame precisely.
        let mut effects = Vec::new();
        for m in view.monitors_of(successor, round) {
            let notice = MessageBody::ExhibitNotice {
                round,
                sender: from,
                receiver: successor,
                ack: ack.clone(),
                ack_sig: ack_sig.clone(),
            };
            if m == self.me {
                self.on_exhibit_notice(shared, view, round, from, successor);
            } else {
                effects.push((m, notice));
            }
        }
        effects
    }

    /// Handles an exhibit notice: blames the receiver (silent to its
    /// monitors) or its designated monitor (dropped duty).
    pub fn on_exhibit_notice(
        &mut self,
        shared: &SharedContext,
        view: &Membership,
        round: u64,
        sender: NodeId,
        receiver: NodeId,
    ) {
        if !self.watched.contains(&receiver) || !self.can_evaluate(receiver, round) {
            return;
        }
        if self.got_report.contains(&(receiver, round, sender)) {
            return; // pipeline worked from where I stand
        }
        if self.self_reports.contains_key(&(receiver, round)) {
            // The receiver reported; its designated monitor dropped the
            // relay.
            let d = designated_monitor(shared, view, receiver, round);
            if d != self.me {
                self.emit(d, round, Fault::DroppedMonitorDuty { watched: receiver });
            }
        } else {
            self.emit(
                receiver,
                round,
                Fault::SilentToMonitors {
                    predecessor: sender,
                },
            );
        }
    }

    /// Convicts senders whose exhibit requests timed out unanswered.
    pub fn resolve_exhibits(&mut self, round: u64) {
        let expired: Vec<(NodeId, u64, NodeId)> = self
            .pending_exhibits
            .iter()
            .filter(|&&(_, r, _)| r == round)
            .copied()
            .collect();
        for (a, r, succ) in expired {
            self.pending_exhibits.remove(&(a, r, succ));
            if self.nacks.contains(&(a, r, succ)) {
                continue; // exonerated by a late Nack
            }
            self.emit(a, r, Fault::FailedToForward { successor: succ });
        }
    }

    /// Garbage-collects state older than `round` (keeps a safety margin).
    pub fn gc(&mut self, round: u64) {
        let keep_from = round.saturating_sub(4);
        self.obligation.retain(|&(_, r), _| r >= keep_from);
        self.got_report.retain(|&(_, r, _)| r >= keep_from);
        self.self_reports.retain(|&(_, r), _| r >= keep_from);
        self.acks.retain(|&(_, r, _), _| r >= keep_from);
        self.nacks.retain(|&(_, r, _)| r >= keep_from);
        self.pending_reports.retain(|&(_, r, _), _| r >= keep_from);
    }

    /// Canonical state projection (DESIGN.md §15). Verdicts are projected
    /// through the sorted `verdict_keys` set: the `verdicts` vec's push
    /// order varies with message-delivery interleaving while the *set* of
    /// convictions does not, and the projection must identify states the
    /// protocol cannot distinguish.
    pub(crate) fn project(&self, p: &mut crate::model::StateProj) {
        p.tag("monitor");
        p.u64(self.me.value() as u64);
        p.count(self.watched.len());
        for &b in &self.watched {
            p.u64(b.value() as u64);
        }
        p.count(self.watch_started.len());
        for (&b, &started) in &self.watch_started {
            p.u64(b.value() as u64);
            p.u64(started);
        }
        p.count(self.obligation.len());
        for (&(b, round), h) in &self.obligation {
            p.u64(b.value() as u64);
            p.u64(round);
            p.bytes(&h.value().to_bytes_be());
        }
        p.count(self.got_report.len());
        for &(b, round, sender) in &self.got_report {
            p.u64(b.value() as u64);
            p.u64(round);
            p.u64(sender.value() as u64);
        }
        p.count(self.self_reports.len());
        for (&(b, round), h) in &self.self_reports {
            p.u64(b.value() as u64);
            p.u64(round);
            p.bytes(&h.value().to_bytes_be());
        }
        p.count(self.acks.len());
        for (&(sender, round, succ), (triple, sig)) in &self.acks {
            p.u64(sender.value() as u64);
            p.u64(round);
            p.u64(succ.value() as u64);
            p.bytes(&triple.expiring.value().to_bytes_be());
            p.bytes(&triple.fresh.value().to_bytes_be());
            p.bytes(&triple.duplicate.value().to_bytes_be());
            p.bytes(sig.as_bytes());
        }
        p.count(self.nacks.len());
        for &(accuser, round, accused) in &self.nacks {
            p.u64(accuser.value() as u64);
            p.u64(round);
            p.u64(accused.value() as u64);
        }
        p.count(self.pending_reports.len());
        for (&(b, round, sender), pr) in &self.pending_reports {
            p.u64(b.value() as u64);
            p.u64(round);
            p.u64(sender.value() as u64);
            p.bool(pr.ack.is_some());
            if let Some((t, sig)) = &pr.ack {
                p.bytes(&t.expiring.value().to_bytes_be());
                p.bytes(&t.fresh.value().to_bytes_be());
                p.bytes(&t.duplicate.value().to_bytes_be());
                p.bytes(sig.as_bytes());
            }
            p.bool(pr.attestation.is_some());
            if let Some((t, cof)) = &pr.attestation {
                p.bytes(&t.expiring.value().to_bytes_be());
                p.bytes(&t.fresh.value().to_bytes_be());
                p.bytes(&t.duplicate.value().to_bytes_be());
                p.bytes(&cof.to_bytes_be());
            }
        }
        p.count(self.pending_accusations.len());
        for (&(round, accuser, accused), &answered) in &self.pending_accusations {
            p.u64(round);
            p.u64(accuser.value() as u64);
            p.u64(accused.value() as u64);
            p.bool(answered);
        }
        p.count(self.pending_exhibits.len());
        for &(sender, round, succ) in &self.pending_exhibits {
            p.u64(sender.value() as u64);
            p.u64(round);
            p.u64(succ.value() as u64);
        }
        p.count(self.verdict_keys.len());
        for (accused, round, fault) in &self.verdict_keys {
            p.u64(accused.value() as u64);
            p.u64(*round);
            let (kind, peer) = match fault {
                Fault::FailedToForward { successor } => (0u32, *successor),
                Fault::WrongForward { successor } => (1, *successor),
                Fault::Unresponsive { accuser } => (2, *accuser),
                Fault::SilentToMonitors { predecessor } => (3, *predecessor),
                Fault::DroppedMonitorDuty { watched } => (4, *watched),
            };
            p.u32(kind);
            p.u64(peer.value() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagConfig;
    use std::collections::BTreeMap as Map;

    fn shared() -> std::sync::Arc<SharedContext> {
        SharedContext::new(PagConfig::default(), 12)
    }

    #[test]
    fn watch_lists_cover_all_nodes_fm_times() {
        let shared = shared();
        let mut watch_count: Map<NodeId, usize> = Map::new();
        for &id in shared.membership.nodes() {
            let engine = MonitorEngine::new(id, &shared);
            for &w in engine.watched() {
                *watch_count.entry(w).or_default() += 1;
            }
        }
        for &id in shared.membership.nodes() {
            assert_eq!(
                watch_count[&id], shared.config.monitor_count,
                "{id} watched by exactly fm monitors"
            );
        }
    }

    #[test]
    fn designated_monitor_is_a_monitor() {
        let shared = shared();
        for round in 0..5 {
            for &id in shared.membership.nodes() {
                let d = designated_monitor(&shared, &shared.membership, id, round);
                assert!(shared.membership.monitors_of(id, round).contains(&d));
                assert_ne!(d, id);
            }
        }
    }

    #[test]
    fn expected_defaults_to_identity() {
        let shared = shared();
        let engine = MonitorEngine::new(NodeId(1), &shared);
        let e = engine.expected(&shared, NodeId(2), 3);
        assert!(e.value().is_one());
    }

    #[test]
    fn verdicts_deduplicate() {
        let shared = shared();
        let mut engine = MonitorEngine::new(NodeId(1), &shared);
        for _ in 0..3 {
            engine.emit(
                NodeId(2),
                1,
                Fault::FailedToForward {
                    successor: NodeId(3),
                },
            );
        }
        assert_eq!(engine.verdicts().len(), 1);
    }

    #[test]
    fn nack_exonerates_sender() {
        let shared = shared();
        // Pick a monitor of node 2 and a successor of node 2 in round 1.
        let b = NodeId(2);
        let monitor = shared.membership.monitors_of(b, 1)[0];
        let mut engine = MonitorEngine::new(monitor, &shared);
        assert!(engine.watched().contains(&b));
        let succ = shared.topology(1).successors(b)[0];
        engine.on_nack(1, b, succ);
        let effects = engine.eval_round(&shared, &shared.membership, 1);
        // No exhibit request for the nacked successor.
        assert!(!effects.iter().any(|(to, m)| {
            matches!(m, MessageBody::ExhibitRequest { successor, .. } if *successor == succ)
                && *to == b
        }));
        // And no verdict against b for that successor.
        assert!(engine.verdicts().is_empty());
    }

    #[test]
    fn unanswered_accusation_convicts_accused() {
        let shared = shared();
        let accused = NodeId(2);
        let monitor = shared.membership.monitors_of(accused, 1)[0];
        let mut engine = MonitorEngine::new(monitor, &shared);
        let accuser = NodeId(5);
        let effects = engine.on_accuse(
            1,
            accuser,
            accused,
            MessageBody::Accuse {
                round: 1,
                accused,
                k_prev: BigUint::one(),
                k_prev_factors: 1,
                fresh: vec![],
                refs: vec![],
            },
        );
        assert!(matches!(effects[0].1, MessageBody::ReAsk { .. }));
        assert_eq!(effects[0].0, accused);
        engine.eval_round(&shared, &shared.membership, 1);
        assert!(engine
            .verdicts()
            .iter()
            .any(|v| v.accused == accused
                && v.fault == Fault::Unresponsive { accuser }));
    }

    #[test]
    fn refresh_watch_grants_grace_round_to_new_relationships() {
        let shared = shared();
        let mut view = shared.membership.clone();
        // Pick any node and a monitor that does NOT watch it initially.
        let b = NodeId(2);
        let outsider = shared
            .membership
            .nodes()
            .iter()
            .copied()
            .find(|&m| m != b && !shared.membership.monitors_of(b, 0).contains(&m))
            .expect("some node is not a monitor of b");
        let mut engine = MonitorEngine::new(outsider, &shared);
        // Churn until the outsider picks up b (joining nodes reshuffles
        // monitor assignments deterministically).
        let mut effective = 0;
        for extra in 100..160u32 {
            view.join(NodeId(extra));
            effective += 1;
            engine.refresh_watch(&shared, &view, effective);
            if engine.watched().contains(&b) {
                break;
            }
        }
        if !engine.watched().contains(&b) {
            return; // reshuffle never assigned b to this monitor; vacuous
        }
        assert!(
            !engine.can_evaluate(b, effective),
            "the pickup round is a grace round"
        );
        assert!(
            engine.can_evaluate(b, effective + 1),
            "evaluation resumes one round later"
        );
    }

    #[test]
    fn refresh_watch_after_churn_matches_the_scan() {
        // The O(N) scan the topology's watch lists replaced, and the
        // watch-start bookkeeping it fed, as the reference.
        fn scan(view: &Membership, me: NodeId, round: u64) -> Vec<NodeId> {
            view.nodes()
                .iter()
                .copied()
                .filter(|&b| b != me && view.monitors_of(b, round).contains(&me))
                .collect()
        }
        let shared = shared();
        let mut view = shared.membership.clone();
        let ids: Vec<NodeId> = (0..12).chain(100..103).map(NodeId).collect();
        let mut engines: Vec<MonitorEngine> =
            ids.iter().map(|&id| MonitorEngine::new(id, &shared)).collect();
        let mut reference: Vec<(Vec<NodeId>, Map<NodeId, u64>)> = ids
            .iter()
            .map(|&id| {
                let watched = scan(&view, id, 0);
                let started = watched.iter().map(|&b| (b, 0)).collect();
                (watched, started)
            })
            .collect();
        let churn: [(u64, &[u32], &[u32]); 4] =
            [(1, &[100, 101], &[]), (2, &[], &[3]), (3, &[102], &[5, 100]), (4, &[3], &[])];
        for (round, joins, leaves) in churn {
            for &j in joins {
                view.join(NodeId(j));
            }
            for &l in leaves {
                view.leave(NodeId(l)).expect("non-source leave");
            }
            for (i, &id) in ids.iter().enumerate() {
                engines[i].refresh_watch(&shared, &view, round);
                let (watched, started) = &mut reference[i];
                let now = scan(&view, id, round);
                started.retain(|b, _| now.contains(b));
                for &b in &now {
                    started.entry(b).or_insert(round);
                }
                *watched = now;
                assert_eq!(engines[i].watched(), watched.as_slice(), "{id} at round {round}");
                assert_eq!(&engines[i].watch_started, started, "{id} at round {round}");
            }
        }
        assert!(
            reference.iter().any(|(_, s)| s.values().any(|&r| r > 0)),
            "churn reassigned some watch"
        );
    }

    #[test]
    fn retire_erases_departed_node_state() {
        let shared = shared();
        let b = NodeId(2);
        let monitor = shared.membership.monitors_of(b, 1)[0];
        let mut engine = MonitorEngine::new(monitor, &shared);
        assert!(engine.watched().contains(&b));
        // Seed some state that would otherwise convict b later.
        engine.on_accuse(
            1,
            NodeId(5),
            b,
            MessageBody::Accuse {
                round: 1,
                accused: b,
                k_prev: BigUint::one(),
                k_prev_factors: 1,
                fresh: vec![],
                refs: vec![],
            },
        );
        engine.retire(b);
        assert!(!engine.watched().contains(&b));
        let effects = engine.eval_round(&shared, &shared.membership, 1);
        assert!(engine.verdicts().is_empty(), "departed node not convicted");
        assert!(
            !effects
                .iter()
                .any(|(to, _)| *to == b),
            "no exhibit traffic to the departed node"
        );
    }
}
