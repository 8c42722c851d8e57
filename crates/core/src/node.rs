//! A PAG node: gossip participant (sender and receiver sides of the
//! Fig. 5 exchange) plus monitor (Fig. 6) in one state machine.
//!
//! Round timeline (1-second rounds, paper §VII-A):
//!
//! ```text
//! t+0ms    on_round: mint primes, build SA, KeyRequest successors,
//!          source injects updates
//! ~t+60ms  KeyResponse (prime + buffermap) flows back
//! ~t+120ms Serve + Attestation flow forward
//! ~t+180ms Ack flows back; messages 6/7 to the designated monitor
//! ~t+240ms messages 8/9 fan out between monitor sets
//! t+350ms  ack check: missing acks trigger accusations; self-report
//! t+650ms  monitors evaluate the round's forwarding obligations
//! t+900ms  unanswered exhibits convict
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use pag_bignum::{gen_prime, BigUint, MontAccumulator};
use pag_crypto::{HomomorphicParams, Signature, StoredResidue};
use pag_membership::{LeaveError, Membership, NodeId};

use crate::engine::{EngineCtx, MetricEvent};
use crate::messages::{HashTriple, MessageBody, ServedRef, ServedUpdate, SignedMessage};
use crate::metrics::NodeMetrics;
use crate::model::StateProj;
use crate::monitor::{designated_monitor, MonitorEngine};
use crate::selfish::SelfishStrategy;
use crate::shared::SharedContext;
use crate::snapshot::NodeSnapshot;
use crate::update::{synthetic_payload, StoredUpdate, UpdateId, UpdateStore};
use crate::verdict::Verdict;

/// Timer kinds (encoded in the high byte of the timer tag).
const TIMER_ACK_CHECK: u64 = 1 << 56;
const TIMER_EVAL: u64 = 2 << 56;
const TIMER_EXHIBIT: u64 = 3 << 56;
const TIMER_ROUND_MASK: u64 = (1 << 56) - 1;

/// The primes a node minted for its predecessors in one round, their
/// product `K(R, self)`, and the per-predecessor cofactors.
#[derive(Clone, Debug)]
struct RoundKeys {
    entries: Vec<(NodeId, BigUint)>,
    k: BigUint,
    /// `cofactors[i] = Π_{k≠i} p_k`, precomputed with one prefix/suffix
    /// sweep (3(d−1) multiplications per round instead of the O(d²) a
    /// per-exchange refold costs).
    cofactors: Vec<BigUint>,
}

impl RoundKeys {
    fn new(entries: Vec<(NodeId, BigUint)>) -> Self {
        let d = entries.len();
        // prefix[i] = p_0 … p_{i-1}; walking suffix products complete
        // each cofactor, and the last prefix step yields K itself.
        let mut prefix = Vec::with_capacity(d + 1);
        prefix.push(BigUint::one());
        for (_, p) in &entries {
            let next = &prefix[prefix.len() - 1] * p;
            prefix.push(next);
        }
        let k = prefix[d].clone();
        let mut cofactors = vec![BigUint::one(); d];
        let mut suffix = BigUint::one();
        for i in (0..d).rev() {
            cofactors[i] = &prefix[i] * &suffix;
            suffix = &suffix * &entries[i].1;
        }
        RoundKeys {
            entries,
            k,
            cofactors,
        }
    }

    fn prime_for(&self, pred: NodeId) -> Option<&BigUint> {
        self.entries.iter().find(|(p, _)| *p == pred).map(|(_, v)| v)
    }

    /// `Π_{k≠j} p_k` for predecessor `pred`.
    fn cofactor(&self, pred: NodeId) -> BigUint {
        self.entries
            .iter()
            .position(|(p, _)| *p == pred)
            .map(|i| self.cofactors[i].clone())
            .unwrap_or_else(|| self.k.clone())
    }

    fn factor_count(&self) -> u32 {
        self.entries.len().max(1) as u32
    }
}

/// One entry of the set `S_A` a node must forward this round.
///
/// Residue and payload are `Arc`-shared with the update store: the SA is
/// rebuilt every round and snapshotted per successor, so these fields
/// are cloned on the hottest path of the protocol.
#[derive(Clone, Debug)]
struct SaItem {
    id: UpdateId,
    count: u32,
    created_round: u64,
    residue: StoredResidue,
    payload: Arc<[u8]>,
}

/// Running `[expiring, fresh, duplicate]` multiset product in the
/// homomorphic modulus, built on the params' cached Montgomery context
/// (no divisions, scratch reused across factors).
///
/// Most exchanges leave one or two parts empty: a slot gets its
/// accumulator at the first factor, and an untouched slot finishes as
/// the cached identity without ever building one.
struct TripleProduct<'m> {
    params: &'m HomomorphicParams,
    slots: [Option<MontAccumulator<'m>>; 3],
}

impl<'m> TripleProduct<'m> {
    fn new(params: &'m HomomorphicParams) -> Self {
        TripleProduct {
            params,
            slots: [None, None, None],
        }
    }

    /// Multiplies `residue^count` into slot `slot`.
    fn mul(&mut self, slot: usize, residue: &BigUint, count: u32) {
        self.slots[slot]
            .get_or_insert_with(|| MontAccumulator::new(self.params.montgomery()))
            .mul_pow(residue, count);
    }

    fn finish(self) -> [BigUint; 3] {
        let one = self.params.identity().value();
        self.slots
            .map(|slot| slot.map_or_else(|| one.clone(), MontAccumulator::finish))
    }
}

/// Sender-side state of one exchange (one successor, one round).
#[derive(Clone, Debug, Default)]
struct SenderExchange {
    responded: bool,
    served: Option<ServedSnapshot>,
    expected_ack: Option<HashTriple>,
    acked: Option<(HashTriple, Signature)>,
    accused: bool,
}

#[derive(Clone, Debug)]
struct ServedSnapshot {
    fresh: Vec<ServedUpdate>,
    refs: Vec<ServedRef>,
    k_prev: BigUint,
    k_prev_factors: u32,
}

/// Receiver-side reorder buffer: Serve and Attestation arrive separately.
#[derive(Clone, Debug, Default)]
struct PendingServe {
    serve: Option<(BigUint, u32, Vec<ServedUpdate>, Vec<ServedRef>)>,
    attestation: Option<HashTriple>,
}

/// Kind of a staged membership change. Joins sort before leaves within a
/// round, so the apply order is identical on every node regardless of
/// announcement arrival order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ChurnStage {
    Join,
    Leave,
}

/// A node running PAG.
///
/// `Clone` supports the model checker (`pag-model`): breadth-first state
/// exploration forks a node at every interleaving choice. All heavy
/// members are `Arc`-shared (the context, payloads, residues), so a
/// clone is mostly BTree spines.
#[derive(Clone, Debug)]
pub struct PagNode {
    id: NodeId,
    shared: Arc<SharedContext>,
    strategy: SelfishStrategy,
    /// This node's membership view, seeded from the shared session-start
    /// directory and evolved by staged churn. All engines fed the same
    /// announcements hold identical views (same epoch) at every round
    /// boundary.
    view: Membership,
    /// Announced membership changes waiting for their effective round:
    /// `(effective round, kind, node)`, applied in sorted order at the
    /// next round start.
    staged_churn: BTreeSet<(u64, ChurnStage, NodeId)>,
    /// Per-round pins of `view`, taken at round start after staged churn
    /// applies. A wall-clock driver can deliver a round's monitoring
    /// traffic after `view` has advanced past the body's round;
    /// round-scoped duties (monitor sets, replay topologies) must
    /// resolve against the view that round actually opened under, not
    /// the advanced one. Consecutive unchanged views share one `Arc`, so
    /// churn-free sessions pin a single allocation. Derived state: not
    /// projected, not persisted.
    view_log: Vec<(u64, Arc<Membership>)>,
    store: UpdateStore,
    recv_keys: BTreeMap<u64, RoundKeys>,
    /// Fresh (must-forward) receptions per round, with multiplicities.
    received_fresh: BTreeMap<u64, BTreeMap<UpdateId, u32>>,
    processed_exchanges: BTreeSet<(u64, NodeId)>,
    pending_serves: BTreeMap<(u64, NodeId), PendingServe>,
    /// Update-id lists matching the buffermaps sent, for ref resolution.
    buffermaps_sent: BTreeMap<(u64, NodeId), Vec<UpdateId>>,
    /// Acks already produced (receiver side), for re-acks and evidence.
    acks_sent: BTreeMap<(u64, NodeId), (HashTriple, Signature)>,
    sa_cache: BTreeMap<u64, Vec<SaItem>>,
    exchanges: BTreeMap<(u64, NodeId), SenderExchange>,
    monitor: MonitorEngine,
    metrics: NodeMetrics,
    /// Round starts processed (idle joiner rounds included) — the
    /// scheduler-facing liveness counter behind
    /// [`crate::engine::PagEngine::rounds_entered`].
    rounds_entered: u64,
    /// Next update sequence number (source only).
    next_seq: u64,
    /// Creation rounds of injected updates (source only).
    creations: BTreeMap<UpdateId, u64>,
}

impl PagNode {
    /// Creates a node.
    pub fn new(id: NodeId, shared: Arc<SharedContext>, strategy: SelfishStrategy) -> Self {
        let monitor = MonitorEngine::new(id, &shared);
        let view = shared.membership.clone();
        PagNode {
            id,
            shared,
            strategy,
            view,
            staged_churn: BTreeSet::new(),
            view_log: Vec::new(),
            store: UpdateStore::new(),
            recv_keys: BTreeMap::new(),
            received_fresh: BTreeMap::new(),
            processed_exchanges: BTreeSet::new(),
            pending_serves: BTreeMap::new(),
            buffermaps_sent: BTreeMap::new(),
            acks_sent: BTreeMap::new(),
            sa_cache: BTreeMap::new(),
            exchanges: BTreeMap::new(),
            monitor,
            metrics: NodeMetrics::default(),
            rounds_entered: 0,
            next_seq: 0,
            creations: BTreeMap::new(),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The strategy this node plays.
    pub fn strategy(&self) -> SelfishStrategy {
        self.strategy
    }

    /// Execution metrics.
    pub fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }

    /// Mutable metrics access for driver-side accounting (frame
    /// rejections happen below the protocol, so no handler records them).
    pub(crate) fn metrics_mut(&mut self) -> &mut NodeMetrics {
        &mut self.metrics
    }

    /// Verdicts this node emitted in its monitor role.
    pub fn verdicts(&self) -> &[Verdict] {
        self.monitor.verdicts()
    }

    /// The update store (owned updates).
    pub fn store(&self) -> &UpdateStore {
        &self.store
    }

    /// Creation rounds of updates injected by this node (source only).
    pub fn creations(&self) -> &BTreeMap<UpdateId, u64> {
        &self.creations
    }

    /// The node's current membership view.
    pub fn view(&self) -> &Membership {
        &self.view
    }

    /// Whether the node still awaits driver input (staged churn or
    /// half-open receiver-side exchanges). O(1): two emptiness checks.
    pub(crate) fn has_pending_work(&self) -> bool {
        !self.staged_churn.is_empty() || !self.pending_serves.is_empty()
    }

    /// Round starts processed so far.
    pub(crate) fn rounds_entered(&self) -> u64 {
        self.rounds_entered
    }

    fn is_source(&self) -> bool {
        self.id == self.shared.source()
    }

    // ----- churn ----------------------------------------------------------

    /// [`crate::engine::Input::Join`]: stage the change for its effective
    /// round; the subject announces itself to the whole key roster so
    /// every view (members and waiting joiners alike) switches at the
    /// same boundary.
    pub(crate) fn handle_join(&mut self, node: NodeId, round: u64, ctx: &mut EngineCtx<'_>) {
        if node == self.id {
            self.announce(ctx, MessageBody::JoinAnnounce { round, node });
        }
        self.staged_churn.insert((round, ChurnStage::Join, node));
    }

    /// [`crate::engine::Input::Leave`]: like joins, but a source leave is
    /// refused immediately — the source anchors the session, so it never
    /// announces a departure.
    pub(crate) fn handle_leave(&mut self, node: NodeId, round: u64, ctx: &mut EngineCtx<'_>) {
        if node == self.id {
            if node == self.view.source() {
                ctx.metric(MetricEvent::ChurnRejected { node, round });
                return;
            }
            self.announce(ctx, MessageBody::LeaveAnnounce { round, node });
        }
        self.staged_churn.insert((round, ChurnStage::Leave, node));
    }

    /// [`crate::engine::Input::Recover`]: a crash-restarted node rejoins.
    ///
    /// For the restarting node itself, the crash lost every piece of
    /// in-flight exchange state — pending serves, half-open exchanges,
    /// minted keys, cached accumulators. The recovery path snapshots the
    /// surviving state ([`PagNode::snapshot`]), proves the persistence
    /// codec round-trips, drops the lost state so round `round` opens
    /// clean, and then re-announces through the ordinary join machinery:
    /// peers staged the node's departure when its downtime was announced
    /// (which retired all monitoring state, so downtime is never
    /// convicted), and this join re-admits it at the same boundary
    /// discipline as any newcomer. For other ids the input is a plain
    /// join — the restart reaches peers on the wire as a `JoinAnnounce`.
    pub(crate) fn handle_recover(&mut self, node: NodeId, round: u64, ctx: &mut EngineCtx<'_>) {
        if node == self.id {
            let snap = self.snapshot();
            let decoded = NodeSnapshot::decode(&snap.encode())
                .expect("snapshot codec round-trips");
            assert_eq!(decoded, snap, "snapshot survives persistence");
            self.recv_keys.clear();
            self.received_fresh.clear();
            self.processed_exchanges.clear();
            self.pending_serves.clear();
            self.buffermaps_sent.clear();
            self.acks_sent.clear();
            self.sa_cache.clear();
            self.exchanges.clear();
            self.metrics.recoveries += 1;
            ctx.metric(MetricEvent::Recovered { round });
        }
        self.handle_join(node, round, ctx);
    }

    /// Captures the node's recoverable state (identity, epoch, round
    /// progress, in-flight exchange keys, monitor assignments) — see
    /// [`crate::snapshot`] for what is and is not persisted.
    pub(crate) fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot {
            id: self.id,
            epoch: self.view.epoch(),
            rounds_entered: self.rounds_entered,
            open_sends: self.exchanges.keys().copied().collect(),
            open_receives: self.pending_serves.keys().copied().collect(),
            monitored: self.monitor.watched().to_vec(),
        }
    }

    /// Sends a membership announcement to every roster node but self.
    fn announce(&mut self, ctx: &mut EngineCtx<'_>, body: MessageBody) {
        let targets: Vec<NodeId> = self.shared.roster().filter(|&n| n != self.id).collect();
        for to in targets {
            self.send_body(ctx, to, body.clone());
        }
    }

    /// Applies every staged change due at `round`, in deterministic
    /// `(round, kind, node)` order, then refreshes the monitor watch list
    /// if the epoch moved.
    fn apply_staged_churn(&mut self, round: u64, ctx: &mut EngineCtx<'_>) {
        if self.staged_churn.iter().next().is_none_or(|&(r, _, _)| r > round) {
            return;
        }
        let due: Vec<(u64, ChurnStage, NodeId)> = self
            .staged_churn
            .iter()
            .copied()
            .take_while(|&(r, _, _)| r <= round)
            .collect();
        let mut changed = false;
        for entry in due {
            self.staged_churn.remove(&entry);
            let (effective, stage, node) = entry;
            match stage {
                ChurnStage::Join => changed |= self.view.join(node),
                ChurnStage::Leave => match self.view.leave(node) {
                    Ok(true) => {
                        changed = true;
                        self.retire_peer(node);
                    }
                    Ok(false) => {}
                    Err(LeaveError::SourceAnchor) => {
                        ctx.metric(MetricEvent::ChurnRejected {
                            node,
                            round: effective,
                        });
                    }
                },
            }
        }
        if changed {
            self.monitor.refresh_watch(&self.shared, &self.view, round);
        }
    }

    /// Drops every piece of per-peer state held about a departed node:
    /// open sender exchanges (so it is never accused), half-assembled
    /// serves, buffermaps and acks, plus all its monitoring state.
    fn retire_peer(&mut self, node: NodeId) {
        self.exchanges.retain(|&(_, succ), _| succ != node);
        self.pending_serves.retain(|&(_, from), _| from != node);
        self.buffermaps_sent.retain(|&(_, peer), _| peer != node);
        self.acks_sent.retain(|&(_, peer), _| peer != node);
        self.monitor.retire(node);
    }

    // ----- helpers -------------------------------------------------------

    /// Signs and dispatches a message (locally when addressed to self).
    fn send_body(&mut self, ctx: &mut EngineCtx<'_>, to: NodeId, body: MessageBody) {
        let class = body.traffic_class();
        let msg = self.shared.sign(self.id, body);
        self.metrics.ops.signatures += 1;
        if to == self.id {
            self.dispatch(self.id, msg, ctx);
        } else {
            let bytes = msg.wire_size(&self.shared.config.wire);
            ctx.send(to, msg, bytes, class);
        }
    }

    /// Dispatches an already-signed message.
    fn send_presigned(
        &mut self,
        ctx: &mut EngineCtx<'_>,
        to: NodeId,
        msg: SignedMessage,
    ) {
        let class = msg.body.traffic_class();
        if to == self.id {
            self.dispatch(self.id, msg, ctx);
        } else {
            let bytes = msg.wire_size(&self.shared.config.wire);
            ctx.send(to, msg, bytes, class);
        }
    }

    fn send_effects(
        &mut self,
        ctx: &mut EngineCtx<'_>,
        effects: Vec<(NodeId, MessageBody)>,
    ) {
        for (to, body) in effects {
            self.send_body(ctx, to, body);
        }
    }

    /// Product of `residue^count` terms, mod M, through the cached
    /// Montgomery context (no per-factor division).
    fn multiset_product<'a, I>(&self, items: I) -> BigUint
    where
        I: IntoIterator<Item = (&'a BigUint, u32)>,
    {
        self.shared.params.multiset_product(items)
    }

    /// Hashes a `[expiring, fresh, duplicate]` product triple under `exp`.
    fn hash_triple(&mut self, prods: &[BigUint; 3], exp: &BigUint) -> HashTriple {
        self.metrics.ops.hashes += 3;
        let p = &self.shared.params;
        HashTriple {
            expiring: p.hash_residue(&prods[0], exp),
            fresh: p.hash_residue(&prods[1], exp),
            duplicate: p.hash_residue(&prods[2], exp),
        }
    }

    /// `K(round, self)`, or 1 when the node minted no primes that round.
    fn k_of_round(&self, round: u64) -> (BigUint, u32) {
        match self.recv_keys.get(&round) {
            Some(keys) => (keys.k.clone(), keys.factor_count()),
            None => (BigUint::one(), 1),
        }
    }

    fn k_prev_for_serve(&self, round: u64) -> (BigUint, u32) {
        if round == 0 {
            (BigUint::one(), 1)
        } else {
            self.k_of_round(round - 1)
        }
    }

    /// True for the SA items a deviating node actually serves.
    fn strategy_keeps(&self, item: &SaItem) -> bool {
        match self.strategy {
            SelfishStrategy::PartialForward => item.id.0.is_multiple_of(2),
            _ => true,
        }
    }

    // ----- round driver --------------------------------------------------

    fn start_round(&mut self, round: u64, ctx: &mut EngineCtx<'_>) {
        self.apply_staged_churn(round, ctx);
        self.gc(round);
        let pin = match self.view_log.last() {
            Some((_, v))
                if v.fingerprint() == self.view.fingerprint()
                    && v.epoch() == self.view.epoch() =>
            {
                Arc::clone(v)
            }
            _ => Arc::new(self.view.clone()),
        };
        self.view_log.push((round, pin));

        if !self.view.contains(self.id) {
            // Waiting to join (tracking announcements) or departed: no
            // primes, no exchanges, no timers.
            return;
        }

        let topo = self.shared.topology_for(&self.view, round);

        // Receiver role: mint one prime per predecessor (§V-A message 2).
        let preds: Vec<NodeId> = topo.predecessors(self.id).to_vec();
        let mut entries = Vec::with_capacity(preds.len());
        for pred in preds {
            let prime = gen_prime(self.shared.config.crypto.prime_bits, ctx.rng());
            self.metrics.ops.primes += 1;
            entries.push((pred, prime));
        }
        self.recv_keys.insert(round, RoundKeys::new(entries));

        // Source role: inject this round's window of updates.
        let mut sa = self.build_sa(round);
        if self.is_source() {
            let injected = self.inject_updates(round, ctx);
            let fresh_prod = self
                .multiset_product(injected.iter().map(|item| (item.residue.value(), item.count)));
            sa.extend(injected);
            let (k_prev, _) = self.k_prev_for_serve(round);
            let one = self.shared.params.identity().value();
            let prods = [one.clone(), fresh_prod, one.clone()];
            let hashes = self.hash_triple(&prods, &k_prev);
            let monitors = self.view.monitors_of(self.id, round);
            for m in monitors {
                self.send_body(ctx, m, MessageBody::SourceDeclare { round, hashes: hashes.clone() });
            }
        }
        self.sa_cache.insert(round, sa);

        // Sender role: open one exchange per successor (message 1).
        if self.strategy.serves() {
            let successors: Vec<NodeId> = topo.successors(self.id).to_vec();
            for succ in successors {
                self.exchanges
                    .insert((round, succ), SenderExchange::default());
                self.send_body(ctx, succ, MessageBody::KeyRequest { round });
            }
        }

        let cfg = &self.shared.config;
        ctx.set_timer_ms(cfg.ack_check_ms, TIMER_ACK_CHECK | round);
        ctx.set_timer_ms(cfg.monitor_eval_ms, TIMER_EVAL | round);
        ctx.set_timer_ms(cfg.exhibit_resolve_ms, TIMER_EXHIBIT | round);
    }

    /// SA = everything received fresh in the previous round.
    fn build_sa(&self, round: u64) -> Vec<SaItem> {
        let mut sa = Vec::new();
        if round == 0 {
            return sa;
        }
        if let Some(counts) = self.received_fresh.get(&(round - 1)) {
            for (&id, &count) in counts {
                if let Some(u) = self.store.get(id) {
                    sa.push(SaItem {
                        id,
                        count,
                        created_round: u.created_round,
                        residue: u.residue.clone(),
                        payload: Arc::clone(&u.payload),
                    });
                }
            }
        }
        sa
    }

    fn inject_updates(&mut self, round: u64, ctx: &mut EngineCtx<'_>) -> Vec<SaItem> {
        let n = self.shared.config.updates_per_round();
        let session = self.shared.config.session_id;
        let params = &self.shared.params;
        let prime_bits = self.shared.config.crypto.prime_bits;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let id = UpdateId(self.next_seq);
            self.next_seq += 1;
            let payload: Arc<[u8]> = synthetic_payload(session, id).into();
            let residue = params.stored_residue(params.residue(&payload), prime_bits);
            self.store.insert(StoredUpdate {
                id,
                created_round: round,
                payload: Arc::clone(&payload),
                residue: residue.clone(),
                first_received_round: round,
            });
            self.creations.insert(id, round);
            if self.metrics.record_delivery(id, round) {
                ctx.metric(MetricEvent::Delivered { update: id, round });
            }
            items.push(SaItem {
                id,
                count: 1,
                created_round: round,
                residue,
                payload,
            });
        }
        items
    }

    fn gc(&mut self, round: u64) {
        let cfg = &self.shared.config;
        self.store.prune_expired(round, cfg.expiration_rounds, cfg.buffermap_window + 2);
        self.store.release_tables(round.saturating_sub(cfg.buffermap_window));
        let keep = round.saturating_sub(3);
        self.recv_keys.retain(|&r, _| r >= keep);
        self.received_fresh.retain(|&r, _| r >= keep);
        self.processed_exchanges.retain(|&(r, _)| r >= keep);
        self.pending_serves.retain(|&(r, _), _| r >= keep);
        self.buffermaps_sent.retain(|&(r, _), _| r >= keep);
        self.acks_sent.retain(|&(r, _), _| r >= keep);
        self.sa_cache.retain(|&r, _| r >= keep);
        self.exchanges.retain(|&(r, _), _| r >= keep);
        self.view_log.retain(|&(r, _)| r >= keep);
        self.monitor.gc(round);
    }

    /// The membership view pinned at `round`'s start. Falls back to the
    /// live view for rounds outside the log (never entered, or past the
    /// gc horizon) — which is exactly what the lockstep path always
    /// consulted. Returns an owned handle so callers can hold it across
    /// `&mut self` monitor calls.
    fn view_for(&self, round: u64) -> Arc<Membership> {
        self.view_log
            .iter()
            .rev()
            .find(|&&(r, _)| r == round)
            .map(|(_, v)| Arc::clone(v))
            .unwrap_or_else(|| Arc::new(self.view.clone()))
    }

    // ----- receiver side (B in Fig. 5) -----------------------------------

    fn handle_key_request(
        &mut self,
        from: NodeId,
        round: u64,
        ctx: &mut EngineCtx<'_>,
    ) {
        if !self.strategy.responds_keys() {
            return;
        }
        let Some(prime) = self
            .recv_keys
            .get(&round)
            .and_then(|k| k.prime_for(from))
            .cloned()
        else {
            return; // not a predecessor of mine this round
        };
        // Buffermap: hashes (under the fresh prime) of updates obtained in
        // the last `buffermap_window` rounds (§V-D).
        let mut ids = Vec::new();
        let mut hashes = Vec::new();
        if round > 0 {
            let from_round = round.saturating_sub(self.shared.config.buffermap_window);
            for u in self.store.received_in_window(from_round, round - 1) {
                ids.push(u.id);
                hashes.push(u.residue.hash(&self.shared.params, &prime).value().clone());
            }
            self.metrics.ops.hashes += ids.len() as u64;
        }
        self.buffermaps_sent.insert((round, from), ids);
        self.send_body(
            ctx,
            from,
            MessageBody::KeyResponse {
                round,
                prime,
                buffermap: hashes,
            },
        );
    }

    fn handle_serve_part(
        &mut self,
        from: NodeId,
        round: u64,
        part: PendingServePart,
        ctx: &mut EngineCtx<'_>,
    ) {
        let entry = self.pending_serves.entry((round, from)).or_default();
        match part {
            PendingServePart::Serve(k_prev, factors, fresh, refs) => {
                entry.serve = Some((k_prev, factors, fresh, refs));
            }
            PendingServePart::Attestation(h) => entry.attestation = Some(h),
        }
        let ready = entry.serve.is_some() && entry.attestation.is_some();
        if !ready {
            return;
        }
        let pending = self
            .pending_serves
            .remove(&(round, from))
            .expect("checked present");
        let (k_prev, _factors, fresh, refs) = pending.serve.expect("serve present");
        let attestation = pending.attestation.expect("attestation present");
        self.process_incoming_exchange(from, round, k_prev, fresh, refs, Some(attestation), None, ctx);
    }

    /// Core receiver logic: verify, account, acknowledge, report.
    ///
    /// `reask_reply_to` is set when this runs under a monitor's ReAsk.
    #[allow(clippy::too_many_arguments)]
    fn process_incoming_exchange(
        &mut self,
        from: NodeId,
        round: u64,
        k_prev: BigUint,
        fresh: Vec<ServedUpdate>,
        refs: Vec<ServedRef>,
        attestation: Option<HashTriple>,
        reask_reply_to: Option<NodeId>,
        ctx: &mut EngineCtx<'_>,
    ) {
        if self.processed_exchanges.contains(&(round, from)) {
            // Duplicate (Serve raced the accusation): re-acknowledge.
            if !self.strategy.acks() {
                return;
            }
            if let (Some(monitor), Some((ack, ack_sig))) =
                (reask_reply_to, self.acks_sent.get(&(round, from)).cloned())
            {
                self.send_body(
                    ctx,
                    monitor,
                    MessageBody::ReAskAck {
                        round,
                        accuser: from,
                        ack,
                        ack_sig,
                    },
                );
            }
            return;
        }
        let Some(my_prime) = self
            .recv_keys
            .get(&round)
            .and_then(|k| k.prime_for(from))
            .cloned()
        else {
            return;
        };

        let session = self.shared.config.session_id;
        let lifetime = self.shared.config.expiration_rounds;
        // Keep the shared context alive independently of `self` so the
        // Montgomery accumulators can borrow its params while `self` is
        // mutated below.
        let shared = Arc::clone(&self.shared);
        let mut prods = TripleProduct::new(&shared.params);

        // Fresh (payload-carrying) updates: check integrity (stands in for
        // the source signature of §III) and classify per declared flags.
        // Their residues are kept for the store below.
        let mut residues = Vec::with_capacity(fresh.len());
        for u in &fresh {
            if u.payload.as_ref() != synthetic_payload(session, u.id).as_slice() {
                return; // tampered payload: refuse the exchange
            }
            if u.count == 0 || u.created_round + lifetime <= round {
                return; // malformed serve
            }
            let residue = shared.params.residue(&u.payload);
            let slot = if u.expiring { 0 } else { 1 };
            prods.mul(slot, &residue, u.count);
            residues.push(residue);
        }
        // Referenced (already-owned) updates.
        let bm_ids = self.buffermaps_sent.get(&(round, from));
        for r in &refs {
            let Some(id) = bm_ids.and_then(|ids| ids.get(r.index as usize)) else {
                return; // reference to a buffermap I never sent
            };
            let Some(u) = self.store.get(*id) else {
                return;
            };
            prods.mul(2, u.residue.value(), r.count);
        }
        let prods = prods.finish();

        // Verify the sender's attestation against our own computation.
        let computed_att = self.hash_triple(&prods, &my_prime);
        if let Some(att) = &attestation {
            if att != &computed_att {
                return; // sender lied; withhold the ack, accusation decides
            }
        }

        // Build and record the acknowledgement.
        let ack = self.hash_triple(&prods, &k_prev);
        let ack_body = MessageBody::Ack {
            round,
            hashes: ack.clone(),
        };
        let ack_sig = self.shared.signer(self.id).sign(&ack_body.signable_bytes());
        self.metrics.ops.signatures += 1;
        self.acks_sent.insert((round, from), (ack.clone(), ack_sig.clone()));
        self.processed_exchanges.insert((round, from));
        self.metrics.exchanges_completed += 1;
        ctx.metric(MetricEvent::ExchangeCompleted { round });

        // Deliver payloads and record forwarding obligations.
        let prime_bits = shared.config.crypto.prime_bits;
        for (u, residue) in fresh.into_iter().zip(residues) {
            if self.metrics.record_delivery(u.id, round) {
                ctx.metric(MetricEvent::Delivered { update: u.id, round });
            }
            self.store.insert_parts(u.id, u.created_round, u.payload, round, || {
                shared.params.stored_residue(residue, prime_bits)
            });
            if !u.expiring {
                *self
                    .received_fresh
                    .entry(round)
                    .or_default()
                    .entry(u.id)
                    .or_insert(0) += u.count;
            }
        }

        if !self.strategy.acks() {
            return;
        }

        // Message 5 (or the ReAsk detour).
        match reask_reply_to {
            None => {
                let msg = SignedMessage {
                    body: ack_body,
                    sig: ack_sig.clone(),
                };
                self.send_presigned(ctx, from, msg);
            }
            Some(monitor) => {
                self.send_body(
                    ctx,
                    monitor,
                    MessageBody::ReAskAck {
                        round,
                        accuser: from,
                        ack: ack.clone(),
                        ack_sig: ack_sig.clone(),
                    },
                );
            }
        }

        // Messages 6 and 7 to the designated monitor.
        if self.strategy.reports_to_monitors() {
            let shared = Arc::clone(&self.shared);
            let d = designated_monitor(&shared, &self.view_for(round), self.id, round);
            let cofactor = self
                .recv_keys
                .get(&round)
                .map(|k| k.cofactor(from))
                .unwrap_or_else(BigUint::one);
            let cofactor_factors = self
                .recv_keys
                .get(&round)
                .map(|k| k.factor_count().saturating_sub(1).max(1))
                .unwrap_or(1);
            self.send_body(
                ctx,
                d,
                MessageBody::MonitorAck {
                    round,
                    sender: from,
                    ack: ack.clone(),
                    ack_sig: ack_sig.clone(),
                },
            );
            self.send_body(
                ctx,
                d,
                MessageBody::MonitorAttestation {
                    round,
                    sender: from,
                    attestation: computed_att,
                    cofactor,
                    cofactor_factors,
                },
            );
        }
    }

    // ----- sender side (A in Fig. 5) --------------------------------------

    fn handle_key_response(
        &mut self,
        from: NodeId,
        round: u64,
        prime: BigUint,
        buffermap: Vec<BigUint>,
        ctx: &mut EngineCtx<'_>,
    ) {
        let Some(ex) = self.exchanges.get(&(round, from)) else {
            return;
        };
        if ex.responded {
            return;
        }

        let bm_index: HashMap<&BigUint, u32> = buffermap
            .iter()
            .enumerate()
            .map(|(i, h)| (h, i as u32))
            .collect();

        let shared = Arc::clone(&self.shared);
        let mut prods = TripleProduct::new(&shared.params);
        let mut fresh = Vec::new();
        let mut refs = Vec::new();
        let lifetime = shared.config.expiration_rounds;
        let mut hash_ops = 0u64;

        // Walk the cached SA in place: items are Arc-shared, so serving
        // clones refcounts, not payload bytes.
        for item in self.sa_cache.get(&round).map_or(&[][..], Vec::as_slice) {
            if !self.strategy_keeps(item) {
                continue;
            }
            let h = item.residue.hash(&shared.params, &prime);
            hash_ops += 1;
            if let Some(&idx) = bm_index.get(h.value()) {
                refs.push(ServedRef {
                    index: idx,
                    count: item.count,
                });
                prods.mul(2, item.residue.value(), item.count);
            } else {
                let expiring = round + 1 >= item.created_round + lifetime;
                fresh.push(ServedUpdate {
                    id: item.id,
                    created_round: item.created_round,
                    payload: Arc::clone(&item.payload),
                    count: item.count,
                    expiring,
                });
                let slot = if expiring { 0 } else { 1 };
                prods.mul(slot, item.residue.value(), item.count);
            }
        }
        let prods = prods.finish();

        self.metrics.ops.hashes += hash_ops;
        let attestation = self.hash_triple(&prods, &prime);
        let (k_prev, k_prev_factors) = self.k_prev_for_serve(round);
        let expected_ack = self.hash_triple(&prods, &k_prev);

        let ex = self.exchanges.get_mut(&(round, from)).expect("exists");
        ex.responded = true;
        ex.served = Some(ServedSnapshot {
            fresh: fresh.clone(),
            refs: refs.clone(),
            k_prev: k_prev.clone(),
            k_prev_factors,
        });
        ex.expected_ack = Some(expected_ack);

        self.send_body(
            ctx,
            from,
            MessageBody::Serve {
                round,
                k_prev,
                k_prev_factors,
                fresh,
                refs,
            },
        );
        self.send_body(
            ctx,
            from,
            MessageBody::Attestation {
                round,
                hashes: attestation,
            },
        );
    }

    fn handle_ack(&mut self, from: NodeId, round: u64, hashes: HashTriple, sig: Signature) {
        let Some(ex) = self.exchanges.get_mut(&(round, from)) else {
            return;
        };
        if ex.acked.is_some() {
            return;
        }
        if ex.expected_ack.as_ref() == Some(&hashes) {
            ex.acked = Some((hashes, sig));
        }
        // A wrong ack is treated as missing: the accusation path decides.
    }

    // ----- timers ---------------------------------------------------------

    fn ack_check(&mut self, round: u64, ctx: &mut EngineCtx<'_>) {
        // Self-report (§V-B cross-check): hash of this round's fresh
        // receptions under K(round, self).
        if self.strategy.reports_to_monitors() {
            let prod = self.multiset_product(
                self.received_fresh
                    .get(&round)
                    .into_iter()
                    .flatten()
                    .filter_map(|(&id, &c)| self.store.get(id).map(|u| (u.residue.value(), c))),
            );
            let (k, _) = self.k_of_round(round);
            self.metrics.ops.hashes += 1;
            let value = self.shared.params.hash_residue(&prod, &k);
            let triple = HashTriple {
                fresh: value,
                ..HashTriple::identity(&self.shared.params)
            };
            let monitors = self.view_for(round).monitors_of(self.id, round);
            for m in monitors {
                self.send_body(
                    ctx,
                    m,
                    MessageBody::SelfAccum {
                        round,
                        value: triple.clone(),
                    },
                );
            }
        }

        // Accuse unresponsive successors (Fig. 3).
        let pending: Vec<NodeId> = self
            .exchanges
            .iter()
            .filter(|(&(r, _), ex)| r == round && ex.acked.is_none() && !ex.accused)
            .map(|(&(_, succ), _)| succ)
            .collect();
        for succ in pending {
            // Served snapshots and SA items are Arc-shared, so assembling
            // the accusation payload clones refcounts, not update bytes.
            let (k_prev, k_prev_factors, fresh, refs) = match self
                .exchanges
                .get(&(round, succ))
                .and_then(|ex| ex.served.as_ref())
            {
                Some(snap) => (
                    snap.k_prev.clone(),
                    snap.k_prev_factors,
                    snap.fresh.clone(),
                    snap.refs.clone(),
                ),
                None => {
                    // Never served (no KeyResponse): ship the full SA.
                    let (k_prev, k_prev_factors) = self.k_prev_for_serve(round);
                    let lifetime = self.shared.config.expiration_rounds;
                    let fresh = self
                        .sa_cache
                        .get(&round)
                        .map(|sa| {
                            sa.iter()
                                .filter(|item| self.strategy_keeps(item))
                                .map(|item| ServedUpdate {
                                    id: item.id,
                                    created_round: item.created_round,
                                    payload: Arc::clone(&item.payload),
                                    count: item.count,
                                    expiring: round + 1 >= item.created_round + lifetime,
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    (k_prev, k_prev_factors, fresh, Vec::new())
                }
            };
            if let Some(ex) = self.exchanges.get_mut(&(round, succ)) {
                ex.accused = true;
            }
            self.metrics.accusations_sent += 1;
            let monitors = self.view_for(round).monitors_of(succ, round);
            for m in monitors {
                self.send_body(
                    ctx,
                    m,
                    MessageBody::Accuse {
                        round,
                        accused: succ,
                        k_prev: k_prev.clone(),
                        k_prev_factors,
                        fresh: fresh.clone(),
                        refs: refs.clone(),
                    },
                );
            }
        }
    }

    // ----- message dispatch -----------------------------------------------

    fn dispatch(&mut self, from: NodeId, msg: SignedMessage, ctx: &mut EngineCtx<'_>) {
        // A node outside the membership (waiting to join, or departed)
        // only tracks membership announcements; everything else is
        // protocol traffic it must not act on.
        if !self.view.contains(self.id)
            && !matches!(
                msg.body,
                MessageBody::JoinAnnounce { .. } | MessageBody::LeaveAnnounce { .. }
            )
        {
            return;
        }
        let monitors_others = self.strategy.monitors_others();
        match msg.body {
            MessageBody::KeyRequest { round } => self.handle_key_request(from, round, ctx),
            MessageBody::KeyResponse {
                round,
                prime,
                buffermap,
            } => self.handle_key_response(from, round, prime, buffermap, ctx),
            MessageBody::Serve {
                round,
                k_prev,
                k_prev_factors,
                fresh,
                refs,
            } => self.handle_serve_part(
                from,
                round,
                PendingServePart::Serve(k_prev, k_prev_factors, fresh, refs),
                ctx,
            ),
            MessageBody::Attestation { round, hashes } => {
                self.handle_serve_part(from, round, PendingServePart::Attestation(hashes), ctx)
            }
            MessageBody::Ack { round, hashes } => self.handle_ack(from, round, hashes, msg.sig),
            MessageBody::SourceDeclare { round, hashes } => {
                if monitors_others {
                    self.monitor
                        .on_source_declare(&self.shared, from, round, &hashes);
                }
            }
            MessageBody::MonitorAck {
                round,
                sender,
                ack,
                ack_sig,
            } => {
                if monitors_others && self.monitor.watched().contains(&from) {
                    let shared = Arc::clone(&self.shared);
                    let view = self.view_for(round);
                    let effects = self.monitor.on_monitor_ack(
                        &shared,
                        &view,
                        &mut self.metrics.ops,
                        from,
                        round,
                        sender,
                        ack,
                        ack_sig,
                    );
                    self.send_effects(ctx, effects);
                }
            }
            MessageBody::MonitorAttestation {
                round,
                sender,
                attestation,
                cofactor,
                ..
            } => {
                if monitors_others && self.monitor.watched().contains(&from) {
                    let shared = Arc::clone(&self.shared);
                    let view = self.view_for(round);
                    let effects = self.monitor.on_monitor_attestation(
                        &shared,
                        &view,
                        &mut self.metrics.ops,
                        from,
                        round,
                        sender,
                        attestation,
                        cofactor,
                    );
                    self.send_effects(ctx, effects);
                }
            }
            MessageBody::MonitorBroadcast {
                round,
                watched,
                sender,
                combined,
                ack,
                ack_sig,
            } => {
                if monitors_others {
                    let shared = Arc::clone(&self.shared);
                    let view = self.view_for(round);
                    self.monitor
                        .on_monitor_broadcast(&shared, &view, from, round, watched, sender, combined);
                    // The broadcast carries the ack as well; record it if
                    // we also monitor the exchange's sender.
                    if view.contains(sender)
                        && view
                            .monitors_of(sender, round)
                            .contains(&self.id)
                        && self.verify_ack_evidence(watched, round, &ack, &ack_sig)
                    {
                        self.monitor.record_ack(sender, round, watched, ack, ack_sig);
                    }
                }
            }
            MessageBody::AckForward {
                round,
                sender,
                receiver,
                ack,
                ack_sig,
            } => {
                if monitors_others && self.verify_ack_evidence(receiver, round, &ack, &ack_sig) {
                    self.monitor.record_ack(sender, round, receiver, ack, ack_sig);
                }
            }
            MessageBody::Accuse {
                round, accused, ..
            } => {
                if monitors_others && self.monitor.watched().contains(&accused) {
                    let effects = self.monitor.on_accuse(round, from, accused, msg.body);
                    self.send_effects(ctx, effects);
                }
            }
            MessageBody::ReAsk {
                round,
                accuser,
                k_prev,
                fresh,
                refs,
                ..
            } => {
                // `from` is a monitor replaying a serve on behalf of
                // `accuser`.
                if self
                    .view_for(round)
                    .monitors_of(self.id, round)
                    .contains(&from)
                {
                    self.process_incoming_exchange(
                        accuser,
                        round,
                        k_prev,
                        fresh,
                        refs,
                        None,
                        Some(from),
                        ctx,
                    );
                }
            }
            MessageBody::ReAskAck {
                round,
                accuser,
                ack,
                ack_sig,
            } => {
                if monitors_others && self.verify_ack_evidence(from, round, &ack, &ack_sig) {
                    let view = self.view_for(round);
                    let effects = self
                        .monitor
                        .on_reask_ack(&view, from, round, accuser, ack, ack_sig);
                    self.send_effects(ctx, effects);
                }
            }
            MessageBody::Confirm {
                round,
                accuser,
                accused,
                ack,
                ack_sig,
            } => {
                if monitors_others && self.verify_ack_evidence(accused, round, &ack, &ack_sig) {
                    self.monitor.on_confirm(round, accuser, accused, ack, ack_sig);
                }
            }
            MessageBody::Nack {
                round,
                accuser,
                accused,
            } => {
                if monitors_others {
                    self.monitor.on_nack(round, accuser, accused);
                }
            }
            MessageBody::ExhibitRequest { round, successor } => {
                let ack = self
                    .exchanges
                    .get(&(round, successor))
                    .and_then(|ex| ex.acked.clone());
                self.send_body(
                    ctx,
                    from,
                    MessageBody::ExhibitResponse {
                        round,
                        successor,
                        ack,
                    },
                );
            }
            MessageBody::ExhibitResponse {
                round,
                successor,
                ack,
            } => {
                if monitors_others {
                    let shared = Arc::clone(&self.shared);
                    let view = self.view_for(round);
                    let effects = self
                        .monitor
                        .on_exhibit_response(&shared, &view, from, round, successor, ack);
                    self.send_effects(ctx, effects);
                }
            }
            MessageBody::ExhibitNotice {
                round,
                sender,
                receiver,
                ..
            } => {
                if monitors_others {
                    let shared = Arc::clone(&self.shared);
                    let view = self.view_for(round);
                    self.monitor
                        .on_exhibit_notice(&shared, &view, round, sender, receiver);
                }
            }
            MessageBody::SelfAccum { round, value } => {
                if monitors_others && self.monitor.watched().contains(&from) {
                    self.monitor.on_self_accum(from, round, value.fresh);
                }
            }
            MessageBody::JoinAnnounce { round, node } => {
                // Only the subject may announce itself.
                if from == node {
                    self.staged_churn.insert((round, ChurnStage::Join, node));
                }
            }
            MessageBody::LeaveAnnounce { round, node } => {
                if from == node {
                    self.staged_churn.insert((round, ChurnStage::Leave, node));
                }
            }
            MessageBody::HandshakeHello { .. }
            | MessageBody::HandshakeProof { .. }
            | MessageBody::HandshakeAccept { .. }
            | MessageBody::HandshakeReject { .. } => {
                // Handshake frames are connection setup, consumed by the
                // transport before a connection is trusted (DESIGN.md
                // §13). One reaching protocol dispatch means a peer sent
                // it mid-session — a protocol violation ignored like any
                // other out-of-context message.
            }
        }
    }

    fn verify_ack_evidence(
        &mut self,
        signer: NodeId,
        round: u64,
        ack: &HashTriple,
        ack_sig: &Signature,
    ) -> bool {
        let body = MessageBody::Ack {
            round,
            hashes: ack.clone(),
        };
        if self.shared.config.verify_signatures {
            self.metrics.ops.verifications += 1;
        }
        self.shared
            .verify_evidence(signer, &body.signable_bytes(), ack_sig)
    }
}

enum PendingServePart {
    Serve(BigUint, u32, Vec<ServedUpdate>, Vec<ServedRef>),
    Attestation(HashTriple),
}

// The engine-facing entry points ([`crate::engine::PagEngine`] is the
// public surface; these stay crate-private so the sans-IO contract —
// inputs in, effects out — cannot be bypassed).
impl PagNode {
    /// [`crate::engine::Input::RoundStart`].
    pub(crate) fn handle_round(&mut self, round: u64, ctx: &mut EngineCtx<'_>) {
        self.rounds_entered += 1;
        self.start_round(round, ctx);
    }

    /// [`crate::engine::Input::Deliver`]: verify, then dispatch.
    pub(crate) fn handle_delivery(
        &mut self,
        from: NodeId,
        msg: SignedMessage,
        ctx: &mut EngineCtx<'_>,
    ) {
        if self.shared.config.verify_signatures {
            self.metrics.ops.verifications += 1;
            if !self.shared.verify(from, &msg) {
                return;
            }
        }
        self.dispatch(from, msg, ctx);
    }

    /// [`crate::engine::Input::TimerFired`].
    pub(crate) fn handle_timer(&mut self, tag: u64, ctx: &mut EngineCtx<'_>) {
        let round = tag & TIMER_ROUND_MASK;
        match tag & !TIMER_ROUND_MASK {
            TIMER_ACK_CHECK => self.ack_check(round, ctx),
            TIMER_EVAL
                if self.strategy.monitors_others() => {
                    let shared = Arc::clone(&self.shared);
                    let view = self.view_for(round);
                    let effects = self.monitor.eval_round(&shared, &view, round);
                    self.send_effects(ctx, effects);
                }
            TIMER_EXHIBIT
                if self.strategy.monitors_others() => {
                    self.monitor.resolve_exhibits(round);
                }
            _ => {}
        }
    }
}

// Canonical state projection (DESIGN.md §15). Every *semantic* field is
// written; derived caches (`RoundKeys::k`/`cofactors`, `SaItem` payload
// and residue, which follow from the update id) are skipped — see
// `crate::model` for the exclusion rationale.
impl PagNode {
    pub(crate) fn project(&self, p: &mut StateProj) {
        p.tag("node");
        p.u64(self.id.value() as u64);
        p.u32(self.strategy as u32);
        p.tag("view");
        p.u64(self.view.epoch());
        p.u64(self.view.fingerprint());
        p.u64(self.view.len() as u64);
        p.tag("staged");
        p.count(self.staged_churn.len());
        for &(round, stage, node) in &self.staged_churn {
            p.u64(round);
            p.u32(stage as u32);
            p.u64(node.value() as u64);
        }
        p.tag("store");
        p.count(self.store.len());
        for u in self.store.iter() {
            p.u64(u.id.0);
            p.u64(u.created_round);
            p.u64(u.first_received_round);
        }
        p.tag("recv_keys");
        p.count(self.recv_keys.len());
        for (&round, keys) in &self.recv_keys {
            p.u64(round);
            p.count(keys.entries.len());
            for (pred, prime) in &keys.entries {
                p.u64(pred.value() as u64);
                p.bytes(&prime.to_bytes_be());
            }
        }
        p.tag("received_fresh");
        p.count(self.received_fresh.len());
        for (&round, per_update) in &self.received_fresh {
            p.u64(round);
            p.count(per_update.len());
            for (&id, &count) in per_update {
                p.u64(id.0);
                p.u32(count);
            }
        }
        p.tag("processed");
        p.count(self.processed_exchanges.len());
        for &(round, peer) in &self.processed_exchanges {
            p.u64(round);
            p.u64(peer.value() as u64);
        }
        p.tag("pending_serves");
        p.count(self.pending_serves.len());
        for (&(round, from), ps) in &self.pending_serves {
            p.u64(round);
            p.u64(from.value() as u64);
            p.bool(ps.serve.is_some());
            if let Some((k_prev, factors, fresh, refs)) = &ps.serve {
                p.bytes(&k_prev.to_bytes_be());
                p.u32(*factors);
                p.count(fresh.len());
                for su in fresh {
                    project_served_update(p, su);
                }
                p.count(refs.len());
                for r in refs {
                    p.u32(r.index);
                    p.u32(r.count);
                }
            }
            p.bool(ps.attestation.is_some());
            if let Some(t) = &ps.attestation {
                project_triple(p, t);
            }
        }
        p.tag("buffermaps_sent");
        p.count(self.buffermaps_sent.len());
        for (&(round, peer), ids) in &self.buffermaps_sent {
            p.u64(round);
            p.u64(peer.value() as u64);
            p.count(ids.len());
            for id in ids {
                p.u64(id.0);
            }
        }
        p.tag("acks_sent");
        p.count(self.acks_sent.len());
        for (&(round, peer), (triple, sig)) in &self.acks_sent {
            p.u64(round);
            p.u64(peer.value() as u64);
            project_triple(p, triple);
            p.bytes(sig.as_bytes());
        }
        p.tag("sa_cache");
        p.count(self.sa_cache.len());
        for (&round, items) in &self.sa_cache {
            p.u64(round);
            p.count(items.len());
            for item in items {
                p.u64(item.id.0);
                p.u32(item.count);
                p.u64(item.created_round);
            }
        }
        p.tag("exchanges");
        p.count(self.exchanges.len());
        for (&(round, succ), ex) in &self.exchanges {
            p.u64(round);
            p.u64(succ.value() as u64);
            p.bool(ex.responded);
            p.bool(ex.accused);
            p.bool(ex.served.is_some());
            if let Some(s) = &ex.served {
                p.bytes(&s.k_prev.to_bytes_be());
                p.u32(s.k_prev_factors);
                p.count(s.fresh.len());
                for su in &s.fresh {
                    project_served_update(p, su);
                }
                p.count(s.refs.len());
                for r in &s.refs {
                    p.u32(r.index);
                    p.u32(r.count);
                }
            }
            p.bool(ex.expected_ack.is_some());
            if let Some(t) = &ex.expected_ack {
                project_triple(p, t);
            }
            p.bool(ex.acked.is_some());
            if let Some((t, sig)) = &ex.acked {
                project_triple(p, t);
                p.bytes(sig.as_bytes());
            }
        }
        self.monitor.project(p);
        p.tag("metrics");
        let m = &self.metrics;
        p.u64(m.ops.hashes);
        p.u64(m.ops.signatures);
        p.u64(m.ops.verifications);
        p.u64(m.ops.primes);
        p.count(m.delivered.len());
        for (&id, &round) in &m.delivered {
            p.u64(id.0);
            p.u64(round);
        }
        for v in [
            m.duplicate_payloads,
            m.accusations_sent,
            m.exchanges_completed,
            m.frames_rejected,
            m.connections_dropped,
            m.links_severed,
            m.links_reconnected,
            m.recoveries,
            m.handshakes_rejected,
        ] {
            p.u64(v);
        }
        p.tag("progress");
        p.u64(self.rounds_entered);
        p.u64(self.next_seq);
        p.count(self.creations.len());
        for (&id, &round) in &self.creations {
            p.u64(id.0);
            p.u64(round);
        }
    }
}

/// Projects one [`HashTriple`] (three homomorphic hash values).
fn project_triple(p: &mut StateProj, t: &HashTriple) {
    p.bytes(&t.expiring.value().to_bytes_be());
    p.bytes(&t.fresh.value().to_bytes_be());
    p.bytes(&t.duplicate.value().to_bytes_be());
}

/// Projects one [`ServedUpdate`]; the payload is derived from the id
/// (synthetic, deterministic) and skipped.
fn project_served_update(p: &mut StateProj, su: &ServedUpdate) {
    p.u64(su.id.0);
    p.u64(su.created_round);
    p.u32(su.count);
    p.bool(su.expiring);
}
