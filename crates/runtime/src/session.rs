//! One-call harness: build a full PAG session, pick a driver, run it,
//! and collect protocol-level outcomes next to the traffic report.
//!
//! The protocol itself is the sans-IO `pag_core::engine::PagEngine`;
//! this module only assembles engines, hands them to a [`Driver`] — the
//! deterministic simulator or the threaded real-time runtime — and
//! harvests verdicts, metrics and traffic afterwards.
//!
//! ```
//! use pag_runtime::{run_session, SessionConfig};
//!
//! let mut sc = SessionConfig::honest(10, 5);
//! sc.pag.stream_rate_kbps = 30.0; // keep the doctest fast
//! let outcome = run_session(sc);
//! assert!(outcome.verdicts.is_empty(), "honest nodes are never convicted");
//! ```
//!
//! The builder selects a driver explicitly:
//!
//! ```
//! use pag_runtime::{Driver, Session, ThreadedConfig};
//!
//! let outcome = Session::builder(8, 3)
//!     .stream_rate_kbps(16.0)
//!     .driver(Driver::Threaded(ThreadedConfig::default()))
//!     .run();
//! assert!(outcome.verdicts.is_empty());
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use pag_core::engine::PagEngine;
use pag_core::metrics::{NodeMetrics, OpCounters};
use pag_core::selfish::SelfishStrategy;
use pag_core::shared::SharedContext;
use pag_core::update::UpdateId;
use pag_core::verdict::Verdict;
use pag_core::PagConfig;
use pag_membership::{Membership, NodeId};
use pag_obs::{SessionRecorder, TraceConfig, TraceSummary};
use pag_simnet::{SimConfig, Simulation};

use crate::adapter::SimnetPag;
use crate::churn::{ChurnEvent, ChurnKind, ChurnSchedule};
use crate::faults::{FaultEvent, FaultSchedule};
use crate::report::TrafficReport;
use crate::tcp::{run_tcp, TcpConfig, TcpSetupError};
use crate::threaded::{run_threaded, ThreadedConfig, ThreadedSetupError};
use crate::worker::merged_feeds;

/// The execution substrate a session runs on.
#[derive(Clone, Debug)]
pub enum Driver {
    /// The deterministic discrete-event simulator (latency, loss,
    /// per-class accounting).
    Simnet(SimConfig),
    /// The multi-threaded in-process runtime (channel links shipping
    /// encoded frames, lockstep or wall-clock timers, nodes on the
    /// worker pool sized by `ThreadedConfig::scheduler`).
    Threaded(ThreadedConfig),
    /// The TCP transport: real loopback sockets carrying
    /// length-prefixed codec frames, same lockstep or wall-clock timer
    /// machinery and worker pool (see `crate::tcp`).
    Tcp(TcpConfig),
}

impl Default for Driver {
    fn default() -> Self {
        Driver::Simnet(SimConfig::default())
    }
}

impl Driver {
    /// The session seed the engines derive their randomness from.
    fn seed(&self) -> u64 {
        match self {
            Driver::Simnet(sim) => sim.seed,
            Driver::Threaded(tc) => tc.seed,
            Driver::Tcp(tc) => tc.seed,
        }
    }
}

/// Session-level run description.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Number of nodes (node 0 is the source).
    pub nodes: usize,
    /// Rounds to run.
    pub rounds: u64,
    /// Protocol configuration.
    pub pag: PagConfig,
    /// Execution driver.
    pub driver: Driver,
    /// Nodes deviating from the protocol.
    pub selfish: Vec<(NodeId, SelfishStrategy)>,
    /// Fail-stop crashes: (node, round).
    pub crashes: Vec<(NodeId, u64)>,
    /// Scheduled membership changes (see [`crate::churn`]). Joiner ids
    /// must not collide with `0..nodes`; every event needs `round >= 1`.
    pub churn: Vec<ChurnEvent>,
    /// Scheduled faults (see [`crate::faults`]): link severs, transient
    /// partitions, corruption windows and crash-restarts, applied
    /// identically by every driver. Crash-restarts must not target the
    /// session source (it anchors the membership and cannot leave).
    pub faults: Vec<FaultEvent>,
    /// Flight-recorder configuration (DESIGN.md §14). Defaults to off;
    /// when enabled, the session creates a [`SessionRecorder`], every
    /// node core records into its own bounded ring, and the outcome
    /// carries a [`TraceSummary`]. Tracing observes and never feeds
    /// back, so a traced run is bit-identical to an untraced one — the
    /// driver-equivalence suite pins this.
    pub trace: TraceConfig,
}

impl SessionConfig {
    /// An honest session with default parameters on the simulator.
    pub fn honest(nodes: usize, rounds: u64) -> Self {
        SessionConfig {
            nodes,
            rounds,
            pag: PagConfig::default(),
            driver: Driver::default(),
            selfish: Vec::new(),
            crashes: Vec::new(),
            churn: Vec::new(),
            faults: Vec::new(),
            trace: TraceConfig::off(),
        }
    }
}

/// A configured session, ready to run.
#[derive(Clone, Debug)]
pub struct Session {
    config: SessionConfig,
}

impl Session {
    /// Starts a builder for `nodes` nodes over `rounds` rounds.
    pub fn builder(nodes: usize, rounds: u64) -> SessionBuilder {
        SessionBuilder {
            config: SessionConfig::honest(nodes, rounds),
        }
    }

    /// The configuration this session will run.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs the session on its configured driver.
    pub fn run(self) -> SessionOutcome {
        run_session(self.config)
    }
}

/// Fluent construction of a [`Session`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    config: SessionConfig,
}

impl SessionBuilder {
    /// Selects the execution driver.
    pub fn driver(mut self, driver: Driver) -> Self {
        self.config.driver = driver;
        self
    }

    /// Replaces the protocol configuration wholesale.
    pub fn pag(mut self, pag: PagConfig) -> Self {
        self.config.pag = pag;
        self
    }

    /// Sets the source stream rate.
    pub fn stream_rate_kbps(mut self, kbps: f64) -> Self {
        self.config.pag.stream_rate_kbps = kbps;
        self
    }

    /// Marks `node` as playing `strategy`.
    pub fn selfish(mut self, node: NodeId, strategy: SelfishStrategy) -> Self {
        self.config.selfish.push((node, strategy));
        self
    }

    /// Crashes `node` at the start of `round`.
    pub fn crash(mut self, node: NodeId, round: u64) -> Self {
        self.config.crashes.push((node, round));
        self
    }

    /// Applies a churn schedule (joins/leaves mid-session).
    pub fn churn(mut self, schedule: ChurnSchedule) -> Self {
        self.config.churn.extend(schedule.events().iter().copied());
        self
    }

    /// Applies a fault schedule (link severs, partitions, corruption
    /// bursts, crash-restarts mid-session).
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.config.faults.extend(schedule.events().iter().cloned());
        self
    }

    /// Configures the flight recorder (off by default).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> Session {
        Session {
            config: self.config,
        }
    }

    /// Builds and runs in one step.
    pub fn run(self) -> SessionOutcome {
        self.build().run()
    }
}

/// Outcome of a session run.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Per-node traffic statistics (driver-neutral).
    pub report: TrafficReport,
    /// All verdicts emitted by all monitors.
    pub verdicts: Vec<Verdict>,
    /// Per-node protocol metrics.
    pub metrics: BTreeMap<NodeId, NodeMetrics>,
    /// Creation round of every update the source injected.
    pub creations: BTreeMap<UpdateId, u64>,
    /// Rounds run.
    pub rounds: u64,
    /// Flight-recorder harvest: `Some` iff the session ran with
    /// tracing enabled (events, drop counts, latency histograms).
    pub trace: Option<TraceSummary>,
}

impl SessionOutcome {
    /// Every node's metrics merged into one (see
    /// [`NodeMetrics::merge`] for the delivery-map semantics).
    pub fn total_metrics(&self) -> NodeMetrics {
        NodeMetrics::rollup(self.metrics.values())
    }

    /// Aggregated crypto operation counters across all nodes.
    pub fn total_ops(&self) -> OpCounters {
        self.total_metrics().ops
    }

    /// Mean homomorphic hashes per node per second (Table I's metric).
    pub fn hashes_per_node_per_second(&self) -> f64 {
        if self.metrics.is_empty() || self.rounds == 0 {
            return 0.0;
        }
        self.total_ops().hashes as f64 / self.metrics.len() as f64 / self.rounds as f64
    }

    /// Mean signatures per node per second (Table I's metric).
    pub fn signatures_per_node_per_second(&self) -> f64 {
        if self.metrics.is_empty() || self.rounds == 0 {
            return 0.0;
        }
        self.total_ops().signatures as f64 / self.metrics.len() as f64 / self.rounds as f64
    }

    /// Distinct accused nodes across all verdicts.
    pub fn convicted(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.verdicts.iter().map(|v| v.accused).collect();
        out.sort();
        out.dedup();
        out
    }

    /// Fraction of evaluable updates delivered on time at `node`.
    ///
    /// Only updates old enough to have fully propagated (created at least
    /// `deadline` rounds before the end) are evaluated.
    pub fn on_time_ratio(&self, node: NodeId, deadline: u64) -> f64 {
        let Some(m) = self.metrics.get(&node) else {
            return 0.0;
        };
        let evaluable: BTreeMap<UpdateId, u64> = self
            .creations
            .iter()
            .filter(|(_, &created)| created + deadline < self.rounds)
            .map(|(&id, &r)| (id, r))
            .collect();
        m.on_time_fraction(&evaluable, deadline)
    }

    /// Mean on-time delivery ratio over all non-source nodes.
    pub fn mean_on_time_ratio(&self, deadline: u64) -> f64 {
        let nodes: Vec<NodeId> = self
            .metrics
            .keys()
            .copied()
            .filter(|&n| n != NodeId(0))
            .collect();
        if nodes.is_empty() {
            return 0.0;
        }
        nodes
            .iter()
            .map(|&n| self.on_time_ratio(n, deadline))
            .sum::<f64>()
            / nodes.len() as f64
    }
}

/// Builds one engine per roster node (members and future joiners — a
/// joiner's engine idles, tracking announcements, until its join round).
fn build_engines(sc: &SessionConfig, shared: &Arc<SharedContext>) -> Vec<PagEngine> {
    let seed = sc.driver.seed();
    shared
        .roster()
        .map(|id| {
            let strategy = sc
                .selfish
                .iter()
                .find(|(n, _)| *n == id)
                .map(|(_, s)| *s)
                .unwrap_or(SelfishStrategy::Honest);
            PagEngine::new(id, Arc::clone(shared), strategy, seed)
        })
        .collect()
}


/// Harvests verdicts, metrics and creations from final engine states.
fn collect_outcome(
    engines: impl IntoIterator<Item = (NodeId, PagEngine)>,
    report: TrafficReport,
    rounds: u64,
) -> SessionOutcome {
    let mut verdicts = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut creations = BTreeMap::new();
    for (id, engine) in engines {
        verdicts.extend(engine.verdicts().iter().cloned());
        metrics.insert(id, engine.metrics().clone());
        creations.extend(engine.creations().clone());
    }
    SessionOutcome {
        report,
        verdicts,
        metrics,
        creations,
        rounds,
        trace: None,
    }
}

/// Resolves the recorder a driver run should use: an existing hook
/// recorder wins (the host installed one); otherwise the session's own
/// `TraceConfig` decides. Returns the recorder to harvest from, if any.
fn resolve_recorder(
    hook: &mut Option<Arc<SessionRecorder>>,
    trace: &TraceConfig,
) -> Option<Arc<SessionRecorder>> {
    if let Some(rec) = hook {
        return Some(Arc::clone(rec));
    }
    if trace.enabled {
        let rec = SessionRecorder::new(trace.clone());
        *hook = Some(Arc::clone(&rec));
        return Some(rec);
    }
    None
}

/// Harvests the trace summary (flushing the JSONL sink when one is
/// configured). A sink write failure is logged and degrades to the
/// in-memory summary — observability can never fail a finished run.
fn harvest_trace(recorder: Option<Arc<SessionRecorder>>) -> Option<TraceSummary> {
    let recorder = recorder?;
    match recorder.finish() {
        Ok(summary) => Some(summary),
        Err(e) => {
            pag_obs::logger::error("trace.jsonl", format_args!("writing trace sink failed: {e}"));
            Some(recorder.summary())
        }
    }
}

/// Why a session could not run.
///
/// Only environment failures surface here — misconfiguration (bad churn
/// or fault rounds) is a caller bug and still panics. The sources are
/// TCP transport establishment (mesh pairing and the authenticated
/// handshake; DESIGN.md §12–13) and thread spawning in the in-process
/// drivers.
#[derive(Debug)]
pub enum SessionError {
    /// The TCP mesh could not be established (or authenticated).
    TcpSetup(TcpSetupError),
    /// The threaded driver could not spawn its threads.
    ThreadedSetup(ThreadedSetupError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::TcpSetup(e) => write!(f, "tcp transport setup failed: {e}"),
            SessionError::ThreadedSetup(e) => write!(f, "threaded driver setup failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::TcpSetup(e) => Some(e),
            SessionError::ThreadedSetup(e) => Some(e),
        }
    }
}

impl From<TcpSetupError> for SessionError {
    fn from(e: TcpSetupError) -> Self {
        SessionError::TcpSetup(e)
    }
}

impl From<ThreadedSetupError> for SessionError {
    fn from(e: ThreadedSetupError) -> Self {
        SessionError::ThreadedSetup(e)
    }
}

/// Builds and runs a complete session on its configured driver.
///
/// Panics if the environment refuses to cooperate (e.g. the TCP driver
/// cannot bind loopback sockets); use [`try_run_session`] to handle
/// that as a typed error instead.
pub fn run_session(sc: SessionConfig) -> SessionOutcome {
    try_run_session(sc).unwrap_or_else(|e| panic!("session failed to start: {e}"))
}

/// Builds and runs a complete session, surfacing transport setup
/// failures as a [`SessionError`] instead of panicking.
pub fn try_run_session(sc: SessionConfig) -> Result<SessionOutcome, SessionError> {
    let rounds = sc.rounds;
    assert!(
        sc.churn.iter().all(|e| e.round >= 1),
        "churn events need an announcement round before they take effect"
    );
    let membership = Membership::with_uniform_nodes(
        sc.pag.session_id,
        sc.nodes,
        sc.pag.fanout,
        sc.pag.monitor_count,
    );
    for e in &sc.faults {
        if let FaultEvent::CrashRestart { node, .. } = e {
            assert!(
                *node != membership.source(),
                "the source anchors the membership and cannot crash-restart"
            );
        }
    }
    let faults = Arc::new(FaultSchedule::from_events(sc.faults.clone()).plan());
    let joiners: Vec<NodeId> = {
        let mut j: Vec<NodeId> = sc
            .churn
            .iter()
            .filter(|e| e.kind == ChurnKind::Join)
            .map(|e| e.node)
            .filter(|n| !membership.contains(*n))
            .collect();
        j.sort();
        j.dedup();
        j
    };
    let shared = SharedContext::with_roster(sc.pag.clone(), membership, &joiners);
    let engines = build_engines(&sc, &shared);

    Ok(match &sc.driver {
        Driver::Simnet(sim_cfg) => {
            let recorder = if sc.trace.enabled {
                Some(SessionRecorder::new(sc.trace.clone()))
            } else {
                None
            };
            let mut sim = Simulation::new(sim_cfg.clone());
            for engine in engines {
                let feeds = merged_feeds(&sc.churn, &faults, engine.id());
                let id = engine.id();
                let mut node = SimnetPag::with_faults(engine, feeds, Arc::clone(&faults));
                if let Some(rec) = &recorder {
                    node.attach_recorder(rec.node(u64::from(id.value())));
                }
                sim.add_node(id, node);
            }
            for &(node, round) in &sc.crashes {
                sim.schedule_crash(node, round);
            }
            let report = TrafficReport::from_sim(&sim.run(rounds));
            let mut outcome = collect_outcome(
                sim.into_nodes()
                    .into_iter()
                    .map(|(id, node)| (id, node.into_engine())),
                report,
                rounds,
            );
            outcome.trace = harvest_trace(recorder);
            outcome
        }
        Driver::Threaded(tc) => {
            let mut tc = tc.clone();
            let recorder = resolve_recorder(&mut tc.hooks.trace, &sc.trace);
            let run =
                run_threaded(&shared, engines, rounds, &sc.crashes, &sc.churn, &faults, &tc)?;
            let mut outcome = collect_outcome(run.engines, run.report, rounds);
            outcome.trace = harvest_trace(recorder);
            outcome
        }
        Driver::Tcp(tc) => {
            let mut tc = tc.clone();
            let recorder = resolve_recorder(&mut tc.hooks.trace, &sc.trace);
            let run = run_tcp(&shared, engines, rounds, &sc.crashes, &sc.churn, &faults, &tc)?;
            let mut outcome = collect_outcome(run.engines, run.report, rounds);
            outcome.trace = harvest_trace(recorder);
            outcome
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast configuration for unit tests.
    fn tiny() -> SessionConfig {
        let mut sc = SessionConfig::honest(10, 6);
        sc.pag.stream_rate_kbps = 30.0; // 4 updates/round
        sc
    }

    #[test]
    fn honest_session_has_no_verdicts() {
        let outcome = run_session(tiny());
        assert!(
            outcome.verdicts.is_empty(),
            "honest run convicted: {:?}",
            outcome.verdicts
        );
    }

    #[test]
    fn honest_session_delivers_updates() {
        let mut sc = tiny();
        sc.rounds = 12;
        let outcome = run_session(sc);
        let ratio = outcome.mean_on_time_ratio(10);
        assert!(ratio > 0.95, "delivery ratio {ratio}");
    }

    #[test]
    fn session_is_deterministic() {
        let a = run_session(tiny());
        let b = run_session(tiny());
        assert_eq!(a.report.mean_bandwidth_kbps(), b.report.mean_bandwidth_kbps());
        assert_eq!(a.total_ops(), b.total_ops());
    }

    #[test]
    fn builder_selects_threaded_driver() {
        let outcome = Session::builder(8, 4)
            .stream_rate_kbps(16.0)
            .driver(Driver::Threaded(ThreadedConfig::default()))
            .run();
        assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
        assert!(!outcome.creations.is_empty());
        assert!(outcome.report.mean_bandwidth_kbps() > 0.0);
    }

    #[test]
    fn builder_collects_selfish_and_crashes() {
        let session = Session::builder(12, 6)
            .selfish(NodeId(5), SelfishStrategy::DropForward)
            .crash(NodeId(7), 3)
            .build();
        assert_eq!(session.config().selfish.len(), 1);
        assert_eq!(session.config().crashes, vec![(NodeId(7), 3)]);
    }
}
