//! The threaded driver: a real-time multi-threaded in-process runtime
//! for the sans-IO engine, on **channel** links.
//!
//! Links push **encoded frames** (`pag_core::wire::encode_frame`)
//! straight into the peer's pool inbox, so every byte a node is charged
//! for actually crosses a thread boundary and is parsed back with
//! `decode_frame` on arrival — the codec is load-bearing, not
//! decorative.
//!
//! The per-node logic — engine feed, traffic accounting, timers,
//! [`NetEmulation`] faults, churn announcements, lockstep barriers — is
//! the transport-generic [`crate::worker`] module, and the nodes run on
//! the worker pool (`crate::pool`, sized by [`Scheduler`]): a fixed
//! pool of threads multiplexing every node. This file is only the
//! session assembly. The TCP driver (`crate::tcp`) plugs real sockets
//! into the same node core and pool, which is why the
//! driver-equivalence suite can hold all transports to identical
//! outcomes; lockstep outcomes are identical across pool sizes, by
//! test.
//!
//! Two clock modes:
//!
//! * **Lockstep** (`lockstep: true`, the deterministic timer mode): time
//!   is virtual (one round = 1000 protocol ms). A coordinator drives
//!   barriers — round start, then one phase per distinct timer deadline
//!   — and waits for global quiescence (an outstanding-work counter)
//!   between phases, so every message cascade settles before the next
//!   timer fires. Within a phase, delivery *interleaving* across threads
//!   is scheduler-dependent, but the engine's handlers are commutative
//!   within a phase (monitor accumulators are products, obligations are
//!   sets), so verdict sets, delivery metrics and traffic totals are
//!   deterministic — the driver-equivalence test pins them to the
//!   simulator's.
//! * **Real time** (`lockstep: false`): rounds tick on the wall clock
//!   every `round_ms` milliseconds and engine timers are armed at
//!   proportionally scaled offsets (`after_ms * round_ms / 1000`),
//!   fired by the pool's shared timer wheel.
//!
//! The driver supports fail-stop crashes (a crashed node drops every
//! frame and skips every timer from its crash round on, like the
//! simulator), membership churn
//! (scheduled joins/leaves fed to the subject engine one round early;
//! see `crate::churn`), and latency/loss injection on the links
//! ([`NetEmulation`]): loss applies in both clock modes, decided after
//! send-side accounting from a content-keyed hash of the frame bytes
//! (so lossy lockstep runs stay deterministic whatever the scheduler
//! interleaving); latency applies in real-time mode only, as a
//! receive-side delay queue keyed by the same hash.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pag_core::engine::PagEngine;
use pag_core::SharedContext;
use pag_membership::NodeId;

use crate::churn::ChurnEvent;
use crate::faults::FaultPlan;
use crate::hooks::HostHooks;
use crate::pool::{run_pool, PoolLink, PoolQueues, Scheduler};
use crate::worker::{down_windows, merged_feeds, Coordination, DriverRun, NodeCore};

pub use crate::worker::{NetEmulation, NetEmulationError};

/// Outcome of a threaded run (alias of the transport-neutral
/// [`DriverRun`]; the TCP driver returns the same shape).
pub type ThreadedRun = DriverRun;

/// Setup failure of the threaded driver — thread spawning refused by
/// the OS before the session could start. Surfaced as a typed error
/// (not a panic) so a host running many sessions can report one
/// session's failure without dying.
#[derive(Debug)]
pub enum ThreadedSetupError {
    /// Spawning the worker pool failed: no worker thread could be
    /// started, or the timekeeper could not.
    SpawnPool(std::io::Error),
}

impl std::fmt::Display for ThreadedSetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedSetupError::SpawnPool(e) => write!(f, "spawning the worker pool failed: {e}"),
        }
    }
}

impl std::error::Error for ThreadedSetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThreadedSetupError::SpawnPool(e) => Some(e),
        }
    }
}

/// Configuration of the threaded driver.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// Wall-clock round duration in real-time mode (engine timer offsets
    /// scale by `round_ms / 1000`). Ignored in lockstep mode.
    pub round_ms: u64,
    /// Deterministic timer mode: virtual time with quiescence barriers
    /// instead of the wall clock.
    pub lockstep: bool,
    /// Session seed for the engines' deterministic randomness.
    pub seed: u64,
    /// Optional latency/loss injection on the links.
    pub net: Option<NetEmulation>,
    /// Size of the worker pool the nodes run on.
    pub scheduler: Scheduler,
    /// Host integration hooks (snapshot vault, live status watch).
    /// Defaults to off; hooks never alter engine inputs.
    pub hooks: HostHooks,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            round_ms: 1000,
            lockstep: true,
            seed: 0,
            net: None,
            scheduler: Scheduler::default(),
            hooks: HostHooks::default(),
        }
    }
}

/// Runs `engines` for `rounds` rounds on the channel transport, on a
/// worker pool sized by the configured [`Scheduler`].
///
/// Every engine's node must belong to `shared`'s key roster (initial
/// members plus scheduled joiners); `crashes` are fail-stop rounds per
/// node, `churn` the scheduled membership changes (each fed to its
/// subject's engine one round before it takes effect), and `faults` the
/// session's compiled fault plan (link cuts, partitions, corruption
/// windows, crash-restarts; pass a default plan for a clean run).
/// Returns the traffic report (protocol seconds; see [`crate::report`])
/// and the final engines, or a typed [`ThreadedSetupError`] when the OS
/// refuses the threads the session needs.
pub fn run_threaded(
    shared: &Arc<SharedContext>,
    engines: Vec<PagEngine>,
    rounds: u64,
    crashes: &[(NodeId, u64)],
    churn: &[ChurnEvent],
    faults: &Arc<FaultPlan>,
    cfg: &ThreadedConfig,
) -> Result<ThreadedRun, ThreadedSetupError> {
    let ids: Vec<NodeId> = engines.iter().map(|e| e.id()).collect();
    let n = ids.len();
    let coord = cfg.lockstep.then(|| Arc::new(Coordination::new(n)));
    let epoch = Instant::now();
    let round_ms = cfg.round_ms.max(1);
    let net_seed = cfg.seed ^ 0x4E45_5445_4D55;

    let queues = PoolQueues::new(n, coord.clone(), cfg.hooks.trace.is_some());
    let index: Arc<BTreeMap<NodeId, usize>> =
        Arc::new(ids.iter().enumerate().map(|(i, &id)| (id, i)).collect());
    let cores: Vec<NodeCore<PoolLink>> = engines
        .into_iter()
        .enumerate()
        .map(|(idx, engine)| {
            let id = ids[idx];
            NodeCore::new(
                id,
                engine,
                shared.config.wire.clone(),
                PoolLink::new(Arc::clone(&queues), Arc::clone(&index)),
                coord.clone(),
                down_windows(crashes, faults, id),
                merged_feeds(churn, faults, id),
                epoch,
                round_ms,
                cfg.net.clone(),
                net_seed,
                Arc::clone(faults),
                Vec::new(),
                cfg.hooks.clone(),
            )
        })
        .collect();
    run_pool(cores, queues, cfg.scheduler, epoch, rounds, round_ms, || {})
        .map_err(ThreadedSetupError::SpawnPool)
}
