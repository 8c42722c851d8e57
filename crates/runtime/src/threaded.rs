//! The threaded driver: a real-time multi-threaded in-process runtime
//! for the sans-IO engine, on **channel** links.
//!
//! Links are unbounded channels carrying **encoded frames**
//! (`pag_core::wire::encode_frame`), so every byte a node is charged
//! for actually crosses a thread boundary and is parsed back with
//! `decode_frame` on arrival — the codec is load-bearing, not
//! decorative.
//!
//! The per-node logic — engine feed, traffic accounting, timers,
//! [`NetEmulation`] faults, churn announcements, lockstep barriers — is
//! the transport-generic [`crate::worker`] module; this file only
//! supplies the [`Link`] implementation (an `mpsc::Sender` per peer)
//! and the session assembly. The TCP driver (`crate::tcp`) plugs real
//! sockets into the same node core, which is why the driver-equivalence
//! suite can hold all transports to identical outcomes.
//!
//! Two execution **schedulers** ([`Scheduler`]):
//!
//! * `ThreadPerNode` — one OS thread per node, the PR 2 model;
//! * `Pool(n)` — a fixed pool of `n` threads multiplexing every node
//!   (`crate::pool`), the scheduler that makes 1000+ node sessions
//!   practical. Pooled channel links skip the mpsc hop and deliver
//!   frames straight into the peer's pool inbox. Lockstep outcomes are
//!   identical across schedulers and pool sizes, by test.
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
//!   fired by `recv_timeout` deadlines (thread-per-node) or the shared
//!   timer wheel (pool).
//!
//! The driver supports fail-stop crashes (a crashed node drops every
//! envelope from its crash round on, like the simulator; the pool
//! additionally retires it from the run queue), membership churn
//! (scheduled joins/leaves fed to the subject engine one round early;
//! see `crate::churn`), and latency/loss injection on the links
//! ([`NetEmulation`]): loss applies in both clock modes, decided after
//! send-side accounting from a content-keyed hash of the frame bytes
//! (so lossy lockstep runs stay deterministic whatever the scheduler
//! interleaving); latency applies in real-time mode only, as a
//! receive-side delay queue keyed by the same hash.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use pag_core::engine::PagEngine;
use pag_core::SharedContext;
use pag_membership::NodeId;

use crate::churn::ChurnEvent;
use crate::faults::FaultPlan;
use crate::hooks::HostHooks;
use crate::pool::{run_pool, PoolLink, PoolQueues, Scheduler};
use crate::worker::{
    down_windows, drive_rounds, join_workers, merged_feeds, Coordination, DriverRun, Envelope,
    Link, NodeCore, Worker,
};

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
    /// Spawning a dedicated node thread failed (`ThreadPerNode`).
    SpawnNode(std::io::Error),
    /// Spawning the worker pool failed (`Pool(_)`): no worker thread
    /// could be started, or the timekeeper could not.
    SpawnPool(std::io::Error),
}

impl std::fmt::Display for ThreadedSetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedSetupError::SpawnNode(e) => write!(f, "spawning a node thread failed: {e}"),
            ThreadedSetupError::SpawnPool(e) => write!(f, "spawning the worker pool failed: {e}"),
        }
    }
}

impl std::error::Error for ThreadedSetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThreadedSetupError::SpawnNode(e) | ThreadedSetupError::SpawnPool(e) => Some(e),
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
    /// Node-to-thread mapping: dedicated threads or a worker pool.
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
            scheduler: Scheduler::ThreadPerNode,
            hooks: HostHooks::default(),
        }
    }
}

/// The channel transport: one unbounded `mpsc::Sender` per peer, the
/// same queue the coordinator uses for clock envelopes.
struct ChannelLink {
    peers: BTreeMap<NodeId, Sender<Envelope>>,
}

impl Link for ChannelLink {
    fn send_frame(&mut self, to: NodeId, frame: Vec<u8>) -> bool {
        match self.peers.get(&to) {
            Some(tx) => tx.send(Envelope::Frame { bytes: frame }).is_ok(),
            None => false,
        }
    }
}

/// Runs `engines` for `rounds` rounds on the channel transport, under
/// the configured [`Scheduler`].
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

    match cfg.scheduler {
        Scheduler::ThreadPerNode => {
            let mut senders: BTreeMap<NodeId, Sender<Envelope>> = BTreeMap::new();
            let mut receivers = Vec::with_capacity(n);
            for &id in &ids {
                let (tx, rx) = channel();
                senders.insert(id, tx);
                receivers.push(rx);
            }

            let mut handles = Vec::with_capacity(n);
            for (idx, (engine, rx)) in engines.into_iter().zip(receivers).enumerate() {
                let id = ids[idx];
                let core = NodeCore::new(
                    idx,
                    id,
                    engine,
                    shared.config.wire.clone(),
                    ChannelLink {
                        peers: senders.clone(),
                    },
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
                );
                let worker = Worker { core, rx };
                match thread::Builder::new()
                    .name(format!("pag-{id}"))
                    .spawn(move || worker.run())
                {
                    Ok(handle) => handles.push((id, handle)),
                    Err(e) => {
                        // Unwind cleanly: close every channel so the
                        // already-spawned workers drain and exit, then
                        // join them before reporting the refusal.
                        drop(senders);
                        for (_, handle) in handles {
                            let _ = handle.join();
                        }
                        return Err(ThreadedSetupError::SpawnNode(e));
                    }
                }
            }

            drive_rounds(&senders, coord.as_ref(), epoch, rounds, round_ms);
            drop(senders);
            Ok(join_workers(handles, rounds))
        }
        Scheduler::Pool(size) => {
            let queues = PoolQueues::new(n, coord.clone(), cfg.hooks.trace.is_some());
            let index: Arc<BTreeMap<NodeId, usize>> =
                Arc::new(ids.iter().enumerate().map(|(i, &id)| (id, i)).collect());
            let cores: Vec<NodeCore<PoolLink>> = engines
                .into_iter()
                .enumerate()
                .map(|(idx, engine)| {
                    let id = ids[idx];
                    NodeCore::new(
                        idx,
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
            let threads = Scheduler::resolve_threads(size, n);
            run_pool(cores, queues, threads, epoch, rounds, round_ms, || {})
                .map_err(ThreadedSetupError::SpawnPool)
        }
    }
}
