//! The worker-pool scheduler: how every real-time driver runs its
//! nodes — many [`NodeCore`]s multiplexed over a fixed number of OS
//! threads, so 1k–10k-node sessions cost a handful of threads rather
//! than one per node.
//!
//! * every node is a [`NodeCore`] parked in a **slot** holding its
//!   envelope inbox;
//! * a **run queue** holds the indices of slots with ready input
//!   (delivered frames, clock phases, timer-wheel wake-ups). A slot is
//!   enqueued when its inbox goes non-empty and never twice — the
//!   `Idle → Queued → Running` status in the slot makes scheduling
//!   idempotent and guarantees a core is stepped by one thread at a
//!   time;
//! * `threads` **pool workers** pop slots and drain their inboxes
//!   through [`NodeCore::lockstep_envelope`] /
//!   [`NodeCore::realtime_envelope`];
//! * in **lockstep** mode [`drive_rounds`] runs the barrier protocol
//!   over the quiescence ledger ([`Coordination`]), so pooled runs
//!   settle the same phases in the same order and produce verdicts,
//!   deliveries, crypto ops and traffic bit-identical to the simulator
//!   whatever the pool size (the scale suite pins `Pool(1) == Pool(4)
//!   == Pool(ncpu) == Simnet`);
//! * in **wall-clock** mode a shared **timer wheel** (one binary heap +
//!   one timekeeper thread) wakes cores: after each step a core
//!   publishes its earliest deadline, and the timekeeper enqueues a
//!   [`Envelope::Wake`] when it passes.
//!
//! A crashed node keeps its slot. A fail-stop crash is an open-ended
//! down window, handled like a crash-restart's: the core consumes its
//! clock envelopes and any frames still addressed to it as no-ops, so
//! every envelope the ledger charged is credited by the core it was
//! charged to, whatever transport carried it. A slot refuses mail only
//! once the pool has stopped. Everything else — transports, codec
//! accounting, churn feeds, `NetEmulation` — sits behind the `Link`
//! boundary. Architecture notes: DESIGN.md §11.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pag_membership::NodeId;

use crate::report::TrafficReport;
use crate::worker::{Coordination, DriverRun, Envelope, Link, NodeCore, VIRTUAL_ROUND_MS};

/// How a real-time driver maps nodes onto OS threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// A fixed-size worker pool multiplexing every node. The value is
    /// the thread count; `0` (the default) means one per available CPU.
    /// Lockstep outcomes are independent of the pool size.
    Pool(usize),
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::Pool(0)
    }
}

impl Scheduler {
    /// Resolves the configured pool size to an actual thread count for
    /// a session of `nodes` nodes (0 = available parallelism; never
    /// more threads than nodes, never fewer than one).
    fn threads(self, nodes: usize) -> usize {
        let Scheduler::Pool(size) = self;
        let size = if size == 0 {
            thread::available_parallelism().map_or(4, |n| n.get())
        } else {
            size
        };
        size.min(nodes.max(1)).max(1)
    }
}

/// Scheduling status of one slot. The transitions make enqueueing
/// idempotent and stepping exclusive:
/// `Idle -(enqueue)-> Queued -(pop)-> Running -(inbox empty)-> Idle`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotStatus {
    Idle,
    Queued,
    Running,
}

/// The mutable half of a slot, behind one mutex so "push an envelope"
/// and "decide whether to schedule" are a single atomic step.
struct SlotInbox {
    queue: VecDeque<Envelope>,
    status: SlotStatus,
    /// Wall-clock mode: the wake deadline currently published to the
    /// timer wheel (stale heap entries are skipped by comparing here).
    wake: Option<u64>,
    /// Traced sessions only: when the slot last went Idle → Queued.
    /// The span to the worker's pop is the per-slot run-queue wait —
    /// the barrier-stall signal the flight recorder histograms
    /// (DESIGN.md §14). `None` on untraced runs, so the hot enqueue
    /// path takes no timestamps there.
    queued_at: Option<Instant>,
}

struct Slot {
    inbox: Mutex<SlotInbox>,
}

/// Everything the pool's threads share: slots, run queue, timer wheel
/// and shutdown/abort state. Links and transport reader threads hold an
/// `Arc` of this to inject envelopes; the cores themselves are owned by
/// [`run_pool`], so dropping the run drops the nodes.
pub(crate) struct PoolQueues {
    slots: Vec<Slot>,
    run_queue: Mutex<VecDeque<usize>>,
    ready: Condvar,
    stop: AtomicBool,
    /// The lockstep quiescence ledger; `None` in wall-clock mode.
    pub(crate) coord: Option<Arc<Coordination>>,
    /// Wall-clock mode: min-heap of (due scaled-ms, slot index).
    wheel: Mutex<BinaryHeap<Reverse<(u64, usize)>>>,
    wheel_cv: Condvar,
    /// Whether the session is traced: gates the run-queue-wait
    /// timestamps so untraced runs take none.
    traced: bool,
}

impl PoolQueues {
    pub(crate) fn new(nodes: usize, coord: Option<Arc<Coordination>>, traced: bool) -> Arc<Self> {
        Arc::new(PoolQueues {
            slots: (0..nodes)
                .map(|_| Slot {
                    inbox: Mutex::new(SlotInbox {
                        queue: VecDeque::new(),
                        status: SlotStatus::Idle,
                        wake: None,
                        queued_at: None,
                    }),
                })
                .collect(),
            run_queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            coord,
            wheel: Mutex::new(BinaryHeap::new()),
            wheel_cv: Condvar::new(),
            traced,
        })
    }

    /// Pushes one envelope into a slot's inbox and schedules the slot if
    /// it was idle. `false` means the envelope will never be processed
    /// because the pool has stopped — refusing is what makes a
    /// lingering TCP reader thread's `read_loop` return instead of
    /// feeding a dead slot forever. Callers with a ledger registration
    /// must balance it, exactly like a failed socket send.
    pub(crate) fn enqueue(&self, idx: usize, envelope: Envelope) -> bool {
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        let mut inbox = self.slots[idx].inbox.lock().expect("slot inbox");
        inbox.queue.push_back(envelope);
        let newly_ready = inbox.status == SlotStatus::Idle;
        if newly_ready {
            inbox.status = SlotStatus::Queued;
            if self.traced {
                inbox.queued_at = Some(Instant::now());
            }
        }
        drop(inbox);
        if newly_ready {
            self.run_queue
                .lock()
                .expect("run queue")
                .push_back(idx);
            self.ready.notify_one();
        }
        true
    }

    /// Sends `make()` to every slot. In lockstep the ledger is charged
    /// for all of them before the first enqueue, so it cannot read zero
    /// while a phase is in flight; an enqueue the stopped pool refuses
    /// (after a worker panic) is credited back.
    fn broadcast(&self, make: impl Fn() -> Envelope) {
        if let Some(coord) = &self.coord {
            coord.add(self.slots.len() as u64);
        }
        for idx in 0..self.slots.len() {
            if !self.enqueue(idx, make()) {
                if let Some(coord) = &self.coord {
                    coord.done();
                }
            }
        }
    }

    /// Publishes a wall-clock wake deadline for a slot onto the shared
    /// timer wheel (keeping only the earliest pending one per slot).
    fn publish_wake(&self, idx: usize, wake: Option<u64>) {
        let Some(due) = wake else { return };
        {
            let mut inbox = self.slots[idx].inbox.lock().expect("slot inbox");
            if inbox.wake.is_some_and(|w| w <= due) {
                return;
            }
            inbox.wake = Some(due);
        }
        // Inbox lock released before taking the wheel lock: the
        // timekeeper locks in the opposite order (wheel, then inbox).
        self.wheel
            .lock()
            .expect("timer wheel")
            .push(Reverse((due, idx)));
        self.wheel_cv.notify_one();
    }

    fn stop_now(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _rq = self.run_queue.lock().expect("run queue");
        self.ready.notify_all();
        drop(_rq);
        let _wheel = self.wheel.lock().expect("timer wheel");
        self.wheel_cv.notify_all();
    }
}

/// The channel transport's [`Link`]: frames go straight into the peer
/// slot's inbox.
pub(crate) struct PoolLink {
    queues: Arc<PoolQueues>,
    index: Arc<BTreeMap<NodeId, usize>>,
}

impl PoolLink {
    pub(crate) fn new(queues: Arc<PoolQueues>, index: Arc<BTreeMap<NodeId, usize>>) -> Self {
        PoolLink { queues, index }
    }
}

impl Link for PoolLink {
    fn send_frame(&mut self, to: NodeId, frame: Vec<u8>) -> bool {
        match self.index.get(&to) {
            Some(&idx) => self.queues.enqueue(idx, Envelope::Frame { bytes: frame }),
            None => false,
        }
    }
}

/// Drives the session clock over the running pool: lockstep barrier
/// phases when the pool has a ledger, wall-clock round ticks otherwise.
/// The barrier protocol is what makes lockstep runs deterministic, so
/// every transport runs this one copy of it.
fn drive_rounds(queues: &PoolQueues, epoch: Instant, rounds: u64, round_ms: u64) {
    match &queues.coord {
        Some(coord) => {
            // Deterministic lockstep: barrier per round start, then one
            // barrier per distinct timer deadline within the round.
            for round in 0..rounds {
                queues.broadcast(|| Envelope::Round(round));
                coord.wait_quiet();
                // Every node started the round; now release the stashed
                // round-start frames and let the cascades settle.
                queues.broadcast(|| Envelope::Flush);
                coord.wait_quiet();
                // Timer phases — ack checks, monitor evaluation, exhibit
                // resolution: every deadline strictly before the next
                // round opens.
                let round_end = (round + 1) * VIRTUAL_ROUND_MS;
                while let Some(deadline) = coord.min_deadline() {
                    if deadline >= round_end || coord.is_aborted() {
                        break;
                    }
                    queues.broadcast(|| Envelope::TimersUpTo(deadline));
                    coord.wait_quiet();
                    queues.broadcast(|| Envelope::Flush);
                    coord.wait_quiet();
                }
                if coord.is_aborted() {
                    break;
                }
            }
        }
        None => {
            // Real time: rounds tick on the wall clock; one trailing
            // round lets late timers (offsets < 1 round) fire.
            for round in 0..rounds {
                queues.broadcast(|| Envelope::Round(round));
                let next = epoch + Duration::from_millis((round + 1) * round_ms);
                thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            thread::sleep(Duration::from_millis(round_ms));
        }
    }
}

/// Best-effort text of a `JoinHandle` panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&'static str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One pool worker: pop a ready slot, drain its inbox through the
/// shared envelope semantics, park it idle again.
fn pool_worker<L: Link>(
    queues: Arc<PoolQueues>,
    cores: Arc<Vec<Mutex<Option<NodeCore<L>>>>>,
    lockstep: bool,
    panics: Arc<Mutex<Vec<String>>>,
) {
    /// If this thread dies mid-step, name the node and unwedge both the
    /// lockstep coordinator (abort) and the sibling pool threads (stop),
    /// so the failure surfaces as a join-time panic, not a hang.
    struct AbortOnPanic {
        queues: Arc<PoolQueues>,
        panics: Arc<Mutex<Vec<String>>>,
        current: Option<NodeId>,
    }
    impl Drop for AbortOnPanic {
        fn drop(&mut self) {
            if !thread::panicking() {
                return;
            }
            if let Ok(mut log) = self.panics.lock() {
                log.push(match self.current {
                    Some(id) => format!("node {id}"),
                    None => "no node being stepped".to_string(),
                });
            }
            if let Some(coord) = &self.queues.coord {
                coord.abort();
            }
            self.queues.stop_now();
        }
    }

    let mut guard = AbortOnPanic {
        queues: Arc::clone(&queues),
        panics,
        current: None,
    };

    loop {
        let idx = {
            let mut rq = queues.run_queue.lock().expect("run queue");
            loop {
                if let Some(idx) = rq.pop_front() {
                    break idx;
                }
                if queues.stop.load(Ordering::SeqCst) {
                    return;
                }
                rq = queues.ready.wait(rq).expect("ready wait");
            }
        };
        let queued_wait = {
            let mut inbox = queues.slots[idx].inbox.lock().expect("slot inbox");
            inbox.status = SlotStatus::Running;
            inbox.queued_at.take().map(|at| at.elapsed())
        };

        let mut cell = cores[idx].lock().expect("core cell");
        let core = cell
            .as_mut()
            .expect("scheduled slot holds its core until harvest");
        guard.current = Some(core.id);
        if let Some(wait) = queued_wait {
            core.note_wait(wait);
        }
        loop {
            let envelope = {
                let mut inbox = queues.slots[idx].inbox.lock().expect("slot inbox");
                match inbox.queue.pop_front() {
                    Some(envelope) => envelope,
                    None => {
                        // Empty-check and parking are one atomic step, so
                        // a concurrent enqueue either lands before this
                        // (and we keep draining) or finds Idle and
                        // re-schedules the slot.
                        inbox.status = SlotStatus::Idle;
                        break;
                    }
                }
            };
            if lockstep {
                core.lockstep_envelope(envelope);
                let coord = queues.coord.as_ref().expect("lockstep coordination");
                coord.publish_deadline(idx, core.next_deadline());
                coord.done();
            } else {
                core.realtime_envelope(envelope);
                queues.publish_wake(idx, core.next_wake());
            }
        }
        guard.current = None;
    }
}

/// The timekeeper behind wall-clock pooled runs: one thread sleeping on
/// the shared wheel, waking slots whose earliest deadline passed. The
/// slot's published `wake` disambiguates stale heap entries (a slot
/// that re-armed earlier leaves its old entry to be skipped here).
fn timekeeper(queues: Arc<PoolQueues>, epoch: Instant) {
    let mut wheel = queues.wheel.lock().expect("timer wheel");
    loop {
        if queues.stop.load(Ordering::SeqCst) {
            return;
        }
        match wheel.peek().copied() {
            None => {
                wheel = queues.wheel_cv.wait(wheel).expect("wheel wait");
            }
            Some(Reverse((due, _))) => {
                let now = (Instant::now() - epoch).as_millis() as u64;
                if due > now {
                    let (w, _) = queues
                        .wheel_cv
                        .wait_timeout(wheel, Duration::from_millis(due - now))
                        .expect("wheel wait");
                    wheel = w;
                    continue;
                }
                let Some(Reverse((due, idx))) = wheel.pop() else {
                    continue;
                };
                let fire = {
                    let mut inbox = queues.slots[idx].inbox.lock().expect("slot inbox");
                    if inbox.wake == Some(due) {
                        inbox.wake = None;
                        true
                    } else {
                        false // stale entry: the slot re-armed or fired
                    }
                };
                if fire {
                    drop(wheel);
                    queues.enqueue(idx, Envelope::Wake);
                    wheel = queues.wheel.lock().expect("timer wheel");
                }
            }
        }
    }
}

/// Runs `cores` to completion on a pool sized by `scheduler`: spawns
/// the pool (plus the timekeeper in wall-clock mode), drives the shared
/// clock ([`drive_rounds`]), runs `before_join` once the clock returns
/// (the TCP driver shuts its accept threads down there), then stops the
/// pool and harvests every core into a [`DriverRun`].
///
/// Worker-spawn refusals degrade gracefully: the pool runs on however
/// many threads the OS granted, as long as that is at least one.
/// `Err` (a typed setup error, never a panic) is reserved for a pool
/// that cannot make progress at all — zero workers, or no timekeeper in
/// wall-clock mode.
pub(crate) fn run_pool<L: Link + 'static>(
    cores: Vec<NodeCore<L>>,
    queues: Arc<PoolQueues>,
    scheduler: Scheduler,
    epoch: Instant,
    rounds: u64,
    round_ms: u64,
    before_join: impl FnOnce(),
) -> Result<DriverRun, std::io::Error> {
    assert_eq!(cores.len(), queues.slots.len(), "one slot per core");
    let threads = scheduler.threads(cores.len());
    let lockstep = queues.coord.is_some();
    let cores: Arc<Vec<Mutex<Option<NodeCore<L>>>>> = Arc::new(
        cores
            .into_iter()
            .map(|core| Mutex::new(Some(core)))
            .collect(),
    );

    let panic_nodes: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles: Vec<JoinHandle<()>> = Vec::with_capacity(threads + 1);
    let mut spawn_err: Option<std::io::Error> = None;
    for t in 0..threads {
        let queues = Arc::clone(&queues);
        let cores = Arc::clone(&cores);
        let panic_nodes = Arc::clone(&panic_nodes);
        match thread::Builder::new()
            .name(format!("pag-pool-{t}"))
            .spawn(move || pool_worker(queues, cores, lockstep, panic_nodes))
        {
            Ok(handle) => handles.push(handle),
            Err(e) => spawn_err = Some(e),
        }
    }
    if handles.is_empty() {
        let e = spawn_err
            .unwrap_or_else(|| std::io::Error::other("pool sized to zero worker threads"));
        queues.stop_now();
        return Err(e);
    }
    if let Some(e) = spawn_err {
        pag_obs::logger::warn(
            "pool.degraded",
            format_args!("workers={} requested={threads} err={e}", handles.len()),
        );
    }
    if !lockstep {
        let queues_tk = Arc::clone(&queues);
        match thread::Builder::new()
            .name("pag-pool-timer".to_string())
            .spawn(move || timekeeper(queues_tk, epoch))
        {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                // Without a timekeeper no wall-clock timer ever fires;
                // stop the workers and report instead of running a
                // session that silently loses every timeout.
                queues.stop_now();
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }

    drive_rounds(&queues, epoch, rounds, round_ms);
    before_join();
    queues.stop_now();

    let mut panics: Vec<String> = Vec::new();
    for handle in handles {
        if let Err(payload) = handle.join() {
            panics.push(panic_message(payload.as_ref()));
        }
    }
    if !panics.is_empty() {
        let nodes = panic_nodes.lock().map(|v| v.join(", ")).unwrap_or_default();
        panic!(
            "pool worker thread(s) panicked (while stepping: {nodes}) — {}",
            panics.join("; ")
        );
    }

    let mut per_node = BTreeMap::new();
    let mut engines = BTreeMap::new();
    for cell in cores.iter() {
        let core = cell
            .lock()
            .expect("core cell")
            .take()
            .expect("every core harvested exactly once");
        let result = core.finish();
        per_node.insert(result.id, result.traffic);
        engines.insert(result.id, result.engine);
    }
    Ok(DriverRun {
        report: TrafficReport {
            duration: rounds as f64,
            rounds,
            per_node,
        },
        engines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_resolves_pool_sizes() {
        assert_eq!(Scheduler::Pool(4).threads(100), 4);
        assert_eq!(Scheduler::Pool(16).threads(3), 3, "never more threads than nodes");
        assert_eq!(Scheduler::Pool(5).threads(0), 1, "degenerate session still gets a thread");
        assert!(Scheduler::Pool(0).threads(1000) >= 1, "auto resolves to the machine");
        assert_eq!(Scheduler::default(), Scheduler::Pool(0));
    }

    #[test]
    fn enqueue_schedules_once_and_only_stop_refuses() {
        let queues = PoolQueues::new(2, None, false);
        assert!(queues.enqueue(0, Envelope::Round(0)));
        assert!(queues.enqueue(0, Envelope::Flush));
        // One slot, two envelopes, one run-queue entry.
        assert_eq!(queues.run_queue.lock().expect("run queue lock").len(), 1);
        assert!(queues.enqueue(1, Envelope::Round(1)), "every live slot takes mail");
        // After shutdown every slot refuses — that refusal is what sends
        // a lingering transport reader thread home.
        queues.stop.store(true, Ordering::SeqCst);
        assert!(!queues.enqueue(0, Envelope::Round(2)), "stopped pools refuse mail");
        assert!(!queues.enqueue(1, Envelope::Round(2)), "stopped pools refuse mail");
    }
}
