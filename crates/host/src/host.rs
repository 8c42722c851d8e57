//! The host proper: a session registry over one process (DESIGN.md §13).
//!
//! A [`Host`] owns a base directory and a registry of running sessions.
//! [`Host::spawn`] wires each session's driver with [`HostHooks`] — a
//! per-protocol-session [`SnapshotStore`] as the vault and a fresh
//! [`SessionWatch`] as the live status stream — then runs
//! `try_run_session` on a dedicated supervisor thread. Node-level
//! concurrency inside each session still belongs to that session's
//! worker pool; the host adds
//! the *session*-level multiplexing: many sessions, one process, one
//! store tree, one registry to poll.
//!
//! Snapshot stores are keyed by the **protocol** session id
//! (`PagConfig::session_id`), not the registry id — that is what makes
//! a restarted host find the snapshots its previous incarnation wrote:
//! open a new `Host` over the same directory, spawn the same protocol
//! session, and every node scheduled to recover loads its state from
//! disk instead of rejoining blank (and instead of being convicted).
//! Two *concurrent* sessions must therefore use distinct protocol
//! session ids, which they need anyway for key separation.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pag_runtime::{
    try_run_session, Driver, HostHooks, SessionConfig, SessionError, SessionOutcome, SessionWatch,
};

use crate::store::{SnapshotStore, StoreError};

/// Why the host could not start a session.
#[derive(Debug)]
pub enum HostError {
    /// The session's snapshot store could not be opened.
    Store(StoreError),
    /// The supervisor thread could not be spawned.
    Spawn(io::Error),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Store(e) => write!(f, "opening the session snapshot store failed: {e}"),
            HostError::Spawn(e) => write!(f, "spawning the session supervisor failed: {e}"),
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::Store(e) => Some(e),
            HostError::Spawn(e) => Some(e),
        }
    }
}

impl From<StoreError> for HostError {
    fn from(e: StoreError) -> Self {
        HostError::Store(e)
    }
}

/// One registered session: its live watch and the supervisor thread
/// that will eventually yield the outcome.
struct SessionHandle {
    protocol_session: u64,
    watch: Arc<SessionWatch>,
    thread: JoinHandle<Result<SessionOutcome, SessionError>>,
}

/// A registry row as reported by [`Host::list`].
#[derive(Clone, Debug)]
pub struct SessionInfo {
    /// The registry id [`Host::spawn`] returned.
    pub id: u64,
    /// The protocol session id (`PagConfig::session_id`) it runs.
    pub protocol_session: u64,
    /// Whether the supervisor thread has finished (outcome ready to
    /// [`Host::join`] without blocking).
    pub finished: bool,
}

/// A long-lived multi-session PAG host.
pub struct Host {
    dir: PathBuf,
    next_id: AtomicU64,
    sessions: Mutex<BTreeMap<u64, SessionHandle>>,
}

impl std::fmt::Debug for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host")
            .field("dir", &self.dir)
            .field("sessions", &self.list().len())
            .finish()
    }
}

impl Host {
    /// Opens a host over `dir` (created if missing). The directory is
    /// the durable half of the host: a second `Host` opened over the
    /// same path later — the restarted process — inherits every
    /// snapshot the first one persisted.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Host, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(StoreError::Io)?;
        Ok(Host {
            dir,
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(BTreeMap::new()),
        })
    }

    /// The host's base directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The snapshot store of protocol session `protocol_session` —
    /// the same directory [`Host::spawn`] wires into that session's
    /// vault. Useful for inspecting what a crashed node persisted.
    pub fn store(&self, protocol_session: u64) -> Result<SnapshotStore, StoreError> {
        SnapshotStore::open(self.dir.join(format!("s{protocol_session}")))
    }

    /// Starts `sc` as a hosted session and returns its registry id.
    ///
    /// The driver config's hooks are replaced with the host's: the
    /// session's snapshot vault (threaded and TCP drivers; the simnet
    /// driver is a pure in-process model with no host integration and
    /// runs unhooked) and a fresh [`SessionWatch`]. The session itself
    /// runs on a supervisor thread via `try_run_session`; collect it
    /// with [`Host::join`].
    pub fn spawn(&self, mut sc: SessionConfig) -> Result<u64, HostError> {
        let protocol_session = sc.pag.session_id;
        let store = self.store(protocol_session)?;
        let watch = SessionWatch::new();
        let hooks = HostHooks {
            vault: Some(Arc::new(store)),
            watch: Some(Arc::clone(&watch)),
            // The recorder itself is resolved by the session layer from
            // `sc.trace`, so hosted sessions trace exactly like
            // standalone ones; the host reads the results back through
            // the watch (see `metrics_text`).
            trace: None,
        };
        match &mut sc.driver {
            Driver::Threaded(tc) => tc.hooks = hooks,
            Driver::Tcp(tc) => tc.hooks = hooks,
            Driver::Simnet(_) => {}
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let thread = std::thread::Builder::new()
            .name(format!("pag-host-s{id}"))
            .spawn(move || try_run_session(sc))
            .map_err(HostError::Spawn)?;
        let handle = SessionHandle {
            protocol_session,
            watch,
            thread,
        };
        self.lock().insert(id, handle);
        Ok(id)
    }

    /// Every registered session, in spawn order.
    pub fn list(&self) -> Vec<SessionInfo> {
        self.lock()
            .iter()
            .map(|(&id, h)| SessionInfo {
                id,
                protocol_session: h.protocol_session,
                finished: h.thread.is_finished(),
            })
            .collect()
    }

    /// The live status stream of session `id`: per-node round progress,
    /// metrics and traffic, republished at every round entry. `None`
    /// for unknown (or already joined/retired) ids.
    pub fn watch(&self, id: u64) -> Option<Arc<SessionWatch>> {
        self.lock().get(&id).map(|h| Arc::clone(&h.watch))
    }

    /// Waits for session `id` to finish and removes it from the
    /// registry, returning its outcome (or typed setup error). `None`
    /// for unknown ids. A panic on the session thread — an engine
    /// invariant violation — is resumed here, payload intact.
    pub fn join(&self, id: u64) -> Option<Result<SessionOutcome, SessionError>> {
        let handle = self.lock().remove(&id)?;
        match handle.thread.join() {
            Ok(outcome) => Some(outcome),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Renders every registered session's live status as one
    /// Prometheus text-format page (version 0.0.4 exposition): session
    /// liveness, per-node round/metric/traffic counters, and — for
    /// traced sessions — the flight-recorder latency summaries
    /// (DESIGN.md §14). Pure observation: reads watch snapshots only.
    pub fn metrics_text(&self) -> String {
        crate::metrics::render(&self.rows(None))
    }

    /// Renders the scrape page of session `id` alone. `None` for
    /// unknown (or already joined/retired) ids.
    pub fn session_metrics_text(&self, id: u64) -> Option<String> {
        let rows = self.rows(Some(id));
        if rows.is_empty() {
            return None;
        }
        Some(crate::metrics::render(&rows))
    }

    /// Snapshots the registry into scrape rows (all sessions, or one).
    fn rows(&self, only: Option<u64>) -> Vec<crate::metrics::SessionRow> {
        self.lock()
            .iter()
            .filter(|(&id, _)| only.is_none_or(|want| want == id))
            .map(|(&id, h)| crate::metrics::SessionRow {
                id,
                protocol_session: h.protocol_session,
                finished: h.thread.is_finished(),
                nodes: h.watch.snapshot(),
            })
            .collect()
    }

    /// Drops session `id` from the registry without waiting: the
    /// supervisor thread keeps running detached (Rust threads cannot be
    /// killed) but its outcome is discarded on completion. Returns
    /// whether the id was known.
    pub fn retire(&self, id: u64) -> bool {
        self.lock().remove(&id).is_some()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, SessionHandle>> {
        self.sessions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
