//! `pag-host` — a long-lived, authenticated, multi-session PAG host
//! with on-disk crash recovery (DESIGN.md §13; ROADMAP item 3).
//!
//! The runtime crates give one *session* a driver; this crate gives a
//! *process* a lifecycle around many of them:
//!
//! * **Authentication** comes from the transport layer: hosted TCP
//!   sessions establish every mesh link (and every reconnect) with the
//!   signed challenge/response handshake of `pag_core::handshake` —
//!   identity on a connection is proven against the session roster's
//!   RSA keys, never assumed from connection order. Unauthenticated or
//!   bad-proof connections are severed and counted
//!   (`NodeMetrics::handshakes_rejected`) without wedging the accept
//!   loop.
//! * **Multiplexing** is the [`Host`]: a [`SessionRegistry`]-style API
//!   (spawn / list / watch / join / retire) over supervisor threads,
//!   each session running its nodes on its own worker pool. A
//!   [`pag_runtime::SessionWatch`]
//!   per session exports live per-node status a client can poll while
//!   the session runs.
//! * **Persistence** is the [`SnapshotStore`]: crash-entering nodes
//!   vault their [`pag_core::snapshot::NodeSnapshot`] to disk (atomic
//!   temp-file + rename, versioned header), and a restarted host —
//!   a new [`Host`] over the same directory — re-handshakes and reloads
//!   that state at `Input::Recover` time, rejoining the session
//!   unconvicted instead of blank.
//! * **Observability** is [`Host::metrics_text`]: a Prometheus
//!   text-format scrape page rendered from each session's live watch —
//!   rounds, protocol counters, traffic, and (for sessions run with
//!   `pag_runtime::TraceConfig` tracing on) the flight recorder's
//!   latency summaries (DESIGN.md §14).
//!
//! Hooks never alter engine inputs, and handshake traffic is never
//! charged to protocol accounting, so a hosted session's verdicts,
//! deliveries, traffic and crypto ops are bit-identical to the same
//! session run standalone — the host suite pins this.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
mod metrics;
pub mod store;

pub use host::{Host, HostError, SessionInfo};
pub use store::{SnapshotStore, StoreError, STORE_MAGIC, STORE_VERSION};

/// Alias documented for discoverability: the registry *is* the [`Host`]
/// (spawn / list / watch / join / retire live on it directly).
pub type SessionRegistry = Host;
