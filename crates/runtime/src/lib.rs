//! Drivers for the PAG sans-IO engine.
//!
//! `pag-core` contains the protocol as a pure state machine
//! ([`pag_core::engine::PagEngine`]); this crate contains everything
//! that *executes* it:
//!
//! * [`SimnetPag`] — the adapter running the engine on the
//!   deterministic discrete-event simulator (`pag-simnet`), with
//!   latency, loss and crash faults;
//! * [`threaded::run_threaded`] — a real-time multi-threaded in-process
//!   runtime: channel links carrying byte frames produced by the
//!   `pag_core::wire` codec, and either lockstep (deterministic) or
//!   wall-clock timers;
//! * [`tcp::run_tcp`] — the same per-node runtime over **real TCP
//!   sockets on loopback**: length-prefixed codec frames, per-stream
//!   reader threads, and a frame path that rejects (never panics on)
//!   malformed bytes;
//! * [`worker`] — the transport-generic node state machine both
//!   real-time drivers share, parameterized over a [`worker::Link`];
//!   new transports implement that one trait and inherit timers,
//!   lockstep barriers, churn, crashes and traffic accounting;
//! * [`pool`] — the worker pool both real-time drivers run their nodes
//!   on: a fixed thread pool multiplexing thousands of node cores (run
//!   queue, shared timer wheel, the lockstep clock), sized per driver
//!   via `ThreadedConfig::scheduler` / `TcpConfig::scheduler` (a
//!   [`Scheduler`]), with lockstep outcomes identical to the simulator
//!   at every pool size by test (DESIGN.md §11);
//! * [`Session`] / [`run_session`] — the one-call harness that builds a
//!   session, runs it on a selected [`Driver`] and collects verdicts,
//!   metrics and a driver-neutral [`TrafficReport`];
//! * [`ChurnSchedule`] — seeded join/leave traces (steady rate, flash
//!   crowd, mass departure) all drivers replay identically, feeding the
//!   engine's `Join`/`Leave` inputs (DESIGN.md §9);
//! * [`FaultSchedule`] — seeded fault traces (link severs, transient
//!   partitions, corruption bursts, crash-restarts) compiled to one
//!   [`faults::FaultPlan`] all drivers consult identically, plus the
//!   crash-recovery feeds that let a restarted node rejoin without
//!   being convicted (DESIGN.md §12).
//!
//! The three drivers execute the same engine byte-for-byte; the
//! driver-equivalence tests in `tests/` hold their verdicts, deliveries
//! and traffic totals equal. See DESIGN.md §8 and §10 for the
//! architecture.
//!
//! Every driver can additionally run under the **flight recorder**
//! (`pag-obs`, DESIGN.md §14): [`TraceConfig`] on the session (or a
//! host-installed recorder on [`HostHooks`]) turns on per-node event
//! rings, phase/stall/crypto latency histograms and an optional JSONL
//! sink, harvested into [`SessionOutcome::trace`]. The recorder only
//! observes — traced runs are bit-identical to untraced ones, by test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod churn;
pub mod faults;
pub mod hooks;
pub mod pool;
pub mod replay;
pub mod report;
pub mod session;
pub mod tcp;
pub mod threaded;
pub mod worker;

pub use adapter::SimnetPag;
pub use pag_obs::{
    LatencySummary, SessionRecorder, TraceConfig, TraceEvent, TraceSummary,
};
pub use churn::{ChurnEvent, ChurnKind, ChurnSchedule};
pub use faults::{FaultEvent, FaultPlan, FaultSchedule};
pub use hooks::{HostHooks, NodeStatus, SessionWatch, SnapshotVault};
pub use pool::Scheduler;
pub use replay::{cross_validate, session_for_scenario, CrossValidation};
pub use report::{NodeTraffic, TrafficReport, MAX_TRAFFIC_CLASSES};
pub use session::{
    run_session, try_run_session, Driver, Session, SessionBuilder, SessionConfig, SessionError,
    SessionOutcome,
};
pub use tcp::{run_tcp, TcpConfig, TcpRun, TcpSetupError};
pub use threaded::{run_threaded, ThreadedConfig, ThreadedRun, ThreadedSetupError};
pub use worker::{DriverRun, Link, NetEmulation, NetEmulationError};
