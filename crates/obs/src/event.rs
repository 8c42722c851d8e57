//! Typed trace events. Every variant is `Copy` and fixed-size so the
//! recording hot path moves a few words into a preallocated ring and
//! nothing more — no heap, no formatting, no locks.

use std::fmt::Write as _;

/// The phase of a lockstep round envelope a driver is executing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Round start: `Input::RoundStart` plus due churn inputs.
    Round,
    /// Flush: draining buffered sends after a quiescent barrier.
    Flush,
    /// Timers: virtual-time timer pumping up to a deadline.
    Timers,
}

impl Phase {
    /// Stable lowercase name used by the JSONL and Prometheus sinks.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::Flush => "flush",
            Phase::Timers => "timers",
        }
    }
}

/// A cryptographic operation class, mirroring
/// `pag_core::OpCounters` field by field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CryptoOp {
    /// Homomorphic hash exponentiations.
    Hash,
    /// Signatures produced.
    Sign,
    /// Signatures verified.
    Verify,
    /// Primes generated.
    Prime,
}

impl CryptoOp {
    /// Stable lowercase name used by the JSONL and Prometheus sinks.
    pub fn name(self) -> &'static str {
        match self {
            CryptoOp::Hash => "hash",
            CryptoOp::Sign => "sign",
            CryptoOp::Verify => "verify",
            CryptoOp::Prime => "prime",
        }
    }
}

/// What happened. Wall-time payloads are microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A node entered protocol round `round`.
    RoundEnter {
        /// Round number.
        round: u64,
    },
    /// A node left round `round`; `wall_us` spans entry of `round` to
    /// entry of the next (or node teardown for the final round).
    RoundExit {
        /// Round number.
        round: u64,
        /// Wall-clock span of the round, microseconds.
        wall_us: u64,
    },
    /// A lockstep envelope phase began.
    PhaseBegin {
        /// Round the phase belongs to.
        round: u64,
        /// Which phase.
        phase: Phase,
    },
    /// A lockstep envelope phase ended.
    PhaseEnd {
        /// Round the phase belongs to.
        round: u64,
        /// Which phase.
        phase: Phase,
        /// Wall-clock span of the phase, microseconds.
        wall_us: u64,
    },
    /// Time a node core spent parked waiting for work — its slot's
    /// run-queue wait on the worker pool. This is the lockstep
    /// barrier-stall signal.
    BarrierStall {
        /// Round during which the stall was observed.
        round: u64,
        /// Stall span, microseconds.
        wall_us: u64,
    },
    /// A batch of crypto operations of one class completed inside a
    /// single engine step. `wall_us` is this class's share of the
    /// step's wall time, attributed proportionally by count.
    CryptoOps {
        /// Operation class.
        op: CryptoOp,
        /// Operations of this class in the step.
        count: u64,
        /// Attributed wall time for the batch, microseconds.
        wall_us: u64,
    },
    /// The driver rejected an incoming frame before delivery.
    FrameRejected {
        /// Round at rejection time.
        round: u64,
    },
    /// A connection exceeded its rejected-frame budget and was severed.
    ConnectionDropped {
        /// Round at the drop.
        round: u64,
    },
    /// An authenticated accept path refused a handshake.
    HandshakeRejected {
        /// Round at the refusal.
        round: u64,
    },
    /// A peer link went down mid-session.
    LinkSevered {
        /// Round at the sever.
        round: u64,
        /// Links severed in this observation.
        count: u64,
    },
    /// A severed peer link was re-established.
    LinkReconnected {
        /// Round at the reconnect.
        round: u64,
        /// Links re-established in this observation.
        count: u64,
    },
    /// A crash-entering node vaulted its snapshot (`ok` = persisted).
    SnapshotSaved {
        /// Crash round.
        round: u64,
        /// Whether the vault accepted the snapshot.
        ok: bool,
    },
    /// A recovering node asked its vault for a snapshot (`ok` = found
    /// and restored).
    SnapshotLoaded {
        /// Recovery round.
        round: u64,
        /// Whether a usable snapshot was restored.
        ok: bool,
    },
    /// A node restarted after a crash and re-announced itself.
    Recovered {
        /// Recovery round.
        round: u64,
    },
}

impl EventKind {
    /// Stable snake_case tag used by the JSONL sink.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::RoundEnter { .. } => "round_enter",
            EventKind::RoundExit { .. } => "round_exit",
            EventKind::PhaseBegin { .. } => "phase_begin",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::BarrierStall { .. } => "barrier_stall",
            EventKind::CryptoOps { .. } => "crypto_ops",
            EventKind::FrameRejected { .. } => "frame_rejected",
            EventKind::ConnectionDropped { .. } => "connection_dropped",
            EventKind::HandshakeRejected { .. } => "handshake_rejected",
            EventKind::LinkSevered { .. } => "link_severed",
            EventKind::LinkReconnected { .. } => "link_reconnected",
            EventKind::SnapshotSaved { .. } => "snapshot_saved",
            EventKind::SnapshotLoaded { .. } => "snapshot_loaded",
            EventKind::Recovered { .. } => "recovered",
        }
    }
}

/// One recorded event: a timestamp (microseconds since the session
/// recorder's epoch), the owning node, and the typed payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the session's trace epoch.
    pub t_us: u64,
    /// Node the event belongs to.
    pub node: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Appends this event as one JSON object (no trailing newline) —
    /// the JSONL sink's line format. Hand-rolled: every field is a
    /// number, bool, or a static tag, so no escaping is ever needed.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t_us\":{},\"node\":{},\"kind\":\"{}\"",
            self.t_us,
            self.node,
            self.kind.tag()
        );
        match self.kind {
            EventKind::RoundEnter { round } | EventKind::Recovered { round } => {
                let _ = write!(out, ",\"round\":{round}");
            }
            EventKind::RoundExit { round, wall_us } | EventKind::BarrierStall { round, wall_us } => {
                let _ = write!(out, ",\"round\":{round},\"wall_us\":{wall_us}");
            }
            EventKind::PhaseBegin { round, phase } => {
                let _ = write!(out, ",\"round\":{round},\"phase\":\"{}\"", phase.name());
            }
            EventKind::PhaseEnd {
                round,
                phase,
                wall_us,
            } => {
                let _ = write!(
                    out,
                    ",\"round\":{round},\"phase\":\"{}\",\"wall_us\":{wall_us}",
                    phase.name()
                );
            }
            EventKind::CryptoOps { op, count, wall_us } => {
                let _ = write!(
                    out,
                    ",\"op\":\"{}\",\"count\":{count},\"wall_us\":{wall_us}",
                    op.name()
                );
            }
            EventKind::FrameRejected { round }
            | EventKind::ConnectionDropped { round }
            | EventKind::HandshakeRejected { round } => {
                let _ = write!(out, ",\"round\":{round}");
            }
            EventKind::LinkSevered { round, count } | EventKind::LinkReconnected { round, count } => {
                let _ = write!(out, ",\"round\":{round},\"count\":{count}");
            }
            EventKind::SnapshotSaved { round, ok } | EventKind::SnapshotLoaded { round, ok } => {
                let _ = write!(out, ",\"round\":{round},\"ok\":{ok}");
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_valid_objects() {
        let cases = [
            EventKind::RoundEnter { round: 3 },
            EventKind::RoundExit {
                round: 3,
                wall_us: 1500,
            },
            EventKind::PhaseEnd {
                round: 3,
                phase: Phase::Flush,
                wall_us: 12,
            },
            EventKind::CryptoOps {
                op: CryptoOp::Verify,
                count: 4,
                wall_us: 900,
            },
            EventKind::SnapshotSaved {
                round: 2,
                ok: true,
            },
        ];
        for kind in cases {
            let ev = TraceEvent {
                t_us: 42,
                node: 7,
                kind,
            };
            let mut s = String::new();
            ev.write_json(&mut s);
            assert!(s.starts_with("{\"t_us\":42,\"node\":7,\"kind\":\""), "{s}");
            assert!(s.ends_with('}'), "{s}");
            assert_eq!(s.matches('{').count(), 1, "flat object: {s}");
            assert!(s.contains(kind.tag()), "{s}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Phase::Timers.name(), "timers");
        assert_eq!(CryptoOp::Hash.name(), "hash");
        assert_eq!(EventKind::Recovered { round: 0 }.tag(), "recovered");
    }
}
