//! TCP transport tests: the socket driver under real-world conditions
//! the in-process drivers never face — wall-clock timing over kernel
//! sockets, fault emulation on the socket path, and above all hostile
//! bytes: connections spraying garbage, truncated and oversized frames
//! must be **counted and dropped, never panic a node** (the
//! `decode_frame(...).expect(...)` this replaces was untenable the
//! moment bytes arrive from a socket).

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;

use pag_core::messages::{MessageBody, SignedMessage};
use pag_core::wire::{encode_frame, encode_stream_frame, WireConfig, MAX_STREAM_FRAME_BYTES};
use pag_crypto::Signature;
use pag_membership::NodeId;
use pag_runtime::{
    run_session, try_run_session, Driver, NetEmulation, Scheduler, SessionConfig, SessionError,
    SessionOutcome, TcpConfig, ThreadedConfig,
};
use pag_simnet::SimConfig;

fn base(nodes: usize, rounds: u64) -> SessionConfig {
    let mut sc = SessionConfig::honest(nodes, rounds);
    sc.pag.stream_rate_kbps = 30.0;
    sc
}

#[test]
fn tcp_realtime_smoke() {
    // Wall-clock rounds over real sockets: the protocol runs, delivers
    // and stays conviction-free (same slack rationale as the threaded
    // realtime smoke: 200 ms rounds scale every deadline comfortably).
    let mut sc = base(8, 6);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 1,
        ..TcpConfig::default()
    });
    let outcome = run_session(sc);
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    assert!(outcome.creations.len() >= 6, "source injected each round");
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "updates flowed across sockets");
    assert!(outcome.report.mean_bandwidth_kbps() > 0.0);
}

#[test]
fn tcp_lockstep_loss_is_deterministic_and_lossy() {
    // Content-keyed loss emulation decides before the socket write, so
    // lossy lockstep runs over TCP are as reproducible as over channels.
    let run = |loss: f64| {
        let mut sc = base(10, 5);
        sc.driver = Driver::Tcp(TcpConfig {
            seed: 3,
            net: Some(NetEmulation::loss(loss).expect("valid loss probability")),
            ..TcpConfig::default()
        });
        run_session(sc)
    };
    let a = run(0.2);
    let b = run(0.2);
    for (id, t) in &a.report.per_node {
        assert_eq!(t.sent_bytes, b.report.per_node[id].sent_bytes, "at {id}");
        assert_eq!(t.recv_bytes, b.report.per_node[id].recv_bytes, "at {id}");
    }
    let sent: u64 = a.report.per_node.values().map(|t| t.sent_bytes).sum();
    let recv: u64 = a.report.per_node.values().map(|t| t.recv_bytes).sum();
    assert!(recv < sent, "20% loss must drop bytes: sent {sent}, recv {recv}");
}

#[test]
fn tcp_realtime_latency_smoke() {
    // The simulator's fault profile emulated on real sockets: delays on
    // top of genuine loopback transit, still inside every deadline.
    let mut sc = base(8, 5);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 2,
        net: Some(NetEmulation::from_sim(&SimConfig::default()).expect("valid sim profile")),
        ..TcpConfig::default()
    });
    let outcome = run_session(sc);
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "updates flowed through delayed sockets");
}

/// The satellite-task acceptance test: hostile byte strings injected on
/// live socket links are rejected with metrics; the session completes
/// and convicts nobody. Per node we inject, on one connection:
///
/// 1. a well-framed garbage payload (fails `decode_frame`)      → reject
/// 2. a well-framed, well-formed frame addressed to another node → reject
/// 3. an oversized length prefix (framing violation, drops conn) → reject
///
/// plus, on a second connection, a truncated frame (length prefix
/// promising more bytes than ever arrive) — which is simply discarded
/// at EOF.
#[test]
fn hostile_socket_bytes_are_rejected_not_fatal() {
    let nodes = 8;
    let (probe_tx, probe_rx) = channel();
    let mut sc = base(nodes, 6);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 7,
        addr_probe: Some(probe_tx),
        ..TcpConfig::default()
    });

    let injector = std::thread::spawn(move || {
        let wire = WireConfig::default();
        // A structurally valid frame — but addressed to NodeId(6), so
        // every *other* node that receives it must reject it as
        // misrouted (and node 6 is simply not sent one).
        let misrouted = encode_frame(
            NodeId(7),
            NodeId(6),
            &SignedMessage {
                body: MessageBody::KeyRequest { round: 0 },
                sig: Signature::from_bytes(vec![0xAB; wire.signature]),
            },
            &wire,
        )
        .expect("test frame encodes");

        let mut attacked = 0usize;
        let mut expected_rejections = 0usize;
        for (id, addr) in probe_rx.iter().take(nodes) {
            let addr: SocketAddr = addr;
            let mut conn = TcpStream::connect(addr).expect("connect to node listener");
            // (1) framed garbage: 50 bytes that decode to nothing.
            conn.write_all(
                &encode_stream_frame(&[0xA5u8; 50], MAX_STREAM_FRAME_BYTES).unwrap(),
            )
            .expect("inject garbage frame");
            expected_rejections += 1;
            // (2) a real frame for somebody else.
            if id != NodeId(6) {
                conn.write_all(
                    &encode_stream_frame(&misrouted, MAX_STREAM_FRAME_BYTES).unwrap(),
                )
                .expect("inject misrouted frame");
                expected_rejections += 1;
            }
            // (3) a length prefix far over the bound: the reader counts
            // one rejection and kills the connection.
            conn.write_all(&(u32::MAX).to_be_bytes())
                .expect("inject oversized prefix");
            expected_rejections += 1;

            // Separate connection: a truncated frame (10 of 100 promised
            // bytes, then EOF). Silently discarded — no crash, no count.
            let mut truncated = TcpStream::connect(addr).expect("connect again");
            truncated.write_all(&100u32.to_be_bytes()).unwrap();
            truncated.write_all(&[0u8; 10]).unwrap();
            drop(truncated);

            attacked += 1;
        }
        (attacked, expected_rejections)
    });

    let outcome = run_session(sc);
    let (attacked, expected_rejections) = injector.join().expect("injector thread");
    assert_eq!(attacked, nodes, "every node was attacked");

    // The session survived and functioned: stream flowed, nobody —
    // attacker traffic notwithstanding — was convicted.
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "protocol kept delivering under attack");

    // Every definite injection was counted as a rejection (injection
    // happens before round 0, the session runs ~1.4 s of wall time, so
    // all of it is processed long before Stop).
    let rejected: u64 = outcome.metrics.values().map(|m| m.frames_rejected).sum();
    assert!(
        rejected >= expected_rejections as u64,
        "expected at least {expected_rejections} rejections, saw {rejected}"
    );
}

/// Runs the same honest session on the simulator and on lockstep TCP
/// while `attack` writes to every node's listener, and holds the two
/// runs equal on verdicts (none), delivery maps, crypto ops and
/// traffic — hostile bytes may only show in the rejection counters.
/// Returns the TCP outcome for the caller's counter assertions.
fn lockstep_under_attack(
    nodes: usize,
    rounds: u64,
    seed: u64,
    attack: impl Fn(NodeId, &mut TcpStream) + Send + 'static,
) -> SessionOutcome {
    let mut sim_sc = base(nodes, rounds);
    sim_sc.driver = Driver::Simnet(SimConfig {
        seed,
        ..SimConfig::default()
    });
    let sim = run_session(sim_sc);

    let (probe_tx, probe_rx) = channel();
    let mut sc = base(nodes, rounds);
    sc.driver = Driver::Tcp(TcpConfig {
        lockstep: true,
        seed,
        addr_probe: Some(probe_tx),
        ..TcpConfig::default()
    });
    let injector = std::thread::spawn(move || {
        for (id, addr) in probe_rx.iter().take(nodes) {
            let mut conn = TcpStream::connect(addr).expect("connect to node listener");
            attack(id, &mut conn);
        }
    });
    let tcp = run_session(sc);
    injector.join().expect("injector thread");

    assert!(sim.verdicts.is_empty() && tcp.verdicts.is_empty());
    for (id, m_sim) in &sim.metrics {
        let m_tcp = &tcp.metrics[id];
        assert_eq!(m_sim.delivered, m_tcp.delivered, "delivery map diverges at {id}");
        assert_eq!(m_sim.ops, m_tcp.ops, "crypto ops diverge at {id}");
    }
    for (id, t_sim) in &sim.report.per_node {
        let t_tcp = &tcp.report.per_node[id];
        assert_eq!(t_sim.sent_bytes, t_tcp.sent_bytes, "sent bytes at {id}");
        assert_eq!(t_sim.recv_bytes, t_tcp.recv_bytes, "recv bytes at {id}");
        assert_eq!(t_sim.recv_msgs, t_tcp.recv_msgs, "recv msgs at {id}");
    }
    tcp
}

/// Hostile bytes during a **lockstep** session must not perturb the
/// barrier ledger: unsolicited envelopes are registered by the reader
/// before forwarding, so they can never consume a legitimate frame's
/// quiescence credit and release a phase early. The injected run must
/// therefore match the simulator *exactly* — same verdicts (none),
/// same delivery maps, same traffic — with only the rejection counters
/// showing the attack happened.
#[test]
fn hostile_bytes_in_lockstep_stay_simnet_equivalent() {
    let tcp = lockstep_under_attack(10, 6, 11, |_, conn| {
        conn.write_all(&encode_stream_frame(&[0x5Au8; 40], MAX_STREAM_FRAME_BYTES).unwrap())
            .expect("inject garbage frame");
        conn.write_all(&(u32::MAX).to_be_bytes())
            .expect("inject oversized prefix");
    });
    let rejected: u64 = tcp.metrics.values().map(|m| m.frames_rejected).sum();
    assert!(rejected > 0, "the attack left a trace in the rejection counters");
}

/// PR 10's multi-frame container (tag `0xC1`, from, to, count, then
/// u32-length-prefixed inner frames) is no frame format any more. One
/// well-formed container per node, each wrapping a frame the node would
/// accept on its own, is exactly one rejected frame per node: nothing
/// inside is delivered or accounted (the run stays simnet-equivalent
/// byte for byte), and a single one does not trip the flood limiter.
#[test]
fn former_container_from_a_socket_is_one_rejection() {
    let tcp = lockstep_under_attack(8, 8, 13, |id, conn| {
        let wire = WireConfig::default();
        let inner = encode_frame(
            NodeId(0),
            id,
            &SignedMessage {
                body: MessageBody::KeyRequest { round: 0 },
                sig: Signature::from_bytes(vec![0xAB; wire.signature]),
            },
            &wire,
        )
        .expect("test frame encodes");
        let mut container = vec![0xC1];
        container.extend_from_slice(&0u32.to_be_bytes()); // from
        container.extend_from_slice(&id.value().to_be_bytes()); // to
        container.extend_from_slice(&1u16.to_be_bytes()); // count
        container.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        container.extend_from_slice(&inner);
        conn.write_all(&encode_stream_frame(&container, MAX_STREAM_FRAME_BYTES).unwrap())
            .expect("inject container");
    });
    for (id, m) in &tcp.metrics {
        assert_eq!(m.frames_rejected, 1, "node {id}: one container, one rejection");
        assert_eq!(m.connections_dropped, 0, "node {id}: limiter tripped by one frame");
    }
}

/// A well-formed frame, correctly addressed, in the name of an id that
/// holds no key in the session: the late connection's screen counts it
/// as one rejection and nothing reaches the engine, whose signer lookup
/// used to panic the pool worker on such an id.
#[test]
fn frame_from_outside_the_roster_is_one_rejection() {
    let tcp = lockstep_under_attack(8, 5, 17, |id, conn| {
        let wire = WireConfig::default();
        let frame = encode_frame(
            NodeId(u32::MAX),
            id,
            &SignedMessage {
                body: MessageBody::KeyRequest { round: 0 },
                sig: Signature::from_bytes(vec![0xAB; wire.signature]),
            },
            &wire,
        )
        .expect("test frame encodes");
        conn.write_all(&encode_stream_frame(&frame, MAX_STREAM_FRAME_BYTES).unwrap())
            .expect("inject stranger's frame");
    });
    for (id, m) in &tcp.metrics {
        assert_eq!(m.frames_rejected, 1, "node {id}: one stranger's frame, one rejection");
        assert_eq!(m.connections_dropped, 0, "node {id}");
    }
}

/// Socket-hardening satellite (ROADMAP): a connection that floods a
/// node with rejected frames is **rate-limited** — after
/// `reject_limit` undecodable frames the connection is severed and the
/// cut counted (`MetricEvent::ConnectionDropped`), so the flood buys a
/// bounded number of rejections instead of one per frame forever.
/// Clean mesh peers share no fate with the attacker: the session keeps
/// delivering and convicts nobody.
#[test]
fn rejected_frame_flood_drops_the_connection() {
    let nodes = 8;
    let limit = 5u32;
    let flood = 200usize; // frames sprayed per attacked node, >> limit
    let (probe_tx, probe_rx) = channel();
    let mut sc = base(nodes, 6);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 9,
        reject_limit: limit,
        addr_probe: Some(probe_tx),
        ..TcpConfig::default()
    });

    let injector = std::thread::spawn(move || {
        let mut attacked = 0usize;
        for (_, addr) in probe_rx.iter().take(nodes) {
            let addr: SocketAddr = addr;
            let mut conn = TcpStream::connect(addr).expect("connect to node listener");
            // A sustained flood of well-framed garbage on one
            // connection. Each frame is framing-valid (so the stream
            // stays in sync) but fails decode_frame.
            for i in 0..flood {
                let payload = vec![0xC3u8 ^ (i as u8); 40];
                if conn
                    .write_all(&encode_stream_frame(&payload, MAX_STREAM_FRAME_BYTES).unwrap())
                    .is_err()
                {
                    break; // the node already cut us off mid-flood
                }
            }
            attacked += 1;
        }
        attacked
    });

    let outcome = run_session(sc);
    let attacked = injector.join().expect("injector thread");
    assert_eq!(attacked, nodes, "every node was flooded");

    // The protocol was unaffected: stream flowed, nobody convicted.
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "protocol kept delivering under the flood");

    // Every flooded node cut the hostile connection...
    for (id, m) in &outcome.metrics {
        assert!(
            m.connections_dropped >= 1,
            "node {id} never dropped the flooding connection"
        );
        // ...and paid at most the budget for it: `limit` forwarded
        // rejections per dropped connection, never one per flood frame.
        assert!(
            m.frames_rejected <= (limit as u64) * m.connections_dropped,
            "node {id} counted {} rejections for {} dropped connections — the flood was not cut off",
            m.frames_rejected,
            m.connections_dropped
        );
        assert!(
            m.frames_rejected < flood as u64,
            "node {id} processed the whole flood"
        );
    }
}

/// The rate limit composes with the pooled scheduler: same flood, node
/// side multiplexed on a 2-thread pool, same containment.
#[test]
fn rejected_frame_flood_is_contained_under_the_pool() {
    let nodes = 6;
    let limit = 4u32;
    let (probe_tx, probe_rx) = channel();
    let mut sc = base(nodes, 5);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 10,
        reject_limit: limit,
        scheduler: Scheduler::Pool(2),
        addr_probe: Some(probe_tx),
        ..TcpConfig::default()
    });
    let injector = std::thread::spawn(move || {
        for (_, addr) in probe_rx.iter().take(nodes) {
            let mut conn = TcpStream::connect(addr).expect("connect to node listener");
            for i in 0..120usize {
                let payload = vec![0x7Eu8 ^ (i as u8); 32];
                if conn
                    .write_all(&encode_stream_frame(&payload, MAX_STREAM_FRAME_BYTES).unwrap())
                    .is_err()
                {
                    break;
                }
            }
        }
    });
    let outcome = run_session(sc);
    injector.join().expect("injector thread");
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    for (id, m) in &outcome.metrics {
        assert!(m.connections_dropped >= 1, "node {id} kept the flooding connection");
        assert!(
            m.frames_rejected <= (limit as u64) * m.connections_dropped,
            "node {id}: flood not contained under the pool"
        );
    }
}

/// De-panic satellite: when a pool worker *does* die stepping a node
/// (forced here via a wire profile the codec refuses, an internal
/// invariant violation), the session error names the node and carries
/// the panic payload instead of an opaque "thread panicked". Runs on
/// the threaded driver: over TCP the same broken profile now fails the
/// *handshake* at setup (see the companion test below) before any node
/// can touch it.
#[test]
fn worker_panic_names_the_node_and_payload() {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut sc = base(6, 2);
        // header != 13 makes encode_frame error out, so the first send
        // from any node panics the pool worker stepping it.
        sc.pag.wire.header = 12;
        sc.driver = Driver::Threaded(ThreadedConfig::default());
        run_session(sc)
    }));
    let payload = result.expect_err("a broken wire profile must fail the session");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("string panic payload");
    assert!(
        msg.contains("pool worker thread(s) panicked (while stepping: "),
        "unexpected panic message: {msg}"
    );
    assert!(msg.contains("node n0"), "panicking node not named: {msg}");
    assert!(
        msg.contains("session messages encode"),
        "original payload lost: {msg}"
    );
}

/// Over TCP, a wire profile the codec refuses dies earlier still: the
/// mesh handshake cannot encode its HandshakeHello, so setup fails with
/// a typed [`SessionError::TcpSetup`] from `try_run_session` — no node
/// thread ever starts, nothing panics.
#[test]
fn broken_wire_profile_is_a_typed_tcp_setup_error() {
    let mut sc = base(6, 2);
    sc.pag.wire.header = 12;
    sc.driver = Driver::Tcp(TcpConfig::default());
    let err = try_run_session(sc).expect_err("a broken wire profile must refuse to start");
    assert!(
        matches!(err, SessionError::TcpSetup(_)),
        "expected a TCP setup error, got: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("handshake"),
        "error should name the handshake stage: {msg}"
    );
}

/// Hostile-handshake satellite: connections that *attempt* the
/// authenticated handshake but cannot complete it honestly — wrong
/// session id, replayed (stale-nonce) proofs, forged signatures — are
/// rejected and counted (`NodeMetrics::handshakes_rejected`) without
/// wedging the accept loop; the session completes, delivers, convicts
/// nobody. The attacker holds the *real* roster keys (key material
/// derives deterministically from the session id) — only the live
/// channel binding defeats it.
#[test]
fn hostile_handshakes_are_rejected_and_counted() {
    use pag_core::handshake;
    use pag_core::wire::StreamFramer;
    use pag_core::SharedContext;
    use pag_membership::Membership;
    use std::io::Read;

    let nodes = 8;
    let (probe_tx, probe_rx) = channel();
    let mut sc = base(nodes, 6);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 13,
        addr_probe: Some(probe_tx),
        ..TcpConfig::default()
    });

    // Reconstruct the session's shared context (deterministic keys), so
    // the attacker signs *valid* frames and only the handshake logic
    // stands between it and the mesh.
    let pag = sc.pag.clone();
    let injector = std::thread::spawn(move || {
        let membership = Membership::with_uniform_nodes(
            pag.session_id,
            nodes,
            pag.fanout,
            pag.monitor_count,
        );
        let wire = pag.wire.clone();
        let max = MAX_STREAM_FRAME_BYTES;
        let shared = SharedContext::with_roster(pag, membership, &[]);
        let liar = NodeId(2);
        let send = |conn: &mut TcpStream, to: NodeId, msg: &SignedMessage| {
            let frame = encode_frame(liar, to, msg, &wire).expect("attack frame encodes");
            conn.write_all(&encode_stream_frame(&frame, max).unwrap())
        };
        // Blocking-reads one stream frame off the connection.
        let read_frame = |conn: &mut TcpStream| -> Option<Vec<u8>> {
            let mut framer = StreamFramer::new(max);
            let mut chunk = [0u8; 4096];
            loop {
                if let Ok(Some(frame)) = framer.next_frame() {
                    return Some(frame);
                }
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return None,
                    Ok(n) => framer.push(&chunk[..n]),
                }
            }
        };
        let drained = |conn: &mut TcpStream| {
            // The listener severs rejected connections: keep reading
            // until EOF (HandshakeReject frames may arrive first).
            let mut chunk = [0u8; 4096];
            loop {
                match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return true,
                    Ok(_) => {}
                }
            }
        };

        let mut expected_rejections = 0usize;
        for (victim, addr) in probe_rx.iter().take(nodes) {
            let addr: SocketAddr = addr;

            // (1) A hello naming the wrong session — validly signed,
            // instantly refused.
            let mut conn = TcpStream::connect(addr).expect("connect");
            let wrong_session = shared.sign(
                liar,
                MessageBody::HandshakeHello { session: 999_999, node: liar, nonce: 77 },
            );
            if send(&mut conn, victim, &wrong_session).is_ok() {
                expected_rejections += 1;
                assert!(drained(&mut conn), "wrong-session connection not severed");
            }

            // (2) A replayed proof: valid hello, then a proof bound to a
            // nonce from some *other* connection — the fresh listener
            // nonce on this one cannot match.
            let mut conn = TcpStream::connect(addr).expect("connect");
            send(&mut conn, victim, &handshake::hello(&shared, liar, 1)).expect("hello");
            send(&mut conn, victim, &handshake::proof(&shared, liar, 0xDEAD_BEEF, 1))
                .expect("stale proof");
            expected_rejections += 1;
            assert!(drained(&mut conn), "replayed-proof connection not severed");

            // (3) A forged signature on otherwise perfect bindings: read
            // the listener's real hello, echo its nonce, garbage sig.
            let mut conn = TcpStream::connect(addr).expect("connect");
            send(&mut conn, victim, &handshake::hello(&shared, liar, 2)).expect("hello");
            if let Some(bytes) = read_frame(&mut conn) {
                let listener_hello =
                    pag_core::wire::decode_frame(&bytes, &wire).expect("listener hello decodes");
                let (_, l_nonce) =
                    handshake::read_hello(&shared, &listener_hello).expect("listener hello reads");
                let honest = handshake::proof(&shared, liar, l_nonce, 2);
                let forged = SignedMessage {
                    body: honest.body,
                    sig: Signature::from_bytes(vec![0xEE; wire.signature]),
                };
                if send(&mut conn, victim, &forged).is_ok() {
                    expected_rejections += 1;
                    assert!(drained(&mut conn), "forged-proof connection not severed");
                }
            }
        }
        expected_rejections
    });

    let outcome = run_session(sc);
    let expected_rejections = injector.join().expect("injector thread");
    assert!(expected_rejections >= nodes, "attack barely ran: {expected_rejections}");

    // The protocol shrugged: delivery flowed, nobody convicted.
    assert!(outcome.verdicts.is_empty(), "{:?}", outcome.verdicts);
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "protocol kept delivering under handshake attack");

    // Every refused handshake is on the books.
    let rejected: u64 = outcome.metrics.values().map(|m| m.handshakes_rejected).sum();
    assert!(
        rejected >= expected_rejections as u64,
        "expected at least {expected_rejections} handshake rejections, saw {rejected}"
    );
}

#[test]
fn realtime_link_kill_self_heals() {
    // Sever the 1 <-> 2 socket as both endpoints enter round 2 of a
    // wall-clock session: each side counts the sever, its reconnect
    // supervisor redials the peer's listener with bounded backoff, and
    // the healed slot counts a reconnect — all folded into the engines'
    // metrics through the Link health path. The session completes and
    // keeps delivering. Verdicts are NOT constrained here: a raw socket
    // kill eats whatever was in flight — monitoring and accusation
    // relays included — so the accountability layer may misattribute
    // the loss; the no-false-conviction guarantee belongs to the
    // schedule-level faults, which spare the control plane and are
    // pinned deterministically by the driver-equivalence suite.
    let mut sc = base(8, 6);
    sc.driver = Driver::Tcp(TcpConfig {
        round_ms: 200,
        lockstep: false,
        seed: 4,
        link_kills: vec![(NodeId(1), NodeId(2), 2)],
        ..TcpConfig::default()
    });
    let outcome = run_session(sc);
    assert!(outcome.metrics[&NodeId(1)].links_severed >= 1);
    assert!(outcome.metrics[&NodeId(2)].links_severed >= 1);
    let healed: u64 = outcome.metrics.values().map(|m| m.links_reconnected).sum();
    assert!(healed >= 1, "no reconnect supervisor healed the link");
    let delivered: usize = outcome
        .metrics
        .iter()
        .filter(|(id, _)| **id != NodeId(0))
        .map(|(_, m)| m.delivered_count())
        .sum();
    assert!(delivered > 0, "updates flowed despite the killed link");
}

#[test]
fn lockstep_link_kill_does_not_wedge() {
    // The same kill in lockstep mode: severing happens at round entry —
    // a quiescent point — so no registered frame is ever in flight on
    // the dying socket, and later sends to the empty slot are refused
    // and balanced by the worker's done-on-refused path. The run
    // completing at all is the no-wedge assertion. Self-healing is off
    // in lockstep (a revived stream would bypass the ledger), so the
    // sever sticks and nothing reconnects.
    let mut sc = base(8, 5);
    sc.driver = Driver::Tcp(TcpConfig {
        lockstep: true,
        seed: 5,
        link_kills: vec![(NodeId(1), NodeId(2), 2)],
        ..TcpConfig::default()
    });
    let outcome = run_session(sc);
    assert!(outcome.metrics[&NodeId(1)].links_severed >= 1);
    assert!(outcome.metrics[&NodeId(2)].links_severed >= 1);
    let healed: u64 = outcome.metrics.values().map(|m| m.links_reconnected).sum();
    assert_eq!(healed, 0, "lockstep must not self-heal");
    for v in &outcome.verdicts {
        assert!(
            v.accused == NodeId(1) || v.accused == NodeId(2),
            "bystander convicted after a 1<->2 link kill: {v}"
        );
    }
}
