//! Hostile-client fault suite for the event-loop front-end: slowloris
//! writers, idle squatters, connection floods, oversized frames, and
//! pipelining — each must degrade into a typed refusal or a reaped
//! connection while healthy clients keep getting bit-exact answers.

use apt_nn::checkpoint;
use apt_serve::protocol::{
    self, OP_INFER, STATUS_BAD_REQUEST, STATUS_OK, STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use apt_serve::{
    BatchPolicy, ConnLimits, InferenceSession, ModelArch, ModelSpec, ServeClient, ServeError,
    Server, ServerConfig,
};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const IN_DIM: usize = 5;

/// A frozen `in_dim → hidden → 3` MLP session.
fn mlp_session(in_dim: usize, hidden: usize) -> InferenceSession {
    let spec = ModelSpec {
        arch: ModelArch::Mlp(vec![in_dim, hidden, 3]),
        classes: 3,
        img_size: 0,
        width_mult: 1.0,
    };
    let mut net = spec.build().unwrap();
    let blob = checkpoint::save_full(&mut net);
    InferenceSession::from_checkpoint(&spec, &blob).unwrap()
}

fn session() -> InferenceSession {
    mlp_session(IN_DIM, 8)
}

fn start_on(s: InferenceSession, limits: ConnLimits) -> (Server, InferenceSession) {
    let server = Server::start(
        s.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy::default(),
            model_name: "hostile-test".to_string(),
            limits,
        },
    )
    .unwrap();
    (server, s)
}

fn start(limits: ConnLimits) -> (Server, InferenceSession) {
    start_on(session(), limits)
}

/// Reads until EOF or timeout; returns all bytes seen.
fn read_until_eof(stream: &mut TcpStream, budget: Duration) -> Vec<u8> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let mut all = Vec::new();
    let mut buf = [0u8; 1024];
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => all.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    all
}

#[test]
fn slowloris_is_reaped_while_healthy_client_unaffected() {
    let (mut server, local) = start(ConnLimits {
        read_timeout: Duration::from_millis(150),
        ..ConnLimits::default()
    });
    let addr = server.addr();

    // The attacker: a valid-looking header claiming 1000 bytes, then one
    // byte every 40ms — the frame would take 40 seconds to complete.
    let mut slow = TcpStream::connect(addr).unwrap();
    let mut header = vec![OP_INFER];
    header.extend_from_slice(&1000u32.to_le_bytes());
    slow.write_all(&header).unwrap();

    let t0 = Instant::now();
    let mut reaped_after = None;
    for _ in 0..100 {
        if slow.write_all(&[0]).is_err() {
            reaped_after = Some(t0.elapsed());
            break;
        }
        // A closed peer can also surface as EOF on read.
        slow.set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        let mut b = [0u8; 16];
        if matches!(slow.read(&mut b), Ok(0)) {
            reaped_after = Some(t0.elapsed());
            break;
        }
        std::thread::sleep(Duration::from_millis(40));

        // Healthy traffic keeps flowing the whole time.
        let mut healthy = ServeClient::connect(addr).unwrap();
        let sample = vec![0.25; IN_DIM];
        assert_eq!(
            healthy.infer(&sample).unwrap(),
            local.infer_one(&sample).unwrap(),
            "healthy client corrupted while slowloris in progress"
        );
    }
    let reaped_after = reaped_after.expect("slowloris connection was never reaped");
    assert!(
        reaped_after >= Duration::from_millis(100),
        "reaped too eagerly ({reaped_after:?}) — legitimate slow frames need headroom"
    );
    assert!(
        reaped_after < Duration::from_secs(5),
        "reaped too late ({reaped_after:?})"
    );
    let snap = server.stats();
    assert!(snap.slow_reaped >= 1, "slow_reaped not counted: {snap:?}");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_counted() {
    let (mut server, _local) = start(ConnLimits {
        idle_timeout: Duration::from_millis(120),
        ..ConnLimits::default()
    });
    let mut idle = TcpStream::connect(server.addr()).unwrap();

    // The peer says nothing at all; within a few sweep periods the server
    // must close it.
    let bytes = read_until_eof(&mut idle, Duration::from_secs(3));
    assert!(bytes.is_empty(), "unexpected data on an idle connection");
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let snap = server.stats();
        if snap.idle_reaped >= 1 {
            assert_eq!(snap.open_conns, 0, "gauge must drop back to zero");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle conn never reaped: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn connection_limit_refuses_typed_at_accept() {
    let (mut server, local) = start(ConnLimits {
        max_connections: 2,
        ..ConnLimits::default()
    });
    let addr = server.addr();

    // Two residents, both registered (a round trip proves acceptance).
    let mut a = ServeClient::connect(addr).unwrap();
    let mut b = ServeClient::connect(addr).unwrap();
    a.health().unwrap();
    b.health().unwrap();

    // A third connect is answered with a typed Overloaded frame, then
    // closed. A single connect is racey on a loaded one-core host (the
    // reactor may still be mid-registration and the probe can observe a
    // bare close), so retry until a *typed* refusal is observed or the
    // deadline passes — the claim is that the server refuses with a typed
    // frame, not that any particular probe sees it.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut refused = TcpStream::connect(addr).unwrap();
        let bytes = read_until_eof(&mut refused, Duration::from_secs(3));
        if bytes.len() >= 5 && bytes[0] == STATUS_OVERLOADED {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no typed refusal frame before the deadline (last probe got {} bytes)",
            bytes.len()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let snap = server.stats();
    assert!(snap.refused_accept >= 1, "refusals counted: {snap:?}");
    assert_eq!(snap.open_conns, 2);

    // The residents are unharmed.
    let sample = vec![-0.5; IN_DIM];
    assert_eq!(a.infer(&sample).unwrap(), local.infer_one(&sample).unwrap());

    // Capacity freed by a departing resident is reusable.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut c = loop {
        if let Ok(mut c) = ServeClient::connect(addr) {
            if c.health().is_ok() {
                break c;
            }
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(c.infer(&sample).is_ok());
    server.shutdown();
}

#[test]
fn oversized_length_prefix_gets_bad_request_then_close() {
    let (mut server, _local) = start(ConnLimits::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let mut hdr = vec![OP_INFER];
    hdr.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.write_all(&hdr).unwrap();

    let bytes = read_until_eof(&mut raw, Duration::from_secs(3));
    assert!(bytes.len() >= 5, "no error frame before close");
    assert_eq!(bytes[0], STATUS_BAD_REQUEST);
    // After the error frame the server hung up (EOF was reached) — any
    // following write eventually errors.
    let mut dead = false;
    for _ in 0..50 {
        if raw.write_all(&[0u8; 64]).is_err() {
            dead = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(dead, "connection survived a framing violation");
    server.shutdown();
}

#[test]
fn pipelined_requests_answered_in_order() {
    let (mut server, local) = start(ConnLimits::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();

    // Fire 8 infer frames back-to-back without reading.
    let samples: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..IN_DIM)
                .map(|j| (i * IN_DIM + j) as f32 * 0.13 - 1.0)
                .collect()
        })
        .collect();
    let mut burst = Vec::new();
    for s in &samples {
        protocol::write_frame(&mut burst, OP_INFER, &protocol::encode_f32s(s)).unwrap();
    }
    raw.write_all(&burst).unwrap();

    // Responses come back in request order, each bit-exact.
    for (i, s) in samples.iter().enumerate() {
        let (status, body) = protocol::read_frame(&mut raw).unwrap();
        assert_eq!(status, STATUS_OK, "pipelined request {i} failed");
        let got = protocol::decode_f32s(&body).unwrap();
        let want = local.infer_one(s).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "pipelined request {i} corrupted or misordered"
        );
    }
    // Requests that arrive together leave together: the burst was queued as
    // one tick's work and the worker took what was waiting, with no timer
    // to hold a batch open.
    let snap = server.stats();
    assert_eq!(snap.completed, 8);
    assert!(
        snap.batches < 8,
        "a burst in one write must coalesce, got {} batches",
        snap.batches
    );
    server.shutdown();
}

#[test]
fn pipelining_beyond_bound_is_throttled_not_dropped() {
    // max_pipeline 2: the server stops reading while 2 requests are in
    // flight, but every request still gets exactly one in-order answer.
    let (mut server, local) = start(ConnLimits {
        max_pipeline: 2,
        ..ConnLimits::default()
    });
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let samples: Vec<Vec<f32>> = (0..12)
        .map(|i| vec![i as f32 * 0.07 - 0.4; IN_DIM])
        .collect();
    let mut burst = Vec::new();
    for s in &samples {
        protocol::write_frame(&mut burst, OP_INFER, &protocol::encode_f32s(s)).unwrap();
    }
    raw.write_all(&burst).unwrap();
    for (i, s) in samples.iter().enumerate() {
        let (status, body) = protocol::read_frame(&mut raw).unwrap();
        assert_eq!(status, STATUS_OK, "request {i}");
        assert_eq!(
            protocol::decode_f32s(&body).unwrap(),
            local.infer_one(s).unwrap(),
            "request {i} corrupted under pipeline throttling"
        );
    }
    server.shutdown();
}

#[test]
fn half_closed_pipeliner_past_the_bound_gets_every_answer() {
    // The peer's EOF arrives while frames past the pipelining bound are
    // still in the decoder: the socket has nothing more to read, and those
    // frames are owed answers all the same.
    let (mut server, local) = start(ConnLimits {
        max_pipeline: 2,
        ..ConnLimits::default()
    });
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let samples: Vec<Vec<f32>> = (0..8)
        .map(|i| {
            (0..IN_DIM)
                .map(|j| (i * IN_DIM + j) as f32 * 0.11 - 0.9)
                .collect()
        })
        .collect();
    let mut burst = Vec::new();
    for s in &samples {
        protocol::write_frame(&mut burst, OP_INFER, &protocol::encode_f32s(s)).unwrap();
    }
    raw.write_all(&burst).unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for (i, s) in samples.iter().enumerate() {
        let (status, body) = protocol::read_frame(&mut raw)
            .unwrap_or_else(|e| panic!("answer {i} of {} never came: {e}", samples.len()));
        assert_eq!(status, STATUS_OK, "request {i}");
        assert_eq!(
            protocol::decode_f32s(&body)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            local
                .infer_one(s)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "request {i} corrupted or misordered"
        );
    }
    let mut after = [0u8; 1];
    let eof = raw.read(&mut after);
    assert!(
        matches!(eof, Ok(0)),
        "expected EOF after the last answer, got {eof:?}"
    );
    server.shutdown();
}

#[test]
fn request_deadline_sheds_typed_through_the_wire() {
    // A zero-ish request deadline: everything expires in the queue and
    // must come back as a typed deadline status, never a hang.
    let (mut server, _local) = start(ConnLimits {
        request_timeout: Duration::from_nanos(1),
        ..ConnLimits::default()
    });
    let mut client = ServeClient::connect(server.addr()).unwrap();
    match client.infer(&[0.1; IN_DIM]) {
        Err(ServeError::DeadlineExceeded { .. }) => {}
        other => panic!("expected DeadlineExceeded over the wire, got {other:?}"),
    }
    let snap = server.stats();
    assert_eq!(snap.deadline_expired, 1);
    assert_eq!(snap.completed, 0, "expired work must not run");
    assert_eq!(
        snap.inline_requests, 1,
        "a lone request takes the reactor's own path, which must shed it the same way"
    );
    server.shutdown();
}

#[test]
fn shutdown_notice_is_typed_on_idle_connections() {
    let (mut server, _local) = start(ConnLimits::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client.health().unwrap();
    server.shutdown();
    // The pushed SHUTTING_DOWN frame (or a closed socket) is what the next
    // round trip sees.
    match client.infer(&[0.0; IN_DIM]) {
        Err(ServeError::ShuttingDown) | Err(ServeError::Io(_)) => {}
        other => panic!("expected typed shutdown, got {other:?}"),
    }
    // And the raw bytes really are the typed status, when they made it out.
    let (mut server2, _) = start(ConnLimits::default());
    let mut raw = TcpStream::connect(server2.addr()).unwrap();
    // Ensure registration before shutdown.
    protocol::write_frame(&mut raw, apt_serve::protocol::OP_HEALTH, &[]).unwrap();
    let (status, _) = protocol::read_frame(&mut raw).unwrap();
    assert_eq!(status, STATUS_OK);
    server2.shutdown();
    let bytes = read_until_eof(&mut raw, Duration::from_secs(3));
    if bytes.len() >= 5 {
        assert_eq!(bytes[0], STATUS_SHUTTING_DOWN);
    }
}

/// A model slow enough (about a million MACs a sample) that requests stay
/// in flight for milliseconds: a reactor that spins instead of sleeping
/// shows up as thousands of wake-ups in that time.
const SLOW_DIM: usize = 1024;

fn start_slow(limits: ConnLimits) -> (Server, InferenceSession) {
    start_on(mlp_session(SLOW_DIM, SLOW_DIM), limits)
}

/// Sends `n` infer frames in one write, optionally half-closes, reads the
/// `n` in-order answers back, and returns how often the reactor woke up
/// from the moment the burst was sent.
fn wakeups_for_burst(server: &Server, local: &InferenceSession, n: usize, half_close: bool) -> u64 {
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let samples: Vec<Vec<f32>> = (0..n)
        .map(|i| vec![i as f32 * 0.01 - 0.05; SLOW_DIM])
        .collect();
    let mut burst = Vec::new();
    for s in &samples {
        protocol::write_frame(&mut burst, OP_INFER, &protocol::encode_f32s(s)).unwrap();
    }
    let before = server.stats().reactor_wakeups;
    raw.write_all(&burst).unwrap();
    if half_close {
        raw.shutdown(std::net::Shutdown::Write).unwrap();
    }
    for (i, s) in samples.iter().enumerate() {
        let (status, body) = protocol::read_frame(&mut raw).unwrap();
        assert_eq!(status, STATUS_OK, "request {i}");
        assert_eq!(
            protocol::decode_f32s(&body).unwrap(),
            local.infer_one(s).unwrap(),
            "request {i} corrupted"
        );
    }
    server.stats().reactor_wakeups - before
}

#[cfg(unix)] // elsewhere the wait is a short sleep, not a block
#[test]
fn idle_server_sleeps_through_idle_connections() {
    let (mut server, _local) = start(ConnLimits::default());
    let squatters: Vec<TcpStream> = (0..50)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open_conns < 50 {
        assert!(Instant::now() < deadline, "squatters never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Nothing is due for a minute (the idle deadline): the reactor has no
    // reason to wake.
    let before = server.stats().reactor_wakeups;
    std::thread::sleep(Duration::from_millis(300));
    let woke = server.stats().reactor_wakeups - before;
    assert!(woke <= 20, "idle reactor woke {woke} times in 300 ms");
    drop(squatters);
    server.shutdown();
}

#[cfg(unix)] // elsewhere the wait is a short sleep, not a block
#[test]
fn half_closed_peer_with_work_in_flight_does_not_spin_the_reactor() {
    // The peer's EOF stays readable for as long as the socket is open; a
    // connection that is only waiting for its answers must not be polled
    // for it.
    let (mut server, local) = start_slow(ConnLimits::default());
    let woke = wakeups_for_burst(&server, &local, 16, true);
    assert!(woke <= 100, "reactor woke {woke} times for 16 requests");
    server.shutdown();
}

#[cfg(unix)] // elsewhere the wait is a short sleep, not a block
#[test]
fn connection_parked_at_the_pipelining_bound_does_not_spin_the_reactor() {
    // Ten unread requests sit in the socket and the decoder while two are
    // in flight: readable the whole time, and not to be read.
    let (mut server, local) = start_slow(ConnLimits {
        max_pipeline: 2,
        ..ConnLimits::default()
    });
    let woke = wakeups_for_burst(&server, &local, 12, false);
    assert!(woke <= 150, "reactor woke {woke} times for 12 requests");
    server.shutdown();
}

/// Round trips each closed-loop test below times, after one to warm up.
const LOOP_N: u32 = 300;

/// Runs `1 + LOOP_N` closed-loop round trips on `client` and returns how
/// long the last `LOOP_N` took.
fn closed_loop(client: &mut ServeClient) -> Duration {
    let sample = [0.25; IN_DIM];
    client.infer(&sample).unwrap();
    let t0 = Instant::now();
    for _ in 0..LOOP_N {
        client.infer(&sample).unwrap();
    }
    t0.elapsed()
}

#[test]
fn a_closed_loop_peer_cannot_drive_the_tick_rate() {
    // Tick moderation: with an idle connection open, every rest runs its
    // full period (60 µs), so ticks that serve something are at least that
    // far apart however small the model and however fast the peer turns
    // around, and no rest ends early. Only the lower bound is asserted — a
    // timed wait never returns early, so it holds on any host.
    let (mut server, _local) = start(ConnLimits::default());
    let mut other = ServeClient::connect(server.addr()).unwrap();
    other.health().unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let took = closed_loop(&mut client);
    assert!(
        took >= Duration::from_micros(60) * (LOOP_N - 1),
        "{LOOP_N} round trips, one tick each, took only {took:?}"
    );
    let snap = server.stats();
    assert_eq!(snap.inline_requests, u64::from(LOOP_N) + 1);
    assert!(
        snap.reactor_rests >= u64::from(LOOP_N),
        "{} rests for {LOOP_N} served ticks",
        snap.reactor_rests
    );
    assert_eq!(
        snap.reactor_rests_early, 0,
        "a rest ended early while a connection had sent nothing"
    );
    server.shutdown();
}

#[test]
fn a_lone_closed_loop_peer_is_never_made_to_rest() {
    // One connection open: no other request could meet this one's in a
    // tick, so the reactor goes straight back to its wait.
    let (mut server, _local) = start(ConnLimits::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    closed_loop(&mut client);
    let snap = server.stats();
    assert_eq!(snap.inline_requests, u64::from(LOOP_N) + 1);
    assert_eq!(snap.reactor_rests, 0, "a lone connection waited out a rest");
    server.shutdown();
}

#[test]
fn shutdown_interrupts_a_reactor_blocked_in_its_wait() {
    let (mut server, _local) = start(ConnLimits::default());
    let mut idle = ServeClient::connect(server.addr()).unwrap();
    idle.health().unwrap();
    // No traffic and no deadline for a minute: the reactor is blocked.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(100),
        "shutdown took {took:?} with the reactor asleep"
    );
}

#[test]
fn retry_policy_rides_out_overload() {
    // Tiny queue, one request per batch: bare sends shed; retried sends
    // eventually land.
    let s = session();
    let server = Server::start(
        s.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: 1,
                queue_depth: 1,
            },
            model_name: "retry-test".to_string(),
            limits: ConnLimits::default(),
        },
    )
    .unwrap();
    let addr = server.addr();
    let mut threads = Vec::new();
    for t in 0..6 {
        let s = s.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).unwrap();
            let policy = apt_serve::RetryPolicy {
                max_retries: 40,
                base_delay: Duration::from_micros(200),
                max_delay: Duration::from_millis(10),
                jitter: 0.5,
                seed: t,
            };
            let sample = vec![t as f32 * 0.11; IN_DIM];
            let got = client.infer_retry(&sample, &policy).unwrap();
            assert_eq!(got, s.infer_one(&sample).unwrap());
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut server = server;
    server.shutdown();
}
