//! End-to-end tests for the TCP front-end: protocol round trips, bit-exact
//! inference through the full stack, concurrent-load integrity, and
//! graceful shutdown.

use apt_nn::checkpoint;
use apt_serve::protocol::{
    self, OP_INFER, OP_INFER_MODEL, STATUS_BAD_REQUEST, STATUS_DEADLINE_EXCEEDED, STATUS_OK,
    STATUS_OVERLOADED,
};
use apt_serve::{
    BatchPolicy, ConnLimits, InferenceSession, ModelArch, ModelRegistry, ModelSpec, RegistryConfig,
    ServeClient, ServeError, Server, ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::Duration;

/// libtest runs this file's tests on parallel threads, and a test that
/// reads how requests met in the reactor's ticks reads how fast both
/// clients got the CPU: each test holds this lock, shared, and such a test
/// holds it alone.
static CPU: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(|e| e.into_inner())
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(|e| e.into_inner())
}

fn session(dims: &[usize]) -> InferenceSession {
    let spec = ModelSpec {
        arch: ModelArch::Mlp(dims.to_vec()),
        classes: *dims.last().unwrap(),
        img_size: 0,
        width_mult: 1.0,
    };
    let mut net = spec.build().unwrap();
    let blob = checkpoint::save_full(&mut net);
    InferenceSession::from_checkpoint(&spec, &blob).unwrap()
}

fn start_server(dims: &[usize], policy: BatchPolicy) -> (Server, InferenceSession) {
    start_limited(dims, policy, ConnLimits::default())
}

fn start_limited(
    dims: &[usize],
    policy: BatchPolicy,
    limits: ConnLimits,
) -> (Server, InferenceSession) {
    let (server, s, _fleet) = start_fleet(dims, policy, limits);
    (server, s)
}

/// A server over a registry the test keeps, to publish into while it runs
/// (what `apt serve` does on a reload).
fn start_fleet(
    dims: &[usize],
    policy: BatchPolicy,
    limits: ConnLimits,
) -> (Server, InferenceSession, Arc<ModelRegistry>) {
    let s = session(dims);
    let fleet = Arc::new(ModelRegistry::new(RegistryConfig::default()));
    fleet.publish("test-mlp", s.clone()).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        policy,
        model_name: "test-mlp".to_string(),
        limits,
    };
    let server = Server::start_with_registry(Arc::clone(&fleet), config).unwrap();
    (server, s, fleet)
}

#[test]
fn infer_over_tcp_is_bit_exact() {
    let _shared = shared();
    let (mut server, local) = start_server(&[6, 10, 4], BatchPolicy::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    for i in 0..5 {
        let sample: Vec<f32> = (0..6).map(|j| (i * 6 + j) as f32 * 0.17 - 1.0).collect();
        let want = local.infer_one(&sample).unwrap();
        let got = client.infer(&sample).unwrap();
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.to_bits(), b.to_bits(), "sample {i} diverged over TCP");
        }
    }

    let health = client.health().unwrap();
    assert!(health.contains("\"status\":\"ok\""));
    assert!(health.contains("test-mlp"));
    assert!(health.contains("\"sample_len\":6"));

    // One closed-loop client never has company: every request ran on the
    // reactor, as a batch of one, and the wire stats say so.
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"completed\":5"), "stats: {stats}");
    assert!(stats.contains("\"inline_requests\":5"), "stats: {stats}");
    assert!(stats.contains("\"batches\":5"), "stats: {stats}");
    assert!(stats.contains("\"reactor_wakeups\":"), "stats: {stats}");
    server.shutdown();
}

#[test]
fn inline_path_reads_the_registry_and_refuses_typed() {
    let _shared = shared();
    let (mut server, local, fleet) =
        start_fleet(&[6, 10, 4], BatchPolicy::default(), ConnLimits::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let sample: Vec<f32> = (0..6).map(|j| j as f32 * 0.2 - 0.5).collect();
    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&client.infer(&sample).unwrap()),
        bits(&local.infer_one(&sample).unwrap())
    );

    // A publish between two requests on one connection is honoured by the
    // second: admission resolves the registry on the inline path too.
    let mut net = apt_nn::models::mlp(
        "mlp",
        &[6, 10, 4],
        &apt_nn::QuantScheme::paper_apt(),
        &mut apt_tensor::rng::seeded(99),
    )
    .unwrap();
    let spec = ModelSpec {
        arch: ModelArch::Mlp(vec![6, 10, 4]),
        classes: 4,
        img_size: 0,
        width_mult: 1.0,
    };
    let swapped =
        InferenceSession::from_checkpoint(&spec, &checkpoint::save_full(&mut net)).unwrap();
    let want = swapped.infer_one(&sample).unwrap();
    assert_ne!(bits(&want), bits(&local.infer_one(&sample).unwrap()));
    fleet.publish("test-mlp", swapped).unwrap();
    assert_eq!(bits(&client.infer(&sample).unwrap()), bits(&want));

    // A wrong-length sample is refused before anything runs, in band.
    match client.infer(&sample[..4]) {
        Err(ServeError::BadRequest { reason }) => assert!(reason.contains("expects 6"), "{reason}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(client.infer(&sample).is_ok(), "connection died");

    let snap = server.stats();
    assert_eq!((snap.completed, snap.inline_requests), (3, 3));
    assert_eq!((snap.batches, snap.errors, snap.shed), (3, 0, 0));
    server.shutdown();
}

#[test]
fn concurrent_clients_lose_nothing() {
    let _shared = shared();
    let policy = BatchPolicy {
        max_batch: 8,
        queue_depth: 256,
    };
    let (mut server, local) = start_server(&[4, 12, 3], policy);
    let addr = server.addr();

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 25;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let local = local.clone();
        handles.push(thread::spawn(move || {
            let mut client = ServeClient::connect(addr).unwrap();
            for r in 0..PER_CLIENT {
                let sample: Vec<f32> = (0..4)
                    .map(|j| ((c * 31 + r * 7 + j) % 13) as f32 * 0.21 - 1.2)
                    .collect();
                let want = local.infer_one(&sample).unwrap();
                let got = client.infer(&sample).unwrap();
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "client {c} request {r} corrupted"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let snap = server.stats();
    assert_eq!(snap.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.shed, 0);
    assert!(snap.batches <= snap.completed);
    server.shutdown();
}

/// Reads one unsigned counter out of the `OP_STATS` JSON: the number that
/// follows `key`.
fn stat_after(json: &str, key: &str) -> u64 {
    let at = json.find(key).map_or(json.len(), |i| i + key.len());
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or(0)
}

/// Two closed-loop clients at the default policy keep meeting in batches
/// of two with no timer holding a batch open: the reactor's rest lets it
/// admit their requests in one tick, and it runs them as one batch. The
/// 60 % floor sits well below the share this test read on a two-core host
/// (60 runs: 0.91–1.00); taking only the first job reads 0. The share
/// needs both clients on a CPU while the reactor rests, so the test runs
/// with none of this file's other tests beside it.
#[test]
fn two_closed_loop_clients_batch_without_a_timer() {
    let _alone = alone();
    let (mut server, local) = start_server(&[6, 10, 4], BatchPolicy::default());
    let addr = server.addr();
    const ROUND_TRIPS: usize = 300;
    let barrier = std::sync::Barrier::new(2);
    let mut clients: Vec<ServeClient> = (0..2)
        .map(|_| ServeClient::connect(addr).unwrap())
        .collect();
    thread::scope(|s| {
        for (c, client) in clients.iter_mut().enumerate() {
            let (barrier, local) = (&barrier, &local);
            s.spawn(move || {
                barrier.wait();
                for r in 0..ROUND_TRIPS {
                    let sample: Vec<f32> = (0..6).map(|j| ((c + r + j) % 7) as f32 * 0.3).collect();
                    let got = client.infer(&sample).unwrap();
                    assert_eq!(
                        got,
                        local.infer_one(&sample).unwrap(),
                        "client {c} request {r}"
                    );
                }
            });
        }
    });
    let stats = clients[0].stats_json().unwrap();
    let completed = stat_after(&stats, "\"completed\":");
    let in_pairs = 2 * stat_after(&stats, "{\"size\":2,\"count\":");
    assert_eq!(completed, 2 * ROUND_TRIPS as u64, "stats: {stats}");
    let share = in_pairs as f64 / completed as f64;
    println!("size-2 share {share:.3}");
    assert!(
        share >= 0.6,
        "{share:.3} of requests ran in pairs; stats: {stats}"
    );
    server.shutdown();
}

/// Two closed-loop clients: once both have sent, the reactor's rest ends
/// without waiting out its period. Each client sends its next request as
/// soon as its answer is back, so over 300 round trips each some rest
/// sees both requests arrive; a rest that always ran its full period
/// reads 0.
#[test]
fn a_rest_ends_once_every_connection_has_sent() {
    let _alone = alone();
    let (mut server, _local) = start_server(&[6, 10, 4], BatchPolicy::default());
    let addr = server.addr();
    const ROUND_TRIPS: usize = 300;
    let barrier = std::sync::Barrier::new(2);
    thread::scope(|s| {
        for _ in 0..2 {
            let barrier = &barrier;
            s.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                barrier.wait();
                for _ in 0..ROUND_TRIPS {
                    client.infer(&[0.25; 6]).unwrap();
                }
            });
        }
    });
    let snap = server.stats();
    server.shutdown();
    assert_eq!(snap.completed, 2 * ROUND_TRIPS as u64, "{snap:?}");
    assert!(snap.reactor_rests_early >= 1, "{snap:?}");
}

#[test]
fn protocol_errors_answered_in_band() {
    let _shared = shared();
    let (mut server, _local) = start_server(&[3, 5, 2], BatchPolicy::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // Wrong sample length: typed BadRequest, connection survives.
    match client.infer(&[1.0, 2.0]) {
        Err(ServeError::BadRequest { .. }) => {}
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert!(client.infer(&[0.1, 0.2, 0.3]).is_ok(), "connection died");

    // Unknown op: BadRequest status, connection survives.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&protocol::encode_frame(99, &[])).unwrap();
    let status = protocol::read_frame(&mut raw, &mut Vec::new()).unwrap();
    assert_eq!(status, STATUS_BAD_REQUEST);
    raw.write_all(&protocol::encode_frame(
        OP_INFER,
        &protocol::encode_f32s(&[0.0, 0.0, 0.0]),
    ))
    .unwrap();
    let status = protocol::read_frame(&mut raw, &mut Vec::new()).unwrap();
    assert_eq!(status, STATUS_OK);

    server.shutdown();
}

#[test]
fn model_infer_routes_and_unknown_model_is_typed() {
    let _shared = shared();
    let (mut server, local, fleet) =
        start_fleet(&[6, 10, 4], BatchPolicy::default(), ConnLimits::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let sample: Vec<f32> = (0..6).map(|j| j as f32 * 0.3 - 0.8).collect();
    let want = local.infer_one(&sample).unwrap();

    // Naming the default model explicitly answers bit-identically to the
    // plain infer op.
    let got = client.infer_model("test-mlp", &sample).unwrap();
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );

    // An unknown model is a typed in-band failure carrying the id; the
    // connection survives it.
    match client.infer_model("no-such-model", &sample) {
        Err(ServeError::ModelUnavailable { model, reason }) => {
            assert_eq!(model, "no-such-model");
            assert!(!reason.is_empty());
        }
        other => panic!("expected ModelUnavailable, got {other:?}"),
    }
    assert!(client.infer(&sample).is_ok(), "connection died");

    // The miss is visible in the fleet counters and health keeps serving.
    let stats = client.stats_json().unwrap();
    assert!(stats.contains("\"model_unavailable\":1"), "stats: {stats}");
    assert!(stats.contains("\"models_resident\":1"), "stats: {stats}");
    let health = client.health().unwrap();
    assert!(health.contains("\"models_resident\":1"), "health: {health}");

    // A second model published under live traffic serves its own plan.
    let other = session(&[6, 10, 4]);
    let want_b = other.infer_one(&sample).unwrap();
    fleet.publish("side", other).unwrap();
    let got_b = client.infer_model("side", &sample).unwrap();
    assert_eq!(
        got_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_and_refuses() {
    let _shared = shared();
    let (mut server, _local) = start_server(&[3, 4, 2], BatchPolicy::default());
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    client.infer(&[0.5, 0.5, 0.5]).unwrap();

    server.shutdown();

    // Existing connection: next round trip sees shutdown (in-band status)
    // or a closed socket — never a hang or a corrupt frame.
    match client.infer(&[0.5, 0.5, 0.5]) {
        Err(ServeError::ShuttingDown) | Err(ServeError::Io(_)) => {}
        Ok(_) => panic!("request answered after shutdown"),
        Err(e) => panic!("unexpected error after shutdown: {e}"),
    }

    // New connections are refused once the listener is gone.
    assert!(TcpStream::connect(addr).is_err());

    // Idempotent.
    server.shutdown();
}

/// Writes every `(op, payload)` frame in one `write_all` — so the server
/// reads them in one tick — and reads back one answer per frame.
fn pipelined(raw: &mut TcpStream, frames: &[(u8, Vec<u8>)]) -> Vec<(u8, Vec<u8>)> {
    let mut burst = Vec::new();
    for (op, payload) in frames {
        burst.extend(protocol::encode_frame(*op, payload));
    }
    raw.write_all(&burst).unwrap();
    frames
        .iter()
        .map(|_| {
            let mut body = Vec::new();
            (protocol::read_frame(raw, &mut body).unwrap(), body)
        })
        .collect()
}

/// The float bits of an `OK` answer.
fn answer_bits(status: u8, body: &[u8]) -> Vec<u32> {
    assert_eq!(status, STATUS_OK, "{}", String::from_utf8_lossy(body));
    let row = protocol::decode_f32s(body).unwrap();
    row.iter().map(|v| v.to_bits()).collect()
}

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

/// A named-model infer payload, laid out by hand.
fn model_infer(model: &str, sample: &[f32]) -> Vec<u8> {
    let mut payload = vec![protocol::MODEL_INFER_V1, model.len() as u8];
    payload.extend_from_slice(model.as_bytes());
    payload.extend_from_slice(&protocol::encode_f32s(sample));
    payload
}

/// Rounds each pipelining test below runs; every round's frames land in
/// one tick.
const PIPELINED_ROUNDS: usize = 50;

#[test]
fn two_requests_in_one_tick_run_inline_as_one_batch() {
    let _shared = shared();
    let (mut server, local) = start_server(&[6, 10, 4], BatchPolicy::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    for r in 0..PIPELINED_ROUNDS {
        let samples: Vec<Vec<f32>> = (0..2)
            .map(|i| {
                (0..6)
                    .map(|j| ((r + 3 * i + j) % 11) as f32 * 0.19 - 0.9)
                    .collect()
            })
            .collect();
        let frames: Vec<_> = samples
            .iter()
            .map(|s| (OP_INFER, protocol::encode_f32s(s)))
            .collect();
        for (i, ((status, body), s)) in pipelined(&mut raw, &frames)
            .iter()
            .zip(&samples)
            .enumerate()
        {
            assert_eq!(
                answer_bits(*status, body),
                bits(&local.infer_one(s).unwrap()),
                "round {r} request {i} corrupted or misordered"
            );
        }
    }
    let snap = server.stats();
    let rounds = PIPELINED_ROUNDS as u64;
    assert_eq!(snap.batch_hist, vec![(2, rounds)], "{snap:?}");
    assert_eq!(
        (snap.inline_requests, snap.completed),
        (2 * rounds, 2 * rounds)
    );
    server.shutdown();
}

#[test]
fn a_tick_over_max_batch_runs_on_the_reactor() {
    let _shared = shared();
    const MAX_BATCH: usize = 4;
    let policy = BatchPolicy {
        max_batch: MAX_BATCH,
        ..BatchPolicy::default()
    };
    let (mut server, local) = start_server(&[6, 10, 4], policy);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    for r in 0..PIPELINED_ROUNDS {
        let samples: Vec<Vec<f32>> = (0..=MAX_BATCH)
            .map(|i| {
                (0..6)
                    .map(|j| ((r + 5 * i + j) % 13) as f32 * 0.17 - 1.0)
                    .collect()
            })
            .collect();
        let frames: Vec<_> = samples
            .iter()
            .map(|s| (OP_INFER, protocol::encode_f32s(s)))
            .collect();
        for (i, ((status, body), s)) in pipelined(&mut raw, &frames)
            .iter()
            .zip(&samples)
            .enumerate()
        {
            assert_eq!(
                answer_bits(*status, body),
                bits(&local.infer_one(s).unwrap()),
                "round {r} request {i} corrupted or misordered"
            );
        }
    }
    // Each round's tick runs one full chunk and the one request left over.
    let snap = server.stats();
    let rounds = PIPELINED_ROUNDS as u64;
    let requests = rounds * (MAX_BATCH as u64 + 1);
    assert_eq!((snap.inline_requests, snap.completed), (requests, requests));
    assert!(
        snap.batch_hist.iter().all(|&(size, _)| size <= MAX_BATCH),
        "{snap:?}"
    );
    assert_eq!(
        snap.batch_hist,
        vec![(1, rounds), (MAX_BATCH, rounds)],
        "{snap:?}"
    );
    server.shutdown();
}

#[test]
fn a_tick_that_mixes_plans_runs_on_the_reactor() {
    let _shared = shared();
    let (mut server, local, fleet) =
        start_fleet(&[6, 10, 4], BatchPolicy::default(), ConnLimits::default());
    let mut net = apt_nn::models::mlp(
        "mlp",
        &[6, 10, 4],
        &apt_nn::QuantScheme::paper_apt(),
        &mut apt_tensor::rng::seeded(41),
    )
    .unwrap();
    let spec = ModelSpec {
        arch: ModelArch::Mlp(vec![6, 10, 4]),
        classes: 4,
        img_size: 0,
        width_mult: 1.0,
    };
    let side = InferenceSession::from_checkpoint(&spec, &checkpoint::save_full(&mut net)).unwrap();
    fleet.publish("side", side.clone()).unwrap();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let sample: Vec<f32> = (0..6).map(|j| j as f32 * 0.3 - 0.7).collect();
    let (want_main, want_side) = (
        bits(&local.infer_one(&sample).unwrap()),
        bits(&side.infer_one(&sample).unwrap()),
    );
    assert_ne!(want_main, want_side, "the two plans must differ");
    for r in 0..PIPELINED_ROUNDS {
        let frames = [
            (OP_INFER_MODEL, model_infer("test-mlp", &sample)),
            (OP_INFER_MODEL, model_infer("side", &sample)),
        ];
        let answers = pipelined(&mut raw, &frames);
        assert_eq!(
            answer_bits(answers[0].0, &answers[0].1),
            want_main,
            "round {r}"
        );
        assert_eq!(
            answer_bits(answers[1].0, &answers[1].1),
            want_side,
            "round {r}"
        );
    }
    // One plan run per plan: two batches of one a round.
    let snap = server.stats();
    let requests = 2 * PIPELINED_ROUNDS as u64;
    assert_eq!((snap.inline_requests, snap.completed), (requests, requests));
    assert_eq!(snap.batch_hist, vec![(1, requests)], "{snap:?}");
    server.shutdown();
}

#[test]
fn a_tick_sheds_what_it_admits_past_queue_depth() {
    let _shared = shared();
    const QUEUE_DEPTH: usize = 6;
    const SENT: usize = QUEUE_DEPTH + 4;
    let policy = BatchPolicy {
        max_batch: 4,
        queue_depth: QUEUE_DEPTH,
    };
    let (mut server, local) = start_server(&[6, 10, 4], policy);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    for r in 0..PIPELINED_ROUNDS {
        let samples: Vec<Vec<f32>> = (0..SENT)
            .map(|i| {
                (0..6)
                    .map(|j| ((r + 3 * i + j) % 7) as f32 * 0.23 - 0.6)
                    .collect()
            })
            .collect();
        let frames: Vec<_> = samples
            .iter()
            .map(|s| (OP_INFER, protocol::encode_f32s(s)))
            .collect();
        let answers = pipelined(&mut raw, &frames);
        for (i, ((status, body), s)) in answers.iter().zip(&samples).enumerate() {
            if i < QUEUE_DEPTH {
                assert_eq!(
                    answer_bits(*status, body),
                    bits(&local.infer_one(s).unwrap()),
                    "round {r} request {i}"
                );
            } else {
                assert_eq!(*status, STATUS_OVERLOADED, "round {r} request {i}");
            }
        }
    }
    let snap = server.stats();
    let rounds = PIPELINED_ROUNDS as u64;
    let (admitted, excess) = (QUEUE_DEPTH as u64, (SENT - QUEUE_DEPTH) as u64);
    assert_eq!(snap.shed, rounds * excess, "{snap:?}");
    assert_eq!(
        (snap.completed, snap.inline_requests),
        (rounds * admitted, rounds * admitted)
    );
    assert_eq!(snap.batch_hist, vec![(2, rounds), (4, rounds)], "{snap:?}");
    server.shutdown();
}

#[test]
fn expired_requests_in_one_tick_are_shed_inline() {
    let _shared = shared();
    let limits = ConnLimits {
        request_timeout: Duration::from_nanos(1),
        ..ConnLimits::default()
    };
    let (mut server, _local) = start_limited(&[6, 10, 4], BatchPolicy::default(), limits);
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    let frames = [
        (OP_INFER, protocol::encode_f32s(&[0.1; 6])),
        (OP_INFER, protocol::encode_f32s(&[0.2; 6])),
    ];
    for (status, body) in pipelined(&mut raw, &frames) {
        assert_eq!(
            status,
            STATUS_DEADLINE_EXCEEDED,
            "{}",
            String::from_utf8_lossy(&body)
        );
    }
    let snap = server.stats();
    assert_eq!(snap.completed, 0, "expired work must not run");
    assert_eq!((snap.deadline_expired, snap.inline_requests), (2, 2));
    assert_eq!(snap.batches, 0, "{snap:?}");
    server.shutdown();
}
