//! Serving benchmark: throughput cells (batch-policy × threads × bitwidth)
//! plus three robustness cells that attack the connection plane.
//!
//! Every cell trains nothing — it freezes a deterministic quantized MLP
//! into an [`InferenceSession`], starts a real [`Server`] on an ephemeral
//! loopback port, and drives it with concurrent [`ServeClient`]
//! connections. Each client knows the bit-exact expected output for every
//! sample it sends (computed locally through the same frozen session), so
//! the sweep doubles as an end-to-end correctness check: any lost,
//! corrupted, or misrouted response is counted and fails the smoke gate.
//!
//! The robustness cells exercise the overload model and the model fleet:
//!
//! * **soak** — [`SOAK_CONNS`] idle connections squat on the server while
//!   one healthy client keeps working; a counting global allocator bounds
//!   the per-connection heap cost and the healthy stream must stay
//!   bit-exact.
//! * **slowloris** — byte-dribbling writers hold frames open past the read
//!   deadline; the server must reap them (typed `slow_reaped` accounting)
//!   without disturbing concurrent healthy clients.
//! * **overload** — closed-loop clients at several times the queue's
//!   capacity; every submission must resolve to a bit-exact answer or a
//!   typed `Overloaded`/`DeadlineExceeded` refusal, with client-observed
//!   counts matching the server's shed taxonomy exactly.
//! * **fleet** — [`FLEET_SWAPS`] hot-swaps of the default model under
//!   closed-loop load (every response bit-exact for the plan version that
//!   served it, swap p99 measured through the full validation ladder),
//!   then budgeted eviction: the cold tenant answers typed
//!   `ModelUnavailable` while the hot one keeps serving.
//! * **corruption** — a campaign of flipped and truncated checkpoint
//!   uploads hits the in-band reload path; 100% must be typed-rejected and
//!   quarantined with reason sidecars while the published plan serves on,
//!   bit-exact.
//!
//! Outputs: `results/serving.csv` + `BENCH_serving.json`.
//!
//! `--smoke` runs a reduced matrix and enforces the CI gates:
//! 1. zero lost/corrupted responses under concurrent load,
//! 2. batched throughput ≥ 2.0× single-sample throughput at 4 threads
//!    (enforced when the machine has ≥ 4 cores, like the kernels gate;
//!    smaller machines print the ratio ungated — a frozen plan leaves a
//!    single core too little per-request compute for coalescing to
//!    amortise),
//! 3. p99 latency under [`P99_BUDGET_US`] on the batched cell,
//! 4. soak: idle connections cost bounded heap and the healthy client
//!    holds p99 and bit-exactness,
//! 5. slowloris: every dribbler reaped, healthy clients unharmed,
//! 6. overload: exact typed accounting, nothing lost or corrupted,
//! 7. fleet: zero corruption across ≥100 hot-swaps, swap p99 under
//!    [`SWAP_P99_BUDGET_US`], typed eviction under memory pressure,
//! 8. corruption: every damaged upload quarantined, serving undisturbed,
//! 9. parity: the same k=4 checkpoint compiled for the dequant-free
//!    integer lane must achieve that lane with every response bit-exact
//!    and hold [`PARITY_INT_FLOOR_RPS`] on batched single-thread
//!    throughput — an absolute tripwire for the integer plan, set like the
//!    kernels bench sets its floors; its ratio to the dequant-cache plan
//!    is printed, ungated (DESIGN.md §14 says why it no longer wins),
//! 10. freeze: the compiled frozen plan must be at least as fast as
//!     `Network::forward_inference` on the same network and bit-identical
//!     to it (the bench MLP has no batch norm, so nothing folds and no
//!     drift is allowed),
//! 11. zero-alloc: once warm, a frozen session's `infer_into` steady
//!     state performs **zero** heap allocations per request, proven by
//!     the counting global allocator.

use apt_bench::results_dir;
use apt_core::faults::{flip_byte, truncate_file};
use apt_nn::{checkpoint, models, QuantScheme};
use apt_quant::Bitwidth;
use apt_serve::{
    protocol, BatchPolicy, ConnLimits, InferenceSession, KernelLane, ModelArch, ModelRegistry,
    ModelSpec, RegistryConfig, RetryPolicy, ServeClient, ServeError, Server, ServerConfig,
};
use apt_tensor::{par, rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Global allocator that tracks live (alloc − dealloc) heap bytes, so the
/// soak cell can assert that an idle connection costs bounded memory, and
/// counts allocation *calls*, so the zero-alloc cell can assert that a
/// frozen plan's steady state never touches the heap at all.
/// `realloc`/`alloc_zeroed` route through `alloc`+`dealloc` by default, so
/// overriding these two is sufficient.
struct TrackingAlloc;

static LIVE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
static ALLOC_CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), std::sync::atomic::Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), std::sync::atomic::Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn live_heap() -> usize {
    LIVE.load(std::sync::atomic::Ordering::Relaxed)
}

fn alloc_calls() -> usize {
    ALLOC_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

/// MLP geometry for every cell: big enough that a coalesced batch
/// amortises the weight-matrix traversal, small enough for CI.
const DIMS: &[usize] = &[256, 256, 128, 10];

/// Concurrent client connections per throughput cell.
const CLIENTS: usize = 8;

/// Distinct samples each client cycles through.
const DISTINCT: usize = 8;

/// Smoke-gate p99 budget (server-side queue→response latency).
const P99_BUDGET_US: u64 = 50_000;

/// Idle connections held open by the soak cell.
const SOAK_CONNS: usize = 1000;

/// Heap budget per idle connection (server side). A registered connection
/// is a table entry, an empty decoder, and an empty output buffer — 16 KiB
/// is an order of magnitude of headroom over the observed cost.
const SOAK_HEAP_PER_CONN: usize = 16 * 1024;

/// Byte-dribbling attackers in the slowloris cell.
const SLOWLORIS_ATTACKERS: usize = 4;

/// Closed-loop clients in the overload cell (~4× the queue's capacity).
const OVERLOAD_CLIENTS: usize = 24;

/// Hot-swaps performed under load by the fleet cell.
const FLEET_SWAPS: usize = 100;

/// Distinct checkpoint versions the fleet swapper rotates through.
const FLEET_VERSIONS: usize = 6;

/// Closed-loop clients hammering the default model during the swaps.
const FLEET_CLIENTS: usize = 4;

/// Smoke-gate p99 budget for one full hot-swap: the whole validation
/// ladder (structural verify → load + probe forward → digest stability)
/// plus the atomic publish, measured at the caller.
const SWAP_P99_BUDGET_US: u64 = 250_000;

/// Builds a frozen session at the given weight bitwidth (32 = fp32) via a
/// full checkpoint round-trip, exactly as `apt serve` would load it.
fn build_session(bits: u32) -> InferenceSession {
    build_session_lane(bits, KernelLane::default())
}

/// [`build_session`] with an explicit kernel-lane request. The parity
/// cells pin the lane; every other cell serves on the default cache.
fn build_session_lane(bits: u32, lane: KernelLane) -> InferenceSession {
    let blob = build_blob(bits, 11);
    InferenceSession::from_checkpoint_with_lane(&fleet_spec(), &blob, lane).expect("session loads")
}

/// The [`ModelSpec`] every fleet/corruption checkpoint loads against.
fn fleet_spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Mlp(DIMS.to_vec()),
        classes: *DIMS.last().expect("dims nonempty"),
        img_size: 0,
        width_mult: 1.0,
    }
}

/// A frozen network at the given weight bitwidth with weights drawn from
/// `seed` — distinct seeds give bit-distinguishable plans.
fn build_net(bits: u32, seed: u64) -> apt_nn::Network {
    let scheme = if bits == 32 {
        QuantScheme::float32()
    } else {
        QuantScheme::fully_quantized(Bitwidth::new(bits).expect("valid bitwidth"))
    };
    models::mlp("serve-bench", DIMS, &scheme, &mut rng::seeded(seed)).expect("model builds")
}

/// A current-version checkpoint blob for [`build_net`]'s network.
fn build_blob(bits: u32, seed: u64) -> Vec<u8> {
    checkpoint::save_full(&mut build_net(bits, seed))
}

/// One client's request samples and the outputs a local forward gives them.
type ClientWorkload = (Vec<Vec<f32>>, Vec<Vec<f32>>);

/// Deterministic per-client request sets with locally computed expected
/// outputs (bit-identical by batch invariance).
fn build_workloads(session: &InferenceSession, n: usize) -> Vec<ClientWorkload> {
    (0..n)
        .map(|c| {
            let mut r = rng::substream(997, c as u64);
            let samples: Vec<Vec<f32>> = (0..DISTINCT)
                .map(|_| rng::normal(&[DIMS[0]], 1.0, &mut r).into_vec())
                .collect();
            let expected: Vec<Vec<f32>> = samples
                .iter()
                .map(|s| session.infer_one(s).expect("local forward"))
                .collect();
            (samples, expected)
        })
        .collect()
}

#[derive(Clone)]
struct Policy {
    name: &'static str,
    max_batch: usize,
    max_delay_us: u64,
}

const POLICIES: &[Policy] = &[
    Policy {
        name: "single",
        max_batch: 1,
        max_delay_us: 0,
    },
    Policy {
        name: "batch8",
        max_batch: 8,
        max_delay_us: 2000,
    },
    Policy {
        name: "batch32",
        max_batch: 32,
        max_delay_us: 2000,
    },
];

struct Row {
    cell: &'static str,
    bits: u32,
    lane: &'static str,
    threads: usize,
    policy: &'static str,
    max_batch: usize,
    max_delay_us: u64,
    clients: usize,
    requests: u64,
    ok: u64,
    shed: u64,
    deadline_expired: u64,
    corrupted: u64,
    lost: u64,
    refused_accept: u64,
    idle_reaped: u64,
    slow_reaped: u64,
    wall_ms: f64,
    rps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    mean_batch: f64,
    swaps: u64,
    evictions: u64,
    quarantines: u64,
    model_unavailable: u64,
    swap_p99_us: u64,
}

/// Drives one throughput cell: starts a server, hammers it with [`CLIENTS`]
/// connections × `per_client` requests, verifies every response
/// bit-exactly, and reads the server-side histograms.
fn run_cell(
    bits: u32,
    threads: usize,
    policy: &Policy,
    per_client: usize,
    lane: KernelLane,
) -> Row {
    par::set_global_threads(threads);
    let session = build_session_lane(bits, lane);
    let achieved = session.lane();
    let workloads = build_workloads(&session, CLIENTS);

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        policy: BatchPolicy {
            max_batch: policy.max_batch,
            max_delay: Duration::from_micros(policy.max_delay_us),
            queue_depth: 128,
        },
        model_name: format!("mlp-k{bits}"),
        limits: ConnLimits::default(),
    };
    let mut server = Server::start(session, config).expect("server starts");
    let addr = server.addr();

    let t0 = Instant::now();
    let handles: Vec<_> = workloads
        .into_iter()
        .enumerate()
        .map(|(c, (samples, expected))| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut corrupted = 0u64;
                let mut lost = 0u64;
                let mut client = match ServeClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, per_client as u64),
                };
                // Typed backpressure is retried with jittered exponential
                // backoff; effectively unbounded so a transient shed never
                // counts as a lost request in the throughput cells.
                let retry = RetryPolicy {
                    max_retries: 10_000,
                    base_delay: Duration::from_micros(200),
                    max_delay: Duration::from_millis(2),
                    jitter: 0.5,
                    seed: c as u64,
                };
                for i in 0..per_client {
                    let which = i % DISTINCT;
                    match client.infer_retry(&samples[which], &retry) {
                        Ok(row) => {
                            let exact = row.len() == expected[which].len()
                                && row
                                    .iter()
                                    .zip(&expected[which])
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                            if exact {
                                ok += 1;
                            } else {
                                corrupted += 1;
                            }
                        }
                        Err(_) => lost += 1,
                    }
                }
                (ok, corrupted, lost)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut corrupted = 0u64;
    let mut lost = 0u64;
    for h in handles {
        let (o, c, l) = h.join().expect("client thread");
        ok += o;
        corrupted += c;
        lost += l;
    }
    let wall = t0.elapsed();
    let stats = server.stats();
    server.shutdown();

    Row {
        cell: "throughput",
        bits,
        lane: achieved.as_str(),
        threads,
        policy: policy.name,
        max_batch: policy.max_batch,
        max_delay_us: policy.max_delay_us,
        clients: CLIENTS,
        requests: (CLIENTS * per_client) as u64,
        ok,
        shed: stats.shed,
        deadline_expired: stats.deadline_expired,
        corrupted,
        lost,
        refused_accept: stats.refused_accept,
        idle_reaped: stats.idle_reaped,
        slow_reaped: stats.slow_reaped,
        wall_ms: wall.as_secs_f64() * 1e3,
        rps: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: stats.p50_us,
        p90_us: stats.p90_us,
        p99_us: stats.p99_us,
        mean_batch: stats.mean_batch,
        swaps: stats.swaps,
        evictions: stats.evictions,
        quarantines: stats.quarantines,
        model_unavailable: stats.model_unavailable,
        swap_p99_us: 0,
    }
}

/// Soak cell: [`SOAK_CONNS`] registered-but-silent connections squat on
/// the table while one healthy client keeps inferring. Returns the row and
/// whether the gates (bounded per-connection heap, healthy stream
/// bit-exact) held.
fn soak_cell(per_client: usize) -> (Row, bool) {
    par::set_global_threads(1);
    let session = build_session(8);
    let workloads = build_workloads(&session, 1);
    let mut gate_ok = true;

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        policy: BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_micros(2000),
            queue_depth: 128,
        },
        model_name: "mlp-k8-soak".to_string(),
        limits: ConnLimits {
            max_connections: SOAK_CONNS + 8,
            // Long enough that squatters survive the whole cell.
            idle_timeout: Duration::from_secs(600),
            ..ConnLimits::default()
        },
    };
    let mut server = Server::start(session, config).expect("server starts");
    let addr = server.addr();

    // Open the squatters and wait until the server has registered every
    // one, so the heap delta covers exactly SOAK_CONNS table entries.
    let heap_before = live_heap();
    let mut squatters = Vec::with_capacity(SOAK_CONNS);
    for _ in 0..SOAK_CONNS {
        squatters.push(TcpStream::connect(addr).expect("soak connect"));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = server.stats().open_conns;
        if open as usize >= SOAK_CONNS {
            break;
        }
        if Instant::now() > deadline {
            println!("FAIL: soak registered only {open}/{SOAK_CONNS} connections");
            gate_ok = false;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let heap_after = live_heap();
    let heap_delta = heap_after.saturating_sub(heap_before);
    // The bench process's own TcpStream handles allocate almost nothing;
    // the delta is dominated by the server's per-connection state.
    let budget = SOAK_CONNS * SOAK_HEAP_PER_CONN;
    println!(
        "  soak: {} idle conns cost {} KiB live heap ({} bytes/conn, budget {})",
        SOAK_CONNS,
        heap_delta / 1024,
        heap_delta / SOAK_CONNS.max(1),
        SOAK_HEAP_PER_CONN
    );
    if heap_delta > budget {
        println!(
            "FAIL: soak heap delta {} bytes exceeds {} ({} per conn)",
            heap_delta, budget, SOAK_HEAP_PER_CONN
        );
        gate_ok = false;
    }

    // One healthy client works through the crowd.
    let (samples, expected) = &workloads[0];
    let mut client = ServeClient::connect(addr).expect("healthy connect");
    let mut ok = 0u64;
    let mut corrupted = 0u64;
    let mut lost = 0u64;
    let t0 = Instant::now();
    for i in 0..per_client {
        let which = i % DISTINCT;
        match client.infer(&samples[which]) {
            Ok(row) => {
                let exact = row
                    .iter()
                    .zip(&expected[which])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                    && row.len() == expected[which].len();
                if exact {
                    ok += 1;
                } else {
                    corrupted += 1;
                }
            }
            Err(_) => lost += 1,
        }
    }
    let wall = t0.elapsed();
    let stats = server.stats();
    if corrupted != 0 || lost != 0 || ok != per_client as u64 {
        println!("FAIL: soak healthy client: {ok} ok, {corrupted} corrupted, {lost} lost");
        gate_ok = false;
    }
    if stats.p99_us > P99_BUDGET_US {
        println!(
            "FAIL: soak healthy p99 {}µs over {}µs budget",
            stats.p99_us, P99_BUDGET_US
        );
        gate_ok = false;
    }
    drop(squatters);
    server.shutdown();

    (
        Row {
            cell: "soak",
            bits: 8,
            lane: KernelLane::default().as_str(),
            threads: 1,
            policy: "batch8",
            max_batch: 8,
            max_delay_us: 2000,
            clients: SOAK_CONNS + 1,
            requests: per_client as u64,
            ok,
            shed: stats.shed,
            deadline_expired: stats.deadline_expired,
            corrupted,
            lost,
            refused_accept: stats.refused_accept,
            idle_reaped: stats.idle_reaped,
            slow_reaped: stats.slow_reaped,
            wall_ms: wall.as_secs_f64() * 1e3,
            rps: ok as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: stats.p50_us,
            p90_us: stats.p90_us,
            p99_us: stats.p99_us,
            mean_batch: stats.mean_batch,
            swaps: stats.swaps,
            evictions: stats.evictions,
            quarantines: stats.quarantines,
            model_unavailable: stats.model_unavailable,
            swap_p99_us: 0,
        },
        gate_ok,
    )
}

/// Slowloris cell: [`SLOWLORIS_ATTACKERS`] writers dribble one byte of an
/// open frame at a time while healthy clients run a full workload. Gates:
/// every attacker reaped (typed `slow_reaped`), healthy stream bit-exact.
fn slowloris_cell(per_client: usize) -> (Row, bool) {
    par::set_global_threads(1);
    let session = build_session(8);
    let healthy_n = 4;
    let workloads = build_workloads(&session, healthy_n);
    let mut gate_ok = true;

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        policy: BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_micros(2000),
            queue_depth: 128,
        },
        model_name: "mlp-k8-slowloris".to_string(),
        limits: ConnLimits {
            read_timeout: Duration::from_millis(300),
            ..ConnLimits::default()
        },
    };
    let mut server = Server::start(session, config).expect("server starts");
    let addr = server.addr();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let attackers: Vec<_> = (0..SLOWLORIS_ATTACKERS)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                // A valid header claiming a large frame, then a dribble the
                // server must not wait out.
                let mut s = match TcpStream::connect(addr) {
                    Ok(s) => s,
                    Err(_) => return,
                };
                let mut header = vec![protocol::OP_INFER];
                header.extend_from_slice(&100_000u32.to_le_bytes());
                if s.write_all(&header).is_err() {
                    return;
                }
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if s.write_all(&[0]).is_err() {
                        return; // reaped — mission accomplished (for us)
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
        })
        .collect();

    let t0 = Instant::now();
    let handles: Vec<_> = workloads
        .into_iter()
        .map(|(samples, expected)| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut corrupted = 0u64;
                let mut lost = 0u64;
                let mut client = match ServeClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, per_client as u64),
                };
                for i in 0..per_client {
                    let which = i % DISTINCT;
                    match client.infer(&samples[which]) {
                        Ok(row) => {
                            let exact = row.len() == expected[which].len()
                                && row
                                    .iter()
                                    .zip(&expected[which])
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                            if exact {
                                ok += 1;
                            } else {
                                corrupted += 1;
                            }
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            std::thread::sleep(Duration::from_micros(200));
                            lost += 1;
                        }
                        Err(_) => lost += 1,
                    }
                }
                (ok, corrupted, lost)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut corrupted = 0u64;
    let mut lost = 0u64;
    for h in handles {
        let (o, c, l) = h.join().expect("healthy client thread");
        ok += o;
        corrupted += c;
        lost += l;
    }

    // Give the sweeper time to reap every attacker, then stop them.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (server.stats().slow_reaped as usize) < SLOWLORIS_ATTACKERS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for a in attackers {
        a.join().expect("attacker thread");
    }
    let wall = t0.elapsed();
    let stats = server.stats();
    server.shutdown();

    println!(
        "  slowloris: {} attackers, {} reaped after {:.0}ms; healthy {}/{} ok",
        SLOWLORIS_ATTACKERS,
        stats.slow_reaped,
        wall.as_secs_f64() * 1e3,
        ok,
        healthy_n * per_client
    );
    if (stats.slow_reaped as usize) < SLOWLORIS_ATTACKERS {
        println!(
            "FAIL: only {}/{} slowloris connections reaped",
            stats.slow_reaped, SLOWLORIS_ATTACKERS
        );
        gate_ok = false;
    }
    if corrupted != 0 || lost != 0 || ok != (healthy_n * per_client) as u64 {
        println!("FAIL: slowloris healthy clients: {ok} ok, {corrupted} corrupted, {lost} lost");
        gate_ok = false;
    }

    (
        Row {
            cell: "slowloris",
            bits: 8,
            lane: KernelLane::default().as_str(),
            threads: 1,
            policy: "batch8",
            max_batch: 8,
            max_delay_us: 2000,
            clients: healthy_n + SLOWLORIS_ATTACKERS,
            requests: (healthy_n * per_client) as u64,
            ok,
            shed: stats.shed,
            deadline_expired: stats.deadline_expired,
            corrupted,
            lost,
            refused_accept: stats.refused_accept,
            idle_reaped: stats.idle_reaped,
            slow_reaped: stats.slow_reaped,
            wall_ms: wall.as_secs_f64() * 1e3,
            rps: ok as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: stats.p50_us,
            p90_us: stats.p90_us,
            p99_us: stats.p99_us,
            mean_batch: stats.mean_batch,
            swaps: stats.swaps,
            evictions: stats.evictions,
            quarantines: stats.quarantines,
            model_unavailable: stats.model_unavailable,
            swap_p99_us: 0,
        },
        gate_ok,
    )
}

/// Overload cell: [`OVERLOAD_CLIENTS`] closed-loop clients against a tiny
/// admission queue with a short request deadline — roughly 4× what the
/// queue can hold. Gates: every request resolves to a bit-exact answer or
/// a typed refusal (`Overloaded`/`DeadlineExceeded`), client-observed
/// refusal counts match the server's shed taxonomy exactly, zero
/// lost/corrupted, and completed-request p99 stays inside the budget.
fn overload_cell(per_client: usize) -> (Row, bool) {
    par::set_global_threads(1);
    let session = build_session(8);
    let workloads = build_workloads(&session, OVERLOAD_CLIENTS);
    let mut gate_ok = true;

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        policy: BatchPolicy {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_depth: 6,
        },
        model_name: "mlp-k8-overload".to_string(),
        limits: ConnLimits {
            // Tight enough that queue waits at the contention tail expire
            // (exercising deadline shedding), loose enough that the bulk
            // of admitted work still completes.
            request_timeout: Duration::from_millis(5),
            ..ConnLimits::default()
        },
    };
    let mut server = Server::start(session, config).expect("server starts");
    let addr = server.addr();

    let t0 = Instant::now();
    let handles: Vec<_> = workloads
        .into_iter()
        .map(|(samples, expected)| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut expired = 0u64;
                let mut corrupted = 0u64;
                let mut lost = 0u64;
                let mut client = match ServeClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, 0, 0, per_client as u64),
                };
                for i in 0..per_client {
                    let which = i % DISTINCT;
                    match client.infer(&samples[which]) {
                        Ok(row) => {
                            let exact = row.len() == expected[which].len()
                                && row
                                    .iter()
                                    .zip(&expected[which])
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                            if exact {
                                ok += 1;
                            } else {
                                corrupted += 1;
                            }
                        }
                        Err(ServeError::Overloaded { .. }) => shed += 1,
                        Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
                        Err(_) => lost += 1,
                    }
                }
                (ok, shed, expired, corrupted, lost)
            })
        })
        .collect();
    let mut ok = 0u64;
    let mut shed_seen = 0u64;
    let mut expired_seen = 0u64;
    let mut corrupted = 0u64;
    let mut lost = 0u64;
    for h in handles {
        let (o, s, e, c, l) = h.join().expect("overload client thread");
        ok += o;
        shed_seen += s;
        expired_seen += e;
        corrupted += c;
        lost += l;
    }
    let wall = t0.elapsed();
    let stats = server.stats();
    server.shutdown();

    let total = (OVERLOAD_CLIENTS * per_client) as u64;
    println!(
        "  overload: {total} submissions → {ok} ok, {shed_seen} shed, {expired_seen} expired \
         ({} server-shed, {} server-expired), p99 {}µs",
        stats.shed, stats.deadline_expired, stats.p99_us
    );
    if corrupted != 0 || lost != 0 {
        println!("FAIL: overload produced {corrupted} corrupted, {lost} lost responses");
        gate_ok = false;
    }
    if ok + shed_seen + expired_seen != total {
        println!("FAIL: overload accounting leak: {ok} + {shed_seen} + {expired_seen} != {total}");
        gate_ok = false;
    }
    // Exact taxonomy match: what clients saw is what the server recorded.
    if shed_seen != stats.shed || expired_seen != stats.deadline_expired {
        println!(
            "FAIL: taxonomy mismatch: clients saw {shed_seen} shed / {expired_seen} expired, \
             server recorded {} / {}",
            stats.shed, stats.deadline_expired
        );
        gate_ok = false;
    }
    if stats.completed != ok {
        println!(
            "FAIL: server completed {} but clients verified {ok}",
            stats.completed
        );
        gate_ok = false;
    }
    if stats.p99_us > P99_BUDGET_US {
        println!(
            "FAIL: overload p99 {}µs over {}µs budget — admission control is not protecting \
             latency",
            stats.p99_us, P99_BUDGET_US
        );
        gate_ok = false;
    }
    if ok == 0 {
        println!("FAIL: overload starved every client — no goodput at all");
        gate_ok = false;
    }

    (
        Row {
            cell: "overload",
            bits: 8,
            lane: KernelLane::default().as_str(),
            threads: 1,
            policy: "batch4",
            max_batch: 4,
            max_delay_us: 500,
            clients: OVERLOAD_CLIENTS,
            requests: total,
            ok,
            shed: stats.shed,
            deadline_expired: stats.deadline_expired,
            corrupted,
            lost,
            refused_accept: stats.refused_accept,
            idle_reaped: stats.idle_reaped,
            slow_reaped: stats.slow_reaped,
            wall_ms: wall.as_secs_f64() * 1e3,
            rps: ok as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: stats.p50_us,
            p90_us: stats.p90_us,
            p99_us: stats.p99_us,
            mean_batch: stats.mean_batch,
            swaps: stats.swaps,
            evictions: stats.evictions,
            quarantines: stats.quarantines,
            model_unavailable: stats.model_unavailable,
            swap_p99_us: 0,
        },
        gate_ok,
    )
}

/// Fleet cell: closed-loop clients hammer the default model while
/// [`FLEET_SWAPS`] hot-swaps push new checkpoint versions through the full
/// validation ladder, then the memory-pressure leg evicts a cold tenant
/// under a tight resident-bytes budget.
///
/// Gates: every response is bit-exact for *some* published plan version
/// (zero corrupted/lost), client/server completion and refusal counts
/// reconcile exactly, every republish counts as a swap, swap p99 stays
/// under [`SWAP_P99_BUDGET_US`], the evicted tenant answers typed
/// `ModelUnavailable`, and the hot model keeps serving bit-exactly.
fn fleet_cell() -> (Row, bool) {
    par::set_global_threads(1);
    let mut gate_ok = true;
    let spec = fleet_spec();
    let blobs: Vec<Vec<u8>> = (0..FLEET_VERSIONS as u64)
        .map(|v| build_blob(8, 4000 + v))
        .collect();
    let sample = rng::normal(&[DIMS[0]], 1.0, &mut rng::seeded(31)).into_vec();

    // The differential baseline: a fresh single-model session per
    // checkpoint defines the only legal response bits for that version.
    let expected: Vec<Vec<u32>> = blobs
        .iter()
        .map(|b| {
            let fresh = InferenceSession::from_checkpoint(&spec, b).expect("fresh session");
            let row = fresh.infer_one(&sample).expect("local forward");
            row.iter().map(|v| v.to_bits()).collect()
        })
        .collect();

    // Budget sized for roughly two resident plans so the eviction leg
    // exercises real memory pressure rather than an unbounded fleet.
    let probe = ModelRegistry::new(RegistryConfig::default());
    probe
        .ingest_blob("probe", &spec, &blobs[0])
        .expect("probe ingest");
    let one = probe.resident_bytes();
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        budget_bytes: one * 2 + one / 2,
        ..RegistryConfig::default()
    }));
    registry
        .ingest_blob("m", &spec, &blobs[0])
        .expect("initial publish");
    let mut server = Server::start_with_registry(
        Arc::clone(&registry),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_micros(500),
                queue_depth: 256,
            },
            model_name: "m".to_string(),
            limits: ConnLimits::default(),
        },
    )
    .expect("server starts");
    let addr = server.addr();

    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..FLEET_CLIENTS)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let sample = sample.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut corrupted = 0u64;
                let mut lost = 0u64;
                let mut typed = 0u64;
                let mut versions = vec![false; FLEET_VERSIONS];
                let mut client = match ServeClient::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, 1, 0, versions),
                };
                while !stop.load(Ordering::SeqCst) {
                    match client.infer(&sample) {
                        Ok(row) => {
                            let got: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                            match expected.iter().position(|want| *want == got) {
                                Some(v) => {
                                    versions[v] = true;
                                    ok += 1;
                                }
                                None => corrupted += 1,
                            }
                        }
                        Err(
                            ServeError::Overloaded { .. } | ServeError::DeadlineExceeded { .. },
                        ) => typed += 1,
                        Err(_) => lost += 1,
                    }
                }
                (ok, corrupted, lost, typed, versions)
            })
        })
        .collect();

    // The swapper: each republish runs the whole ladder before the atomic
    // pointer swap, so its duration is the swap latency a deployer sees.
    let mut swap_us: Vec<u64> = Vec::with_capacity(FLEET_SWAPS);
    for i in 0..FLEET_SWAPS {
        let b = &blobs[(i + 1) % FLEET_VERSIONS];
        let s0 = Instant::now();
        let outcome = registry.ingest_blob("m", &spec, b).expect("swap publish");
        swap_us.push(s0.elapsed().as_micros() as u64);
        if !outcome.replaced {
            println!("FAIL: fleet swap {i} did not replace the resident plan");
            gate_ok = false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::SeqCst);

    let mut ok = 0u64;
    let mut corrupted = 0u64;
    let mut lost = 0u64;
    let mut typed = 0u64;
    let mut seen = vec![false; FLEET_VERSIONS];
    for h in clients {
        let (o, co, l, ty, versions) = h.join().expect("fleet client thread");
        ok += o;
        corrupted += co;
        lost += l;
        typed += ty;
        for (a, b) in seen.iter_mut().zip(versions) {
            *a |= b;
        }
    }

    // Post-quiesce differential: the resident plan must match a fresh
    // session over the last published checkpoint, bit for bit.
    let final_bits = &expected[FLEET_SWAPS % FLEET_VERSIONS];
    let mut main_client = ServeClient::connect(addr).expect("post-swap connect");
    let check_hot = |client: &mut ServeClient, when: &str| -> (u64, u64) {
        let row = client.infer(&sample).expect("hot-model infer");
        let got: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        if got == *final_bits {
            (1, 0)
        } else {
            println!("FAIL: fleet hot model diverged from the last published plan ({when})");
            (0, 1)
        }
    };
    let (o, c) = check_hot(&mut main_client, "post-swap");
    ok += o;
    corrupted += c;
    gate_ok &= c == 0;

    // Memory-pressure leg: a second tenant fills the budget; touching the
    // default keeps it hot, so the third publish evicts the cold one.
    registry
        .ingest_blob("cold", &spec, &build_blob(8, 5001))
        .expect("cold publish");
    let (o, c) = check_hot(&mut main_client, "post-cold-publish");
    ok += o;
    corrupted += c;
    gate_ok &= c == 0;
    let outcome = registry
        .ingest_blob("third", &spec, &build_blob(8, 5002))
        .expect("third publish");
    if outcome.evicted != vec!["cold".to_string()] {
        println!(
            "FAIL: budget eviction removed {:?}, wanted [\"cold\"]",
            outcome.evicted
        );
        gate_ok = false;
    }
    match main_client.infer_model("cold", &sample) {
        Err(ServeError::ModelUnavailable { model, reason })
            if model == "cold" && reason.contains("evicted") => {}
        other => {
            println!("FAIL: evicted tenant answered {other:?}, wanted typed ModelUnavailable");
            gate_ok = false;
        }
    }
    let (o, c) = check_hot(&mut main_client, "post-eviction");
    ok += o;
    corrupted += c;
    gate_ok &= c == 0;

    let wall = t0.elapsed();
    let snap = server.stats();
    server.shutdown();

    swap_us.sort_unstable();
    let swap_p99 = swap_us[((swap_us.len() * 99) / 100).min(swap_us.len() - 1)];

    println!(
        "  fleet: {} swaps (p99 {}µs), {} bit-exact responses across {} plan versions, \
         {} evictions, {} typed unavailable",
        FLEET_SWAPS,
        swap_p99,
        ok,
        seen.iter().filter(|&&v| v).count(),
        snap.evictions,
        snap.model_unavailable
    );
    if corrupted != 0 || lost != 0 {
        println!("FAIL: fleet saw {corrupted} corrupted, {lost} lost responses under swap load");
        gate_ok = false;
    }
    if snap.completed != ok {
        println!(
            "FAIL: fleet server completed {} but clients verified {ok}",
            snap.completed
        );
        gate_ok = false;
    }
    if snap.shed + snap.deadline_expired != typed {
        println!(
            "FAIL: fleet refusal taxonomy: clients saw {typed}, server recorded {}",
            snap.shed + snap.deadline_expired
        );
        gate_ok = false;
    }
    if snap.errors != 0 {
        println!("FAIL: fleet recorded {} batch errors", snap.errors);
        gate_ok = false;
    }
    if snap.swaps != FLEET_SWAPS as u64 {
        println!(
            "FAIL: {} swaps recorded, expected {FLEET_SWAPS}",
            snap.swaps
        );
        gate_ok = false;
    }
    if snap.evictions != 1 || snap.model_unavailable != 1 {
        println!(
            "FAIL: eviction accounting: {} evictions / {} unavailable, expected 1 / 1",
            snap.evictions, snap.model_unavailable
        );
        gate_ok = false;
    }
    if seen.iter().filter(|&&v| v).count() < 2 {
        println!("FAIL: load never observed a hot-swap take effect: {seen:?}");
        gate_ok = false;
    }
    if swap_p99 > SWAP_P99_BUDGET_US {
        println!("FAIL: swap p99 {swap_p99}µs over {SWAP_P99_BUDGET_US}µs budget");
        gate_ok = false;
    }

    (
        Row {
            cell: "fleet",
            bits: 8,
            lane: KernelLane::default().as_str(),
            threads: 1,
            policy: "batch8",
            max_batch: 8,
            max_delay_us: 500,
            clients: FLEET_CLIENTS + 1,
            requests: ok + typed + corrupted + lost,
            ok,
            shed: snap.shed,
            deadline_expired: snap.deadline_expired,
            corrupted,
            lost,
            refused_accept: snap.refused_accept,
            idle_reaped: snap.idle_reaped,
            slow_reaped: snap.slow_reaped,
            wall_ms: wall.as_secs_f64() * 1e3,
            rps: ok as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: snap.p50_us,
            p90_us: snap.p90_us,
            p99_us: snap.p99_us,
            mean_batch: snap.mean_batch,
            swaps: snap.swaps,
            evictions: snap.evictions,
            quarantines: snap.quarantines,
            model_unavailable: snap.model_unavailable,
            swap_p99_us: swap_p99,
        },
        gate_ok,
    )
}

/// Corruption-campaign cell: flipped and truncated checkpoint uploads hit
/// the in-band directory-reload path (`OP_RELOAD`). Every upload is a v3
/// blob, whose CRC makes rejection of any flip or cut a hard contract
/// (legacy v1/v2 ingestion is swept in `serve/tests/ingest_faults.rs`).
///
/// Gates: 100% of the damaged uploads are typed-rejected and moved to
/// quarantine with `.reason` sidecars, none is left in the model dir, the
/// published plan keeps serving bit-exactly through the campaign, and a
/// quarantined id answers typed `ModelUnavailable` on the wire.
fn corruption_cell() -> (Row, bool) {
    par::set_global_threads(1);
    let mut gate_ok = true;
    let dir = std::env::temp_dir().join(format!("apt-bench-corruption-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("campaign dir");
    let qdir = dir.join("quarantine");

    let spec = fleet_spec();
    std::fs::write(dir.join("serving.aptc"), build_blob(8, 77)).expect("write serving model");
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        model_dir: Some(dir.clone()),
        quarantine_dir: Some(qdir.clone()),
        spec: Some(spec),
        ..RegistryConfig::default()
    }));
    let report = registry.rescan().expect("initial rescan");
    if report.ingested != vec!["serving".to_string()] {
        println!("FAIL: initial rescan ingested {:?}", report.ingested);
        gate_ok = false;
    }
    let mut server = Server::start_with_registry(
        Arc::clone(&registry),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_micros(2000),
                queue_depth: 128,
            },
            model_name: "serving".to_string(),
            limits: ConnLimits::default(),
        },
    )
    .expect("server starts");
    let mut client = ServeClient::connect(server.addr()).expect("client connect");
    let sample = rng::normal(&[DIMS[0]], 1.0, &mut rng::seeded(61)).into_vec();
    let baseline: Vec<u32> = client
        .infer(&sample)
        .expect("baseline infer")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut ok = 1u64;
    let mut corrupted = 0u64;

    // The campaign: drop damaged files into the watched directory.
    let t0 = Instant::now();
    let mut campaign = 0usize;
    let original = build_blob(8, 93);
    for k in 0..12usize {
        let path = dir.join(format!("bad-v3-flip{k}.aptc"));
        std::fs::write(&path, &original).expect("write campaign file");
        flip_byte(&path, (original.len() / 13) * (k + 1), 0x5A).expect("flip");
        campaign += 1;
    }
    for k in 0..9usize {
        let path = dir.join(format!("bad-v3-cut{k}.aptc"));
        std::fs::write(&path, &original).expect("write campaign file");
        truncate_file(&path, original.len() / (k + 2)).expect("truncate");
        campaign += 1;
    }

    // Reload in-band, over the same connection that keeps inferring.
    let report_json = client.reload().expect("in-band reload");
    if !report_json.contains("bad-v3-flip0.aptc") {
        println!("FAIL: reload report does not name the rejected files: {report_json}");
        gate_ok = false;
    }

    // 100% rejection + quarantine with sidecars; nothing left behind.
    for entry in std::fs::read_dir(&dir).expect("read model dir") {
        let name = entry.expect("dir entry").file_name();
        if name.to_string_lossy().starts_with("bad-") {
            println!("FAIL: corrupt upload {name:?} left in the model dir");
            gate_ok = false;
        }
    }
    let (mut moved, mut sidecars) = (0usize, 0usize);
    if qdir.is_dir() {
        for entry in std::fs::read_dir(&qdir).expect("read quarantine dir") {
            let name = entry.expect("dir entry").file_name();
            if name.to_string_lossy().ends_with(".reason") {
                sidecars += 1;
            } else {
                moved += 1;
            }
        }
    }
    if moved != campaign || sidecars != campaign {
        println!(
            "FAIL: quarantine holds {moved} files + {sidecars} sidecars, expected {campaign} each"
        );
        gate_ok = false;
    }

    // The serving plan is untouched bit-for-bit, and a quarantined id is
    // a typed in-band miss — the connection survives both.
    let after: Vec<u32> = client
        .infer(&sample)
        .expect("post-campaign infer")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    if after == baseline {
        ok += 1;
    } else {
        println!("FAIL: corrupt uploads disturbed the serving plan");
        corrupted += 1;
        gate_ok = false;
    }
    match client.infer_model("bad-v3-flip0", &sample) {
        Err(ServeError::ModelUnavailable { .. }) => {}
        other => {
            println!("FAIL: quarantined id answered {other:?}, wanted typed ModelUnavailable");
            gate_ok = false;
        }
    }

    let wall = t0.elapsed();
    let snap = server.stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "  corruption: {campaign} damaged uploads → {} quarantined with sidecars; \
         serving plan bit-exact, {} resident",
        snap.quarantines, snap.models_resident
    );
    if snap.quarantines != campaign as u64 {
        println!(
            "FAIL: only {}/{campaign} corrupt uploads counted as quarantined",
            snap.quarantines
        );
        gate_ok = false;
    }
    if snap.models_resident != 1 {
        println!(
            "FAIL: {} models resident after the campaign, expected 1",
            snap.models_resident
        );
        gate_ok = false;
    }

    (
        Row {
            cell: "corruption",
            bits: 8,
            lane: KernelLane::default().as_str(),
            threads: 1,
            policy: "batch8",
            max_batch: 8,
            max_delay_us: 2000,
            clients: 1,
            requests: ok + corrupted,
            ok,
            shed: snap.shed,
            deadline_expired: snap.deadline_expired,
            corrupted,
            lost: 0,
            refused_accept: snap.refused_accept,
            idle_reaped: snap.idle_reaped,
            slow_reaped: snap.slow_reaped,
            wall_ms: wall.as_secs_f64() * 1e3,
            rps: ok as f64 / wall.as_secs_f64().max(1e-9),
            p50_us: snap.p50_us,
            p90_us: snap.p90_us,
            p99_us: snap.p99_us,
            mean_batch: snap.mean_batch,
            swaps: snap.swaps,
            evictions: snap.evictions,
            quarantines: snap.quarantines,
            model_unavailable: snap.model_unavailable,
            swap_p99_us: 0,
        },
        gate_ok,
    )
}

/// Floor on the int-gemm parity cell's throughput, req/s: ~40 % of the
/// worst rate observed over 41 smoke runs on a disturbed 2-vCPU host
/// (13,420; the middle 80 % read 18.7–25.0k, and the parent commit's
/// cell 20–24k) — the way the kernels bench sets its quantize/dequantize
/// and i8-GEMM floors. An absolute rate, not a ratio to the dequant-cache
/// plan: that plan's f32 GEMM moves with every f32 kernel change, and a
/// gate on the integer lane should not.
const PARITY_INT_FLOOR_RPS: f64 = 5_000.0;

/// Parity cells: the same k=4 checkpoint served twice at batch8 on one
/// thread — once from its dequant-cache plan (f32 GEMM on weights
/// dequantised at compile time) and once from its int-gemm plan (packed
/// integer panels, fused rescale). The integer plan must achieve its lane
/// with zero corrupted or lost responses and hold
/// [`PARITY_INT_FLOOR_RPS`]. Its ratio to the dequant-cache plan is
/// printed and not gated: the f32 GEMM is register-tiled and
/// AVX2-dispatched while the integer kernel is neither, so at batch 8 the
/// integer plan trails (0.6–1.2×, median 0.81× — DESIGN.md §14, ROADMAP
/// item 4). It leads single-sample, where the f32 path is the scalar dot
/// kernel — see the `single` rows of the full sweep.
fn parity_cells(per_client: usize) -> (Row, Row, bool) {
    let mut gate_ok = true;
    let mut cache_row = run_cell(4, 1, &POLICIES[1], per_client, KernelLane::DequantCache);
    cache_row.cell = "parity";
    let mut int_row = run_cell(4, 1, &POLICIES[1], per_client, KernelLane::IntGemm);
    int_row.cell = "parity";
    if int_row.lane != KernelLane::IntGemm.as_str() {
        println!(
            "FAIL: parity plan achieved lane {}, wanted int-gemm",
            int_row.lane
        );
        gate_ok = false;
    }
    for r in [&cache_row, &int_row] {
        if r.corrupted != 0 || r.lost != 0 || r.ok != r.requests {
            println!(
                "FAIL: parity lane {} completed {}/{} with {} corrupted, {} lost",
                r.lane, r.ok, r.requests, r.corrupted, r.lost
            );
            gate_ok = false;
        }
    }
    let ratio = int_row.rps / cache_row.rps.max(1e-9);
    println!(
        "info: int-gemm / dequant-cache = {ratio:.2}× ({:.0} vs {:.0} req/s), not gated",
        int_row.rps, cache_row.rps
    );
    if int_row.rps >= PARITY_INT_FLOOR_RPS {
        println!(
            "ok: int-gemm {:.0} req/s ≥ floor {PARITY_INT_FLOOR_RPS:.0} req/s, every response \
             bit-exact",
            int_row.rps
        );
    } else {
        println!(
            "FAIL: int-gemm plan {:.0} req/s below its floor of {PARITY_INT_FLOOR_RPS:.0} req/s",
            int_row.rps
        );
        gate_ok = false;
    }
    (cache_row, int_row, gate_ok)
}

/// Plan-vs-eval cells: the same k=8 network at the default lane, once
/// through its compiled plan and once through
/// `Network::forward_inference` (trainer eval, and what an unfreezable
/// model falls back to), driven in-process on one thread so the comparison
/// measures the plan (fused kernels, resident weights, arena intermediates)
/// and not TCP framing. Requests are **single-sample** and the model is a
/// deep, narrow MLP — the paper's constrained-device serving shape, where
/// per-layer overhead (tensor allocation, separate bias and activation
/// passes, dispatch) is commensurate with each layer's tiny GEMM, so the
/// compiler's fusion and arena planning show up as throughput instead of
/// vanishing under a 256-wide matmul. The model has no batch norm —
/// nothing folds — so the frozen plan must be **bit-identical** to the
/// eval forward, and must not be slower. Timing uses paired interleaved rounds
/// (same trick as the kernels gate) so a slow scheduling phase penalises
/// both sides equally.
fn freeze_cells(iters: usize) -> (Row, Row, bool) {
    par::set_global_threads(1);
    let mut gate_ok = true;
    const FREEZE_DIMS: &[usize] = &[64, 64, 64, 64, 64, 64, 10];
    let scheme = QuantScheme::fully_quantized(Bitwidth::new(8).expect("valid bitwidth"));
    let mut net = models::mlp("freeze-bench", FREEZE_DIMS, &scheme, &mut rng::seeded(23))
        .expect("model builds");
    let blob = checkpoint::save_full(&mut net);
    let spec = ModelSpec {
        arch: ModelArch::Mlp(FREEZE_DIMS.to_vec()),
        classes: *FREEZE_DIMS.last().expect("dims nonempty"),
        img_size: 0,
        width_mult: 1.0,
    };
    let frozen = InferenceSession::from_checkpoint(&spec, &blob).expect("session loads");
    if !frozen.is_frozen() {
        println!(
            "FAIL: freeze cell's session fell back: {:?}",
            frozen.freeze_reason()
        );
        gate_ok = false;
    }
    // The eval side does what a served request does around the forward:
    // stage the samples into one batch, run, split the rows back out.
    let net = frozen.network();
    let eval = |samples: &[Vec<f32>]| -> Vec<Vec<f32>> {
        let batch = Tensor::from_vec(samples.concat(), &[samples.len(), FREEZE_DIMS[0]])
            .expect("batch shape");
        let out = net.forward_inference(&batch).expect("eval forward");
        (0..samples.len())
            .map(|i| out.row(i).expect("row").to_vec())
            .collect()
    };

    let batch = 1usize;
    let mut r = rng::substream(1997, 0);
    let samples: Vec<Vec<f32>> = (0..batch)
        .map(|_| rng::normal(&[FREEZE_DIMS[0]], 1.0, &mut r).into_vec())
        .collect();
    let want = eval(&samples);
    let got = frozen.infer_samples(&samples).expect("frozen forward");
    let bit_exact = want.len() == got.len()
        && want.iter().zip(&got).all(|(w, g)| {
            w.len() == g.len() && w.iter().zip(g).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    if !bit_exact {
        println!("FAIL: frozen plan diverged from forward_inference on a BN-free model");
        gate_ok = false;
    }

    // Warm both paths (arena buffers, allocator), then time paired
    // interleaved rounds.
    for _ in 0..8 {
        let _ = eval(&samples);
        let _ = frozen.infer_samples(&samples);
    }
    const ROUNDS: usize = 10;
    let per_round = iters.div_ceil(ROUNDS).max(1);
    let mut eval_s = 0.0f64;
    let mut frozen_s = 0.0f64;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..per_round {
            std::hint::black_box(eval(&samples));
        }
        eval_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..per_round {
            std::hint::black_box(frozen.infer_samples(&samples).expect("frozen forward"));
        }
        frozen_s += t.elapsed().as_secs_f64();
    }
    let total = (ROUNDS * per_round * batch) as u64;
    let eval_rps = total as f64 / eval_s.max(1e-9);
    let frozen_rps = total as f64 / frozen_s.max(1e-9);
    let ratio = frozen_rps / eval_rps.max(1e-9);
    if frozen_rps >= eval_rps {
        println!(
            "ok: frozen {:.0} samples/s ≥ forward_inference {:.0} samples/s ({ratio:.2}×), bit-identical",
            frozen_rps, eval_rps
        );
    } else {
        println!(
            "FAIL: frozen plan {:.0} samples/s below forward_inference {:.0} samples/s ({ratio:.2}×)",
            frozen_rps, eval_rps
        );
        gate_ok = false;
    }

    let mk_row = |lane: &'static str, rps: f64, wall_s: f64| Row {
        cell: "freeze",
        bits: 8,
        lane,
        threads: 1,
        policy: "inproc1",
        max_batch: batch,
        max_delay_us: 0,
        clients: 1,
        requests: total,
        ok: total,
        shed: 0,
        deadline_expired: 0,
        corrupted: if bit_exact { 0 } else { total },
        lost: 0,
        refused_accept: 0,
        idle_reaped: 0,
        slow_reaped: 0,
        wall_ms: wall_s * 1e3,
        rps,
        p50_us: 0,
        p90_us: 0,
        p99_us: 0,
        mean_batch: batch as f64,
        swaps: 0,
        evictions: 0,
        quarantines: 0,
        model_unavailable: 0,
        swap_p99_us: 0,
    };
    (
        mk_row("eval", eval_rps, eval_s),
        mk_row("frozen", frozen_rps, frozen_s),
        gate_ok,
    )
}

/// Zero-allocation cell: the frozen plan's headline mechanical claim —
/// once warm, `infer_into` on a frozen session performs **zero heap
/// allocations per request**. Staging and output live in caller buffers,
/// scratch is recycled through the session arena, and every intermediate
/// sits at a compile-time offset inside that one scratch block. Runs on
/// one thread (pool dispatch allocates job state by design) and counts
/// allocator *calls* around a steady-state loop.
fn zero_alloc_cell() -> bool {
    par::set_global_threads(1);
    let session = build_session(8);
    if !session.is_frozen() {
        println!(
            "FAIL: zero-alloc cell needs a frozen session: {:?}",
            session.freeze_reason()
        );
        return false;
    }
    let batch = 8usize;
    let mut r = rng::substream(2003, 0);
    let input = rng::normal(&[batch * DIMS[0]], 1.0, &mut r).into_vec();
    let mut output = vec![0.0f32; batch * DIMS[DIMS.len() - 1]];

    // Warm-up arms the arena's scratch capacity; the steady state must
    // then be allocation-free.
    for _ in 0..4 {
        session
            .infer_into(&input, batch, &mut output)
            .expect("frozen forward");
    }
    const ITERS: usize = 1000;
    let calls_before = alloc_calls();
    let t = Instant::now();
    for _ in 0..ITERS {
        session
            .infer_into(&input, batch, &mut output)
            .expect("frozen forward");
    }
    let wall = t.elapsed();
    let delta = alloc_calls() - calls_before;
    std::hint::black_box(&output);
    let per_req_us = wall.as_secs_f64() * 1e6 / ITERS as f64;
    if delta == 0 {
        println!(
            "ok: {ITERS} frozen batch-{batch} requests, 0 heap allocations \
             ({per_req_us:.1}µs/request, 1 thread)"
        );
        true
    } else {
        println!(
            "FAIL: frozen steady state performed {delta} heap allocations \
             over {ITERS} requests (must be 0)"
        );
        false
    }
}

fn print_row(r: &Row) {
    println!(
        "{:<10} k={:<2} {:<13} threads={} {:<7} {:>7.0} req/s | p50 {:>6}µs p90 {:>6}µs p99 {:>6}µs | \
         mean batch {:>5.2} | ok {} shed {} expired {} corrupt {} lost {} | refused {} \
         idle-reaped {} slow-reaped {} | swaps {} evict {} quar {} unavail {} swap-p99 {}µs",
        r.cell,
        r.bits,
        r.lane,
        r.threads,
        r.policy,
        r.rps,
        r.p50_us,
        r.p90_us,
        r.p99_us,
        r.mean_batch,
        r.ok,
        r.shed,
        r.deadline_expired,
        r.corrupted,
        r.lost,
        r.refused_accept,
        r.idle_reaped,
        r.slow_reaped,
        r.swaps,
        r.evictions,
        r.quarantines,
        r.model_unavailable,
        r.swap_p99_us
    );
}

fn write_outputs(rows: &[Row]) {
    let csv_path = results_dir().join("serving.csv");
    let mut csv = String::from(
        "cell,bits,lane,threads,policy,max_batch,max_delay_us,clients,requests,ok,shed,\
         deadline_expired,corrupted,lost,refused_accept,idle_reaped,slow_reaped,\
         wall_ms,rps,p50_us,p90_us,p99_us,mean_batch,\
         swaps,evictions,quarantines,model_unavailable,swap_p99_us\n",
    );
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.1},{:.1},{},{},{},{:.3},\
             {},{},{},{},{}\n",
            r.cell,
            r.bits,
            r.lane,
            r.threads,
            r.policy,
            r.max_batch,
            r.max_delay_us,
            r.clients,
            r.requests,
            r.ok,
            r.shed,
            r.deadline_expired,
            r.corrupted,
            r.lost,
            r.refused_accept,
            r.idle_reaped,
            r.slow_reaped,
            r.wall_ms,
            r.rps,
            r.p50_us,
            r.p90_us,
            r.p99_us,
            r.mean_batch,
            r.swaps,
            r.evictions,
            r.quarantines,
            r.model_unavailable,
            r.swap_p99_us
        ));
    }
    std::fs::write(&csv_path, &csv).expect("write serving.csv");
    println!("wrote {}", csv_path.display());

    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"cell\":\"{}\",\"bits\":{},\"lane\":\"{}\",\"threads\":{},\"policy\":\"{}\",\
                 \"max_batch\":{},\"max_delay_us\":{},\"clients\":{},\"requests\":{},\
                 \"ok\":{},\"shed\":{},\"deadline_expired\":{},\"corrupted\":{},\"lost\":{},\
                 \"refused_accept\":{},\"idle_reaped\":{},\"slow_reaped\":{},\
                 \"wall_ms\":{:.1},\"rps\":{:.1},\
                 \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"mean_batch\":{:.3},\
                 \"swaps\":{},\"evictions\":{},\"quarantines\":{},\
                 \"model_unavailable\":{},\"swap_p99_us\":{}}}",
                r.cell,
                r.bits,
                r.lane,
                r.threads,
                r.policy,
                r.max_batch,
                r.max_delay_us,
                r.clients,
                r.requests,
                r.ok,
                r.shed,
                r.deadline_expired,
                r.corrupted,
                r.lost,
                r.refused_accept,
                r.idle_reaped,
                r.slow_reaped,
                r.wall_ms,
                r.rps,
                r.p50_us,
                r.p90_us,
                r.p99_us,
                r.mean_batch,
                r.swaps,
                r.evictions,
                r.quarantines,
                r.model_unavailable,
                r.swap_p99_us
            )
        })
        .collect();
    let json = format!(
        "{{\n\"model\": \"mlp:{}\",\n\"available_parallelism\": {},\n\"cells\": [\n{}\n]\n}}\n",
        DIMS.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("-"),
        par::default_threads(),
        cells.join(",\n")
    );
    let mut f = std::fs::File::create("BENCH_serving.json").expect("create BENCH_serving.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json");
}

fn smoke() -> bool {
    let mut ok = true;
    let cores = par::default_threads();
    let gate_threads = if cores >= 4 { 4 } else { 1 };
    let per_client = 100;

    println!("# smoke cells: single vs batched @ k=8, {gate_threads} thread(s), default lane");
    let lane = KernelLane::default();
    let single = run_cell(8, gate_threads, &POLICIES[0], per_client, lane);
    print_row(&single);
    let batched = run_cell(8, gate_threads, &POLICIES[1], per_client, lane);
    print_row(&batched);

    // Gate 1: nothing lost or corrupted under concurrent load.
    println!("# smoke gate 1: zero lost/corrupted responses");
    for r in [&single, &batched] {
        if r.corrupted != 0 || r.lost != 0 || r.ok != r.requests {
            println!(
                "FAIL: policy {} completed {}/{} with {} corrupted, {} lost",
                r.policy, r.ok, r.requests, r.corrupted, r.lost
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "ok: {} responses, every one bit-exact",
            single.ok + batched.ok
        );
    }

    // Gate 2: coalescing pays for itself.
    let ratio = batched.rps / single.rps.max(1e-9);
    if cores >= 4 {
        println!("# smoke gate 2: batched ≥ 2.0× single-sample throughput at 4 threads");
        if ratio >= 2.0 {
            println!(
                "ok: {:.2}× ({:.0} vs {:.0} req/s)",
                ratio, batched.rps, single.rps
            );
        } else {
            println!(
                "FAIL: batched only {:.2}× single ({:.0} vs {:.0} req/s)",
                ratio, batched.rps, single.rps
            );
            ok = false;
        }
    } else {
        // On one core a frozen plan leaves too little per-request compute
        // for coalescing to amortise; the ratio is reported, not gated.
        println!(
            "# smoke gate 2: SKIPPED (machine has {cores} core(s), strict form needs 4): \
             batched {:.2}× single ({:.0} vs {:.0} req/s)",
            ratio, batched.rps, single.rps
        );
    }

    // Gate 3: tail latency stays inside the budget on the batched cell.
    println!("# smoke gate 3: batched p99 ≤ {P99_BUDGET_US}µs");
    if batched.p99_us <= P99_BUDGET_US {
        println!("ok: p99 {}µs", batched.p99_us);
    } else {
        println!("FAIL: p99 {}µs over budget", batched.p99_us);
        ok = false;
    }

    // Gates 4–6: the connection plane under attack.
    println!("# smoke gate 4: soak — {SOAK_CONNS} idle conns, bounded heap, healthy p99 holds");
    let (soak, soak_ok) = soak_cell(per_client);
    print_row(&soak);
    if soak_ok {
        println!("ok: soak gates held");
    }
    ok &= soak_ok;

    println!("# smoke gate 5: slowloris — dribblers reaped, healthy clients bit-exact");
    let (slow, slow_ok) = slowloris_cell(per_client);
    print_row(&slow);
    if slow_ok {
        println!("ok: slowloris gates held");
    }
    ok &= slow_ok;

    println!("# smoke gate 6: overload — typed refusals, exact accounting, p99 protected");
    let (over, over_ok) = overload_cell(per_client);
    print_row(&over);
    if over_ok {
        println!("ok: overload gates held");
    }
    ok &= over_ok;

    println!(
        "# smoke gate 7: fleet — {FLEET_SWAPS} hot-swaps under load, swap p99 ≤ \
         {SWAP_P99_BUDGET_US}µs, typed eviction under memory pressure"
    );
    let (fleet, fleet_ok) = fleet_cell();
    print_row(&fleet);
    if fleet_ok {
        println!("ok: fleet gates held");
    }
    ok &= fleet_ok;

    println!("# smoke gate 8: corruption — 100% quarantine, serving plan undisturbed");
    let (corrupt, corrupt_ok) = corruption_cell();
    print_row(&corrupt);
    if corrupt_ok {
        println!("ok: corruption gates held");
    }
    ok &= corrupt_ok;

    println!(
        "# smoke gate 9: parity — k=4 int-gemm plan ≥ {PARITY_INT_FLOOR_RPS:.0} req/s at batch8, \
         1 thread, lane achieved, zero corrupted/lost (ratio to the dequant-cache plan printed)"
    );
    let (parity_cache, parity_int, parity_ok) = parity_cells(per_client);
    print_row(&parity_cache);
    print_row(&parity_int);
    ok &= parity_ok;

    println!(
        "# smoke gate 10: freeze — compiled plan ≥ forward_inference samples/s, bit-identical \
         (k=8, single-sample in-process, 1 thread)"
    );
    let (freeze_eval, freeze_frozen, freeze_ok) = freeze_cells(2000);
    print_row(&freeze_eval);
    print_row(&freeze_frozen);
    ok &= freeze_ok;

    println!("# smoke gate 11: zero heap allocations per request on the frozen path");
    ok &= zero_alloc_cell();

    write_outputs(&[
        single,
        batched,
        soak,
        slow,
        over,
        fleet,
        corrupt,
        parity_cache,
        parity_int,
        freeze_eval,
        freeze_frozen,
    ]);
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        println!("# serving --smoke: end-to-end correctness + batching + overload gates");
        if !smoke() {
            std::process::exit(1);
        }
        println!("smoke: all gates passed");
        return;
    }

    println!(
        "# serving: policy x threads x bitwidth sweep over TCP (machine has {} core(s))",
        par::default_threads()
    );
    let mut rows = Vec::new();
    for &bits in &[4u32, 8, 32] {
        // Quantized models serve on both the default cache and the
        // dequant-free integer lane; fp32 has only its native lane.
        let lanes: &[KernelLane] = if bits == 32 {
            &[KernelLane::default()]
        } else {
            &[KernelLane::DequantCache, KernelLane::IntGemm]
        };
        for &threads in &[1usize, 2, 4] {
            for policy in POLICIES {
                for &lane in lanes {
                    let row = run_cell(bits, threads, policy, 150, lane);
                    print_row(&row);
                    rows.push(row);
                }
            }
        }
    }
    println!("# parity cells: dequant-cache plan vs int-gemm plan on the same k=4 model");
    let (parity_cache, parity_int, _) = parity_cells(150);
    print_row(&parity_cache);
    print_row(&parity_int);
    rows.push(parity_cache);
    rows.push(parity_int);
    println!("# freeze cells: compiled plan vs forward_inference on the same k=8 model");
    let (freeze_eval, freeze_frozen, _) = freeze_cells(4000);
    print_row(&freeze_eval);
    print_row(&freeze_frozen);
    rows.push(freeze_eval);
    rows.push(freeze_frozen);
    println!("# robustness cells: soak / slowloris / overload / fleet / corruption");
    let (soak, _) = soak_cell(150);
    print_row(&soak);
    rows.push(soak);
    let (slow, _) = slowloris_cell(150);
    print_row(&slow);
    rows.push(slow);
    let (over, _) = overload_cell(150);
    print_row(&over);
    rows.push(over);
    let (fleet, _) = fleet_cell();
    print_row(&fleet);
    rows.push(fleet);
    let (corrupt, _) = corruption_cell();
    print_row(&corrupt);
    rows.push(corrupt);
    write_outputs(&rows);
}
