//! Serving benchmark: two throughput cells plus the cells that attack the
//! connection plane, the model fleet and the freeze compiler.
//!
//! Every cell trains nothing — it freezes a deterministic quantized MLP
//! into an [`InferenceSession`], starts a real [`Server`] on an ephemeral
//! loopback port, and drives it with concurrent [`ServeClient`]
//! connections. Each client knows the bit-exact expected output for every
//! sample it sends (computed locally through the same frozen session), so
//! the run doubles as an end-to-end correctness check: any lost,
//! corrupted, or misrouted response is counted and fails its gate.
//!
//! One module per cell, in gate order; each module's doc says what its cell
//! does and what it gates: [`throughput`] (gates 1–3), [`soak`] (4),
//! [`slowloris`] (5), [`overload`] (6), [`fleet`] (7), [`corruption`] (8),
//! [`freeze`] (9), [`zero_alloc`] (10).
//!
//! `--smoke` is the CI gate: it runs every cell and writes
//! `results/serving_smoke.{csv,json}`. A full run drives the same cells
//! half again as long and writes `results/serving.csv` +
//! `BENCH_serving.json`. Either way the process fails if a gate fails.
//! How fast a request is served is **not** read here: `benchmark/`'s
//! `serve-single` / `serve-batch` workloads measure that closed-loop, in
//! fixed-work blocks, by quietest decile.

mod corruption;
mod fleet;
mod freeze;
mod overload;
mod slowloris;
mod soak;
mod throughput;
mod zero_alloc;

use apt_bench::{
    available_parallelism, bit_identical, json_doc, row, schema, smoke_flag, table, write_output,
    CountingAlloc,
};
use apt_metrics::Table;
use apt_nn::{checkpoint, models, QuantScheme};
use apt_quant::Bitwidth;
use apt_serve::{
    BatchPolicy, ConnLimits, InferenceSession, ModelArch, ModelSpec, RetryPolicy, ServeClient,
    ServeError, Server, ServerConfig, StatsSnapshot,
};
use apt_tensor::rng;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Live heap bounds the soak cell's per-connection cost; allocation calls
/// prove the zero-alloc cell's steady state never touches the heap.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The gates of this run, reporting on standard output.
type Gates = apt_bench::Gates<std::io::Stdout>;

/// MLP geometry for every cell: big enough that a coalesced batch
/// amortises the weight-matrix traversal, small enough for CI.
const DIMS: &[usize] = &[256, 256, 128, 10];

/// Distinct samples each client cycles through.
const DISTINCT: usize = 8;

/// Smoke-gate p99 budget (server-side queue→response latency).
const P99_BUDGET_US: u64 = 50_000;

/// The [`ModelSpec`] every checkpoint of the bench MLP loads against.
fn spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Mlp(DIMS.to_vec()),
        classes: *DIMS.last().expect("dims nonempty"),
        img_size: 0,
        width_mult: 1.0,
    }
}

/// A current-version checkpoint blob of the bench MLP at the given weight
/// bitwidth (32 = fp32), weights drawn from `seed` — distinct seeds give
/// bit-distinguishable plans.
fn build_blob(bits: u32, seed: u64) -> Vec<u8> {
    let scheme = if bits == 32 {
        QuantScheme::float32()
    } else {
        QuantScheme::fully_quantized(Bitwidth::new(bits).expect("valid bitwidth"))
    };
    let mut net =
        models::mlp("serve-bench", DIMS, &scheme, &mut rng::seeded(seed)).expect("model builds");
    checkpoint::save_full(&mut net)
}

/// Builds a frozen session of the k=8 model via a full checkpoint
/// round-trip, exactly as `apt serve` would load it.
fn build_session() -> InferenceSession {
    InferenceSession::from_checkpoint(&spec(), &build_blob(8, 11)).expect("session loads")
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

/// What the clients of a cell saw, reply by reply.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Answers bit-identical to the local forward.
    ok: u64,
    /// Answers that were anything else.
    corrupted: u64,
    /// Typed `Overloaded` refusals.
    shed: u64,
    /// Typed `DeadlineExceeded` refusals.
    expired: u64,
    /// Every other error: a request that got no typed resolution.
    lost: u64,
}

impl Tally {
    /// Files one reply; `exact` judges an answer's bits.
    fn count(&mut self, reply: Result<Vec<f32>, ServeError>, exact: impl FnOnce(&[f32]) -> bool) {
        match reply {
            Ok(row) if exact(&row) => self.ok += 1,
            Ok(_) => self.corrupted += 1,
            Err(ServeError::Overloaded { .. }) => self.shed += 1,
            Err(ServeError::DeadlineExceeded { .. }) => self.expired += 1,
            Err(_) => self.lost += 1,
        }
    }

    fn add(&mut self, other: Tally) {
        self.ok += other.ok;
        self.corrupted += other.corrupted;
        self.shed += other.shed;
        self.expired += other.expired;
        self.lost += other.lost;
    }
}

/// One closed-loop client per workload, each on its own thread and
/// connection, sending `per_client` requests and bit-comparing every
/// answer to the local forward. With `retry`, typed backpressure is
/// retried under that policy, reseeded per client.
fn drive(
    addr: SocketAddr,
    workloads: &[ClientWorkload],
    per_client: usize,
    retry: Option<&RetryPolicy>,
) -> Tally {
    let client = |c: usize, (samples, expected): &ClientWorkload| {
        let mut tally = Tally::default();
        let Ok(mut client) = ServeClient::connect(addr) else {
            tally.lost = per_client as u64;
            return tally;
        };
        let retry = retry.map(|r| RetryPolicy {
            seed: c as u64,
            ..r.clone()
        });
        for i in 0..per_client {
            let which = i % DISTINCT;
            let reply = match &retry {
                Some(policy) => client.infer_retry(&samples[which], policy),
                None => client.infer(&samples[which]),
            };
            tally.count(reply, |row| bit_identical(row, &expected[which]));
        }
        tally
    };
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .enumerate()
            .map(|(c, w)| s.spawn(move || client(c, w)))
            .collect();
        for h in handles {
            total.add(h.join().expect("client thread"));
        }
    });
    total
}

/// A batch policy under the name its rows carry.
#[derive(Debug, Clone, Copy)]
struct Policy {
    name: &'static str,
    max_batch: usize,
}

impl Policy {
    const fn new(name: &'static str, max_batch: usize) -> Policy {
        Policy { name, max_batch }
    }
}

const SINGLE: Policy = Policy::new("single", 1);
const BATCH8: Policy = Policy::new("batch8", 8);

/// How a cell was set up — the columns the server cannot know.
#[derive(Debug, Clone, Copy)]
struct Cell {
    name: &'static str,
    bits: u32,
    lane: &'static str,
    policy: Policy,
    clients: usize,
}

impl Cell {
    /// The shape most cells share: the k=8 model.
    fn k8(name: &'static str, policy: Policy, clients: usize) -> Cell {
        Cell {
            name,
            bits: 8,
            // Every plan dequantises once at load; the column stays so old
            // rows compare.
            lane: "dequant-cache",
            policy,
            clients,
        }
    }

    /// A loopback server configuration running this cell's policy.
    fn server_config(&self, model: &str, queue_depth: usize, limits: ConnLimits) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: BatchPolicy {
                max_batch: self.policy.max_batch,
                queue_depth,
            },
            model_name: model.to_string(),
            limits,
        }
    }
}

/// How a cell went: what its clients counted, how long it took, and the
/// server's own account.
struct Served {
    requests: u64,
    tally: Tally,
    wall: Duration,
    stats: StatsSnapshot,
    swap_p99_us: u64,
}

impl Served {
    /// Closes a cell: stops its clock, takes the server's account of it and
    /// shuts the server down.
    fn close(server: &mut Server, t0: Instant, requests: u64, tally: Tally) -> Served {
        let (wall, stats) = (t0.elapsed(), server.stats());
        server.shutdown();
        Served {
            requests,
            tally,
            wall,
            stats,
            swap_p99_us: 0,
        }
    }

    fn rps(&self) -> f64 {
        self.tally.ok as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// `true` when every request was answered, bit-exactly — a typed
    /// refusal is not an answer.
    fn clean(&self) -> bool {
        self.tally.corrupted == 0 && self.tally.lost == 0 && self.tally.ok == self.requests
    }
}

/// Polls `done` every 10 ms until it holds or `patience` runs out; says
/// whether it held.
fn wait_until(patience: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + patience;
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

/// Appends a cell's row — the one place a [`StatsSnapshot`] is spelled out
/// in [`schema::SERVING`] order — and prints how the reactor's rests
/// ended, which the row does not carry.
fn push_row(rows: &mut Table, cell: &Cell, s: &Served) {
    println!(
        "# {} {}: {} rests, {} ended early",
        cell.name, cell.policy.name, s.stats.reactor_rests, s.stats.reactor_rests_early
    );
    rows.push_row(row![
        cell.name,
        cell.bits,
        cell.lane,
        cell.policy.name,
        cell.policy.max_batch,
        // The coalescer no longer holds a batch; the column stays so old rows compare.
        0,
        cell.clients,
        s.requests,
        s.tally.ok,
        s.stats.shed,
        s.stats.deadline_expired,
        s.tally.corrupted,
        s.tally.lost,
        s.stats.refused_accept,
        s.stats.idle_reaped,
        s.stats.slow_reaped,
        format!("{:.1}", s.wall.as_secs_f64() * 1e3),
        format!("{:.1}", s.rps()),
        s.stats.p50_us,
        s.stats.p90_us,
        s.stats.p99_us,
        format!("{:.3}", s.stats.mean_batch),
        s.stats.swaps,
        s.stats.evictions,
        s.stats.quarantines,
        s.stats.model_unavailable,
        s.swap_p99_us
    ]);
}

fn main() -> ExitCode {
    let smoke = smoke_flag();
    let (per_client, freeze_iters) = if smoke { (100, 2000) } else { (150, 4000) };
    println!(
        "# serving{}: end-to-end correctness + batching + overload + fleet + freeze gates over \
         TCP (machine has {} core(s))",
        if smoke { " --smoke" } else { "" },
        available_parallelism()
    );
    let mut gates = Gates::stdout();
    let mut rows = table(schema::SERVING);
    throughput::run(&mut gates, &mut rows, per_client);
    soak::run(&mut gates, &mut rows, per_client);
    slowloris::run(&mut gates, &mut rows, per_client);
    overload::run(&mut gates, &mut rows, per_client);
    fleet::run(&mut gates, &mut rows);
    corruption::run(&mut gates, &mut rows);
    freeze::run(&mut gates, &mut rows, freeze_iters);
    zero_alloc::run(&mut gates);

    println!("{rows}");
    write_output(smoke, "results/serving.csv", &rows.to_csv());
    let dims: Vec<String> = DIMS.iter().map(|d| d.to_string()).collect();
    let head = [
        ("model", format!("\"mlp:{}\"", dims.join("-"))),
        ("available_parallelism", available_parallelism().to_string()),
    ];
    let record = json_doc(&head, &[("cells", &rows)]);
    write_output(smoke, "BENCH_serving.json", &record);
    gates.finish()
}
