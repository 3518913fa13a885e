//! Throughput cells: the k=8 model served single-sample and batched to
//! [`CLIENTS`] concurrent connections. Gates:
//!
//! 1. zero lost/corrupted responses under concurrent load,
//! 2. p99 latency under [`P99_BUDGET_US`] on the batched cell,
//! 3. the batched cell coalesces: its mean batch is at least
//!    [`MIN_MEAN_BATCH`], so a serving change cannot buy latency by not
//!    batching.
//!
//! The batched-over-single throughput ratio is printed, not gated: a
//! frozen plan leaves one core too little per-request compute for
//! coalescing to amortise.

use crate::{
    build_session, build_workloads, drive, push_row, Cell, Gates, Policy, Served, BATCH8,
    P99_BUDGET_US, SINGLE,
};
use apt_metrics::Table;
use apt_serve::{ConnLimits, RetryPolicy, Server};
use std::time::{Duration, Instant};

/// Concurrent client connections per throughput cell.
const CLIENTS: usize = 8;

/// Least mean batch the batched cell's [`CLIENTS`] connections must form.
const MIN_MEAN_BATCH: f64 = 2.0;

/// Drives one throughput cell: starts a server, hammers it with [`CLIENTS`]
/// connections × `per_client` requests, verifies every response
/// bit-exactly, and reads the server-side histograms.
fn cell(policy: Policy, per_client: usize) -> (Cell, Served) {
    let session = build_session();
    let cell = Cell::k8("throughput", policy, CLIENTS);
    let workloads = build_workloads(&session, CLIENTS);
    let config = cell.server_config("mlp-k8", 128, ConnLimits::default());
    let mut server = Server::start(session, config).expect("server starts");

    // Typed backpressure is retried with jittered exponential backoff;
    // effectively unbounded so a transient shed never counts as a lost
    // request in the throughput cells.
    let retry = RetryPolicy {
        max_retries: 10_000,
        base_delay: Duration::from_micros(200),
        max_delay: Duration::from_millis(2),
        jitter: 0.5,
        seed: 0,
    };
    let t0 = Instant::now();
    let tally = drive(server.addr(), &workloads, per_client, Some(&retry));
    let served = Served::close(&mut server, t0, (CLIENTS * per_client) as u64, tally);
    (cell, served)
}

pub(crate) fn run(gates: &mut Gates, rows: &mut Table, per_client: usize) {
    println!("# single vs batched @ k=8");
    let (single_cell, single) = cell(SINGLE, per_client);
    push_row(rows, &single_cell, &single);
    let (batched_cell, batched) = cell(BATCH8, per_client);
    push_row(rows, &batched_cell, &batched);

    // Gate 1: nothing lost or corrupted under concurrent load.
    gates.open("zero lost/corrupted responses");
    for (c, s) in [(&single_cell, &single), (&batched_cell, &batched)] {
        gates.check(
            s.clean(),
            format_args!(
                "policy {} completed {}/{} with {} corrupted, {} lost",
                c.policy.name, s.tally.ok, s.requests, s.tally.corrupted, s.tally.lost
            ),
        );
    }
    gates.pass(format_args!(
        "{} responses, every one bit-exact",
        single.tally.ok + batched.tally.ok
    ));

    println!(
        "# batched {:.2}× single ({:.0} vs {:.0} req/s)",
        batched.rps() / single.rps().max(1e-9),
        batched.rps(),
        single.rps()
    );

    // Gate 2: tail latency stays inside the budget on the batched cell.
    gates.open(format_args!("batched p99 ≤ {P99_BUDGET_US}µs"));
    let p99 = batched.stats.p99_us;
    gates.check(
        p99 <= P99_BUDGET_US,
        format_args!("p99 {p99}µs over budget"),
    );
    gates.pass(format_args!("p99 {p99}µs"));

    // Gate 3: concurrent requests share batches.
    gates.open(format_args!("batched mean batch ≥ {MIN_MEAN_BATCH:.1}"));
    let mean = batched.stats.mean_batch;
    gates.check(
        mean >= MIN_MEAN_BATCH,
        format_args!(
            "mean batch {mean:.2} from {CLIENTS} clients; histogram {:?}",
            batched.stats.batch_hist
        ),
    );
    gates.pass(format_args!("mean batch {mean:.2}"));
}
