//! Overload cell, gate 6: [`OVERLOAD_CLIENTS`] closed-loop clients against
//! a tiny admission queue with a short request deadline — roughly 4× what
//! the queue can hold. Every request must resolve to a bit-exact answer or
//! a typed refusal (`Overloaded`/`DeadlineExceeded`), client-observed
//! refusal counts must match the server's shed taxonomy exactly, nothing
//! may be lost or corrupted, and completed-request p99 stays inside the
//! budget.

use crate::{
    build_session, build_workloads, drive, push_row, Cell, Gates, Policy, Served, P99_BUDGET_US,
};
use apt_metrics::Table;
use apt_serve::{ConnLimits, Server};
use std::time::{Duration, Instant};

/// Closed-loop clients in the overload cell (~4× the queue's capacity).
const OVERLOAD_CLIENTS: usize = 24;

pub(crate) fn run(gates: &mut Gates, rows: &mut Table, per_client: usize) {
    gates.open("overload — typed refusals, exact accounting, p99 protected");
    let session = build_session();
    let workloads = build_workloads(&session, OVERLOAD_CLIENTS);
    let cell = Cell::k8("overload", Policy::new("batch4", 4), OVERLOAD_CLIENTS);
    let limits = ConnLimits {
        // Tight enough that queue waits at the contention tail expire
        // (exercising deadline shedding), loose enough that the bulk
        // of admitted work still completes.
        request_timeout: Duration::from_millis(5),
        ..ConnLimits::default()
    };
    let config = cell.server_config("mlp-k8-overload", 6, limits);
    let mut server = Server::start(session, config).expect("server starts");

    let t0 = Instant::now();
    let tally = drive(server.addr(), &workloads, per_client, None);
    let requests = (OVERLOAD_CLIENTS * per_client) as u64;
    let served = Served::close(&mut server, t0, requests, tally);

    let (total, stats) = (served.requests, &served.stats);
    let (ok, shed_seen, expired_seen) = (tally.ok, tally.shed, tally.expired);
    println!(
        "  overload: {total} submissions → {ok} ok, {shed_seen} shed, {expired_seen} expired \
         ({} server-shed, {} server-expired), p99 {}µs",
        stats.shed, stats.deadline_expired, stats.p99_us
    );
    gates.check(
        tally.corrupted == 0 && tally.lost == 0,
        format_args!(
            "overload produced {} corrupted, {} lost responses",
            tally.corrupted, tally.lost
        ),
    );
    gates.check(
        ok + shed_seen + expired_seen == total,
        format_args!("overload accounting leak: {ok} + {shed_seen} + {expired_seen} != {total}"),
    );
    // Exact taxonomy match: what clients saw is what the server recorded.
    gates.check(
        shed_seen == stats.shed && expired_seen == stats.deadline_expired,
        format_args!(
            "taxonomy mismatch: clients saw {shed_seen} shed / {expired_seen} expired, server \
             recorded {} / {}",
            stats.shed, stats.deadline_expired
        ),
    );
    gates.check(
        stats.completed == ok,
        format_args!(
            "server completed {} but clients verified {ok}",
            stats.completed
        ),
    );
    gates.check(
        stats.p99_us <= P99_BUDGET_US,
        format_args!(
            "overload p99 {}µs over {P99_BUDGET_US}µs budget — admission control is not \
             protecting latency",
            stats.p99_us
        ),
    );
    gates.check(ok != 0, "overload starved every client — no goodput at all");
    gates.pass("overload gates held");
    push_row(rows, &cell, &served);
}
