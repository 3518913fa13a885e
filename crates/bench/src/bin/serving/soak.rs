//! Soak cell, gate 4: [`SOAK_CONNS`] registered-but-silent connections
//! squat on the table while one healthy client keeps inferring. The
//! counting allocator bounds what an idle connection costs the server, and
//! the healthy stream must stay bit-exact inside the p99 budget.

use crate::{
    build_session, build_workloads, drive, push_row, wait_until, Cell, Gates, Served, ALLOC,
    BATCH8, P99_BUDGET_US,
};
use apt_metrics::Table;
use apt_serve::{ConnLimits, Server};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Idle connections held open by the soak cell.
const SOAK_CONNS: usize = 1000;

/// Heap budget per idle connection (server side). A registered connection
/// is a table entry, an empty decoder, and an empty output buffer — 16 KiB
/// is an order of magnitude of headroom over the observed cost.
const SOAK_HEAP_PER_CONN: usize = 16 * 1024;

pub(crate) fn run(gates: &mut Gates, rows: &mut Table, per_client: usize) {
    gates.open(format_args!(
        "soak — {SOAK_CONNS} idle conns, bounded heap, healthy p99 holds"
    ));
    let session = build_session();
    let workloads = build_workloads(&session, 1);
    let cell = Cell::k8("soak", BATCH8, SOAK_CONNS + 1);
    let limits = ConnLimits {
        max_connections: SOAK_CONNS + 8,
        // Long enough that squatters survive the whole cell.
        idle_timeout: Duration::from_secs(600),
        ..ConnLimits::default()
    };
    let config = cell.server_config("mlp-k8-soak", 128, limits);
    let mut server = Server::start(session, config).expect("server starts");
    let addr = server.addr();

    // Open the squatters and wait until the server has registered every
    // one, so the heap delta covers exactly SOAK_CONNS table entries.
    let heap_before = ALLOC.live();
    let squatters: Vec<TcpStream> = (0..SOAK_CONNS)
        .map(|_| TcpStream::connect(addr).expect("soak connect"))
        .collect();
    let open = || server.stats().open_conns;
    gates.check(
        wait_until(Duration::from_secs(30), || open() as usize >= SOAK_CONNS),
        format_args!("soak registered only {}/{SOAK_CONNS} connections", open()),
    );
    // The bench process's own TcpStream handles allocate almost nothing;
    // the delta is dominated by the server's per-connection state.
    let heap_delta = ALLOC.live().saturating_sub(heap_before);
    let budget = SOAK_CONNS * SOAK_HEAP_PER_CONN;
    println!(
        "  soak: {} idle conns cost {} KiB live heap ({} bytes/conn, budget {})",
        SOAK_CONNS,
        heap_delta / 1024,
        heap_delta / SOAK_CONNS.max(1),
        SOAK_HEAP_PER_CONN
    );
    gates.check(
        heap_delta <= budget,
        format_args!(
            "soak heap delta {heap_delta} bytes exceeds {budget} ({SOAK_HEAP_PER_CONN} per conn)"
        ),
    );

    // One healthy client works through the crowd.
    let t0 = Instant::now();
    let tally = drive(addr, &workloads, per_client, None);
    let served = Served::close(&mut server, t0, per_client as u64, tally);
    drop(squatters);
    gates.check(
        served.clean(),
        format_args!(
            "soak healthy client: {} ok, {} corrupted, {} lost",
            tally.ok, tally.corrupted, tally.lost
        ),
    );
    gates.check(
        served.stats.p99_us <= P99_BUDGET_US,
        format_args!(
            "soak healthy p99 {}µs over {P99_BUDGET_US}µs budget",
            served.stats.p99_us
        ),
    );
    gates.pass("soak gates held");
    push_row(rows, &cell, &served);
}
