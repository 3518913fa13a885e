//! Slowloris cell, gate 5: [`SLOWLORIS_ATTACKERS`] writers dribble one byte
//! of an open frame at a time while healthy clients run a full workload.
//! Every attacker must be reaped through the read deadline (typed
//! `slow_reaped`) and the healthy stream must stay bit-exact.

use crate::{
    build_session, build_workloads, drive, push_row, wait_until, Cell, Gates, Served, BATCH8,
};
use apt_metrics::Table;
use apt_serve::{protocol, ConnLimits, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Byte-dribbling attackers in the slowloris cell.
const SLOWLORIS_ATTACKERS: usize = 4;

/// Healthy closed-loop clients working beside them.
const HEALTHY: usize = 4;

pub(crate) fn run(gates: &mut Gates, rows: &mut Table, per_client: usize) {
    gates.open("slowloris — dribblers reaped, healthy clients bit-exact");
    let session = build_session();
    let workloads = build_workloads(&session, HEALTHY);
    let cell = Cell::k8("slowloris", BATCH8, HEALTHY + SLOWLORIS_ATTACKERS);
    let limits = ConnLimits {
        read_timeout: Duration::from_millis(300),
        ..ConnLimits::default()
    };
    let config = cell.server_config("mlp-k8-slowloris", 128, limits);
    let mut server = Server::start(session, config).expect("server starts");
    let addr = server.addr();

    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let tally = std::thread::scope(|s| {
        for _ in 0..SLOWLORIS_ATTACKERS {
            s.spawn(|| {
                // A valid header claiming a large frame, then a dribble the
                // server must not wait out.
                let Ok(mut conn) = TcpStream::connect(addr) else {
                    return;
                };
                let mut header = vec![protocol::OP_INFER];
                header.extend_from_slice(&100_000u32.to_le_bytes());
                if conn.write_all(&header).is_err() {
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    if conn.write_all(&[0]).is_err() {
                        return; // reaped — mission accomplished (for us)
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
        let tally = drive(addr, &workloads, per_client, None);

        // Give the sweeper time to reap every attacker, then stop them.
        wait_until(Duration::from_secs(10), || {
            server.stats().slow_reaped as usize >= SLOWLORIS_ATTACKERS
        });
        stop.store(true, Ordering::Relaxed);
        tally
    });
    let served = Served::close(&mut server, t0, (HEALTHY * per_client) as u64, tally);

    let reaped = served.stats.slow_reaped;
    println!(
        "  slowloris: {SLOWLORIS_ATTACKERS} attackers, {reaped} reaped after {:.0}ms; healthy \
         {}/{} ok",
        served.wall.as_secs_f64() * 1e3,
        tally.ok,
        served.requests
    );
    gates.check(
        reaped as usize >= SLOWLORIS_ATTACKERS,
        format_args!("only {reaped}/{SLOWLORIS_ATTACKERS} slowloris connections reaped"),
    );
    gates.check(
        served.clean(),
        format_args!(
            "slowloris healthy clients: {} ok, {} corrupted, {} lost",
            tally.ok, tally.corrupted, tally.lost
        ),
    );
    gates.pass("slowloris gates held");
    push_row(rows, &cell, &served);
}
