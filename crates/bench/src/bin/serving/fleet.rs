//! Fleet cell, gate 7: closed-loop clients hammer the default model while
//! [`FLEET_SWAPS`] hot-swaps push new checkpoint versions through the full
//! validation ladder, then the memory-pressure leg evicts a cold tenant
//! under a tight resident-bytes budget.
//!
//! Every response must be bit-exact for *some* published plan version
//! (zero corrupted/lost), client/server completion and refusal counts must
//! reconcile exactly, every republish counts as a swap, swap p99 stays
//! under [`SWAP_P99_BUDGET_US`], the evicted tenant answers typed
//! `ModelUnavailable`, and the hot model keeps serving bit-exactly.

use crate::{build_blob, push_row, spec, Cell, Gates, Policy, Served, Tally, DIMS};
use apt_bench::bit_identical;
use apt_metrics::Table;
use apt_serve::{
    ConnLimits, InferenceSession, ModelRegistry, RegistryConfig, ServeClient, ServeError, Server,
};
use apt_tensor::rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

pub(crate) fn run(gates: &mut Gates, rows: &mut Table) {
    gates.open(format_args!(
        "fleet — {FLEET_SWAPS} hot-swaps under load, swap p99 ≤ {SWAP_P99_BUDGET_US}µs, typed \
         eviction under memory pressure"
    ));
    let spec = spec();
    let blobs: Vec<Vec<u8>> = (0..FLEET_VERSIONS as u64)
        .map(|v| build_blob(8, 4000 + v))
        .collect();
    let sample = rng::normal(&[DIMS[0]], 1.0, &mut rng::seeded(31)).into_vec();

    // The differential baseline: a fresh single-model session per
    // checkpoint defines the only legal response bits for that version.
    let expected: Vec<Vec<f32>> = blobs
        .iter()
        .map(|b| {
            let fresh = InferenceSession::from_checkpoint(&spec, b).expect("fresh session");
            fresh.infer_one(&sample).expect("local forward")
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
    let cell = Cell::k8("fleet", Policy::new("batch8", 8), FLEET_CLIENTS + 1);
    let config = cell.server_config("m", 256, ConnLimits::default());
    let mut server =
        Server::start_with_registry(Arc::clone(&registry), config).expect("server starts");
    let addr = server.addr();

    let t0 = Instant::now();
    let stop = AtomicBool::new(false);
    let mut tally = Tally::default();
    let mut seen = [false; FLEET_VERSIONS];
    let mut swap_us: Vec<u64> = Vec::with_capacity(FLEET_SWAPS);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..FLEET_CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut tally = Tally::default();
                    let mut versions = [false; FLEET_VERSIONS];
                    let Ok(mut client) = ServeClient::connect(addr) else {
                        tally.lost = 1;
                        return (tally, versions);
                    };
                    while !stop.load(Ordering::SeqCst) {
                        tally.count(client.infer(&sample), |row| {
                            let version = expected.iter().position(|want| bit_identical(want, row));
                            if let Some(v) = version {
                                versions[v] = true;
                            }
                            version.is_some()
                        });
                    }
                    (tally, versions)
                })
            })
            .collect();

        // The swapper: each republish runs the whole ladder before the
        // atomic pointer swap, so its duration is the swap latency a
        // deployer sees.
        for i in 0..FLEET_SWAPS {
            let b = &blobs[(i + 1) % FLEET_VERSIONS];
            let s0 = Instant::now();
            let outcome = registry.ingest_blob("m", &spec, b).expect("swap publish");
            swap_us.push(s0.elapsed().as_micros() as u64);
            gates.check(
                outcome.replaced,
                format_args!("fleet swap {i} did not replace the resident plan"),
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
        for h in clients {
            let (t, versions) = h.join().expect("fleet client thread");
            tally.add(t);
            for (a, b) in seen.iter_mut().zip(versions) {
                *a |= b;
            }
        }
    });
    let typed = tally.shed + tally.expired;

    // Post-quiesce differential: the resident plan must match a fresh
    // session over the last published checkpoint, bit for bit.
    let final_bits = &expected[FLEET_SWAPS % FLEET_VERSIONS];
    let mut main_client = ServeClient::connect(addr).expect("post-swap connect");
    let mut check_hot = |gates: &mut Gates, client: &mut ServeClient, when: &str| {
        let hot = bit_identical(&client.infer(&sample).expect("hot-model infer"), final_bits);
        gates.check(
            hot,
            format_args!("fleet hot model diverged from the last published plan ({when})"),
        );
        if hot {
            tally.ok += 1;
        } else {
            tally.corrupted += 1;
        }
    };
    check_hot(gates, &mut main_client, "post-swap");

    // Memory-pressure leg: a second tenant fills the budget; touching the
    // default keeps it hot, so the third publish evicts the cold one.
    registry
        .ingest_blob("cold", &spec, &build_blob(8, 5001))
        .expect("cold publish");
    check_hot(gates, &mut main_client, "post-cold-publish");
    let outcome = registry
        .ingest_blob("third", &spec, &build_blob(8, 5002))
        .expect("third publish");
    gates.check(
        outcome.evicted == ["cold"],
        format_args!(
            "budget eviction removed {:?}, wanted [\"cold\"]",
            outcome.evicted
        ),
    );
    let cold = main_client.infer_model("cold", &sample);
    gates.check(
        matches!(&cold, Err(ServeError::ModelUnavailable { model, reason })
            if model == "cold" && reason.contains("evicted")),
        format_args!("evicted tenant answered {cold:?}, wanted typed ModelUnavailable"),
    );
    check_hot(gates, &mut main_client, "post-eviction");

    swap_us.sort_unstable();
    let swap_p99 = swap_us[((swap_us.len() * 99) / 100).min(swap_us.len() - 1)];
    let requests = tally.ok + typed + tally.corrupted + tally.lost;
    let mut served = Served::close(&mut server, t0, requests, tally);
    served.swap_p99_us = swap_p99;
    let (ok, snap) = (tally.ok, &served.stats);
    let versions_seen = seen.iter().filter(|&&v| v).count();

    println!(
        "  fleet: {FLEET_SWAPS} swaps (p99 {swap_p99}µs), {ok} bit-exact responses across \
         {versions_seen} plan versions, {} evictions, {} typed unavailable",
        snap.evictions, snap.model_unavailable
    );
    gates.check(
        tally.corrupted == 0 && tally.lost == 0,
        format_args!(
            "fleet saw {} corrupted, {} lost responses under swap load",
            tally.corrupted, tally.lost
        ),
    );
    gates.check(
        snap.completed == ok,
        format_args!(
            "fleet server completed {} but clients verified {ok}",
            snap.completed
        ),
    );
    gates.check(
        snap.shed + snap.deadline_expired == typed,
        format_args!(
            "fleet refusal taxonomy: clients saw {typed}, server recorded {}",
            snap.shed + snap.deadline_expired
        ),
    );
    gates.check(
        snap.errors == 0,
        format_args!("fleet recorded {} batch errors", snap.errors),
    );
    gates.check(
        snap.swaps == FLEET_SWAPS as u64,
        format_args!("{} swaps recorded, expected {FLEET_SWAPS}", snap.swaps),
    );
    gates.check(
        snap.evictions == 1 && snap.model_unavailable == 1,
        format_args!(
            "eviction accounting: {} evictions / {} unavailable, expected 1 / 1",
            snap.evictions, snap.model_unavailable
        ),
    );
    gates.check(
        versions_seen >= 2,
        format_args!("load never observed a hot-swap take effect: {seen:?}"),
    );
    gates.check(
        swap_p99 <= SWAP_P99_BUDGET_US,
        format_args!("swap p99 {swap_p99}µs over {SWAP_P99_BUDGET_US}µs budget"),
    );
    gates.pass("fleet gates held");
    push_row(rows, &cell, &served);
}
