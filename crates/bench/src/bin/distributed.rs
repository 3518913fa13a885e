//! distributed — bandwidth / determinism / recovery campaign for the
//! data-parallel trainer with k-bit gradient exchange.
//!
//! Sweeps world size × gradient bitwidth on the synthetic-CIFAR MLP
//! workload, running every cell twice to check bit-reproducibility, then
//! runs a PowerCut recovery campaign (kill a rank mid-run, measure the
//! fleet-rollback cost and verify the recovered run is bit-identical to
//! the uninterrupted one). Outputs `results/distributed{,_recovery}.csv` +
//! `BENCH_distributed.json`; a `--smoke` run writes its two cells to
//! `results/distributed*_smoke.*` and leaves the record alone.
//!
//! ```text
//! cargo run --release -p apt-bench --bin distributed            # full sweep
//! cargo run --release -p apt-bench --bin distributed -- --smoke # CI gate
//! ```
//!
//! `--smoke` enforces the acceptance gates and **fails the process** on
//! violation:
//!
//! 1. bytes-on-wire: the k = 4, N = 4 exchange moves ≤ 0.2× the fp32 bytes;
//! 2. determinism: N = 2 runs are bit-identical run-to-run, and the
//!    1-worker fleet reproduces the single-process trainer to the bit;
//! 3. zero replica divergence: every step is digest-gated and every cell's
//!    replicas agree on all replicated state;
//! 4. recovery: a rank power-cut mid-run rolls back once and finishes
//!    bit-identical to the uninterrupted fleet;
//! 5. the exchange stays O(frames): the allocation calls a step makes
//!    because it exchanges — a two-rank step less what its ranks allocate
//!    training alone — hold a bound set from the streaming reducer's count.

use apt_bench::{
    available_parallelism, json_doc, row, schema, smoke_flag, table, write_output, CountingAlloc,
    Gates,
};
use apt_core::{CheckpointConfig, PolicyConfig, TrainConfig, Trainer};
use apt_data::{Dataset, SynthCifar, SynthCifarConfig};
use apt_dist::{DistConfig, DistFault, DistReport, DistTrainer};
use apt_nn::{models, Network, QuantScheme};
use apt_quant::Bitwidth;
use apt_tensor::rng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn workload() -> SynthCifar {
    SynthCifar::generate(&SynthCifarConfig {
        num_classes: 2,
        train_per_class: 16,
        test_per_class: 4,
        img_size: 6,
        seed: 3,
        ..SynthCifarConfig::default()
    })
    .expect("dataset")
}

/// The sweep replica: small enough that every (world, bits) cell runs
/// twice in seconds.
fn replica() -> apt_core::Result<Network> {
    replica_in(&QuantScheme::paper_apt())
}

fn replica_in(scheme: &QuantScheme) -> apt_core::Result<Network> {
    models::mlp("dist-mlp", &[108, 24, 2], scheme, &mut rng::seeded(7))
        .map_err(apt_core::CoreError::from)
}

fn base_cfg(ckpt_root: Option<&Path>) -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 2,
        interval: 1,
        policy: Some(PolicyConfig::default()),
        seed: 11,
        checkpoint: ckpt_root.map(|dir| CheckpointConfig {
            dir: dir.to_path_buf(),
            every: 2,
            keep: 3,
        }),
        ..TrainConfig::default()
    }
}

fn dist_cfg(world: usize, bits: u32, ckpt_root: Option<&Path>) -> DistConfig {
    DistConfig {
        world,
        grad_bits: Bitwidth::new(bits).expect("valid bitwidth"),
        train: base_cfg(ckpt_root),
        max_recovery_rounds: 3,
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-bench-dist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One (world, bits) sweep cell: timings, wire accounting, and the
/// determinism/lockstep verdicts from running the cell twice.
struct Cell {
    world: usize,
    bits: u32,
    steps: u64,
    wall_ms: f64,
    final_accuracy: f64,
    bytes_on_wire: u64,
    fp32_bytes: u64,
    wire_ratio: f64,
    digest_checks: u64,
    deterministic: bool,
    lockstep: bool,
}

fn run_once(world: usize, bits: u32, data: &SynthCifar, ckpt: Option<&Path>) -> (DistReport, f64) {
    let t = Instant::now();
    let report = DistTrainer::new(dist_cfg(world, bits, ckpt), replica)
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("training");
    (report, t.elapsed().as_secs_f64() * 1e3)
}

fn run_cell(world: usize, bits: u32, data: &SynthCifar) -> Cell {
    let (a, wall_a) = run_once(world, bits, data, None);
    let (b, wall_b) = run_once(world, bits, data, None);
    let ex = a.exchange();
    Cell {
        world,
        bits,
        steps: ex.steps.max(
            // world = 1 skips the exchange; count optimiser steps instead.
            (base_cfg(None).epochs * (data.train.len() / world) / base_cfg(None).batch_size) as u64,
        ),
        wall_ms: wall_a.min(wall_b),
        final_accuracy: a.report().final_accuracy,
        bytes_on_wire: ex.bytes_on_wire,
        fp32_bytes: ex.fp32_bytes,
        wire_ratio: ex.wire_ratio(),
        digest_checks: ex.digest_checks,
        deterministic: a == b,
        lockstep: a.replicas_in_lockstep(),
    }
}

/// One recovery cell: kill `rank` at `at_step`, compare against the clean
/// fleet, and report the rollback cost.
struct RecoveryCell {
    rank: usize,
    at_step: u64,
    recovery_rounds: usize,
    clean_wall_ms: f64,
    hurt_wall_ms: f64,
    bit_identical: bool,
}

/// PowerCut campaign at world = 2, k = 4: the 12-step run is killed at
/// `at_steps` (alternating ranks), each time recovering from the lockstep
/// checkpoints.
fn recovery_campaign(data: &SynthCifar, at_steps: &[u64]) -> Vec<RecoveryCell> {
    let dir_clean = tmp("clean");
    let t = Instant::now();
    let clean = DistTrainer::new(dist_cfg(2, 4, Some(&dir_clean)), replica)
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("clean run");
    let clean_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir_clean);

    let mut cells = Vec::new();
    for (i, &at_step) in at_steps.iter().enumerate() {
        let rank = i % 2;
        let dir = tmp(&format!("kill-{at_step}-{rank}"));
        let t = Instant::now();
        let hurt = DistTrainer::new(dist_cfg(2, 4, Some(&dir)), replica)
            .expect("trainer")
            .train_with_fault(&data.train, &data.test, Some(DistFault { rank, at_step }))
            .expect("recovered run");
        let hurt_wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_dir_all(&dir);
        cells.push(RecoveryCell {
            rank,
            at_step,
            recovery_rounds: hurt.recovery_rounds,
            clean_wall_ms,
            hurt_wall_ms,
            bit_identical: hurt.reports == clean.reports,
        });
    }
    cells
}

/// Allocation calls per step that exist only because the step exchanges
/// (gate 5). A fleet's per-step count is the difference between a run of
/// `2 · EPOCHS` and one of `EPOCHS`, so what a call pays once — replicas,
/// threads, the fabric, reports — cancels; taking each rank's figure when
/// it trains alone on its own shard, so the per-rank batch is the same, off
/// the two-worker one leaves the reducer, its frames and the channel. The
/// replica is fp32 with the policy off, so a step's count follows from
/// shapes alone: k-bit stores expand their range, and Algorithm 1 rebuilds
/// them, where the gradients send them, and the fleets' gradients differ.
fn exchange_allocs_per_step(data: &SynthCifar) -> f64 {
    const EPOCHS: usize = 3;
    let allocs = |world: usize, epochs: usize, train: &Dataset| {
        let mut cfg = dist_cfg(world, 4, None);
        (cfg.train.epochs, cfg.train.policy) = (epochs, None);
        let fp32 = || replica_in(&QuantScheme::float32());
        let fleet = DistTrainer::new(cfg, fp32).expect("trainer");
        let before = ALLOC.calls();
        fleet.train(train, &data.test).expect("training");
        ALLOC.calls() - before
    };
    let per_step = |world: usize, train: &Dataset| {
        let steps = EPOCHS * (train.len() / world / base_cfg(None).batch_size);
        (allocs(world, 2 * EPOCHS, train) - allocs(world, EPOCHS, train)) as f64 / steps as f64
    };
    let alone = |rank| per_step(1, &data.train.shard(rank, 2).expect("two shards"));
    per_step(2, &data.train) - alone(0) - alone(1)
}

/// Prints both tables and writes `results/distributed.csv`,
/// `results/distributed_recovery.csv` and `BENCH_distributed.json`.
fn write_outputs(smoke: bool, cells: &[Cell], recovery: &[RecoveryCell]) {
    let mut sweep = table(schema::DISTRIBUTED);
    for c in cells {
        sweep.push_row(row![
            c.world,
            c.bits,
            c.steps,
            format!("{:.1}", c.wall_ms),
            format!("{:.4}", c.final_accuracy),
            c.bytes_on_wire,
            c.fp32_bytes,
            format!("{:.4}", c.wire_ratio),
            c.digest_checks,
            c.deterministic,
            c.lockstep
        ]);
    }
    let mut kills = table(schema::DISTRIBUTED_RECOVERY);
    for r in recovery {
        kills.push_row(row![
            r.rank,
            r.at_step,
            r.recovery_rounds,
            format!("{:.1}", r.clean_wall_ms),
            format!("{:.1}", r.hurt_wall_ms),
            r.bit_identical
        ]);
    }
    println!("{sweep}\n# recovery: world=2 k=4, one rank power-cut at `at_step`\n{kills}");
    write_output(smoke, "results/distributed.csv", &sweep.to_csv());
    write_output(smoke, "results/distributed_recovery.csv", &kills.to_csv());

    let head = [("available_parallelism", available_parallelism().to_string())];
    let record = json_doc(&head, &[("cells", &sweep), ("recovery", &kills)]);
    write_output(smoke, "BENCH_distributed.json", &record);
}

/// Gate 5's bound: what the exchange may add to a two-rank step, both
/// ranks together. The streaming reducer reads 7.2 — per rank an `amax`
/// (which becomes `gmax`), a `scales` and one payload, the root's `gmax`
/// copy for its peer, and a channel block every 31 frames — whatever the
/// parameter count; the bound is that plus a quarter. The reducer it
/// replaced (a gradient copy, a store, a `Vec<i64>` and a `PackedCodes`
/// per parameter per hop) read 88.2 on this replica's four parameters.
const EXCHANGE_ALLOCS_BOUND: f64 = 9.0;

fn smoke() -> ExitCode {
    let mut gates = Gates::stdout();
    let data = workload();

    // Gate 1: bytes on wire at the paper's operating point.
    gates.open("k=4 N=4 exchange <= 0.2x fp32 bytes");
    let cell = run_cell(4, 4, &data);
    gates.check(
        cell.wire_ratio <= 0.2,
        format_args!("wire ratio {:.3} > 0.2", cell.wire_ratio),
    );
    gates.pass(format_args!("wire ratio {:.3}", cell.wire_ratio));

    // Gate 2: determinism — N=2 bit-reproducible, world=1 == Trainer.
    gates.open("bit-reproducible runs, world=1 == single-process");
    let two = run_cell(2, 4, &data);
    let single = Trainer::new(replica().expect("net"), base_cfg(None))
        .expect("trainer")
        .train(&data.train, &data.test)
        .expect("single-process run");
    let (one, _) = run_once(1, 4, &data, None);
    let one_matches = one.reports.len() == 1 && one.reports[0] == single;
    gates.check(
        two.deterministic && one_matches,
        format_args!(
            "deterministic={} one_worker_matches_trainer={one_matches}",
            two.deterministic
        ),
    );
    gates.pass("N=2 reproducible, 1-worker fleet bit-identical to Trainer");

    // Gate 3: zero replica divergence, every step digest-gated.
    gates.open("zero post-reduce divergence, digest-gated every step");
    gates.check(
        [&cell, &two]
            .iter()
            .all(|c| c.lockstep && c.digest_checks == c.steps),
        "a cell diverged or skipped digest gating",
    );
    gates.pass(format_args!(
        "{} digest checks across both cells",
        cell.digest_checks + two.digest_checks
    ));

    // Gate 4: kill-anywhere recovery stays bit-identical.
    gates.open("power-cut rank recovers bit-identically");
    let recovery = recovery_campaign(&data, &[5]);
    for r in &recovery {
        gates.check(
            r.recovery_rounds == 1 && r.bit_identical,
            format_args!(
                "kill rank {} at step {}: recovery must take one rollback and reproduce the \
                 clean run (rounds={} bit_identical={})",
                r.rank, r.at_step, r.recovery_rounds, r.bit_identical
            ),
        );
    }
    gates.pass("fleet rollback reproduced the uninterrupted run");

    // Gate 5: the exchange allocates per frame, not per parameter.
    gates.open("the exchange adds <= 9 allocations a step at N=2");
    let added = exchange_allocs_per_step(&data);
    gates.check(
        added <= EXCHANGE_ALLOCS_BOUND,
        format_args!("{added:.1} allocations a step > {EXCHANGE_ALLOCS_BOUND}"),
    );
    gates.pass(format_args!("{added:.1} allocations a step, both ranks"));

    write_outputs(true, &[cell, two], &recovery);
    gates.finish()
}

fn full_sweep() {
    let data = workload();
    let mut cells = Vec::new();
    for world in [1usize, 2, 4] {
        for bits in [2u32, 4, 8] {
            cells.push(run_cell(world, bits, &data));
        }
    }
    // world=2 k=4, killed at steps 1/5/9.
    let recovery = recovery_campaign(&data, &[1, 5, 9]);
    write_outputs(false, &cells, &recovery);
}

fn main() -> ExitCode {
    if smoke_flag() {
        println!("# distributed --smoke: bandwidth / determinism / divergence / recovery gates");
        return smoke();
    }
    println!("# distributed: world x grad-bits sweep, recovery campaign");
    full_sweep();
    ExitCode::SUCCESS
}
