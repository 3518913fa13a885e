//! fault-campaign — soft-error injection campaign for the integrity guard.
//!
//! Sweeps injector × rate × bitwidth on the blobs/MLP workload, pairing
//! every injected run with a clean run of the same seed, and reports
//! per-cell detection rate, recovery rate, and final-accuracy delta as
//! machine-readable JSON in `results/fault_campaign.json`.
//!
//! * **detection** — the guard flagged at least as many violations as
//!   faults landed (or contained the run with a typed abort).
//! * **recovery** — the run finished and its final accuracy is within
//!   2 % of the paired clean run.
//! * **abort** — the self-healing ladder was exhausted and training
//!   stopped with `CoreError::IntegrityViolation` (contained, not silent).
//!
//! ```text
//! cargo run --release -p apt-bench --bin fault-campaign            # full sweep
//! cargo run --release -p apt-bench --bin fault-campaign -- --smoke # CI gate
//! ```
//!
//! `--smoke` runs 10 seeded one-shot weight bit flips at the paper's
//! 6-bit starting precision and **fails the process** unless every flip
//! is detected and at least 9/10 runs recover to within 2 % of clean —
//! the acceptance gate CI enforces on every push. It also prints what the
//! armed guard costs a clean run on this MLP — a guarded run's time over an
//! unguarded one's, paired rounds — as information: nothing gates on it.

use apt_bench::{
    arg_value, json_doc, median, paired_rounds, row, smoke_flag, table, write_output, Gates,
};
use apt_core::faults::{BatchCorruptor, BitFlip, Saturator, StepHook, SurfaceKind};
use apt_core::{CoreError, IntegrityConfig, TrainConfig, TrainReport, Trainer};
use apt_data::{blobs, Dataset};
use apt_nn::{models, Network, QuantScheme};
use apt_optim::LrSchedule;
use apt_quant::Bitwidth;
use std::collections::HashMap;
use std::process::ExitCode;

/// Recovery criterion: within 2 % absolute accuracy of the paired clean run.
const RECOVERY_TOL: f64 = 0.02;

fn workload() -> (Dataset, Dataset) {
    let all = blobs(3, 40, 6, 0.4, 1).expect("dataset");
    all.split_shuffled(90, 9).expect("split")
}

fn net(bits: u32, seed: u64) -> Network {
    let scheme = QuantScheme::fully_quantized(Bitwidth::new(bits).expect("valid bitwidth"));
    models::mlp(
        "m",
        &[6, 16, 3],
        &scheme,
        &mut apt_tensor::rng::seeded(seed),
    )
    .expect("model")
}

fn cfg(check_digests: bool) -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        augment: None,
        interval: 2,
        integrity: Some(IntegrityConfig {
            check_digests,
            ..Default::default()
        }),
        ..Default::default()
    }
}

fn run(bits: u32, seed: u64, check_digests: bool, hook: &mut dyn StepHook) -> CampaignRun {
    let (train, test) = workload();
    let mut trainer = Trainer::new(net(bits, seed), cfg(check_digests)).expect("trainer");
    match trainer.train_with_hooks(&train, &test, hook) {
        Ok(report) => CampaignRun {
            aborted: false,
            report: Some(report),
        },
        Err(CoreError::IntegrityViolation { .. }) => CampaignRun {
            aborted: true,
            report: None,
        },
        Err(e) => panic!("unexpected training error: {e}"),
    }
}

struct CampaignRun {
    aborted: bool,
    report: Option<TrainReport>,
}

/// One (injector, rate, bitwidth) sweep cell, aggregated over seeds.
#[derive(Default)]
struct Cell {
    injector: String,
    rate: f64,
    bits: u32,
    runs: usize,
    injected: usize,
    detected: usize,
    recovered: usize,
    aborted: usize,
    acc_deltas: Vec<f64>,
}

impl Cell {
    fn detection_rate(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.detected as f64 / self.injected as f64
        }
    }

    fn recovery_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.recovered as f64 / self.runs as f64
        }
    }

    fn mean_acc_delta(&self) -> f64 {
        if self.acc_deltas.is_empty() {
            0.0
        } else {
            self.acc_deltas.iter().sum::<f64>() / self.acc_deltas.len() as f64
        }
    }
}

/// Clean-run accuracy cache keyed by (bits, seed): every injected run is
/// compared against a clean run of the identical net and data.
struct CleanCache(HashMap<(u32, u64), f64>);

impl CleanCache {
    fn accuracy(&mut self, bits: u32, seed: u64) -> f64 {
        *self.0.entry((bits, seed)).or_insert_with(|| {
            let mut noop = apt_core::NoFaults;
            let clean = run(bits, seed, true, &mut noop);
            clean.report.expect("clean run finished").final_accuracy
        })
    }
}

/// One cell: `seeds` injected runs at `bits`, each scored against the clean
/// run of its seed. `inject` runs one seed and says how many faults landed;
/// `flagged` reads off a finished run's report how many the guard caught.
fn campaign(
    clean: &mut CleanCache,
    (injector, rate, bits): (&str, f64, u32),
    seeds: u64,
    flagged: fn(&TrainReport) -> usize,
    mut inject: impl FnMut(u64) -> (CampaignRun, usize),
) -> Cell {
    let mut cell = Cell {
        injector: injector.into(),
        rate,
        bits,
        ..Default::default()
    };
    for seed in 0..seeds {
        let clean_acc = clean.accuracy(bits, seed);
        let (out, injected) = inject(seed);
        cell.runs += 1;
        cell.injected += injected;
        // An abort is a detection event by construction: the ladder only
        // trips after repeated flagged violations.
        let detected = out.report.as_ref().map_or(injected, flagged).min(injected);
        cell.detected += detected;
        cell.aborted += usize::from(out.aborted);
        let delta = out
            .report
            .as_ref()
            .map(|r| (r.final_accuracy - clean_acc).abs());
        cell.acc_deltas.extend(delta);
        cell.recovered += usize::from(delta.is_some_and(|d| d <= RECOVERY_TOL));
        eprintln!(
            "{injector:<15} rate={rate:<4} bits={bits} seed {seed}: injected={injected} \
             detected={detected} acc_delta={:.4}",
            delta.unwrap_or(f64::NAN)
        );
    }
    cell
}

fn violations(r: &TrainReport) -> usize {
    r.integrity.digest_violations
        + r.integrity.saturation_violations
        + r.integrity.batch_violations
        + r.integrity.gradient_violations
}

fn full_sweep(seeds: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut clean = CleanCache(HashMap::new());
    for bits in [4u32, 6, 8] {
        for rate in [0.02f64, 0.1, 0.5] {
            let cell = ("bitflip", rate, bits);
            cells.push(campaign(&mut clean, cell, seeds, violations, |seed| {
                let mut hook = BitFlip::with_rate(rate, 0xF1_0000 + seed).surfaces(&[
                    SurfaceKind::Weight,
                    SurfaceKind::Velocity,
                    SurfaceKind::GavgEma,
                ]);
                let out = run(bits, seed, true, &mut hook);
                (out, hook.records().len())
            }));
        }
        for rate in [0.05f64, 0.25] {
            let skipped = |r: &TrainReport| r.integrity.skipped_batches;
            let cell = ("batch", rate, bits);
            cells.push(campaign(&mut clean, cell, seeds, skipped, |seed| {
                let mut hook = BatchCorruptor::with_rate(rate, 0xBA_0000 + seed);
                let out = run(bits, seed, true, &mut hook);
                (out, hook.injected())
            }));
        }
        // One-shot rail saturation, digests off so the saturation guard —
        // not the digest scan — does the catching.
        let saturated = |r: &TrainReport| r.integrity.saturation_violations;
        let cell = ("saturate", 0.0, bits);
        cells.push(campaign(&mut clean, cell, seeds, saturated, |seed| {
            let mut hook = Saturator::at(4);
            let out = run(bits, seed, false, &mut hook);
            (out, usize::from(hook.forced() > 0))
        }));
    }
    cells
}

/// The CI acceptance gate: 10 one-shot weight flips at 6 bits must all be
/// detected, and ≥ 9/10 runs must recover to within 2 % of clean.
fn smoke() -> ExitCode {
    const SEEDS: u64 = 10;
    let mut clean = CleanCache(HashMap::new());
    let digest = |r: &TrainReport| r.integrity.digest_violations;
    let cell = campaign(
        &mut clean,
        ("bitflip-oneshot", 0.0, 6),
        SEEDS,
        digest,
        |seed| {
            let mut hook = BitFlip::at(5, 0x50_0000 + seed);
            let out = run(6, seed, true, &mut hook);
            (out, hook.records().len())
        },
    );
    write_json(true, std::slice::from_ref(&cell));

    let mut gates = Gates::stdout();
    gates.open("every injected weight bit flip detected");
    gates.check(
        cell.injected == SEEDS as usize && cell.detection_rate() == 1.0,
        "expected 100% detection of injected weight bit flips",
    );
    gates.pass(format_args!(
        "detection {}/{}",
        cell.detected, cell.injected
    ));
    gates.open("at least 9/10 runs recover to within 2% of clean accuracy");
    gates.check(
        cell.recovered >= 9,
        "expected >= 9/10 runs within 2% of clean accuracy",
    );
    gates.pass(format_args!("recovery {}/{}", cell.recovered, cell.runs));
    print_guard_cost();
    gates.finish()
}

/// What arming the guard costs a clean run of the campaign's MLP: the same
/// seed trained with and without it, in paired rounds.
fn print_guard_cost() {
    let (train, test) = workload();
    let clean_run = |integrity: Option<IntegrityConfig>| {
        let cfg = TrainConfig {
            integrity,
            ..cfg(true)
        };
        let mut trainer = Trainer::new(net(6, 0), cfg).expect("trainer");
        let report = trainer.train(&train, &test).expect("a clean run finishes");
        assert!(report.integrity.is_clean());
    };
    let rounds = paired_rounds(5, &|| clean_run(None), &|| {
        clean_run(Some(IntegrityConfig::default()))
    });
    let ratio = median(rounds.iter().map(|(bare, armed)| armed / bare).collect());
    let steps = 4.0 * 6.0;
    let armed_us = median(
        rounds
            .iter()
            .map(|(_, armed)| armed / steps / 1e3)
            .collect(),
    );
    println!(
        "# guarded / unguarded clean run (6-bit MLP, paired rounds, ungated): {ratio:.2}x, \
         {armed_us:.1} us a guarded step"
    );
}

/// Prints the cells and writes them to `results/fault_campaign.json`.
fn write_json(smoke: bool, cells: &[Cell]) {
    let mut t = table(
        "injector,rate,bits,runs,injected,detected,detection_rate,recovered,recovery_rate,\
         aborted,mean_acc_delta",
    );
    for c in cells {
        t.push_row(row![
            c.injector,
            c.rate,
            c.bits,
            c.runs,
            c.injected,
            c.detected,
            format!("{:.4}", c.detection_rate()),
            c.recovered,
            format!("{:.4}", c.recovery_rate()),
            c.aborted,
            format!("{:.6}", c.mean_acc_delta())
        ]);
    }
    println!("{t}");
    let head = [("recovery_tolerance", RECOVERY_TOL.to_string())];
    let record = json_doc(&head, &[("cells", &t)]);
    write_output(smoke, "results/fault_campaign.json", &record);
}

fn main() -> ExitCode {
    let seeds = arg_value("--seeds")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(5);

    if smoke_flag() {
        println!("# fault-campaign --smoke: one-shot weight flips, 6-bit, 10 seeds");
        return smoke();
    }
    println!("# fault-campaign: injector x rate x bitwidth sweep, {seeds} seeds/cell");
    write_json(false, &full_sweep(seeds));
    ExitCode::SUCCESS
}
