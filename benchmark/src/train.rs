//! `train-conv` and `train-guarded`: the paper's loop (Algorithm 2) driven
//! through `Trainer::train_with_hooks`, and the mirrored loop the traced
//! pass builds from the same public calls.

use crate::harness::{probe_us, ref_kernel, run_for, BlockShape, Metric, Recorder, Workload};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use apt_core::{
    apply_policy, write_state, CheckpointConfig, GavgProfiler, IntegrityConfig, OptimizerState,
    SentinelConfig, StepAction, StepGuard, StepHook, StepInfo, TrainConfig, TrainReport,
    TrainState, Trainer,
};
use apt_data::{Batch, Batcher, Dataset, SynthCifar, SynthCifarConfig};
use apt_energy::EnergyMeter;
use apt_nn::{checkpoint, models, Mode, Network, ParamKind, QuantScheme};
use apt_optim::{LrSchedule, Sgd};
use apt_quant::{fake, Bitwidth};
use apt_tensor::ops::conv::{self, Conv2dParams};
use apt_tensor::ops::{matmul, reduce::argmax_rows, softmax::cross_entropy};
use apt_tensor::rng;
use std::path::PathBuf;
use std::time::Instant;

/// Model-init and shuffling seeds are fixed: `--seed` drives the data only.
const MODEL_SEED: u64 = 7;
const TRAIN_SEED: u64 = 42;
pub const BATCH: usize = 32;
/// 320 training images in batches of 32.
pub const STEPS_PER_EPOCH: usize = 10;
/// One block = this many consecutive step intervals = exactly one epoch,
/// so every block carries one epoch turnover (Algorithm 1 pass plus the
/// next epoch's batch materialisation).
const BLOCK_STEPS: usize = STEPS_PER_EPOCH;
/// Epochs per slice on a fresh network. The last epoch's turnover is the
/// final evaluation and report, different work, so it closes no block:
/// a slice yields `SLICE_EPOCHS - 1` blocks.
const SLICE_EPOCHS: usize = 13;
/// The reference kernel runs inside the hook at every this-many-th block
/// boundary, outside every timed interval.
const REF_EVERY_BLOCKS: usize = 3;

pub const MLP_DIMS: [usize; 4] = [768, 256, 256, 10];

/// `final_accuracy` must not fall below this on either workload: three
/// times chance, which 60 test images put out of reach of a network that
/// has not learned (18 hits where chance expects 6 ± 2.3). It catches
/// divergence, not quality, because what a slice ends at depends on the
/// data `--seed` generates and every seed must pass: over 730 seeds
/// cifarnet ends at 0.98–1.00 on nine in ten, under 0.90 on one in a
/// hundred and at 0.67 on the worst; the guarded MLP at 0.93–1.00 over 430.
/// (A floor of 0.90, set from seeds 1–40, failed seeds 87, 250, 330, 380.)
const ACCURACY_FLOOR: f64 = 0.30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// cifarnet, nothing armed: conv forward/backward and fake-quant.
    Conv,
    /// MLP with sentinel, integrity guard and checkpoints armed.
    Guarded,
}

/// SynthCifar 10 classes × 32 images at 16×16: 320 train, 60 test.
pub fn dataset(seed: u64) -> SynthCifar {
    SynthCifar::generate(&SynthCifarConfig::cifar10_like(32, 16, seed))
        .expect("the dataset configuration is valid")
}

pub fn cifarnet() -> Network {
    models::cifarnet(
        10,
        16,
        0.5,
        &QuantScheme::paper_apt(),
        &mut rng::seeded(MODEL_SEED),
    )
    .expect("cifarnet(10, 16, 0.5) is a valid configuration")
}

pub fn mlp(dims: &[usize]) -> Network {
    models::mlp(
        "mlp",
        dims,
        &QuantScheme::paper_apt(),
        &mut rng::seeded(MODEL_SEED),
    )
    .expect("an MLP with four dims is a valid configuration")
}

/// The guarded MLP's schedule. Under the default schedule (0.1, step
/// decay) the 265 k-parameter MLP climbs to ~0.9 by epoch 4 and then
/// degrades towards 0.6: a benchmark must not time a diverging run. At a
/// constant 0.02 it ends at 0.98–1.00 on every one of seeds 1–40.
fn guarded_schedule() -> LrSchedule {
    LrSchedule::Constant(0.02)
}

/// The sentinel is armed — its input screen, loss EMA and per-step snapshot
/// all run — but with a spike factor of 10, not 3: once the loss is near
/// 0.1 one hard batch is 3× the EMA on 18 of seeds 1–40 at a rate of 0.03
/// (none at 0.02, four at a factor of 2.5), and a rolled-back step is a
/// failed operation. At 10 no seed of 1–40 rolls back at either rate.
fn sentinel() -> SentinelConfig {
    SentinelConfig {
        spike_factor: 10.0,
        ..SentinelConfig::default()
    }
}

/// The APT configuration every training workload shares: k = 6 start,
/// default policy, default augmentation, one compute thread.
pub fn apt_config(epochs: usize, schedule: LrSchedule) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: BATCH,
        schedule,
        policy: Some(Default::default()),
        seed: TRAIN_SEED,
        // Evaluate after the first and the last epoch only.
        eval_every: epochs,
        threads: Some(1),
        ..TrainConfig::default()
    }
}

pub struct Train {
    kind: Kind,
    data: SynthCifar,
    cfg: TrainConfig,
    ckpt_dir: PathBuf,
    /// What every later slice must reproduce exactly.
    reference: Option<(TrainReport, Vec<u8>)>,
}

impl Train {
    pub fn setup(kind: Kind, seed: u64, out_dir: &std::path::Path) -> Train {
        let data = dataset(seed);
        let ckpt_dir = out_dir.join("train-guarded.ckpt");
        let mut cfg = match kind {
            Kind::Conv => apt_config(SLICE_EPOCHS, LrSchedule::paper_cifar10(SLICE_EPOCHS)),
            Kind::Guarded => apt_config(SLICE_EPOCHS, guarded_schedule()),
        };
        if kind == Kind::Guarded {
            cfg.sentinel = Some(sentinel());
            cfg.integrity = Some(IntegrityConfig::default());
            cfg.checkpoint = Some(CheckpointConfig {
                dir: ckpt_dir.clone(),
                every: 10,
                keep: 2,
            });
        }
        Train {
            kind,
            data,
            cfg,
            ckpt_dir,
            reference: None,
        }
    }

    fn net(&self) -> Network {
        match self.kind {
            Kind::Conv => cifarnet(),
            Kind::Guarded => mlp(&MLP_DIMS),
        }
    }

    /// Every slice starts from an empty checkpoint directory, so each
    /// writes and prunes the same files.
    fn clear_checkpoints(&self) {
        if self.kind == Kind::Guarded {
            let _ = std::fs::remove_dir_all(&self.ckpt_dir);
        }
    }

    /// One full hooked `Trainer` run on a fresh network.
    fn hooked_run(&self) -> (TrainReport, Vec<u8>, Stamps) {
        self.clear_checkpoints();
        let mut hook = Stamps::with_capacity(SLICE_EPOCHS * STEPS_PER_EPOCH);
        let mut trainer = Trainer::new(self.net(), self.cfg.clone())
            .expect("the workload's configuration is valid");
        let report = trainer
            .train_with_hooks(&self.data.train, &self.data.test, &mut hook)
            .expect("a clean run trains to the end");
        let blob = checkpoint::save_full(&mut trainer.into_network());
        (report, blob, hook)
    }

    /// Verifies one finished run against the first and the accuracy floor;
    /// a run that fails any check counts all its steps as failed.
    fn verify(
        &mut self,
        report: TrainReport,
        blob: Vec<u8>,
        rolled_back: bool,
        rec: &mut Recorder,
    ) {
        let steps = (SLICE_EPOCHS * STEPS_PER_EPOCH) as u64;
        rec.attempted += steps;
        let finite = report.epochs.iter().all(|e| e.train_loss.is_finite());
        if !finite || rolled_back || !report.integrity.is_clean() {
            rec.fail(steps, "a step was non-finite or rolled back".into());
        } else if report.final_accuracy < ACCURACY_FLOOR {
            rec.fail(
                steps,
                format!(
                    "final accuracy {:.3} under the floor {ACCURACY_FLOOR:.3}",
                    report.final_accuracy
                ),
            );
        } else if let Some((first, first_blob)) = &self.reference {
            if *first != report || *first_blob != blob {
                rec.fail(
                    steps,
                    "a slice did not reproduce the first slice's report".into(),
                );
            }
        }
        if self.reference.is_none() {
            self.reference = Some((report, blob));
        }
    }
}

/// Stamps the entry and the exit of every `before_step` call. The interval
/// from one call's exit to the next call's entry is one optimiser step as
/// the trainer's caller sees it, hook excluded.
pub struct Stamps {
    entry: Vec<Instant>,
    exit: Vec<Instant>,
    ref_us: Vec<f64>,
    allocs: Vec<u64>,
    /// A hook call saw `global_step` fail to advance: the trainer rolled a
    /// step back.
    rolled_back: bool,
}

impl Stamps {
    fn with_capacity(steps: usize) -> Stamps {
        Stamps {
            entry: Vec::with_capacity(steps),
            exit: Vec::with_capacity(steps),
            ref_us: Vec::with_capacity(steps),
            allocs: Vec::with_capacity(steps),
            rolled_back: false,
        }
    }

    /// Block times in seconds: sums of `BLOCK_STEPS` consecutive intervals.
    fn blocks(&self) -> Vec<f64> {
        let intervals: Vec<f64> = self
            .exit
            .iter()
            .zip(&self.entry[1..])
            .map(|(from, to)| to.duration_since(*from).as_secs_f64())
            .collect();
        intervals
            .chunks_exact(BLOCK_STEPS)
            .map(|c| c.iter().sum())
            .collect()
    }

    /// Allocation calls per step between the first and the last hook call.
    fn allocs_per_step(&self) -> f64 {
        let n = self.allocs.len();
        (self.allocs[n - 1] - self.allocs[0]) as f64 / (n - 1) as f64
    }
}

impl StepHook for Stamps {
    fn before_step(&mut self, info: &StepInfo, _batch: &mut Batch) -> StepAction {
        self.entry.push(Instant::now());
        self.allocs.push(crate::alloc::calls());
        self.rolled_back |= self.entry.len() as u64 != info.global_step + 1;
        if (info.global_step as usize).is_multiple_of(BLOCK_STEPS * REF_EVERY_BLOCKS) {
            self.ref_us.push(ref_kernel());
        }
        self.exit.push(Instant::now());
        StepAction::Continue
    }
}

impl Workload for Train {
    fn shape(&self) -> BlockShape {
        BlockShape {
            units: (BLOCK_STEPS * BATCH) as f64,
            ops: BLOCK_STEPS as f64,
        }
    }

    /// One epoch through the same path.
    fn warm_up(&mut self) {
        let mut warm = self.cfg.clone();
        warm.epochs = 1;
        self.clear_checkpoints();
        Trainer::new(self.net(), warm)
            .and_then(|mut t| t.train(&self.data.train, &self.data.test))
            .expect("the warm-up epoch trains");
    }

    fn run_slice(&mut self, rec: &mut Recorder) {
        crate::alloc::mark();
        let (report, blob, stamps) = self.hooked_run();
        rec.heap_peak = rec.heap_peak.max(crate::alloc::peak());
        for (position, secs) in stamps.blocks().into_iter().enumerate() {
            rec.blocks.push(position, secs);
        }
        rec.ref_us.extend(&stamps.ref_us);
        rec.allocs_per_op.push(stamps.allocs_per_step());
        self.verify(report, blob, stamps.rolled_back, rec);
    }

    fn resident_bytes(&self) -> u64 {
        self.reference
            .as_ref()
            .map_or(0, |(r, _)| r.peak_resident_bytes)
    }

    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, rec: &mut Recorder) -> Vec<Metric> {
        // Untraced half: the hooked trainer, for the step the spans must
        // add up to and the overhead the traced loop is held against.
        run_for(self, rec, seconds / 2.0);
        let hooked_step_us = rec.blocks.quiet() / BLOCK_STEPS as f64 * 1e6;
        let (reference, reference_blob) = self.reference.clone().expect("a slice has run");

        // Traced half: the mirrored loop, checked bit-identical each time.
        let start = Instant::now();
        let mut mirrored = stats::Blocks::default();
        let mut last = None;
        while last.is_none() || start.elapsed().as_secs_f64() < seconds / 2.0 {
            self.clear_checkpoints();
            let mut mirror = Mirror::new(self.net(), self.cfg.clone(), tracer);
            let report = mirror.run(&self.data.train, &self.data.test);
            for (position, secs) in mirror.block_s.iter().enumerate() {
                mirrored.push(position, *secs);
            }
            let blob = checkpoint::save_full(&mut mirror.net);
            let steps = (SLICE_EPOCHS * STEPS_PER_EPOCH) as u64;
            rec.attempted += steps;
            if report != reference || blob != reference_blob {
                rec.fail(
                    steps,
                    "the mirrored loop is not bit-identical to Trainer::train".into(),
                );
            }
            last = Some((report, mirror.net, mirror.underflowed, mirror.quantized));
        }
        let (report, mut net, underflowed, quantized) = last.expect("the mirrored loop ran");
        let mirrored_step_us = mirrored.quiet() / BLOCK_STEPS as f64 * 1e6;

        // A span's time is judged the way a block's is: the quietest decile
        // within each epoch of the slice — later epochs run at more bits and
        // cost more — averaged over the epochs the blocks cover. Spans of a
        // step carry the step as `op_id`, spans of an epoch the epoch.
        let quiet = |name: &str, per_epoch: bool| {
            let mut by_epoch = stats::Blocks::default();
            for s in tracer.spans().iter().filter(|s| s.name == name) {
                let epoch = if per_epoch {
                    s.op_id
                } else {
                    s.op_id / STEPS_PER_EPOCH as u64
                };
                if per_epoch || (epoch as usize) < SLICE_EPOCHS - 1 {
                    by_epoch.push(epoch as usize, (s.end_ns - s.start_ns) as f64 / 1e3);
                }
            }
            if by_epoch.is_empty() {
                0.0
            } else {
                by_epoch.quiet()
            }
        };
        let step = |name: &str| quiet(name, false);
        // Once per epoch, so a tenth of it per step.
        let per_step = |name: &str| quiet(name, true) / STEPS_PER_EPOCH as f64;
        let guard_us = [
            "core.guard.pre_step",
            "core.guard.check_batch",
            "core.guard.check_grads",
            "core.guard.refresh",
        ]
        .iter()
        .map(|n| step(n))
        .sum::<f64>();
        let capture_us = step("core.capture_state") + step("core.snapshot_swap");
        let sampled = STEPS_PER_EPOCH.div_ceil(self.cfg.interval) as f64 / STEPS_PER_EPOCH as f64;
        let span_sum_us = step("nn.forward")
            + step("tensor.loss")
            + step("nn.backward")
            + step("core.gavg") * sampled
            + step("optim.step")
            + step("energy.record")
            + guard_us
            + step("core.sentinel")
            + capture_us
            // Every tenth snapshot is also written to disk.
            + step("core.write_state") / STEPS_PER_EPOCH as f64
            + per_step("data.epoch")
            + per_step("core.policy")
            + per_step("core.capture_epoch")
            // Of the epochs a block closes, only the first evaluates.
            + per_step("core.eval") / (SLICE_EPOCHS - 1) as f64;
        let macs = net.macs_last_forward() as f64;
        let samples = (SLICE_EPOCHS * STEPS_PER_EPOCH * BATCH) as f64;

        let mut m: Vec<Metric> = vec![
            ("tensor.loss_us", step("tensor.loss"), "us"),
            ("nn.forward_us", step("nn.forward"), "us"),
            ("nn.backward_us", step("nn.backward"), "us"),
            ("nn.macs_per_step", macs, "count"),
            (
                "nn.forward_gflops",
                2.0 * macs / (step("nn.forward") * 1e3),
                "GFLOP/s",
            ),
            (
                "nn.save_full_us",
                probe_us(30, || checkpoint::save_full(&mut net)),
                "us",
            ),
            (
                "nn.digest_us",
                probe_us(30, || net.integrity_digests()),
                "us",
            ),
            ("optim.step_us", step("optim.step"), "us"),
            (
                "optim.underflow_rate",
                underflowed as f64 / quantized.max(1) as f64,
                "share",
            ),
            ("data.epoch_us", per_step("data.epoch"), "us"),
            ("energy.record_us", step("energy.record"), "us"),
            (
                "energy.pj_per_sample",
                report.total_energy_pj / samples,
                "pJ",
            ),
            ("core.gavg_us", step("core.gavg"), "us"),
            ("core.policy_us", quiet("core.policy", true), "us"),
            ("core.eval_us", quiet("core.eval", true), "us"),
            ("core.guard_us", guard_us, "us"),
            ("core.capture_state_us", capture_us, "us"),
            ("core.write_state_us", step("core.write_state"), "us"),
            ("core.loop_overhead_us", hooked_step_us - span_sum_us, "us"),
            ("core.span_sum_us", span_sum_us, "us"),
            ("core.step_us", hooked_step_us, "us"),
            (
                "core.allocs_per_step",
                stats::median(&rec.allocs_per_op),
                "count",
            ),
            ("core.final_accuracy", report.final_accuracy, "share"),
            ("core.mean_bits", mean_bits(&report), "bits"),
            (
                "benchmark.trace_overhead_share",
                (mirrored_step_us - hooked_step_us) / hooked_step_us,
                "share",
            ),
        ];
        m.extend(layer_probes(self.kind));
        m
    }
}

/// Mean bitwidth of the quantised weight tensors when the run ended.
pub fn mean_bits(report: &TrainReport) -> f64 {
    let bits = &report.epochs.last().expect("the run has epochs").layer_bits;
    bits.iter().map(|(_, b)| f64::from(*b)).sum::<f64>() / bits.len() as f64
}

/// One call each at the workload's largest layer shape.
fn layer_probes(kind: Kind) -> Vec<Metric> {
    let mut r = rng::seeded(1);
    let k6 = Bitwidth::new(6).expect("6 is a valid bitwidth");
    match kind {
        Kind::Conv => {
            // conv2 of cifarnet(10, 16, 0.5): 16 → 32 channels, 3×3, on 8×8.
            let p = Conv2dParams::new(1, 1, 1);
            let x = rng::normal(&[BATCH, 16, 8, 8], 1.0, &mut r);
            let w = rng::normal(&[32, 16, 3, 3], 0.1, &mut r);
            let y = conv::conv2d(&x, &w, &p).expect("the probe shapes agree");
            // The largest activation is conv1's output: 16 channels at 16×16.
            let act = rng::normal(&[BATCH, 16, 16, 16], 1.0, &mut r);
            vec![
                (
                    "tensor.conv2d_us",
                    probe_us(40, || conv::conv2d(&x, &w, &p)),
                    "us",
                ),
                (
                    "tensor.conv2d_bwd_input_us",
                    probe_us(40, || conv::conv2d_backward_input(&y, &w, x.dims(), &p)),
                    "us",
                ),
                (
                    "tensor.conv2d_bwd_weight_us",
                    probe_us(40, || conv::conv2d_backward_weight(&x, &y, w.dims(), &p)),
                    "us",
                ),
                (
                    "quant.fake_quant_us",
                    probe_us(40, || fake::fake_quantize(&act, k6)),
                    "us",
                ),
            ]
        }
        Kind::Guarded => mlp_probes(),
    }
}

/// The MLP's largest layer (768 → 256 at batch 32) and largest activation.
pub fn mlp_probes() -> Vec<Metric> {
    let mut r = rng::seeded(1);
    let k6 = Bitwidth::new(6).expect("6 is a valid bitwidth");
    let x = rng::normal(&[BATCH, MLP_DIMS[0]], 1.0, &mut r);
    let w = rng::normal(&[MLP_DIMS[0], MLP_DIMS[1]], 0.1, &mut r);
    vec![
        ("tensor.matmul_us", probe_us(40, || matmul(&x, &w)), "us"),
        (
            "quant.fake_quant_us",
            probe_us(40, || fake::fake_quantize(&x, k6)),
            "us",
        ),
    ]
}

/// The step loop the traced pass builds from the same public calls
/// `Trainer::run` makes, in the same order, with a span around each.
struct Mirror<'t> {
    net: Network,
    cfg: TrainConfig,
    tracer: &'t mut Tracer,
    sgd: Sgd,
    profiler: GavgProfiler,
    meter: EnergyMeter,
    /// Block times measured the way [`Stamps::blocks`] measures them.
    block_s: Vec<f64>,
    underflowed: usize,
    quantized: usize,
}

/// The trainer's per-run accumulators that a [`TrainState`] serialises.
struct Loop {
    global_step: u64,
    loss_sum: f64,
    loss_count: usize,
    underflowed: usize,
    quantized: usize,
    last_acc: f64,
    best_seen: f64,
    evals_since_best: usize,
    loss_ema: Option<f64>,
    report: TrainReport,
}

impl<'t> Mirror<'t> {
    fn new(net: Network, cfg: TrainConfig, tracer: &'t mut Tracer) -> Mirror<'t> {
        Mirror {
            sgd: Sgd::new(cfg.sgd, cfg.seed),
            profiler: GavgProfiler::new(cfg.ema_alpha),
            meter: EnergyMeter::default(),
            net,
            cfg,
            tracer,
            block_s: Vec::new(),
            underflowed: 0,
            quantized: 0,
        }
    }

    fn capture(&mut self, ls: &Loop, epoch: usize, iter: usize) -> TrainState {
        let mut velocities = Vec::new();
        self.net.visit_params_ref(&mut |p| {
            if let Some(v) = p.velocity() {
                velocities.push((p.name().to_string(), v.clone()));
            }
        });
        TrainState {
            seed: self.cfg.seed,
            total_epochs: self.cfg.epochs as u64,
            epoch: epoch as u64,
            iter: iter as u64,
            global_step: ls.global_step,
            loss_sum: ls.loss_sum,
            loss_count: ls.loss_count as u64,
            underflowed: ls.underflowed as u64,
            quantized_total: ls.quantized as u64,
            last_acc: ls.last_acc,
            best_seen: ls.best_seen,
            evals_since_best: ls.evals_since_best as u64,
            lr_scale: 1.0,
            loss_ema: ls.loss_ema,
            peak_memory_bits: ls.report.peak_memory_bits,
            peak_resident_bytes: ls.report.peak_resident_bytes,
            epochs: ls.report.epochs.clone(),
            energy: self.meter.breakdown(),
            profiler: self.profiler.export(),
            optimizer: OptimizerState::Sgd(self.sgd.state()),
            velocities,
            net_blob: checkpoint::save_full(&mut self.net),
        }
    }

    fn evaluate(&mut self, data: &Dataset) -> f64 {
        let batcher = Batcher::new(self.cfg.batch_size, None, 0).expect("batch size is ≥ 1");
        let (mut hit, mut all) = (0usize, 0usize);
        for batch in batcher.eval_batches(data).expect("the test split batches") {
            let logits = self
                .net
                .forward(&batch.images, Mode::Eval)
                .expect("evaluation forward");
            let preds = argmax_rows(&logits).expect("logits are a matrix");
            hit += preds
                .iter()
                .zip(&batch.labels)
                .filter(|(p, l)| p == l)
                .count();
            all += batch.labels.len();
        }
        hit as f64 / all as f64
    }

    fn layer_bits(&self) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        self.net.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight {
                if let Some(b) = p.bits() {
                    out.push((p.name().to_string(), b.get()));
                }
            }
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn run(&mut self, train: &Dataset, test: &Dataset) -> TrainReport {
        let cfg = self.cfg.clone();
        let batcher =
            Batcher::new(cfg.batch_size, cfg.augment, cfg.seed).expect("batch size is ≥ 1");
        let mut guard = cfg.integrity.map(StepGuard::new);
        let keep_snap = cfg.sentinel.is_some() || guard.is_some();
        let mut ls = Loop {
            global_step: 0,
            loss_sum: 0.0,
            loss_count: 0,
            underflowed: 0,
            quantized: 0,
            last_acc: 0.0,
            best_seen: f64::NEG_INFINITY,
            evals_since_best: 0,
            loss_ema: None,
            report: TrainReport::default(),
        };
        let run = self.tracer.open("run", None, 0);
        let mut snapshot = keep_snap.then(|| self.capture(&ls, 0, 0));
        if let Some(g) = guard.as_mut() {
            g.refresh(&self.net, &self.profiler);
        }
        // Block boundaries sit where the hook of `Trainer` would stamp them:
        // at the top of every `BLOCK_STEPS`-th step.
        let mut block_start: Option<Instant> = None;

        for epoch in 0..cfg.epochs {
            let ep: SpanId = self.tracer.open("epoch", Some(run), epoch as u64);
            let lr = cfg.schedule.lr_at(epoch);
            let batches = self
                .tracer
                .span("data.epoch", Some(ep), epoch as u64, || {
                    batcher.epoch(train, epoch)
                })
                .expect("the training split batches");
            for (iter, source) in batches.iter().enumerate() {
                if (ls.global_step as usize).is_multiple_of(BLOCK_STEPS) {
                    let now = Instant::now();
                    if let Some(from) = block_start.replace(now) {
                        self.block_s.push(now.duration_since(from).as_secs_f64());
                    }
                }
                let op = ls.global_step;
                let st = self.tracer.open("step", Some(ep), op);
                let batch = source.clone();
                let info = StepInfo {
                    epoch,
                    iter,
                    global_step: op,
                };
                if let Some(g) = guard.as_mut() {
                    let id = self.tracer.open("core.guard.pre_step", Some(st), op);
                    let outcome = g
                        .pre_step(&mut self.net, &mut self.profiler, &info)
                        .expect("a clean run passes the scan");
                    self.tracer.close(id);
                    assert!(
                        !outcome.rollback && !outcome.reroll,
                        "a clean run heals nothing"
                    );
                    let id = self.tracer.open("core.guard.check_batch", Some(st), op);
                    let skip = g.check_batch(&batch, train.num_classes(), &info);
                    self.tracer.close(id);
                    assert!(!skip, "a clean batch is not skipped");
                }
                if cfg.sentinel.is_some() {
                    let id = self.tracer.open("core.sentinel", Some(st), op);
                    let fault = batch.images.data().iter().any(|x| !x.is_finite());
                    self.tracer.close(id);
                    assert!(!fault, "a clean batch is finite");
                }
                let id = self.tracer.open("nn.forward", Some(st), op);
                self.net.zero_grads();
                let logits = self
                    .net
                    .forward(&batch.images, Mode::Train)
                    .expect("forward");
                self.tracer.close(id);
                let ce = self
                    .tracer
                    .span("tensor.loss", Some(st), op, || {
                        cross_entropy(&logits, &batch.labels)
                    })
                    .expect("loss");
                let loss = f64::from(ce.loss);
                if let Some(sc) = &cfg.sentinel {
                    ls.loss_ema = Some(match ls.loss_ema {
                        None => loss,
                        Some(ema) => sc.ema_alpha * loss + (1.0 - sc.ema_alpha) * ema,
                    });
                }
                ls.loss_sum += loss;
                ls.loss_count += 1;
                let id = self.tracer.open("nn.backward", Some(st), op);
                self.net.backward(&ce.grad_logits).expect("backward");
                self.tracer.close(id);
                if let Some(g) = guard.as_mut() {
                    let id = self.tracer.open("core.guard.check_grads", Some(st), op);
                    let bad = g.check_grads(&self.net, &info).expect("gradient screen");
                    self.tracer.close(id);
                    assert!(bad.is_none(), "clean gradients pass the screen");
                }
                if iter % cfg.interval == 0 {
                    let id = self.tracer.open("core.gavg", Some(st), op);
                    self.profiler.sample(&self.net);
                    self.tracer.close(id);
                }
                let id = self.tracer.open("optim.step", Some(st), op);
                let stats = self.sgd.step(&mut self.net, lr).expect("Eq. 3 update");
                self.tracer.close(id);
                ls.underflowed += stats.underflowed;
                ls.quantized += stats.quantized_total;
                self.underflowed += stats.underflowed;
                self.quantized += stats.quantized_total;
                let id = self.tracer.open("energy.record", Some(st), op);
                self.meter.record_iteration(&self.net);
                self.tracer.close(id);
                ls.global_step += 1;

                let due = cfg
                    .checkpoint
                    .as_ref()
                    .filter(|c| ls.global_step.is_multiple_of(c.every as u64));
                if keep_snap || due.is_some() {
                    let id = self.tracer.open("core.capture_state", Some(st), op);
                    let state = self.capture(&ls, epoch, iter + 1);
                    self.tracer.close(id);
                    if let Some(ck) = due {
                        let id = self.tracer.open("core.write_state", Some(st), op);
                        write_state(ck, &state).expect("the checkpoint directory is writable");
                        self.tracer.close(id);
                    }
                    if keep_snap {
                        // Frees the previous step's snapshot.
                        let id = self.tracer.open("core.snapshot_swap", Some(st), op);
                        snapshot = Some(state);
                        self.tracer.close(id);
                    }
                }
                if let Some(g) = guard.as_mut() {
                    let id = self.tracer.open("core.guard.refresh", Some(st), op);
                    g.step_clean();
                    g.refresh(&self.net, &self.profiler);
                    self.tracer.close(id);
                }
                self.tracer.close(st);
            }

            let changes = match &cfg.policy {
                Some(policy) => {
                    let id = self.tracer.open("core.policy", Some(ep), epoch as u64);
                    let c = apply_policy(&mut self.net, &self.profiler.profile(), policy)
                        .expect("Algorithm 1");
                    self.tracer.close(id);
                    c
                }
                None => Vec::new(),
            };
            if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
                let id = self.tracer.open("core.eval", Some(ep), epoch as u64);
                ls.last_acc = self.evaluate(test);
                self.tracer.close(id);
                if ls.last_acc > ls.best_seen {
                    ls.best_seen = ls.last_acc;
                    ls.evals_since_best = 0;
                } else {
                    ls.evals_since_best += 1;
                }
            }
            let memory_bits = self.net.memory_bits();
            let resident_bytes = self.net.resident_bytes();
            ls.report.peak_memory_bits = ls.report.peak_memory_bits.max(memory_bits);
            ls.report.peak_resident_bytes = ls.report.peak_resident_bytes.max(resident_bytes);
            ls.report.epochs.push(apt_core::EpochRecord {
                epoch,
                lr,
                train_loss: ls.loss_sum / ls.loss_count as f64,
                test_accuracy: ls.last_acc,
                cumulative_energy_pj: self.meter.total_pj(),
                memory_bits,
                resident_bytes,
                layer_bits: self.layer_bits(),
                gavg: self.profiler.profile(),
                underflow_rate: if ls.quantized == 0 {
                    0.0
                } else {
                    ls.underflowed as f64 / ls.quantized as f64
                },
                changes,
            });
            ls.loss_sum = 0.0;
            ls.loss_count = 0;
            ls.underflowed = 0;
            ls.quantized = 0;
            if keep_snap {
                let id = self
                    .tracer
                    .open("core.capture_epoch", Some(ep), epoch as u64);
                snapshot = Some(self.capture(&ls, epoch + 1, 0));
                self.tracer.close(id);
            }
            if let Some(g) = guard.as_mut() {
                g.refresh(&self.net, &self.profiler);
            }
            self.tracer.close(ep);
        }
        drop(snapshot);
        self.tracer.close(run);
        let mut report = ls.report;
        report.final_accuracy = ls.last_acc;
        report.best_accuracy = report
            .epochs
            .iter()
            .map(|e| e.test_accuracy)
            .fold(0.0, f64::max);
        report.total_energy_pj = self.meter.total_pj();
        report.integrity = guard.map(StepGuard::into_report).unwrap_or_default();
        report
    }
}
