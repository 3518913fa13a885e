//! Algorithm 2 — the APT training loop.
//!
//! One [`Trainer`] drives every experimental arm of the paper:
//!
//! * **APT** — `policy: Some(...)` on a network built with
//!   [`apt_nn::QuantScheme::paper_apt`] (6-bit initial weights).
//! * **Fixed-bitwidth** — `policy: None` on
//!   [`apt_nn::QuantScheme::fixed`] networks (the 8/12/14/16-bit arms).
//! * **fp32** — `policy: None` on [`apt_nn::QuantScheme::float32`].
//! * **Master-copy baselines** — `policy: None` on
//!   [`apt_nn::QuantScheme::master_copy`], optionally with
//!   [`GradQuant`] for TernGrad/DoReFa-style gradient quantisation.
//!
//! so every Figure 2–5 comparison shares identical data order,
//! augmentation draws, loss, and metering code.

use crate::checkpoint::{CheckpointConfig, Writer};
use crate::faults::{FaultSurface, NoFaults, StepAction, StepHook, StepInfo, SurfaceKind};
use crate::integrity::{IntegrityConfig, IntegrityReport, StepGuard};
use crate::reduce::GradReducer;
use crate::snapshot::Snapshot;
use crate::state::{OptimizerState, TrainState};
use crate::{apply_policy, CoreError, GavgProfiler, PolicyConfig, PrecisionChange};
use apt_data::{AugmentConfig, Batcher, Dataset};
use apt_energy::EnergyMeter;
use apt_metrics::accuracy;
use apt_nn::{Mode, Network, ParamKind};
use apt_optim::{Adam, LrSchedule, Sgd, SgdConfig};
use apt_quant::{fake, Bitwidth};
use apt_tensor::ops::{reduce::argmax_rows, softmax::cross_entropy};
use apt_tensor::Tensor;
use std::collections::HashMap;

/// Which optimiser drives the parameter updates.
///
/// The paper trains APT with plain SGD "to show the potential of saving
/// energy and memory usage" (§IV) while most Table I comparators use Adam;
/// §III-B keeps Gavg optimiser-agnostic precisely so both compose.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OptimizerKind {
    /// SGD with momentum/weight decay from [`TrainConfig::sgd`].
    #[default]
    Sgd,
    /// Adam with the given configuration ([`TrainConfig::sgd`] is ignored).
    Adam(apt_optim::AdamConfig),
}

/// Optional gradient quantisation applied to weight gradients before the
/// optimiser step — models the BPROP side of the Table I comparators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradQuant {
    /// Raw gradients (APT and the fixed/fp32 arms).
    #[default]
    None,
    /// TernGrad-style ternarisation to `{−s, 0, +s}`.
    Ternary,
    /// DoReFa-style fixed-point gradient quantisation at `k` bits.
    Fixed(Bitwidth),
}

/// Full configuration of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs (paper: 200 at full scale).
    pub epochs: usize,
    /// Mini-batch size (paper: 128).
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
    /// SGD hyper-parameters (used when `optimizer` is
    /// [`OptimizerKind::Sgd`]).
    pub sgd: SgdConfig,
    /// Which optimiser to use (default SGD, the paper's choice).
    pub optimizer: OptimizerKind,
    /// `Some` enables Algorithm 1 between epochs (APT); `None` trains at
    /// fixed precision.
    pub policy: Option<PolicyConfig>,
    /// Gavg sampling interval in iterations (Algorithm 2's `INTERVAL`).
    pub interval: usize,
    /// EMA smoothing for Gavg samples.
    pub ema_alpha: f64,
    /// Training-time augmentation (`None` disables).
    pub augment: Option<AugmentConfig>,
    /// Gradient quantisation for baseline arms.
    pub grad_quant: GradQuant,
    /// Master seed for shuffling/augmentation/stochastic rounding.
    pub seed: u64,
    /// Evaluate on the test set every `eval_every` epochs (1 = each epoch).
    pub eval_every: usize,
    /// Stop early once test accuracy has not improved for this many
    /// consecutive *evaluated* epochs (`None` disables). Saves the energy
    /// the paper's Figure 4 shows fixed-precision arms waste grinding out
    /// the last fractions of a percent.
    pub early_stop_patience: Option<usize>,
    /// `Some` persists a crash-safe [`TrainState`] checkpoint every
    /// `checkpoint.every` optimiser steps (`None` disables).
    pub checkpoint: Option<CheckpointConfig>,
    /// `Some` arms the divergence sentinel: non-finite or spiking losses
    /// trigger rollback to the last clean step instead of poisoning the
    /// run (`None` disables — losses pass through unchecked).
    pub sentinel: Option<SentinelConfig>,
    /// `Some` arms the in-memory integrity guard
    /// ([`crate::integrity::StepGuard`]): per-layer digests, batch/gradient
    /// range screens and the quantiser saturation check run around every
    /// step, healing soft errors in place (`None` disables).
    pub integrity: Option<IntegrityConfig>,
    /// Compute threads per process: `None` or `Some(1)`, the only count
    /// the stack has (every kernel runs on the calling thread; see
    /// [`apt_tensor::par`]). Any other value is refused with
    /// [`CoreError::BadConfig`]; scale with ranks instead.
    pub threads: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 32,
            schedule: LrSchedule::paper_cifar10(20),
            sgd: SgdConfig::default(),
            optimizer: OptimizerKind::Sgd,
            policy: None,
            interval: 4,
            ema_alpha: 0.3,
            augment: Some(AugmentConfig::default()),
            grad_quant: GradQuant::None,
            seed: 42,
            eval_every: 1,
            early_stop_patience: None,
            checkpoint: None,
            sentinel: None,
            integrity: None,
            threads: None,
        }
    }
}

/// Divergence-sentinel policy: when to declare a step pathological and how
/// hard to fight back before giving up.
///
/// A step is faulty when its batch contains non-finite inputs (checked
/// directly — ReLU's `max` and the loss's probability clamp both swallow
/// NaN, so a poisoned batch never announces itself through the loss), when
/// the loss itself is non-finite, or when a finite loss spikes above
/// `spike_factor ×` the running EMA.
///
/// On a fault the trainer rolls the network, optimiser, profiler and
/// energy meter back to the last clean step's in-memory snapshot, then
/// escalates per consecutive fault: **1** skip the offending batch,
/// **2** also halve the effective learning rate, **≥ 3** also raise every
/// quantised weight's bitwidth by one (the same lever as Algorithm 1 — a
/// starving low-precision layer is a classic divergence source). After
/// `max_retries` consecutive faults the run aborts with
/// [`CoreError::Diverged`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SentinelConfig {
    /// A finite loss above `spike_factor ×` the running loss EMA counts as
    /// a spike (must be > 1).
    pub spike_factor: f64,
    /// Smoothing for the loss EMA in (0, 1].
    pub ema_alpha: f64,
    /// Consecutive faults tolerated before aborting (≥ 1).
    pub max_retries: usize,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            spike_factor: 3.0,
            ema_alpha: 0.2,
            max_retries: 3,
        }
    }
}

/// Everything recorded about one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Learning rate used this epoch.
    pub lr: f32,
    /// Mean training cross-entropy over the epoch.
    pub train_loss: f64,
    /// Test accuracy after this epoch (carried forward between
    /// evaluations when `eval_every > 1`).
    pub test_accuracy: f64,
    /// Cumulative training energy up to and including this epoch, pJ.
    pub cumulative_energy_pj: f64,
    /// Model training-memory footprint at epoch end, bits (the idealised
    /// `k·N` accounting Figure 5 reports).
    pub memory_bits: u64,
    /// Bytes of process memory the model state physically occupies at
    /// epoch end — bit-packed code stores plus fp32 tensors and any
    /// allocated momentum buffers ([`apt_nn::Network::resident_bytes`]).
    pub resident_bytes: u64,
    /// Per-layer bitwidths at epoch end (quantised weights only).
    pub layer_bits: Vec<(String, u32)>,
    /// Smoothed per-layer Gavg at epoch end (quantised weights only).
    pub gavg: Vec<(String, f64)>,
    /// Fraction of quantised updates that underflowed this epoch.
    pub underflow_rate: f64,
    /// Precision changes Algorithm 1 made at this epoch boundary.
    pub changes: Vec<PrecisionChange>,
}

/// The result of a full training run — the raw material of every figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// One record per epoch, in order.
    pub epochs: Vec<EpochRecord>,
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Best test accuracy across epochs.
    pub best_accuracy: f64,
    /// Total training energy, pJ.
    pub total_energy_pj: f64,
    /// Peak model training-memory footprint, bits.
    pub peak_memory_bits: u64,
    /// Peak physically-resident model state across the run, bytes.
    pub peak_resident_bytes: u64,
    /// What the integrity guard saw and did (all-zero when disarmed or
    /// when the run was genuinely clean).
    pub integrity: IntegrityReport,
}

impl TrainReport {
    /// The first epoch whose test accuracy reaches `target`, with the
    /// cumulative energy spent to get there (Figure 4's quantity).
    /// `None` if never reached.
    pub fn energy_to_accuracy(&self, target: f64) -> Option<(usize, f64)> {
        self.epochs
            .iter()
            .find(|e| e.test_accuracy >= target)
            .map(|e| (e.epoch, e.cumulative_energy_pj))
    }
}

enum AnyOptimizer {
    Sgd(Box<Sgd>),
    Adam(Box<Adam>),
}

impl AnyOptimizer {
    fn step(&mut self, net: &mut Network, lr: f32) -> apt_optim::Result<apt_optim::StepStats> {
        match self {
            AnyOptimizer::Sgd(o) => o.step(net, lr),
            AnyOptimizer::Adam(o) => o.step(net, lr),
        }
    }

    fn export(&self) -> OptimizerState {
        match self {
            AnyOptimizer::Sgd(o) => OptimizerState::Sgd(o.state()),
            AnyOptimizer::Adam(o) => OptimizerState::Adam(o.state()),
        }
    }

    fn restore(&mut self, state: &OptimizerState) -> crate::Result<()> {
        match (self, state) {
            (AnyOptimizer::Sgd(o), OptimizerState::Sgd(s)) => {
                o.restore(*s);
                Ok(())
            }
            (AnyOptimizer::Adam(o), OptimizerState::Adam(s)) => {
                o.restore(s.clone());
                Ok(())
            }
            _ => Err(CoreError::BadConfig {
                reason: "checkpoint optimiser kind does not match the configured optimiser".into(),
            }),
        }
    }

    /// Re-seeds the stochastic-rounding stream — the integrity ladder's
    /// middle rung, for when a fault keeps reappearing on the same
    /// rounding draws. Adam has no stochastic stream, so this is a no-op
    /// there.
    fn reroll(&mut self, salt: u64) {
        match self {
            AnyOptimizer::Sgd(o) => o.reroll_rounding(salt),
            AnyOptimizer::Adam(_) => {}
        }
    }
}

/// The trainer's live state, presented to in-memory fault injectors as a
/// [`FaultSurface`] (weights/momentum through the network, Gavg EMAs
/// through the profiler).
struct TrainerSurface<'a> {
    net: &'a mut Network,
    profiler: &'a mut GavgProfiler,
}

impl FaultSurface for TrainerSurface<'_> {
    fn targets(&self, kind: SurfaceKind) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        match kind {
            SurfaceKind::Weight => {
                self.net
                    .visit_params_ref(&mut |p| out.push((p.name().to_string(), p.len())));
            }
            SurfaceKind::Velocity => {
                self.net.visit_params_ref(&mut |p| {
                    if let Some(v) = p.velocity() {
                        out.push((p.name().to_string(), v.len()));
                    }
                });
            }
            SurfaceKind::GavgEma => {
                out.extend(self.profiler.export().into_iter().map(|(n, _)| (n, 1)));
            }
        }
        out
    }

    fn flip_bit(&mut self, kind: SurfaceKind, name: &str, elem: usize, bit: u32) -> bool {
        if kind == SurfaceKind::GavgEma {
            return self.profiler.flip_ema_bit(name, bit);
        }
        let mut done = false;
        self.net.visit_params(&mut |p| {
            if done || p.name() != name {
                return;
            }
            done = match kind {
                SurfaceKind::Weight => p.flip_stored_bit(elem, bit).is_ok(),
                SurfaceKind::Velocity => p.flip_velocity_bit(elem, bit),
                SurfaceKind::GavgEma => unreachable!("handled above"),
            };
        });
        done
    }

    fn saturate(&mut self, name: &str) -> usize {
        let mut forced = 0;
        self.net.visit_params(&mut |p| {
            if p.name() == name {
                forced += p.saturate_codes(0.9, true);
            }
        });
        forced
    }
}

impl std::fmt::Debug for AnyOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnyOptimizer::Sgd(_) => f.write_str("Sgd"),
            AnyOptimizer::Adam(_) => f.write_str("Adam"),
        }
    }
}

/// Mutable per-run loop state — everything [`TrainState`] serialises that
/// is not owned by a subsystem (network/optimiser/profiler/meter).
struct LoopState {
    start_epoch: usize,
    start_iter: usize,
    global_step: u64,
    loss_sum: f64,
    loss_count: usize,
    underflowed: usize,
    quantized_total: usize,
    last_acc: f64,
    best_seen: f64,
    evals_since_best: usize,
    lr_scale: f64,
    loss_ema: Option<f64>,
    report: TrainReport,
}

impl LoopState {
    fn fresh() -> Self {
        LoopState {
            start_epoch: 0,
            start_iter: 0,
            global_step: 0,
            loss_sum: 0.0,
            loss_count: 0,
            underflowed: 0,
            quantized_total: 0,
            last_acc: 0.0,
            best_seen: f64::NEG_INFINITY,
            evals_since_best: 0,
            lr_scale: 1.0,
            loss_ema: None,
            report: TrainReport::default(),
        }
    }

    fn from_state(state: &TrainState) -> Self {
        LoopState {
            start_epoch: state.epoch as usize,
            start_iter: state.iter as usize,
            global_step: state.global_step,
            loss_sum: state.loss_sum,
            loss_count: state.loss_count as usize,
            underflowed: state.underflowed as usize,
            quantized_total: state.quantized_total as usize,
            last_acc: state.last_acc,
            best_seen: state.best_seen,
            evals_since_best: state.evals_since_best as usize,
            lr_scale: state.lr_scale,
            loss_ema: state.loss_ema,
            report: TrainReport {
                epochs: state.epochs.clone(),
                final_accuracy: 0.0,
                best_accuracy: 0.0,
                total_energy_pj: 0.0,
                peak_memory_bits: state.peak_memory_bits,
                peak_resident_bytes: state.peak_resident_bytes,
                // Not serialised: the report restarts counting from the
                // resume point, like the sentinel's fault ladder.
                integrity: IntegrityReport::default(),
            },
        }
    }

    /// Rewinds the in-epoch accumulators to a snapshot taken at the last
    /// clean step. Deliberately does **not** touch `lr_scale` (the
    /// sentinel's escalation must survive its own rollback) nor the
    /// report/eval fields (they only change at epoch boundaries, so they
    /// are already identical to the snapshot's).
    fn rollback_accumulators(&mut self, snap: &TrainState) {
        self.loss_sum = snap.loss_sum;
        self.loss_count = snap.loss_count as usize;
        self.underflowed = snap.underflowed as usize;
        self.quantized_total = snap.quantized_total as usize;
        self.loss_ema = snap.loss_ema;
        self.global_step = snap.global_step;
    }
}

/// The APT trainer (Algorithm 2).
#[derive(Debug)]
pub struct Trainer {
    net: Network,
    cfg: TrainConfig,
    optimizer: AnyOptimizer,
    meter: EnergyMeter,
    profiler: GavgProfiler,
}

impl Trainer {
    /// Wraps a network for training under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for zero epochs/batch/interval or a
    /// non-finite EMA factor.
    pub fn new(net: Network, cfg: TrainConfig) -> crate::Result<Self> {
        if cfg.epochs == 0 || cfg.batch_size == 0 || cfg.interval == 0 || cfg.eval_every == 0 {
            return Err(CoreError::BadConfig {
                reason: "epochs, batch_size, interval and eval_every must be ≥ 1".into(),
            });
        }
        if !(cfg.ema_alpha.is_finite() && cfg.ema_alpha > 0.0 && cfg.ema_alpha <= 1.0) {
            return Err(CoreError::BadConfig {
                reason: format!("ema_alpha {} outside (0, 1]", cfg.ema_alpha),
            });
        }
        if let Some(ck) = &cfg.checkpoint {
            if ck.every == 0 || ck.keep == 0 {
                return Err(CoreError::BadConfig {
                    reason: "checkpoint.every and checkpoint.keep must be ≥ 1".into(),
                });
            }
        }
        if let Some(s) = &cfg.sentinel {
            if !(s.spike_factor.is_finite() && s.spike_factor > 1.0) {
                return Err(CoreError::BadConfig {
                    reason: format!("sentinel.spike_factor {} must be > 1", s.spike_factor),
                });
            }
            if !(s.ema_alpha.is_finite() && s.ema_alpha > 0.0 && s.ema_alpha <= 1.0) {
                return Err(CoreError::BadConfig {
                    reason: format!("sentinel.ema_alpha {} outside (0, 1]", s.ema_alpha),
                });
            }
            if s.max_retries == 0 {
                return Err(CoreError::BadConfig {
                    reason: "sentinel.max_retries must be ≥ 1".into(),
                });
            }
        }
        if let Some(i) = &cfg.integrity {
            if !(i.max_abs_input.is_finite() && i.max_abs_input > 0.0) {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "integrity.max_abs_input {} must be finite > 0",
                        i.max_abs_input
                    ),
                });
            }
            if !(i.max_abs_grad.is_finite() && i.max_abs_grad > 0.0) {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "integrity.max_abs_grad {} must be finite > 0",
                        i.max_abs_grad
                    ),
                });
            }
            if !(i.saturation_limit.is_finite()
                && i.saturation_limit > 0.0
                && i.saturation_limit <= 1.0)
            {
                return Err(CoreError::BadConfig {
                    reason: format!(
                        "integrity.saturation_limit {} outside (0, 1]",
                        i.saturation_limit
                    ),
                });
            }
            if i.max_retries == 0 {
                return Err(CoreError::BadConfig {
                    reason: "integrity.max_retries must be ≥ 1".into(),
                });
            }
        }
        if cfg.threads.is_some_and(|t| t != 1) {
            return Err(CoreError::BadConfig {
                reason: "the compute stack runs on the calling thread; scale with ranks \
                         (`--workers`)"
                    .into(),
            });
        }
        let optimizer = match cfg.optimizer {
            OptimizerKind::Sgd => AnyOptimizer::Sgd(Box::new(Sgd::new(cfg.sgd, cfg.seed))),
            OptimizerKind::Adam(acfg) => AnyOptimizer::Adam(Box::new(Adam::new(acfg, cfg.seed))),
        };
        let profiler = GavgProfiler::new(cfg.ema_alpha);
        Ok(Trainer {
            net,
            cfg,
            optimizer,
            meter: EnergyMeter::default(),
            profiler,
        })
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the wrapped network.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Consumes the trainer, returning the trained network.
    pub fn into_network(self) -> Network {
        self.net
    }

    /// Runs Algorithm 2: train on `train` for the configured epochs,
    /// evaluating on `test`, profiling Gavg and (if enabled) adjusting
    /// layer-wise precision between epochs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for an empty training split and
    /// propagates any substrate error.
    pub fn train(&mut self, train: &Dataset, test: &Dataset) -> crate::Result<TrainReport> {
        self.run(train, test, None, &mut NoFaults, None)
    }

    /// [`train`](Trainer::train) with a fault-injection [`StepHook`]
    /// consulted before every step — the entry point of the resilience
    /// test harness.
    ///
    /// # Errors
    ///
    /// As [`train`](Trainer::train); additionally
    /// [`CoreError::Interrupted`] when the hook simulates a power cut.
    pub fn train_with_hooks(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        hooks: &mut dyn StepHook,
    ) -> crate::Result<TrainReport> {
        self.run(train, test, None, hooks, None)
    }

    /// Resumes from the newest valid checkpoint in the configured
    /// [`TrainConfig::checkpoint`] directory, falling back across corrupt
    /// files; starts a fresh run if no valid checkpoint exists yet.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when no checkpoint directory is
    /// configured; otherwise as [`run`](Trainer::run) with a state.
    pub fn resume_from_dir(
        &mut self,
        train: &Dataset,
        test: &Dataset,
    ) -> crate::Result<TrainReport> {
        let Some(ck) = self.cfg.checkpoint.clone() else {
            return Err(CoreError::BadConfig {
                reason: "resume_from_dir requires TrainConfig::checkpoint".into(),
            });
        };
        let state = crate::checkpoint::latest_valid(&ck.dir)?.map(|(_, s)| s);
        self.run(train, test, state, &mut NoFaults, None)
    }

    /// The one way into the loop; [`train`](Trainer::train),
    /// [`train_with_hooks`](Trainer::train_with_hooks) and
    /// [`resume_from_dir`](Trainer::resume_from_dir) are this with
    /// arguments left out.
    ///
    /// With `resume`, continues an interrupted run from a captured
    /// [`TrainState`]: the network, optimiser, profiler, meter and loop
    /// cursor are restored and training proceeds from the exact next step,
    /// producing a report bit-identical to the uninterrupted run's. `hooks`
    /// are consulted before every step (pass [`NoFaults`] for none). With
    /// `reducer`, a [`GradReducer`] runs after every backward pass — the
    /// data-parallel seam (`apt-dist` drives one trainer per rank; a
    /// restarted rank re-joins the fleet by passing its checkpoint as
    /// `resume`).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for an empty training split, for a state
    /// that belongs to a different run (seed/epochs/optimiser mismatch),
    /// and for a reducer combined with the sentinel or integrity guard:
    /// both perform *rank-local* rollbacks, which would rewind one replica
    /// alone and break bit-identity (distributed runs get their resilience
    /// from the fleet-rollback protocol instead).
    /// [`CoreError::Interrupted`] when the hook simulates a power cut;
    /// otherwise any substrate error.
    pub fn run(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        resume: Option<TrainState>,
        hooks: &mut dyn StepHook,
        reducer: Option<&mut dyn GradReducer>,
    ) -> crate::Result<TrainReport> {
        if reducer.is_some() && (self.cfg.sentinel.is_some() || self.cfg.integrity.is_some()) {
            return Err(CoreError::BadConfig {
                reason: "gradient reduction cannot combine with the sentinel or integrity guard \
                         (rank-local rollbacks would diverge the replicas)"
                    .into(),
            });
        }
        if train.is_empty() {
            return Err(CoreError::BadConfig {
                reason: "empty training split".into(),
            });
        }
        let checkpoint = self.cfg.checkpoint.clone();
        std::thread::scope(|scope| {
            let mut writer = checkpoint.as_ref().map(|ck| Writer::spawn(scope, ck));
            let run = self.run_loop(train, test, resume, hooks, reducer, writer.as_mut());
            // Every path drains the writer first; a failed write happened
            // before whatever ended the loop, so it is the run's error.
            let written = writer.map_or(Ok(()), |mut w| w.wait());
            written.and(run)
        })
    }

    fn run_loop(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        resume: Option<TrainState>,
        hooks: &mut dyn StepHook,
        mut reducer: Option<&mut dyn GradReducer>,
        mut writer: Option<&mut Writer<'_>>,
    ) -> crate::Result<TrainReport> {
        let batcher = Batcher::new(self.cfg.batch_size, self.cfg.augment, self.cfg.seed)?;
        let sentinel = self.cfg.sentinel;
        let mut guard = self.cfg.integrity.map(StepGuard::new);
        // Both the sentinel and the integrity guard roll back to this
        // snapshot, so it is kept current whenever either is armed; its
        // scalar state is also what a due checkpoint encodes.
        let keep_snap = sentinel.is_some() || guard.is_some();
        let (mut ls, mut snap) = match resume {
            Some(mut state) => {
                let ls = self.restore_from_state(&state)?;
                state.velocities = Vec::new();
                state.net_blob = Vec::new();
                (ls, Snapshot::new(state))
            }
            None => {
                let ls = LoopState::fresh();
                let state = self.capture_state(&ls, 0, 0, None);
                (ls, Snapshot::new(state))
            }
        };
        if keep_snap {
            snap.capture_model(&mut self.net, guard.is_some());
        }
        if let Some(g) = guard.as_mut() {
            g.refresh(&self.net, &self.profiler);
        }
        // Consecutive-fault counter for the sentinel's escalation ladder.
        // Not serialised: a resume mid-incident restarts the ladder.
        let mut faults = 0usize;

        for epoch in ls.start_epoch..self.cfg.epochs {
            let base_lr = self.cfg.schedule.lr_at(epoch);
            let start_iter = if epoch == ls.start_epoch {
                ls.start_iter
            } else {
                0
            };
            // One batch at a time. `skip` pulls the batches before a resumed
            // cursor and drops them: their augmentation draws are in the
            // epoch's stream, so every later batch is the uninterrupted run's.
            let batches = batcher.stream(train, Some(epoch)).enumerate();
            for (iter, batch) in batches.skip(start_iter) {
                let mut batch = batch?;
                let info = StepInfo {
                    epoch,
                    iter,
                    global_step: ls.global_step,
                };
                {
                    // Hand injectors the live state *before* any screening:
                    // the guard must catch what the hook just planted.
                    let mut surface = TrainerSurface {
                        net: &mut self.net,
                        profiler: &mut self.profiler,
                    };
                    hooks.inject(&info, &mut surface);
                }
                if hooks.before_step(&info, &mut batch) == StepAction::PowerCut {
                    // Power-cut semantics: nothing is persisted for the
                    // in-flight step; recovery starts from the last
                    // checkpoint written to disk.
                    return Err(CoreError::Interrupted {
                        epoch,
                        iteration: iter,
                    });
                }
                if let Some(g) = guard.as_mut() {
                    let outcome = g.pre_step(&mut self.net, &mut self.profiler, &info)?;
                    if outcome.reroll {
                        self.optimizer
                            .reroll(0x5A17 ^ ls.global_step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    }
                    if outcome.rollback {
                        self.roll_back(&mut ls, &snap, outcome.escalate, Some(g))?;
                        continue;
                    }
                    // Corrupt input never reaches the forward pass: the
                    // loss clamp would swallow NaN and cross-entropy
                    // rejects impossible labels outright.
                    if g.check_batch(&batch, train.num_classes(), &info) {
                        continue;
                    }
                }
                let lr = base_lr * ls.lr_scale as f32;
                // With the sentinel armed, a non-finite input is a fault in
                // its own right: activation functions and the loss both
                // clamp NaN away (`max` ignores NaN), so a poisoned batch
                // would otherwise silently corrupt the step instead of
                // announcing itself through the loss.
                let input_fault = sentinel.is_some() && batch.images.has_non_finite();
                let ce = if input_fault {
                    None
                } else {
                    self.net.zero_grads();
                    let logits = self.net.forward(&batch.images, Mode::Train)?;
                    Some(cross_entropy(&logits, &batch.labels)?)
                };
                let loss = ce.as_ref().map_or(f64::NAN, |ce| f64::from(ce.loss));

                if let Some(sc) = &sentinel {
                    let spiked = input_fault
                        || !loss.is_finite()
                        || ls
                            .loss_ema
                            .is_some_and(|ema| loss > sc.spike_factor * ema.max(f64::MIN_POSITIVE));
                    if spiked {
                        faults += 1;
                        if faults > sc.max_retries {
                            return Err(CoreError::Diverged {
                                epoch,
                                iteration: iter,
                                loss,
                                retries: faults - 1,
                            });
                        }
                        // The ladder: the first fault only skips the
                        // offending batch, the second also halves the
                        // learning rate, any further one raises precision.
                        self.roll_back(&mut ls, &snap, faults > 2, guard.as_mut())?;
                        if faults == 2 {
                            ls.lr_scale *= 0.5;
                        }
                        continue;
                    }
                    ls.loss_ema = Some(match ls.loss_ema {
                        None => loss,
                        Some(ema) => sc.ema_alpha * loss + (1.0 - sc.ema_alpha) * ema,
                    });
                }
                faults = 0;
                let ce = ce.expect("forward ran: no input fault on this path");
                ls.loss_sum += loss;
                ls.loss_count += 1;
                self.net.backward(&ce.grad_logits)?;

                if let Some(g) = guard.as_mut() {
                    if let Some(outcome) = g.check_grads(&self.net, &info)? {
                        // A poisoned gradient may already trace back to
                        // corrupted activations, so healing one layer is
                        // not enough: roll the whole step back.
                        if outcome.reroll {
                            self.optimizer.reroll(
                                0x5A17 ^ ls.global_step.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            );
                        }
                        self.roll_back(&mut ls, &snap, outcome.escalate, Some(g))?;
                        continue;
                    }
                }

                // Data-parallel seam: swap shard-local gradients for the
                // globally reduced ones *before* Gavg profiling, so the
                // precision policy sees identical EMAs on every rank.
                if let Some(r) = reducer.as_mut() {
                    let wire_bytes = r.reduce(&info, &mut self.net)?;
                    self.meter.record_comm(wire_bytes);
                }

                // Algorithm 2 lines 6-9: profile Gavg on raw gradients
                // (after the gradient screen, so NaN never pollutes the
                // EMAs).
                if iter % self.cfg.interval == 0 {
                    self.profiler.sample(&self.net);
                }
                self.apply_grad_quant()?;

                let stats = self.optimizer.step(&mut self.net, lr)?;
                ls.underflowed += stats.underflowed;
                ls.quantized_total += stats.quantized_total;
                self.meter.record_iteration(&self.net);
                ls.global_step += 1;

                let ck_due = writer.as_ref().is_some_and(|w| w.is_due(ls.global_step));
                if keep_snap || ck_due {
                    // Cursor points at the *next* step to execute.
                    snap.state = self.capture_state(&ls, epoch, iter + 1, Some(snap.state));
                }
                if keep_snap {
                    snap.capture_model(&mut self.net, guard.is_some());
                }
                if let Some(w) = writer.as_mut().filter(|_| ck_due) {
                    self.write_checkpoint(w, &snap.state)?;
                }
                if let Some(g) = guard.as_mut() {
                    g.step_clean();
                    g.refresh(&self.net, &self.profiler);
                }
            }

            // Algorithm 2 line 11: adjust precision between epochs.
            let changes = match &self.cfg.policy {
                Some(policy) => apply_policy(&mut self.net, &self.profiler.profile(), policy)?,
                None => Vec::new(),
            };

            let mut evaluated = false;
            if epoch % self.cfg.eval_every == 0 || epoch + 1 == self.cfg.epochs {
                ls.last_acc = self.evaluate(test)?;
                evaluated = true;
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
            ls.report.epochs.push(EpochRecord {
                epoch,
                lr: base_lr * ls.lr_scale as f32,
                train_loss: if ls.loss_count == 0 {
                    0.0
                } else {
                    ls.loss_sum / ls.loss_count as f64
                },
                test_accuracy: ls.last_acc,
                cumulative_energy_pj: self.meter.total_pj(),
                memory_bits,
                resident_bytes,
                layer_bits: self.layer_bits(),
                gavg: self.profiler.profile(),
                underflow_rate: if ls.quantized_total == 0 {
                    0.0
                } else {
                    ls.underflowed as f64 / ls.quantized_total as f64
                },
                changes,
            });
            ls.loss_sum = 0.0;
            ls.loss_count = 0;
            ls.underflowed = 0;
            ls.quantized_total = 0;
            // Re-snapshot after policy/eval so a rollback early next epoch
            // cannot resurrect pre-adjustment bitwidths; re-baseline the
            // guard for the same reason (Algorithm 1's changes are
            // legitimate, not corruption).
            if keep_snap {
                snap.state = self.capture_state(&ls, epoch + 1, 0, Some(snap.state));
                snap.capture_model(&mut self.net, guard.is_some());
            }
            if let Some(g) = guard.as_mut() {
                g.refresh(&self.net, &self.profiler);
            }
            if let Some(patience) = self.cfg.early_stop_patience {
                if evaluated && ls.evals_since_best >= patience {
                    break;
                }
            }
        }
        let mut report = ls.report;
        report.final_accuracy = ls.last_acc;
        report.best_accuracy = report
            .epochs
            .iter()
            .map(|e| e.test_accuracy)
            .fold(0.0, f64::max);
        report.total_energy_pj = self.meter.total_pj();
        report.integrity = guard.map(StepGuard::into_report).unwrap_or_default();
        Ok(report)
    }

    /// The rollback every recovery rung shares: restores the model, the
    /// subsystems and the loop accumulators from the in-memory snapshot,
    /// raises precision when the rung `escalate`s, then re-baselines the
    /// guard — the rollback rewrote stores legitimately, and the guard must
    /// not "heal" them back.
    fn roll_back(
        &mut self,
        ls: &mut LoopState,
        snap: &Snapshot,
        escalate: bool,
        guard: Option<&mut StepGuard>,
    ) -> crate::Result<()> {
        snap.restore_model(&mut self.net, guard.as_deref())?;
        self.restore_scalars(&snap.state)?;
        ls.rollback_accumulators(&snap.state);
        if escalate {
            self.escalate_bits();
        }
        if let Some(g) = guard {
            g.follow(&self.net, &self.profiler);
        }
        Ok(())
    }

    /// Captures the scalar training state at the current point; `epoch`
    /// and `iter` name the **next** step to execute. Velocities and the
    /// network blob are left empty: a rollback restores the model from the
    /// [`Snapshot`]'s copy, a checkpoint encodes them from the live
    /// network. The state it replaces, if the caller has one, is passed as
    /// `recycle`: its profiler export is overwritten in place and its epoch
    /// records kept while no epoch has closed since.
    fn capture_state(
        &self,
        ls: &LoopState,
        epoch: usize,
        iter: usize,
        recycle: Option<TrainState>,
    ) -> TrainState {
        let (mut profiler, mut epochs) = recycle
            .map(|old| (old.profiler, old.epochs))
            .unwrap_or_default();
        if epochs != ls.report.epochs {
            epochs = ls.report.epochs.clone();
        }
        self.profiler.export_into(&mut profiler);
        TrainState {
            seed: self.cfg.seed,
            total_epochs: self.cfg.epochs as u64,
            epoch: epoch as u64,
            iter: iter as u64,
            global_step: ls.global_step,
            loss_sum: ls.loss_sum,
            loss_count: ls.loss_count as u64,
            underflowed: ls.underflowed as u64,
            quantized_total: ls.quantized_total as u64,
            last_acc: ls.last_acc,
            best_seen: ls.best_seen,
            evals_since_best: ls.evals_since_best as u64,
            lr_scale: ls.lr_scale,
            loss_ema: ls.loss_ema,
            peak_memory_bits: ls.report.peak_memory_bits,
            peak_resident_bytes: ls.report.peak_resident_bytes,
            epochs,
            energy: self.meter.breakdown(),
            profiler,
            optimizer: self.optimizer.export(),
            velocities: Vec::new(),
            net_blob: Vec::new(),
        }
    }

    /// Writes `state`, with the live network's velocities and blob, through
    /// the checkpoint writer.
    fn write_checkpoint(
        &mut self,
        writer: &mut Writer<'_>,
        state: &TrainState,
    ) -> crate::Result<()> {
        let net_blob = apt_nn::checkpoint::save_full(&mut self.net);
        let net = &self.net;
        let velocities = |f: &mut dyn FnMut(&str, &Tensor)| {
            net.visit_params_ref(&mut |p| {
                if let Some(v) = p.velocity() {
                    f(p.name(), v);
                }
            });
        };
        writer.write(state.global_step, |file| {
            state.encode_to(file, &velocities, &net_blob)
        })
    }

    /// Validates `state` against the active config and restores every
    /// subsystem plus the loop cursor from it.
    fn restore_from_state(&mut self, state: &TrainState) -> crate::Result<LoopState> {
        if state.seed != self.cfg.seed || state.total_epochs != self.cfg.epochs as u64 {
            return Err(CoreError::BadConfig {
                reason: format!(
                    "checkpoint belongs to a different run (seed {} epochs {}, config has seed {} epochs {})",
                    state.seed, state.total_epochs, self.cfg.seed, self.cfg.epochs
                ),
            });
        }
        self.restore_subsystems(state)?;
        Ok(LoopState::from_state(state))
    }

    /// Restores network parameters/buffers, velocities, optimiser,
    /// profiler and energy meter from `state`.
    fn restore_subsystems(&mut self, state: &TrainState) -> crate::Result<()> {
        apt_nn::checkpoint::load(&mut self.net, &state.net_blob)?;
        let mut vmap: HashMap<&str, &Tensor> = state
            .velocities
            .iter()
            .map(|(name, v)| (name.as_str(), v))
            .collect();
        let mut first_err: Option<CoreError> = None;
        self.net.visit_params(&mut |p| {
            if first_err.is_some() {
                return;
            }
            if let Err(e) = p.set_velocity(vmap.remove(p.name()).cloned()) {
                first_err = Some(e.into());
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Some(name) = vmap.keys().next() {
            return Err(CoreError::BadConfig {
                reason: format!("checkpoint carries velocity for unknown parameter `{name}`"),
            });
        }
        self.restore_scalars(state)
    }

    /// Restores the optimiser, profiler and energy meter from `state`.
    fn restore_scalars(&mut self, state: &TrainState) -> crate::Result<()> {
        self.optimizer.restore(&state.optimizer)?;
        self.profiler.restore(&state.profiler);
        self.meter.restore(state.energy);
        Ok(())
    }

    /// Raises every quantised weight's bitwidth by one — the sentinel's
    /// last escalation rung, reusing Algorithm 1's precision lever.
    fn escalate_bits(&mut self) {
        self.net.visit_params(&mut |p| {
            if p.kind() != ParamKind::Weight {
                return;
            }
            if let Some(b) = p.bits() {
                // Infallible here: `bits()` returned `Some`, so the store
                // is one of the adjustable kinds.
                let _ = p.set_bits(b.increment());
            }
        });
    }

    /// Evaluates top-1 accuracy on `data` (single view, per the paper).
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn evaluate(&mut self, data: &Dataset) -> crate::Result<f64> {
        if data.is_empty() {
            return Ok(0.0);
        }
        let batcher = Batcher::new(self.cfg.batch_size, None, 0)?;
        let mut preds = Vec::with_capacity(data.len());
        let mut labels = Vec::with_capacity(data.len());
        for batch in batcher.stream(data, None) {
            let batch = batch?;
            let logits = self.net.forward(&batch.images, Mode::Eval)?;
            preds.extend(argmax_rows(&logits)?);
            labels.extend(batch.labels);
        }
        Ok(accuracy(&preds, &labels))
    }

    /// Current per-layer bitwidths (quantised weight tensors only), sorted
    /// by name.
    pub fn layer_bits(&self) -> Vec<(String, u32)> {
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

    fn apply_grad_quant(&mut self) -> crate::Result<()> {
        match self.cfg.grad_quant {
            GradQuant::None => Ok(()),
            GradQuant::Ternary => {
                self.net.visit_params(&mut |p| {
                    if p.kind() != ParamKind::Weight {
                        return;
                    }
                    let t = fake::ternarize(p.grad());
                    *p.grad_mut() = t;
                });
                Ok(())
            }
            GradQuant::Fixed(bits) => {
                let mut first_err: Option<CoreError> = None;
                self.net.visit_params(&mut |p| {
                    if first_err.is_some() || p.kind() != ParamKind::Weight {
                        return;
                    }
                    match fake::fake_quantize(p.grad(), bits) {
                        Ok(t) => *p.grad_mut() = t,
                        Err(e) => first_err = Some(e.into()),
                    }
                });
                match first_err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_data::blobs;
    use apt_nn::{models, QuantScheme};
    use apt_tensor::rng::seeded;

    fn toy_data() -> (Dataset, Dataset) {
        // One corpus, shuffled-split, so train and test share class centres.
        let all = blobs(3, 40, 6, 0.4, 1).unwrap();
        all.split_shuffled(90, 9).unwrap()
    }

    fn base_cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 16,
            schedule: LrSchedule::Constant(0.05),
            sgd: SgdConfig {
                momentum: 0.9,
                weight_decay: 1e-4,
                ..Default::default()
            },
            augment: None,
            interval: 2,
            ..Default::default()
        }
    }

    #[test]
    fn fp32_trainer_learns_blobs() {
        let (train, test) = toy_data();
        let net = models::mlp("m", &[6, 16, 3], &QuantScheme::float32(), &mut seeded(0)).unwrap();
        let mut t = Trainer::new(net, base_cfg(15)).unwrap();
        let report = t.train(&train, &test).unwrap();
        assert!(report.final_accuracy > 0.8, "acc={}", report.final_accuracy);
        assert_eq!(report.epochs.len(), 15);
        assert!(report.total_energy_pj > 0.0);
        assert!(report.best_accuracy >= report.final_accuracy);
    }

    #[test]
    fn apt_trainer_adapts_precision_upward_when_starving() {
        let (train, test) = toy_data();
        // Start at 3 bits: Gavg will be far below T_min=6 once the model
        // starts converging, so the policy must add precision.
        let scheme = QuantScheme::fixed(Bitwidth::new(3).unwrap());
        let net = models::mlp("m", &[6, 16, 3], &scheme, &mut seeded(1)).unwrap();
        let mut cfg = base_cfg(12);
        cfg.policy = Some(PolicyConfig::paper_default());
        let mut t = Trainer::new(net, cfg).unwrap();
        let report = t.train(&train, &test).unwrap();
        let first_bits: u32 = report.epochs[0].layer_bits.iter().map(|&(_, b)| b).sum();
        let last_bits: u32 = report
            .epochs
            .last()
            .unwrap()
            .layer_bits
            .iter()
            .map(|&(_, b)| b)
            .sum();
        assert!(last_bits > first_bits, "policy should raise precision");
        let total_changes: usize = report.epochs.iter().map(|e| e.changes.len()).sum();
        assert!(total_changes > 0);
        assert!(!report.epochs.last().unwrap().gavg.is_empty());
    }

    #[test]
    fn fixed_precision_run_never_changes_bits() {
        let (train, test) = toy_data();
        let scheme = QuantScheme::fixed(Bitwidth::new(8).unwrap());
        let net = models::mlp("m", &[6, 12, 3], &scheme, &mut seeded(2)).unwrap();
        let mut t = Trainer::new(net, base_cfg(5)).unwrap();
        let report = t.train(&train, &test).unwrap();
        for e in &report.epochs {
            assert!(e.changes.is_empty());
            assert!(e.layer_bits.iter().all(|&(_, b)| b == 8));
        }
    }

    #[test]
    fn quantized_uses_less_memory_than_fp32_and_master_copy_more() {
        let (train, test) = toy_data();
        let mem_of = |scheme: &QuantScheme| -> u64 {
            let net = models::mlp("m", &[6, 12, 3], scheme, &mut seeded(3)).unwrap();
            let mut t = Trainer::new(net, base_cfg(2)).unwrap();
            t.train(&train, &test).unwrap().peak_memory_bits
        };
        let q8 = mem_of(&QuantScheme::fixed(Bitwidth::new(8).unwrap()));
        let f32m = mem_of(&QuantScheme::float32());
        let mc8 = mem_of(&QuantScheme::master_copy(Bitwidth::new(8).unwrap()));
        assert!(q8 < f32m, "8-bit codes beat fp32: {q8} vs {f32m}");
        assert!(mc8 > f32m, "master copy pays for both: {mc8} vs {f32m}");
    }

    #[test]
    fn energy_monotonically_accumulates() {
        let (train, test) = toy_data();
        let net = models::mlp("m", &[6, 12, 3], &QuantScheme::paper_apt(), &mut seeded(4)).unwrap();
        let mut t = Trainer::new(net, base_cfg(4)).unwrap();
        let report = t.train(&train, &test).unwrap();
        for w in report.epochs.windows(2) {
            assert!(w[1].cumulative_energy_pj > w[0].cumulative_energy_pj);
        }
        assert_eq!(
            report.total_energy_pj,
            report.epochs.last().unwrap().cumulative_energy_pj
        );
    }

    #[test]
    fn energy_to_accuracy_query() {
        let mut report = TrainReport::default();
        for (i, (acc, e)) in [(0.2, 10.0), (0.5, 20.0), (0.8, 30.0)].iter().enumerate() {
            report.epochs.push(EpochRecord {
                epoch: i,
                lr: 0.1,
                train_loss: 1.0,
                test_accuracy: *acc,
                cumulative_energy_pj: *e,
                memory_bits: 0,
                resident_bytes: 0,
                layer_bits: vec![],
                gavg: vec![],
                underflow_rate: 0.0,
                changes: vec![],
            });
        }
        assert_eq!(report.energy_to_accuracy(0.5), Some((1, 20.0)));
        assert_eq!(report.energy_to_accuracy(0.9), None);
    }

    #[test]
    fn ternary_grad_quant_trains() {
        let (train, test) = toy_data();
        let net = models::mlp(
            "m",
            &[6, 16, 3],
            &QuantScheme::master_copy(Bitwidth::new(2).unwrap()),
            &mut seeded(5),
        )
        .unwrap();
        let mut cfg = base_cfg(10);
        cfg.grad_quant = GradQuant::Ternary;
        let mut t = Trainer::new(net, cfg).unwrap();
        let report = t.train(&train, &test).unwrap();
        // Ternary gradients on a binary-ish view still learn something.
        assert!(report.final_accuracy > 0.4, "acc={}", report.final_accuracy);
    }

    #[test]
    fn fixed_grad_quant_refuses_a_nan_gradient() {
        // One NaN pixel makes the first layer's weight gradient NaN.
        // Calibration used to skip it (`f32::min`/`max` do) and store it as
        // 0.0, so the poisoned step went through as a clean one, before
        // `sgd_update`'s screen could see it.
        let (train, test) = toy_data();
        let mut images: Vec<_> = (0..train.len()).map(|i| train.image(i).clone()).collect();
        images[0].data_mut()[0] = f32::NAN;
        let labels = (0..train.len()).map(|i| train.label(i)).collect();
        let poisoned = Dataset::new(images, labels, train.num_classes()).unwrap();
        let net = models::mlp("m", &[6, 8, 3], &QuantScheme::paper_apt(), &mut seeded(5)).unwrap();
        let mut cfg = base_cfg(1);
        cfg.grad_quant = GradQuant::Fixed(Bitwidth::new(8).unwrap());
        let mut t = Trainer::new(net, cfg).unwrap();
        assert!(matches!(
            t.train(&poisoned, &test),
            Err(CoreError::Quant(
                apt_quant::QuantError::NonFiniteRange { .. }
            ))
        ));
    }

    #[test]
    fn config_validation() {
        let net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(6)).unwrap();
        let mut cfg = base_cfg(0);
        assert!(Trainer::new(net, cfg.clone()).is_err());
        cfg.epochs = 1;
        cfg.ema_alpha = 0.0;
        let net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(6)).unwrap();
        assert!(Trainer::new(net, cfg).is_err());
        // empty training split
        let net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(6)).unwrap();
        let mut t = Trainer::new(net, base_cfg(1)).unwrap();
        let empty = apt_data::Dataset::new(vec![], vec![], 2).unwrap();
        assert!(t.train(&empty, &empty).is_err());
    }

    #[test]
    fn one_compute_thread_is_the_only_count() {
        let net = || models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(6)).unwrap();
        let with = |threads| TrainConfig {
            threads,
            ..base_cfg(1)
        };
        for threads in [Some(0), Some(2)] {
            let err = Trainer::new(net(), with(threads)).err();
            let refused = |r: &str| r.contains("scale with ranks (`--workers`)");
            assert!(
                matches!(&err, Some(CoreError::BadConfig { reason }) if refused(reason)),
                "{threads:?}: {err:?}"
            );
        }
        for threads in [None, Some(1)] {
            assert!(Trainer::new(net(), with(threads)).is_ok(), "{threads:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) = toy_data();
        let run = || {
            let net =
                models::mlp("m", &[6, 12, 3], &QuantScheme::paper_apt(), &mut seeded(7)).unwrap();
            let mut cfg = base_cfg(3);
            cfg.policy = Some(PolicyConfig::paper_default());
            let mut t = Trainer::new(net, cfg).unwrap();
            t.train(&train, &test).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.total_energy_pj, b.total_energy_pj);
        assert_eq!(
            a.epochs.last().unwrap().layer_bits,
            b.epochs.last().unwrap().layer_bits
        );
    }
}
