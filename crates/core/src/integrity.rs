//! In-memory integrity checking and self-healing for the training loop.
//!
//! Edge devices train in SRAM/DRAM that is routinely hit by single-event
//! upsets (SEUs): a cosmic-ray or voltage-droop bit flip in a weight, a
//! momentum buffer, or the profiler's Gavg accumulators silently corrupts
//! the model long before the loss shows it. This module gives the trainer
//! a detection-and-containment layer:
//!
//! * **Detection** — after every clean step the [`StepGuard`] refreshes a
//!   per-parameter digest ([`apt_nn::Param::integrity_digest`]) plus
//!   an exact snapshot of the Gavg profile; before the next step it
//!   re-checks all of them. The digest absorbs the resident words of the
//!   store, the quantiser and the momentum buffer one 64-bit word per
//!   step, every step a bijection of the state and of the word, so an
//!   upset confined to one word is detected with certainty (a fold after
//!   the multiplication keeps two flips of bit 63 in two words from
//!   cancelling). Input batches are range/finiteness-screened,
//!   gradients are bounded, and quantised layers are watched for code
//!   saturation (all codes pinned to the `i`-bit rails).
//! * **Containment** — a digest mismatch is *healed in place* from the
//!   last clean in-memory snapshot of that layer (store + momentum), so a
//!   single flipped bit costs nothing but the copy. Repeated incidents
//!   escalate the same ladder the divergence sentinel uses: re-randomise
//!   the stochastic-rounding stream, then roll the whole run back to the
//!   sentinel snapshot and raise precision, and finally abort with
//!   [`CoreError::IntegrityViolation`] once
//!   [`IntegrityConfig::max_retries`] consecutive incidents are exhausted.
//!
//! The guard is deliberately passive on clean runs: it only reads state,
//! so a guarded run and an unguarded run of the same seed are bitwise
//! identical — and a run whose injected fault was healed is bitwise
//! identical to a clean run too (the strongest recovery statement the
//! resilience suite asserts).

use crate::faults::StepInfo;
use crate::gavg::GavgProfiler;
use crate::snapshot::{roll_back_params, ParamCopy};
use crate::CoreError;
use apt_data::Batch;
use apt_nn::{Network, Param};

/// Tuning knobs for the in-memory integrity layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Verify per-parameter digests (and the Gavg-EMA snapshot) before
    /// every step. Disable to keep only range/saturation screening.
    pub check_digests: bool,
    /// Largest input-pixel magnitude accepted by the batch screen.
    pub max_abs_input: f32,
    /// Largest gradient magnitude accepted after the backward pass.
    pub max_abs_grad: f32,
    /// Fraction of a quantised layer's codes allowed on the rails before
    /// the saturation guard heals it and raises its bitwidth.
    pub saturation_limit: f64,
    /// Consecutive incidents tolerated before the guard gives up with
    /// [`CoreError::IntegrityViolation`].
    pub max_retries: usize,
    /// Cap on the number of [`IntegrityEvent`]s retained in the report
    /// (counters keep counting past it).
    pub max_events: usize,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            check_digests: true,
            max_abs_input: 1e4,
            max_abs_grad: 1e6,
            saturation_limit: 0.25,
            max_retries: 3,
            max_events: 256,
        }
    }
}

/// The class of integrity check that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityKind {
    /// A parameter (or the Gavg profile) no longer matches its digest.
    Digest,
    /// A quantised layer's codes collapsed onto the representable rails.
    Saturation,
    /// An input batch carried non-finite/out-of-range pixels or labels.
    Batch,
    /// A gradient came back non-finite or absurdly large.
    Gradient,
}

impl IntegrityKind {
    /// Stable lower-case name for reports and error messages.
    pub fn as_str(self) -> &'static str {
        match self {
            IntegrityKind::Digest => "digest",
            IntegrityKind::Saturation => "saturation",
            IntegrityKind::Batch => "batch",
            IntegrityKind::Gradient => "gradient",
        }
    }
}

/// What the guard did about a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityAction {
    /// Restored the affected layer from its last clean in-memory snapshot.
    HealedInPlace,
    /// Asked the trainer for a full sentinel rollback.
    RolledBack,
    /// Dropped the offending batch without stepping.
    SkippedBatch,
    /// Healed the layer and raised its bitwidth one step.
    RaisedBits,
}

/// One recorded violation, in step order.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityEvent {
    /// Optimiser steps completed when the violation was caught.
    pub global_step: u64,
    /// Which check fired.
    pub kind: IntegrityKind,
    /// The affected parameter, when the check is per-layer.
    pub param: Option<String>,
    /// The containment action taken.
    pub action: IntegrityAction,
}

/// Aggregated outcome of the integrity layer over a run. All-zero (its
/// `Default`) on a clean run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntegrityReport {
    /// Parameter/profiler digest mismatches caught.
    pub digest_violations: usize,
    /// Saturated quantised layers caught.
    pub saturation_violations: usize,
    /// Corrupt input batches caught.
    pub batch_violations: usize,
    /// Non-finite/oversized gradients caught.
    pub gradient_violations: usize,
    /// Layers restored in place from a clean snapshot.
    pub healed_layers: usize,
    /// Batches dropped by the skip-and-count policy.
    pub skipped_batches: usize,
    /// Times the stochastic-rounding stream was re-seeded.
    pub rounding_rerolls: usize,
    /// Full sentinel rollbacks requested.
    pub rollbacks: usize,
    /// Bitwidth raises triggered by the saturation guard.
    pub bit_raises: usize,
    /// Per-violation log, capped at [`IntegrityConfig::max_events`].
    pub events: Vec<IntegrityEvent>,
}

impl IntegrityReport {
    /// `true` when no check ever fired.
    pub fn is_clean(&self) -> bool {
        *self == IntegrityReport::default()
    }
}

/// What the trainer must do after a [`StepGuard`] scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Layers healed in place during this scan.
    pub healed: usize,
    /// Re-seed the stochastic-rounding stream (incident level ≥ 2).
    pub reroll: bool,
    /// Restore the sentinel snapshot before continuing (level ≥ 3).
    pub rollback: bool,
    /// Also raise precision on the rollback, like the divergence ladder's
    /// last rung (level ≥ 3).
    pub escalate: bool,
}

/// Elements a range screen folds between two looks at its verdict.
const SCREEN_CHUNK: usize = 256;

/// `true` if any of `xs` is non-finite or larger than `max` in magnitude:
/// a branch-free OR-fold per [`SCREEN_CHUNK`] elements (a vector compare),
/// leaving between chunks instead of between elements.
fn any_beyond(xs: &[f32], max: f32) -> bool {
    let beyond = |bad: bool, &x: &f32| bad | !x.is_finite() | (x.abs() > max);
    xs.chunks(SCREEN_CHUNK)
        .any(|chunk| chunk.iter().fold(false, beyond))
}

/// What the guard keeps of one parameter: its digest, its saturation
/// baseline and its last known-clean in-memory state, refreshed in place
/// after every clean step. The clean state is also what a rollback
/// restores ([`crate::snapshot`]): a guarded run holds one copy of the
/// model beside the live one.
#[derive(Debug, Clone)]
struct Baseline {
    /// [`Param::integrity_digest`] at the last refresh; not computed (and
    /// not read) with [`IntegrityConfig::check_digests`] off.
    digest: u64,
    /// Saturation ratio at the last refresh (`None` for stores without
    /// rails). A layer only *violates* when it crosses the limit from a
    /// clean baseline — a constant tensor (e.g. a zero-initialised bias)
    /// legitimately lives on one rail forever.
    sat: Option<f64>,
    /// The bitwidth the saturation guard last raised this layer to, so an
    /// unavoidably rail-heavy layer is not re-flagged every step. Outlives
    /// refreshes.
    sat_handled: Option<u32>,
    copy: ParamCopy,
}

impl Baseline {
    fn of(p: &Param, digests: bool, sat_handled: Option<u32>) -> Self {
        Baseline {
            digest: if digests { p.integrity_digest() } else { 0 },
            sat: p.saturation_ratio(),
            sat_handled,
            copy: ParamCopy::of(p),
        }
    }

    /// Re-captures `p` into the buffers this baseline already owns; a
    /// `commit` also makes it the state a rollback returns to.
    fn recapture(&mut self, p: &Param, digests: bool, commit: bool) {
        if digests {
            self.digest = p.integrity_digest();
        }
        self.sat = p.saturation_ratio();
        if commit {
            self.copy.commit(p);
        } else {
            self.copy.follow(p);
        }
    }
}

/// The self-healing wrapper around the inner training step.
///
/// Lifecycle inside [`crate::Trainer`]: `refresh` at run start and after
/// any rollback/policy change; `pre_step` before each step (digest +
/// saturation scan, healing in place); `check_batch` before the forward
/// pass; `check_grads` after the backward pass; `step_clean` + `refresh`
/// once the optimiser step lands. Consecutive incidents (steps that
/// tripped *any* non-batch check) drive the escalation ladder; a clean
/// step resets it.
#[derive(Debug, Clone)]
pub struct StepGuard {
    cfg: IntegrityConfig,
    /// One per parameter, in the network's visiting order.
    baselines: Vec<Baseline>,
    profiler_snapshot: Vec<(String, f64)>,
    incidents: usize,
    report: IntegrityReport,
}

impl StepGuard {
    /// Creates a guard; call [`StepGuard::refresh`] before the first step.
    pub fn new(cfg: IntegrityConfig) -> Self {
        StepGuard {
            cfg,
            baselines: Vec::new(),
            profiler_snapshot: Vec::new(),
            incidents: 0,
            report: IntegrityReport::default(),
        }
    }

    /// The configuration this guard runs with.
    pub fn config(&self) -> &IntegrityConfig {
        &self.cfg
    }

    /// Consecutive un-reset incidents (the escalation-ladder level).
    pub fn incidents(&self) -> usize {
        self.incidents
    }

    /// Re-captures digests, per-layer snapshots and the Gavg profile from
    /// the current (trusted) state — into the buffers the guard already
    /// holds, so a refresh after a step that changed no tier and no
    /// inventory allocates nothing. A network whose parameters are not the
    /// ones last captured, name for name in order, gets a fresh list.
    pub fn refresh(&mut self, net: &Network, profiler: &GavgProfiler) {
        self.recapture(net, profiler, true);
    }

    /// [`refresh`](StepGuard::refresh) after a rollback: the restored (and
    /// possibly escalated) state is what the guard heals to, while a later
    /// rollback still returns to the last clean step.
    pub(crate) fn follow(&mut self, net: &Network, profiler: &GavgProfiler) {
        self.recapture(net, profiler, false);
    }

    /// Restores every store and momentum buffer of `net` to the last clean
    /// step.
    pub(crate) fn roll_back(&self, net: &mut Network) -> crate::Result<()> {
        roll_back_params(net, &self.baselines, |b| &b.copy)
    }

    fn recapture(&mut self, net: &Network, profiler: &GavgProfiler, commit: bool) {
        let digests = self.cfg.check_digests;
        let baselines = &mut self.baselines;
        let (mut at, mut same) = (0, true);
        net.visit_params_ref(&mut |p| {
            match baselines.get_mut(at) {
                Some(b) if same && b.copy.name == p.name() => b.recapture(p, digests, commit),
                _ => same = false,
            }
            at += 1;
        });
        if !same || at != baselines.len() {
            let old = std::mem::take(baselines);
            net.visit_params_ref(&mut |p| {
                let handled = old.iter().find(|b| b.copy.name == p.name());
                let handled = handled.and_then(|b| b.sat_handled);
                baselines.push(Baseline::of(p, digests, handled));
            });
        }
        profiler.export_into(&mut self.profiler_snapshot);
    }

    /// The baseline of the `at`-th visited parameter, `name`: where the
    /// last refresh put it, or wherever a network visited in another order
    /// has it.
    fn baseline_of(baselines: &[Baseline], at: usize, name: &str) -> Option<usize> {
        match baselines.get(at) {
            Some(b) if b.copy.name == name => Some(at),
            _ => baselines.iter().position(|b| b.copy.name == name),
        }
    }

    /// Scans weights, momentum, quantiser calibration and the Gavg profile
    /// before a step, healing anything that fails its check.
    ///
    /// Returns the containment actions the trainer still has to carry out
    /// (re-roll / rollback / escalate, per the incident level).
    ///
    /// # Errors
    ///
    /// [`CoreError::IntegrityViolation`] once more than
    /// [`IntegrityConfig::max_retries`] consecutive scans found damage.
    pub fn pre_step(
        &mut self,
        net: &mut Network,
        profiler: &mut GavgProfiler,
        info: &StepInfo,
    ) -> crate::Result<ScanOutcome> {
        let mut first_err: Option<apt_nn::NnError> = None;
        let mut healed: Vec<String> = Vec::new();
        if self.cfg.check_digests {
            let baselines = &self.baselines;
            let mut at = 0;
            net.visit_params(&mut |p| {
                let found = Self::baseline_of(baselines, at, p.name());
                at += 1;
                if first_err.is_some() {
                    return;
                }
                let Some(b) = found.map(|i| &baselines[i]) else {
                    return;
                };
                if p.integrity_digest() == b.digest {
                    return;
                }
                match b.copy.heal(p) {
                    Ok(()) => healed.push(p.name().to_string()),
                    Err(e) => first_err = Some(e),
                }
            });
            if let Some(e) = first_err.take() {
                return Err(e.into());
            }
            if !profiler.exports(&self.profiler_snapshot) {
                profiler.restore(&self.profiler_snapshot);
                healed.push("<gavg-ema>".to_string());
            }
        }

        let mut raised: Vec<String> = Vec::new();
        {
            let cfg = self.cfg;
            let baselines = &mut self.baselines;
            let mut at = 0;
            net.visit_params(&mut |p| {
                let found = Self::baseline_of(baselines, at, p.name());
                at += 1;
                if first_err.is_some() || p.len() < 8 {
                    return;
                }
                let Some(ratio) = p.saturation_ratio() else {
                    return;
                };
                if ratio <= cfg.saturation_limit {
                    return;
                }
                let b = found.map(|i| &baselines[i]);
                // Only a *crossing* is a violation: a layer whose clean
                // baseline already sat past the limit (constant tensors
                // quantise onto a single rail) is its natural state.
                if (b.and_then(|b| b.sat)).is_some_and(|s| s > cfg.saturation_limit) {
                    return;
                }
                let Some(bits) = p.bits() else {
                    return;
                };
                if b.and_then(|b| b.sat_handled) == Some(bits.get()) {
                    return;
                }
                // Heal first (undoes an injected rail-pin), then raise
                // precision so a genuinely saturating layer gets headroom —
                // Algorithm 1's own lever, applied as a safety response.
                let raise = b.map_or(Ok(()), |b| b.copy.heal(p));
                if let Err(e) = raise.and_then(|()| p.set_bits(bits.increment())) {
                    first_err = Some(e);
                    return;
                }
                raised.push(p.name().to_string());
                // The raise legitimately changed this store: re-baseline it
                // and remember the level, so an unavoidably rail-heavy
                // layer is not re-flagged every step. A rollback of this
                // step still returns to the store before the raise.
                let level = p.bits().map(|k| k.get());
                match found {
                    Some(i) => {
                        baselines[i].recapture(p, cfg.check_digests, false);
                        baselines[i].sat_handled = level;
                    }
                    None => baselines.push(Baseline::of(p, cfg.check_digests, level)),
                }
            });
            if let Some(e) = first_err.take() {
                return Err(e.into());
            }
        }

        if healed.is_empty() && raised.is_empty() {
            return Ok(ScanOutcome::default());
        }
        self.incidents += 1;
        let level = self.incidents;
        if level > self.cfg.max_retries {
            let kind = if healed.is_empty() {
                IntegrityKind::Saturation
            } else {
                IntegrityKind::Digest
            };
            return Err(CoreError::IntegrityViolation {
                epoch: info.epoch,
                iteration: info.iter,
                kind: kind.as_str().to_string(),
                incidents: level,
            });
        }
        let reroll = level >= 2;
        let rollback = level >= 3;
        for name in &healed {
            self.report.digest_violations += 1;
            self.report.healed_layers += 1;
            let action = if rollback {
                IntegrityAction::RolledBack
            } else {
                IntegrityAction::HealedInPlace
            };
            self.push_event(
                info.global_step,
                IntegrityKind::Digest,
                Some(name.clone()),
                action,
            );
        }
        for name in &raised {
            self.report.saturation_violations += 1;
            self.report.bit_raises += 1;
            self.report.healed_layers += 1;
            self.push_event(
                info.global_step,
                IntegrityKind::Saturation,
                Some(name.clone()),
                IntegrityAction::RaisedBits,
            );
        }
        if reroll {
            self.report.rounding_rerolls += 1;
        }
        if rollback {
            self.report.rollbacks += 1;
        }
        Ok(ScanOutcome {
            healed: healed.len() + raised.len(),
            reroll,
            rollback,
            escalate: rollback,
        })
    }

    /// Screens one batch for corrupt pixels or impossible labels. Returns
    /// `true` if the batch must be skipped (already counted in the
    /// report). Skips do **not** advance the incident ladder: a corrupt
    /// sample says nothing about the integrity of the model itself.
    pub fn check_batch(&mut self, batch: &Batch, num_classes: usize, info: &StepInfo) -> bool {
        let bad_pixel = any_beyond(batch.images.data(), self.cfg.max_abs_input);
        let bad_label = batch.labels.iter().any(|&l| l >= num_classes);
        if !bad_pixel && !bad_label {
            return false;
        }
        self.report.batch_violations += 1;
        self.report.skipped_batches += 1;
        self.push_event(
            info.global_step,
            IntegrityKind::Batch,
            None,
            IntegrityAction::SkippedBatch,
        );
        true
    }

    /// Screens the freshly accumulated gradients after a backward pass.
    /// `None` means clean; otherwise the trainer must roll back (the
    /// weights already consumed a poisoned signal path).
    ///
    /// # Errors
    ///
    /// [`CoreError::IntegrityViolation`] once the incident budget is spent.
    pub fn check_grads(
        &mut self,
        net: &Network,
        info: &StepInfo,
    ) -> crate::Result<Option<ScanOutcome>> {
        let max = self.cfg.max_abs_grad;
        let mut offender: Option<String> = None;
        net.visit_params_ref(&mut |p| {
            if offender.is_some() {
                return;
            }
            if any_beyond(p.grad().data(), max) {
                offender = Some(p.name().to_string());
            }
        });
        let Some(name) = offender else {
            return Ok(None);
        };
        self.incidents += 1;
        let level = self.incidents;
        if level > self.cfg.max_retries {
            return Err(CoreError::IntegrityViolation {
                epoch: info.epoch,
                iteration: info.iter,
                kind: IntegrityKind::Gradient.as_str().to_string(),
                incidents: level,
            });
        }
        self.report.gradient_violations += 1;
        self.report.rollbacks += 1;
        if level >= 2 {
            self.report.rounding_rerolls += 1;
        }
        self.push_event(
            info.global_step,
            IntegrityKind::Gradient,
            Some(name),
            IntegrityAction::RolledBack,
        );
        Ok(Some(ScanOutcome {
            healed: 0,
            reroll: level >= 2,
            rollback: true,
            escalate: level >= 3,
        }))
    }

    /// Marks the last step as clean: resets the escalation ladder.
    pub fn step_clean(&mut self) {
        self.incidents = 0;
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &IntegrityReport {
        &self.report
    }

    /// Consumes the guard, yielding the final report.
    pub fn into_report(self) -> IntegrityReport {
        self.report
    }

    fn push_event(
        &mut self,
        global_step: u64,
        kind: IntegrityKind,
        param: Option<String>,
        action: IntegrityAction,
    ) {
        if self.report.events.len() < self.cfg.max_events {
            self.report.events.push(IntegrityEvent {
                global_step,
                kind,
                param,
                action,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::{models, ParamStore, QuantScheme};
    use apt_quant::Bitwidth;
    use apt_tensor::rng::seeded;
    use apt_tensor::Tensor;

    fn net6() -> Network {
        models::mlp(
            "m",
            &[6, 16, 3],
            &QuantScheme::fully_quantized(Bitwidth::new(6).unwrap()),
            &mut seeded(3),
        )
        .unwrap()
    }

    fn info(step: u64) -> StepInfo {
        StepInfo {
            epoch: 0,
            iter: step as usize,
            global_step: step,
        }
    }

    #[test]
    fn clean_scan_touches_nothing() {
        let mut net = net6();
        let mut prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        guard.refresh(&net, &prof);
        let before = net.integrity_digests();
        let out = guard.pre_step(&mut net, &mut prof, &info(0)).unwrap();
        assert_eq!(out, ScanOutcome::default());
        assert_eq!(net.integrity_digests(), before);
        assert!(guard.report().is_clean());
    }

    #[test]
    fn flipped_weight_is_healed_in_place() {
        let mut net = net6();
        let mut prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        guard.refresh(&net, &prof);
        let clean = net.integrity_digests();
        net.visit_params(&mut |p| {
            if p.name() == "fc0.weight" {
                p.flip_stored_bit(5, 3).unwrap();
            }
        });
        assert_ne!(net.integrity_digests(), clean);
        let out = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
        assert_eq!(out.healed, 1);
        assert!(!out.rollback);
        // Healing is exact: the digests match the pre-fault state again.
        assert_eq!(net.integrity_digests(), clean);
        assert_eq!(guard.report().digest_violations, 1);
        assert_eq!(guard.report().healed_layers, 1);
        assert_eq!(guard.report().events.len(), 1);
        // A clean step resets the ladder.
        guard.step_clean();
        assert_eq!(guard.incidents(), 0);
    }

    #[test]
    fn repeated_incidents_climb_the_ladder_and_abort() {
        let mut net = net6();
        let mut prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        guard.refresh(&net, &prof);
        let corrupt = |net: &mut Network| {
            net.visit_params(&mut |p| {
                if p.name() == "fc0.weight" {
                    p.flip_stored_bit(0, 1).unwrap();
                }
            });
        };
        corrupt(&mut net);
        let o1 = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
        assert!(!o1.reroll && !o1.rollback);
        corrupt(&mut net);
        let o2 = guard.pre_step(&mut net, &mut prof, &info(2)).unwrap();
        assert!(o2.reroll && !o2.rollback);
        corrupt(&mut net);
        let o3 = guard.pre_step(&mut net, &mut prof, &info(3)).unwrap();
        assert!(o3.reroll && o3.rollback && o3.escalate);
        corrupt(&mut net);
        match guard.pre_step(&mut net, &mut prof, &info(4)) {
            Err(CoreError::IntegrityViolation { incidents: 4, .. }) => {}
            other => panic!("expected IntegrityViolation, got {other:?}"),
        }
        assert_eq!(guard.report().rounding_rerolls, 2);
        assert_eq!(guard.report().rollbacks, 1);
    }

    #[test]
    fn saturated_layer_is_healed_and_raised() {
        let mut net = net6();
        let mut prof = GavgProfiler::new(0.2);
        // Digests off: with them on, a rail-pin is caught (and healed) as
        // a digest mismatch first. The saturation guard is the safety net
        // for exactly the states digests cannot flag.
        let cfg = IntegrityConfig {
            check_digests: false,
            ..Default::default()
        };
        let mut guard = StepGuard::new(cfg);
        guard.refresh(&net, &prof);
        net.visit_params(&mut |p| {
            if p.name() == "fc0.weight" {
                assert!(p.saturate_codes(0.9, true) > 0);
            }
        });
        let out = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
        assert_eq!(out.healed, 1);
        assert_eq!(guard.report().saturation_violations, 1);
        assert_eq!(guard.report().bit_raises, 1);
        let mut bits = None;
        net.visit_params_ref(&mut |p| {
            if p.name() == "fc0.weight" {
                bits = p.bits().map(Bitwidth::get);
                assert!(p.saturation_ratio().unwrap() < 0.25);
            }
        });
        assert_eq!(bits, Some(7));
        // The re-baselined layer passes the next scan without incident.
        guard.step_clean();
        let next = guard.pre_step(&mut net, &mut prof, &info(2)).unwrap();
        assert_eq!(next, ScanOutcome::default());
    }

    #[test]
    fn corrupt_batches_and_grads_are_caught() {
        let mut net = net6();
        let prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        guard.refresh(&net, &prof);
        let mut batch = Batch {
            images: Tensor::zeros(&[1, 1, 2, 3]),
            labels: vec![1],
        };
        assert!(!guard.check_batch(&batch, 3, &info(0)));
        batch.images.data_mut()[2] = f32::INFINITY;
        assert!(guard.check_batch(&batch, 3, &info(0)));
        batch.images.data_mut()[2] = 0.0;
        batch.labels[0] = usize::MAX;
        assert!(guard.check_batch(&batch, 3, &info(0)));
        assert_eq!(guard.report().skipped_batches, 2);
        assert_eq!(guard.incidents(), 0, "batch skips are not incidents");

        assert!(guard.check_grads(&net, &info(1)).unwrap().is_none());
        net.visit_params(&mut |p| {
            if p.name() == "fc0.weight" {
                p.grad_mut().data_mut()[0] = f32::NAN;
            }
        });
        let out = guard.check_grads(&net, &info(1)).unwrap().unwrap();
        assert!(out.rollback && !out.reroll);
        assert_eq!(guard.report().gradient_violations, 1);
    }

    /// The early-exit scan [`any_beyond`] replaced.
    fn any_beyond_serial(xs: &[f32], max: f32) -> bool {
        xs.iter().any(|&x| !x.is_finite() || x.abs() > max)
    }

    #[test]
    fn chunked_range_screen_agrees_with_the_early_exit_scan() {
        let c = SCREEN_CHUNK;
        let max = IntegrityConfig::default().max_abs_grad;
        let (under, over) = (
            f32::from_bits(max.to_bits() - 1),
            f32::from_bits(max.to_bits() + 1),
        );
        for n in [0, 1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1] {
            // Everything the screen must let through: zeros of both signs,
            // the bound itself and the float under it, either sign.
            let fill = [0.0, -0.0, max, -max, under, -under, 1e-40];
            let clean: Vec<f32> = (0..n).map(|i| fill[i % fill.len()]).collect();
            assert!(!any_beyond(&clean, max) && !any_beyond_serial(&clean, max));
            let edges = [0, c - 1, c, c + 1, 2 * c - 1, 2 * c, n.saturating_sub(1)];
            for at in edges.into_iter().filter(|&at| at < n) {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, over, -over] {
                    let mut xs = clean.clone();
                    xs[at] = bad;
                    assert!(any_beyond(&xs, max), "n={n} {bad} at {at}");
                    assert!(any_beyond_serial(&xs, max));
                }
            }
        }
        // A bound that is not finite keeps the serial form's meaning too.
        for max in [f32::INFINITY, f32::NAN] {
            for x in [1.0, f32::MAX, f32::INFINITY, f32::NAN] {
                assert_eq!(any_beyond(&[x], max), any_beyond_serial(&[x], max));
            }
        }
    }

    #[test]
    fn gradient_screen_names_the_first_offender_in_visiting_order() {
        let mut net = net6();
        let mut guard = StepGuard::new(IntegrityConfig::default());
        // Two poisoned parameters, the later one hit first in memory order
        // of its own buffer: the report names the earlier *parameter*.
        net.visit_params(&mut |p| match p.name() {
            "fc0.bias" => *p.grad_mut().data_mut().last_mut().unwrap() = f32::INFINITY,
            "fc1.weight" => p.grad_mut().data_mut()[0] = f32::NAN,
            _ => {}
        });
        assert!(guard.check_grads(&net, &info(1)).unwrap().is_some());
        let event = &guard.report().events[0];
        assert_eq!(event.param.as_deref(), Some("fc0.bias"));
    }

    fn net8() -> Network {
        let scheme = QuantScheme::fully_quantized(Bitwidth::new(8).unwrap());
        models::mlp("m", &[6, 16, 3], &scheme, &mut seeded(3)).unwrap()
    }

    /// `name`'s store as (tier, bitwidth, codes, quantisers).
    fn store_of(net: &Network, name: &str) -> (&'static str, u32, Vec<i64>, Vec<String>) {
        let mut out = None;
        net.visit_params_ref(&mut |p| {
            if let (true, ParamStore::Quantized(q)) = (p.name() == name, p.store()) {
                let quantizers = q.quantizers().iter().map(|q| format!("{q:?}")).collect();
                let tier = q.store().tier_name();
                out = Some((tier, q.bits().get(), q.store().to_vec(), quantizers));
            }
        });
        out.expect("a quantised parameter of that name")
    }

    fn with_param(net: &mut Network, name: &str, f: impl Fn(&mut Param)) {
        net.visit_params(&mut |p| {
            if p.name() == name {
                f(p);
            }
        });
    }

    #[test]
    fn a_layer_raised_across_a_tier_boundary_heals_to_its_new_store() {
        // Algorithm 1 takes fc0.weight from 8 bits (an `i8` store) to 9
        // (`i16`) between two refreshes: the baseline refreshed in place
        // must hold the new store, not the buffer it had.
        let mut net = net8();
        let mut prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        guard.refresh(&net, &prof);
        let nine = Bitwidth::new(9).unwrap();
        with_param(&mut net, "fc0.weight", |p| p.set_bits(nine).unwrap());
        with_param(&mut net, "fc0.weight", |p| p.velocity_mut().fill(0.25));
        guard.refresh(&net, &prof);
        let (clean, store) = (net.integrity_digests(), store_of(&net, "fc0.weight"));
        assert_eq!((store.0, store.1), ("i16", 9));
        for (elem, bit) in [(0, 0), (5, 8), (95, 3)] {
            with_param(&mut net, "fc0.weight", |p| {
                p.flip_stored_bit(elem, bit).unwrap()
            });
            assert_ne!(net.integrity_digests(), clean);
            guard.step_clean();
            let out = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
            assert_eq!(out.healed, 1);
            assert_eq!(net.integrity_digests(), clean, "{elem}:{bit}");
            assert_eq!(store_of(&net, "fc0.weight"), store);
        }
        // And back down: a smaller store into the larger buffer.
        let seven = Bitwidth::new(7).unwrap();
        with_param(&mut net, "fc0.weight", |p| p.set_bits(seven).unwrap());
        guard.refresh(&net, &prof);
        let (clean, store) = (net.integrity_digests(), store_of(&net, "fc0.weight"));
        with_param(&mut net, "fc0.weight", |p| {
            assert!(p.flip_velocity_bit(7, 30));
            p.flip_stored_bit(7, 6).unwrap();
        });
        guard.step_clean();
        assert_eq!(
            guard
                .pre_step(&mut net, &mut prof, &info(2))
                .unwrap()
                .healed,
            1
        );
        assert_eq!(net.integrity_digests(), clean);
        assert_eq!(store_of(&net, "fc0.weight"), store);
    }

    #[test]
    fn the_saturation_raise_rebaselines_across_the_tier_boundary() {
        let mut net = net8();
        let mut prof = GavgProfiler::new(0.2);
        let cfg = IntegrityConfig {
            check_digests: false,
            ..Default::default()
        };
        let mut guard = StepGuard::new(cfg);
        guard.refresh(&net, &prof);
        assert!(
            guard.baselines.iter().all(|b| b.digest == 0),
            "no digest is computed with the digest check off"
        );
        with_param(&mut net, "fc0.weight", |p| {
            assert!(p.saturate_codes(0.9, true) > 0)
        });
        let out = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
        assert_eq!((out.healed, guard.report().bit_raises), (1, 1));
        // The guard's copy is the raised 9-bit store, whole.
        let raised = store_of(&net, "fc0.weight");
        assert_eq!((raised.0, raised.1), ("i16", 9));
        let held = guard.baselines.iter().find(|b| b.copy.name == "fc0.weight");
        let held = held.expect("a baseline per parameter");
        assert_eq!(held.sat_handled, Some(9));
        let mut copy = net8();
        with_param(&mut copy, "fc0.weight", |p| held.copy.heal(p).unwrap());
        assert_eq!(store_of(&copy, "fc0.weight"), raised);
        // The level survives refreshes, in place or rebuilt.
        guard.refresh(&net, &prof);
        guard.refresh(
            &models::mlp("other", &[6, 3], &QuantScheme::float32(), &mut seeded(1)).unwrap(),
            &prof,
        );
        guard.refresh(&net, &prof);
        let held = guard.baselines.iter().find(|b| b.copy.name == "fc0.weight");
        assert_eq!(held.unwrap().sat_handled, Some(9));
    }

    #[test]
    fn a_different_inventory_rebuilds_the_baselines() {
        let prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        let scheme = QuantScheme::fully_quantized(Bitwidth::new(6).unwrap());
        // Four parameters, then six of which the first four share their
        // names and two their shapes, then four again, then the same
        // count under shapes of their own.
        for dims in [&[6, 16, 3][..], &[6, 5, 16, 3], &[6, 16, 3], &[6, 7, 3]] {
            let mut net = models::mlp("m", dims, &scheme, &mut seeded(4)).unwrap();
            let mut prof = prof.clone();
            guard.refresh(&net, &prof);
            let mut names = Vec::new();
            net.visit_params_ref(&mut |p| names.push(p.name().to_string()));
            let held: Vec<&str> = guard
                .baselines
                .iter()
                .map(|b| b.copy.name.as_str())
                .collect();
            assert_eq!(held, names, "one baseline per parameter, in order");
            let clean = net.integrity_digests();
            for name in &names {
                with_param(&mut net, name, |p| {
                    p.flip_stored_bit(p.len() - 1, 1).unwrap()
                });
                guard.step_clean();
                let out = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
                assert_eq!(out.healed, 1, "{name} of {dims:?}");
                assert_eq!(net.integrity_digests(), clean, "{name} of {dims:?}");
            }
        }
    }

    #[test]
    fn the_gavg_snapshot_is_compared_and_refreshed_in_place() {
        let mut net = net6();
        let mut prof = GavgProfiler::new(0.2);
        let mut guard = StepGuard::new(IntegrityConfig::default());
        guard.refresh(&net, &prof);
        assert!(guard.profiler_snapshot.is_empty());
        // The profile gains its layers after the first refresh.
        with_param(&mut net, "fc0.weight", |p| p.grad_mut().fill(0.01));
        prof.sample(&net);
        guard.refresh(&net, &prof);
        assert_eq!(guard.profiler_snapshot, prof.export());
        prof.sample(&net);
        guard.refresh(&net, &prof);
        assert_eq!(guard.profiler_snapshot, prof.export());
        // A flipped EMA is caught and put back.
        let clean = prof.export();
        assert!(prof.flip_ema_bit("fc0.weight", 51));
        assert_ne!(prof.export(), clean);
        let out = guard.pre_step(&mut net, &mut prof, &info(1)).unwrap();
        assert_eq!(out.healed, 1);
        assert_eq!(prof.export(), clean);
        assert_eq!(
            guard.report().events[0].param.as_deref(),
            Some("<gavg-ema>")
        );
    }
}
