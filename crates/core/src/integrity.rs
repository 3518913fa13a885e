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
use crate::CoreError;
use apt_data::Batch;
use apt_nn::{Network, ParamStore};
use apt_tensor::Tensor;
use std::collections::HashMap;

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

/// A parameter's last known-clean in-memory state.
#[derive(Debug, Clone)]
struct LayerSnapshot {
    store: ParamStore,
    velocity: Option<Tensor>,
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
    digests: HashMap<String, u64>,
    snapshots: HashMap<String, LayerSnapshot>,
    profiler_snapshot: Vec<(String, f64)>,
    /// Saturation ratio of each quantised layer at the last refresh. A
    /// layer only *violates* when it crosses the limit from a clean
    /// baseline — a constant tensor (e.g. a zero-initialised bias)
    /// legitimately lives on one rail forever.
    baseline_sat: HashMap<String, f64>,
    sat_handled: HashMap<String, u32>,
    incidents: usize,
    report: IntegrityReport,
}

impl StepGuard {
    /// Creates a guard; call [`StepGuard::refresh`] before the first step.
    pub fn new(cfg: IntegrityConfig) -> Self {
        StepGuard {
            cfg,
            digests: HashMap::new(),
            snapshots: HashMap::new(),
            profiler_snapshot: Vec::new(),
            baseline_sat: HashMap::new(),
            sat_handled: HashMap::new(),
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
    /// the current (trusted) state.
    pub fn refresh(&mut self, net: &Network, profiler: &GavgProfiler) {
        self.digests.clear();
        self.snapshots.clear();
        self.baseline_sat.clear();
        let digests = &mut self.digests;
        let snapshots = &mut self.snapshots;
        let baseline_sat = &mut self.baseline_sat;
        net.visit_params_ref(&mut |p| {
            digests.insert(p.name().to_string(), p.integrity_digest());
            snapshots.insert(
                p.name().to_string(),
                LayerSnapshot {
                    store: p.store().clone(),
                    velocity: p.velocity().cloned(),
                },
            );
            if let Some(ratio) = p.saturation_ratio() {
                baseline_sat.insert(p.name().to_string(), ratio);
            }
        });
        self.profiler_snapshot = profiler.export();
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
            let digests = &self.digests;
            let snapshots = &self.snapshots;
            net.visit_params(&mut |p| {
                if first_err.is_some() {
                    return;
                }
                let Some(&expected) = digests.get(p.name()) else {
                    return;
                };
                if p.integrity_digest() == expected {
                    return;
                }
                let Some(snap) = snapshots.get(p.name()) else {
                    return;
                };
                match p
                    .set_store(snap.store.clone())
                    .and_then(|()| p.set_velocity(snap.velocity.clone()))
                {
                    Ok(()) => healed.push(p.name().to_string()),
                    Err(e) => first_err = Some(e),
                }
            });
            if let Some(e) = first_err.take() {
                return Err(e.into());
            }
            if profiler.export() != self.profiler_snapshot {
                profiler.restore(&self.profiler_snapshot);
                healed.push("<gavg-ema>".to_string());
            }
        }

        let mut raised: Vec<String> = Vec::new();
        {
            let cfg = self.cfg;
            let snapshots = &self.snapshots;
            let baseline_sat = &self.baseline_sat;
            let sat_handled = &self.sat_handled;
            net.visit_params(&mut |p| {
                if first_err.is_some() || p.len() < 8 {
                    return;
                }
                let Some(ratio) = p.saturation_ratio() else {
                    return;
                };
                if ratio <= cfg.saturation_limit {
                    return;
                }
                // Only a *crossing* is a violation: a layer whose clean
                // baseline already sat past the limit (constant tensors
                // quantise onto a single rail) is its natural state.
                if baseline_sat
                    .get(p.name())
                    .is_some_and(|&b| b > cfg.saturation_limit)
                {
                    return;
                }
                let Some(bits) = p.bits() else {
                    return;
                };
                if sat_handled.get(p.name()) == Some(&bits.get()) {
                    return;
                }
                // Heal first (undoes an injected rail-pin), then raise
                // precision so a genuinely saturating layer gets headroom —
                // Algorithm 1's own lever, applied as a safety response.
                if let Some(snap) = snapshots.get(p.name()) {
                    if let Err(e) = p
                        .set_store(snap.store.clone())
                        .and_then(|()| p.set_velocity(snap.velocity.clone()))
                    {
                        first_err = Some(e);
                        return;
                    }
                }
                match p.set_bits(bits.increment()) {
                    Ok(()) => raised.push(p.name().to_string()),
                    Err(e) => first_err = Some(e),
                }
            });
            if let Some(e) = first_err.take() {
                return Err(e.into());
            }
        }
        if !raised.is_empty() {
            // The raise legitimately changed these stores: re-baseline them
            // and remember the level so an unavoidably rail-heavy layer is
            // not re-flagged every step.
            let digests = &mut self.digests;
            let snapshots = &mut self.snapshots;
            let baseline_sat = &mut self.baseline_sat;
            let sat_handled = &mut self.sat_handled;
            net.visit_params_ref(&mut |p| {
                if !raised.iter().any(|n| n == p.name()) {
                    return;
                }
                digests.insert(p.name().to_string(), p.integrity_digest());
                snapshots.insert(
                    p.name().to_string(),
                    LayerSnapshot {
                        store: p.store().clone(),
                        velocity: p.velocity().cloned(),
                    },
                );
                if let Some(ratio) = p.saturation_ratio() {
                    baseline_sat.insert(p.name().to_string(), ratio);
                }
                if let Some(b) = p.bits() {
                    sat_handled.insert(p.name().to_string(), b.get());
                }
            });
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
        let max = self.cfg.max_abs_input;
        let bad_pixel = batch
            .images
            .data()
            .iter()
            .any(|&x| !x.is_finite() || x.abs() > max);
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
            if p.grad()
                .data()
                .iter()
                .any(|&g| !g.is_finite() || g.abs() > max)
            {
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
    use apt_nn::{models, QuantScheme};
    use apt_quant::Bitwidth;
    use apt_tensor::rng::seeded;

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
}
