//! Soft-error resilience suite: live in-memory fault injection (SEU bit
//! flips, corrupt batches, quantiser saturation) against the integrity
//! guard's detect-and-heal machinery.
//!
//! The headline property: a run whose injected fault was healed is
//! **bit-identical** to the clean run — detection happens before the
//! corrupted state influences a single step.

use apt_core::faults::{
    BatchFault, BitFlip, Saturator, StepAction, StepHook, StepInfo, SurfaceKind,
};
use apt_core::{IntegrityConfig, TrainConfig, TrainReport, Trainer};
use apt_data::{blobs, Batch, Dataset};
use apt_nn::{models, Network, QuantScheme};
use apt_optim::LrSchedule;

fn toy_data() -> (Dataset, Dataset) {
    let all = blobs(3, 40, 6, 0.4, 1).unwrap();
    all.split_shuffled(90, 9).unwrap()
}

fn toy_net() -> Network {
    models::mlp(
        "m",
        &[6, 16, 3],
        &QuantScheme::paper_apt(),
        &mut apt_tensor::rng::seeded(0),
    )
    .unwrap()
}

fn base_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 4,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        augment: None,
        interval: 2,
        ..Default::default()
    }
}

fn guarded_cfg() -> TrainConfig {
    TrainConfig {
        integrity: Some(IntegrityConfig::default()),
        ..base_cfg()
    }
}

fn baseline() -> TrainReport {
    let (train, test) = toy_data();
    let mut t = Trainer::new(toy_net(), base_cfg()).unwrap();
    t.train(&train, &test).unwrap()
}

/// Strips the integrity section so a healed run can be compared
/// bit-for-bit against an unguarded clean run.
fn sans_integrity(mut report: TrainReport) -> TrainReport {
    report.integrity = Default::default();
    report
}

#[test]
fn armed_guard_is_invisible_on_a_clean_run() {
    let (train, test) = toy_data();
    let mut t = Trainer::new(toy_net(), guarded_cfg()).unwrap();
    let guarded = t.train(&train, &test).unwrap();
    assert!(guarded.integrity.is_clean(), "{:?}", guarded.integrity);
    assert_eq!(sans_integrity(guarded), baseline());
}

#[test]
fn weight_bit_flip_is_healed_bit_identically() {
    let (train, test) = toy_data();
    let mut hook = BitFlip::at(5, 7);
    let mut t = Trainer::new(toy_net(), guarded_cfg()).unwrap();
    let report = t.train_with_hooks(&train, &test, &mut hook).unwrap();

    assert_eq!(hook.records().len(), 1, "the flip landed");
    let rec = &hook.records()[0];
    assert_eq!(rec.global_step, 5);

    // Detected on the very next scan — zero steps consumed the damage.
    assert_eq!(report.integrity.digest_violations, 1);
    assert_eq!(report.integrity.healed_layers, 1);
    assert_eq!(report.integrity.rollbacks, 0);
    let ev = &report.integrity.events[0];
    assert_eq!(ev.global_step, 5);
    assert_eq!(ev.param.as_deref(), Some(rec.param.as_str()));

    // Healing is exact: the whole run is bit-identical to a clean one.
    assert_eq!(sans_integrity(report), baseline());
}

#[test]
fn momentum_bit_flip_is_healed_bit_identically() {
    let (train, test) = toy_data();
    // Step 8: late enough that momentum buffers exist on every layer.
    let mut hook = BitFlip::at(8, 11).surfaces(&[SurfaceKind::Velocity]);
    let mut t = Trainer::new(toy_net(), guarded_cfg()).unwrap();
    let report = t.train_with_hooks(&train, &test, &mut hook).unwrap();
    assert_eq!(hook.records().len(), 1, "the flip landed");
    assert_eq!(hook.records()[0].kind, SurfaceKind::Velocity);
    assert_eq!(report.integrity.digest_violations, 1);
    assert_eq!(sans_integrity(report), baseline());
}

#[test]
fn gavg_ema_bit_flip_is_healed_bit_identically() {
    let (train, test) = toy_data();
    // Step 5: the profiler has sampled (interval 2), so EMAs exist.
    let mut hook = BitFlip::at(5, 13).surfaces(&[SurfaceKind::GavgEma]);
    let mut t = Trainer::new(toy_net(), guarded_cfg()).unwrap();
    let report = t.train_with_hooks(&train, &test, &mut hook).unwrap();
    assert_eq!(hook.records().len(), 1, "the flip landed");
    assert_eq!(report.integrity.digest_violations, 1);
    let ev = &report.integrity.events[0];
    assert_eq!(ev.param.as_deref(), Some("<gavg-ema>"));
    // A corrupted Gavg EMA would feed Algorithm 1 garbage and steer
    // bitwidths wrong; healed, the run is indistinguishable from clean.
    assert_eq!(sans_integrity(report), baseline());
}

/// Writes one bad value of its kind into the batch of global step 3 — a
/// flaky sensor or DMA engine, once. One-shot, as a skipped step does not
/// advance `global_step`.
struct CorruptOnce {
    kind: BatchFault,
    injected: usize,
}

impl StepHook for CorruptOnce {
    fn before_step(&mut self, info: &StepInfo, batch: &mut Batch) -> StepAction {
        if self.injected == 0 && info.global_step == 3 {
            self.injected = 1;
            let pixel = &mut batch.images.data_mut()[5];
            match self.kind {
                BatchFault::NanPixel => *pixel = f32::NAN,
                BatchFault::InfPixel => *pixel = f32::INFINITY,
                BatchFault::HugePixel => *pixel = 1e9,
                BatchFault::BadLabel => batch.labels[5] = usize::MAX,
            }
        }
        StepAction::Continue
    }
}

#[test]
fn corrupt_batch_is_skipped_and_accuracy_stays_close() {
    let clean = baseline();
    for kind in [
        BatchFault::NanPixel,
        BatchFault::InfPixel,
        BatchFault::HugePixel,
        BatchFault::BadLabel,
    ] {
        let (train, test) = toy_data();
        let mut hook = CorruptOnce { kind, injected: 0 };
        let mut t = Trainer::new(toy_net(), guarded_cfg()).unwrap();
        let report = t.train_with_hooks(&train, &test, &mut hook).unwrap();
        assert_eq!(hook.injected, 1);
        assert_eq!(report.integrity.skipped_batches, 1, "{kind:?}");
        assert_eq!(report.integrity.batch_violations, 1, "{kind:?}");
        // One dropped batch of 16 out of ~24 must not meaningfully move
        // final accuracy on this separable toy problem.
        assert!(
            (report.final_accuracy - clean.final_accuracy).abs() <= 0.1,
            "{kind:?}: faulty {} vs clean {}",
            report.final_accuracy,
            clean.final_accuracy
        );
    }
}

#[test]
fn saturated_layer_triggers_a_bit_raise() {
    let (train, test) = toy_data();
    let mut cfg = guarded_cfg();
    // Digests off so the rail-pin survives to the saturation check — the
    // guard's last line of defence, exercised in isolation.
    cfg.integrity = Some(IntegrityConfig {
        check_digests: false,
        ..Default::default()
    });
    // The first weight of at least 8 codes: fc0.weight.
    let mut hook = Saturator::at(4);
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    let report = t.train_with_hooks(&train, &test, &mut hook).unwrap();

    assert!(hook.forced() > 0, "the saturation landed");
    assert_eq!(report.integrity.saturation_violations, 1);
    assert_eq!(report.integrity.bit_raises, 1);
    // The attacked layer now trains at 7 bits (paper_apt starts at 6).
    let last = report.epochs.last().unwrap();
    let fc0 = last
        .layer_bits
        .iter()
        .find(|(n, _)| n == "fc0.weight")
        .unwrap();
    assert_eq!(fc0.1, 7);
    // And the run still converges like the clean one.
    let clean = baseline();
    assert!(
        (report.final_accuracy - clean.final_accuracy).abs() <= 0.1,
        "faulty {} vs clean {}",
        report.final_accuracy,
        clean.final_accuracy
    );
}

#[test]
fn unguarded_runs_record_the_hit_but_never_detect() {
    let (train, test) = toy_data();
    let mut hook = BitFlip::at(5, 7);
    let mut t = Trainer::new(toy_net(), base_cfg()).unwrap();
    let report = t.train_with_hooks(&train, &test, &mut hook).unwrap();
    assert_eq!(hook.records().len(), 1, "injection works without the guard");
    assert!(
        report.integrity.is_clean(),
        "no guard, no detection — the campaign's control arm"
    );
}

#[test]
fn sustained_flip_storm_is_survived_or_aborts_cleanly() {
    let (train, test) = toy_data();
    let mut hook = BitFlip::with_rate(0.5, 23).surfaces(&[
        SurfaceKind::Weight,
        SurfaceKind::Velocity,
        SurfaceKind::GavgEma,
    ]);
    let mut t = Trainer::new(toy_net(), guarded_cfg()).unwrap();
    match t.train_with_hooks(&train, &test, &mut hook) {
        Ok(report) => {
            // Every landed flip was caught: flips only touch digested
            // surfaces, and the run finished, so all were healed.
            assert!(report.integrity.digest_violations > 0);
            assert_eq!(
                report.integrity.healed_layers,
                report.integrity.digest_violations
            );
        }
        Err(e) => {
            // Back-to-back hits on the same scan budget may legitimately
            // exhaust the ladder; that must surface as the typed error.
            assert!(
                matches!(e, apt_core::CoreError::IntegrityViolation { .. }),
                "unexpected error: {e}"
            );
        }
    }
    assert!(!hook.records().is_empty());
}
