//! Fault-injection suite for the interruption-tolerant training runtime:
//! power cuts at arbitrary steps with bit-identical resume, checkpoint
//! corruption with CRC fallback, and divergence-sentinel recovery.

use apt_core::faults::{
    flip_byte, truncate_file, NanBomb, NoFaults, PowerCut, StepAction, StepHook, StepInfo,
};
use apt_core::{
    latest_valid, CheckpointConfig, CoreError, SentinelConfig, TrainConfig, TrainReport, Trainer,
};
use apt_data::{blobs, Batch, Dataset};
use apt_nn::{models, Network, QuantScheme};
use apt_optim::LrSchedule;
use std::path::PathBuf;

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

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ck_cfg(dir: &std::path::Path) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        every: 3,
        keep: 2,
    }
}

/// The reference: an uninterrupted run with no checkpointing.
fn baseline() -> TrainReport {
    let (train, test) = toy_data();
    let mut t = Trainer::new(toy_net(), base_cfg()).unwrap();
    t.train(&train, &test).unwrap()
}

#[test]
fn checkpointing_does_not_perturb_training() {
    let dir = tmp_dir("invariant");
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck_cfg(&dir));
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    let with_ck = t.train(&train, &test).unwrap();
    assert_eq!(with_ck, baseline());
    assert!(latest_valid(&dir).unwrap().is_some(), "checkpoints written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn armed_sentinel_is_invisible_on_a_clean_run() {
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    assert_eq!(t.train(&train, &test).unwrap(), baseline());
}

#[test]
fn kill_anywhere_then_resume_is_bit_identical() {
    let reference = baseline();
    let (train, test) = toy_data();
    // 4 epochs × 6 batches = 24 steps; cover "before any checkpoint",
    // mid-run on/off the checkpoint cadence, and the very last step.
    for kill_at in [1, 5, 9, 16, 23] {
        let dir = tmp_dir(&format!("kill{kill_at}"));
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(ck_cfg(&dir));

        let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
        let err = t
            .train_with_hooks(&train, &test, &mut PowerCut::after(kill_at))
            .unwrap_err();
        assert!(matches!(err, CoreError::Interrupted { .. }), "{err:?}");
        // Power-cut semantics: nothing newer than the cut may exist.
        if let Some((_, state)) = latest_valid(&dir).unwrap() {
            assert!(state.global_step <= kill_at);
        }

        let mut t2 = Trainer::new(toy_net(), cfg).unwrap();
        let resumed = t2.resume_from_dir(&train, &test).unwrap();
        assert_eq!(resumed, reference, "kill at step {kill_at} diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `(global_step, bytes, crc32)` of every state file a run armed with the
/// sentinel, the integrity guard, Algorithm 1 and checkpoints writes, as
/// the parent of the change that made `Trainer` refill one snapshot in
/// place (5d8c73f) wrote them. The files cross three epoch boundaries and a
/// precision change, so the recycled buffers shrink, grow and change tier.
const STATE_FILES_AT_5D8C73F: [(u64, usize, u32); 8] = [
    (3, 1312, 0x2882_E08C),
    (6, 1312, 0x55F4_CD77),
    (9, 1510, 0x16A9_BC30),
    (12, 1510, 0x2731_F159),
    (15, 1738, 0x53FD_36B0),
    (18, 1738, 0x1436_5A7D),
    (21, 1966, 0x04DD_B3F4),
    (24, 1966, 0xD164_20CA),
];

#[test]
fn recycled_snapshots_write_the_state_files_a_fresh_capture_wrote() {
    let dir = tmp_dir("recycled");
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    cfg.integrity = Some(apt_core::IntegrityConfig::default());
    cfg.policy = Some(apt_core::PolicyConfig::paper_default());
    cfg.checkpoint = Some(CheckpointConfig {
        dir: dir.clone(),
        every: 3,
        keep: 8,
    });
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    let report = t.train(&train, &test).unwrap();
    assert!(report.integrity.is_clean());
    assert!(report.epochs.iter().any(|e| !e.changes.is_empty()));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let written: Vec<(u64, usize, u32)> = files
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).unwrap();
            let state = apt_core::TrainState::decode(&bytes).unwrap();
            let crc = apt_nn::checkpoint::crc32(&bytes);
            (state.global_step, bytes.len(), crc)
        })
        .collect();
    assert_eq!(written, STATE_FILES_AT_5D8C73F, "{written:#x?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous_good_one() {
    let reference = baseline();
    let (train, test) = toy_data();
    let dir = tmp_dir("crc-fallback");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck_cfg(&dir));

    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    t.train_with_hooks(&train, &test, &mut PowerCut::after(14))
        .unwrap_err();
    let (newest, before) = latest_valid(&dir).unwrap().unwrap();
    // Flip one payload byte: the CRC must reject the file and the scan
    // must fall back to the previous checkpoint.
    flip_byte(&newest, 40, 0x04).unwrap();
    let (fallback, after) = latest_valid(&dir).unwrap().unwrap();
    assert_ne!(fallback, newest);
    assert!(after.global_step < before.global_step);

    let mut t2 = Trainer::new(toy_net(), cfg).unwrap();
    assert_eq!(t2.resume_from_dir(&train, &test).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_is_rejected_and_run_still_recovers() {
    let reference = baseline();
    let (train, test) = toy_data();
    let dir = tmp_dir("truncate");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck_cfg(&dir));

    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    t.train_with_hooks(&train, &test, &mut PowerCut::after(20))
        .unwrap_err();
    let (newest, _) = latest_valid(&dir).unwrap().unwrap();
    truncate_file(&newest, 100).unwrap();
    let (fallback, _) = latest_valid(&dir).unwrap().unwrap();
    assert_ne!(fallback, newest);

    let mut t2 = Trainer::new(toy_net(), cfg).unwrap();
    assert_eq!(t2.resume_from_dir(&train, &test).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_checkpoints_corrupt_means_fresh_start() {
    let reference = baseline();
    let (train, test) = toy_data();
    let dir = tmp_dir("all-corrupt");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck_cfg(&dir));

    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    t.train_with_hooks(&train, &test, &mut PowerCut::after(10))
        .unwrap_err();
    // Corrupt every checkpoint on disk.
    while let Some((path, _)) = latest_valid(&dir).unwrap() {
        flip_byte(&path, 20, 0xFF).unwrap();
    }
    // Deterministic training: restarting from scratch reproduces the
    // reference bit for bit.
    let mut t2 = Trainer::new(toy_net(), cfg).unwrap();
    assert_eq!(t2.resume_from_dir(&train, &test).unwrap(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejects_checkpoint_from_a_different_run() {
    let (train, test) = toy_data();
    let dir = tmp_dir("wrong-run");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck_cfg(&dir));
    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    t.train_with_hooks(&train, &test, &mut PowerCut::after(10))
        .unwrap_err();
    let (_, state) = latest_valid(&dir).unwrap().unwrap();

    let mut other = cfg;
    other.seed = 43;
    let mut t2 = Trainer::new(toy_net(), other).unwrap();
    let err = t2
        .run(&train, &test, Some(state), &mut NoFaults, None)
        .unwrap_err();
    assert!(matches!(err, CoreError::BadConfig { .. }), "{err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nan_batch_triggers_rollback_and_the_run_completes() {
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    let report = t
        .train_with_hooks(&train, &test, &mut NanBomb::at(5))
        .unwrap();
    assert_eq!(report.epochs.len(), cfg.epochs, "run must complete");
    for e in &report.epochs {
        assert!(e.train_loss.is_finite());
    }
    // The poisoned batch was skipped, not folded into the loss average.
    assert!(report.final_accuracy > 0.5, "acc={}", report.final_accuracy);
}

#[test]
fn loss_spike_triggers_rollback_via_the_ema_detector() {
    // A huge *finite* payload slips past the input check but blows the
    // loss up to ≈ −ln(1e-12): the spike detector must contain it.
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    let report = t
        .train_with_hooks(&train, &test, &mut NanBomb::with_payload(5, 1e10))
        .unwrap();
    assert_eq!(report.epochs.len(), cfg.epochs);
    assert!(
        report.epochs[0].train_loss < 3.0,
        "spike was folded into the average: {}",
        report.epochs[0].train_loss
    );
}

/// Poisons the next `remaining` batches it sees, whatever their step.
struct NanBurst {
    remaining: usize,
}

impl StepHook for NanBurst {
    fn before_step(&mut self, _info: &StepInfo, batch: &mut Batch) -> StepAction {
        if self.remaining > 0 {
            self.remaining -= 1;
            for x in batch.images.data_mut() {
                *x = f32::NAN;
            }
        }
        StepAction::Continue
    }
}

#[test]
fn sentinel_ladder_halves_lr_then_escalates_bits() {
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    // Three consecutive faults: skip → halve LR → +1 bit everywhere.
    let report = t
        .train_with_hooks(&train, &test, &mut NanBurst { remaining: 3 })
        .unwrap();
    assert_eq!(report.epochs.len(), cfg.epochs);
    let last = report.epochs.last().unwrap();
    assert!(
        (f64::from(last.lr) - 0.025).abs() < 1e-9,
        "LR should be halved once, got {}",
        last.lr
    );
    // paper_apt starts every weight at 6 bits; the third rung raised them.
    assert!(last.layer_bits.iter().all(|&(_, b)| b == 7), "{last:?}");
}

/// Poisons every batch — unrecoverable divergence.
struct AlwaysNan;

impl StepHook for AlwaysNan {
    fn before_step(&mut self, _info: &StepInfo, batch: &mut Batch) -> StepAction {
        for x in batch.images.data_mut() {
            *x = f32::NAN;
        }
        StepAction::Continue
    }
}

#[test]
fn sustained_divergence_aborts_with_typed_error_after_retries() {
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig {
        max_retries: 3,
        ..Default::default()
    });
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    let err = t
        .train_with_hooks(&train, &test, &mut AlwaysNan)
        .unwrap_err();
    match err {
        CoreError::Diverged {
            epoch,
            retries,
            loss,
            ..
        } => {
            assert_eq!(epoch, 0);
            assert_eq!(retries, 3);
            assert!(loss.is_nan());
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

#[test]
fn sentinel_disarmed_lets_a_poisoned_batch_corrupt_the_stats() {
    // Control experiment: without the sentinel the same fault corrupts the
    // epoch statistics instead of being contained.
    let (train, test) = toy_data();
    let mut t = Trainer::new(toy_net(), base_cfg()).unwrap();
    let report = t
        .train_with_hooks(&train, &test, &mut NanBomb::with_payload(2, 1e10))
        .unwrap();
    assert!(
        report.epochs[0].train_loss > 3.0,
        "loss average should be poisoned without the sentinel, got {}",
        report.epochs[0].train_loss
    );
}

#[test]
fn resume_from_dir_without_config_is_an_error() {
    let (train, test) = toy_data();
    let mut t = Trainer::new(toy_net(), base_cfg()).unwrap();
    assert!(matches!(
        t.resume_from_dir(&train, &test),
        Err(CoreError::BadConfig { .. })
    ));
}
