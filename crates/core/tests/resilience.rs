//! Fault-injection suite for the interruption-tolerant training runtime:
//! power cuts at arbitrary steps with bit-identical resume, checkpoint
//! corruption with CRC fallback, and divergence-sentinel recovery.

use apt_core::faults::{
    flip_byte, truncate_file, NoFaults, PowerCut, StepAction, StepHook, StepInfo,
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

/// Fills the images of `remaining` consecutive step attempts, from the
/// first at global step `from` on, with `payload`, and records every step
/// it is asked about. A skipped or rolled-back step does not advance
/// `global_step`, so its retry is the next attempt. NaN trips the
/// sentinel's input check, a huge finite value its loss-spike detector.
struct Fill {
    from: u64,
    remaining: usize,
    payload: f32,
    seen: Vec<u64>,
}

fn fill(from: u64, remaining: usize, payload: f32) -> Fill {
    Fill {
        from,
        remaining,
        payload,
        seen: Vec::new(),
    }
}

impl StepHook for Fill {
    fn before_step(&mut self, info: &StepInfo, batch: &mut Batch) -> StepAction {
        self.seen.push(info.global_step);
        if info.global_step >= self.from && self.remaining > 0 {
            self.remaining -= 1;
            batch.images.data_mut().fill(self.payload);
        }
        StepAction::Continue
    }
}

#[test]
fn nan_batch_triggers_rollback_and_the_run_completes() {
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    let report = t
        .train_with_hooks(&train, &test, &mut fill(5, 1, f32::NAN))
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
        .train_with_hooks(&train, &test, &mut fill(5, 1, 1e10))
        .unwrap();
    assert_eq!(report.epochs.len(), cfg.epochs);
    assert!(
        report.epochs[0].train_loss < 3.0,
        "spike was folded into the average: {}",
        report.epochs[0].train_loss
    );
}

#[test]
fn sentinel_ladder_halves_lr_then_escalates_bits() {
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    let mut t = Trainer::new(toy_net(), cfg.clone()).unwrap();
    // Three consecutive faults: skip → halve LR → +1 bit everywhere.
    let report = t
        .train_with_hooks(&train, &test, &mut fill(0, 3, f32::NAN))
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
        .train_with_hooks(&train, &test, &mut fill(0, usize::MAX, f32::NAN))
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
        .train_with_hooks(&train, &test, &mut fill(2, 1, 1e10))
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

/// `global_step`s of the visible state files in `dir`, oldest first, each
/// decoded (so its CRC checked) and returned with its bytes.
fn state_files(dir: &std::path::Path) -> Vec<(u64, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| entries.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "apts"));
    files.sort();
    files
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).unwrap();
            let state = apt_core::TrainState::decode(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (state.global_step, bytes)
        })
        .collect()
}

#[test]
fn a_power_cut_leaves_every_due_checkpoint_durable() {
    let (train, test) = toy_data();
    // Every file an uninterrupted run writes, to compare the cut runs'
    // files against byte for byte.
    let full_dir = tmp_dir("cut-full");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(CheckpointConfig {
        keep: 100,
        ..ck_cfg(&full_dir)
    });
    Trainer::new(toy_net(), cfg)
        .unwrap()
        .train(&train, &test)
        .unwrap();
    let full = state_files(&full_dir);
    assert_eq!(full.len(), 8, "4 epochs × 6 steps, every 3");
    let _ = std::fs::remove_dir_all(&full_dir);

    // A cut "after step 24" would come after the last step: the run ends.
    for kill_at in 1..24u64 {
        let dir = tmp_dir(&format!("cut{kill_at}"));
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(ck_cfg(&dir));
        let err = Trainer::new(toy_net(), cfg)
            .unwrap()
            .train_with_hooks(&train, &test, &mut PowerCut::after(kill_at))
            .unwrap_err();
        assert!(matches!(err, CoreError::Interrupted { .. }), "{err:?}");
        // What a synchronous writer leaves: the two newest due steps, the
        // one written just before the cut included.
        let due: Vec<u64> = (1..=kill_at).filter(|s| s % 3 == 0).collect();
        let expected = &due[due.len().saturating_sub(2)..];
        let found = state_files(&dir);
        let steps: Vec<u64> = found.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, expected, "cut after step {kill_at}");
        for (step, bytes) in &found {
            let same = full.iter().find(|(s, _)| s == step).map(|(_, b)| b);
            assert_eq!(same, Some(bytes), "cut {kill_at}: state-{step} differs");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_checkpoint_write_is_the_runs_error() {
    let (train, test) = toy_data();
    // A directory that cannot be created: its parent is a regular file.
    let file = tmp_dir("not-a-dir");
    std::fs::write(&file, b"x").unwrap();
    // Due every 3 steps, the failure is seen when the next one falls due;
    // due only after the last step, nothing but the run's end sees it.
    for every in [3, 24] {
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(CheckpointConfig {
            every,
            ..ck_cfg(&file.join("ck"))
        });
        let err = Trainer::new(toy_net(), cfg).unwrap().train(&train, &test);
        assert!(
            matches!(err, Err(CoreError::Io { .. })),
            "every {every}: {err:?}"
        );
    }
    let _ = std::fs::remove_file(&file);

    // A failure on the writer thread itself: the file is written, but a
    // non-empty directory holds the name it is renamed to.
    for every in [3, 24] {
        let dir = tmp_dir(&format!("blocked{every}"));
        std::fs::create_dir_all(dir.join(format!("state-{every:012}.apts/x"))).unwrap();
        let mut cfg = base_cfg();
        cfg.checkpoint = Some(CheckpointConfig {
            every,
            ..ck_cfg(&dir)
        });
        let err = Trainer::new(toy_net(), cfg).unwrap().train(&train, &test);
        assert!(
            matches!(err, Err(CoreError::Io { .. })),
            "blocked rename, every {every}: {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A directory that stops being one after the first write: the hook
    // replaces it with a file, so every later write fails.
    struct Clobber(PathBuf);
    impl StepHook for Clobber {
        fn before_step(&mut self, info: &StepInfo, _batch: &mut Batch) -> StepAction {
            // A write still in flight may recreate the directory: retry
            // until the file holds the name.
            while info.global_step == 4 && !self.0.is_file() {
                let _ = std::fs::remove_dir_all(&self.0);
                let _ = std::fs::write(&self.0, b"x");
            }
            StepAction::Continue
        }
    }
    let dir = tmp_dir("clobbered");
    let mut cfg = base_cfg();
    cfg.checkpoint = Some(ck_cfg(&dir));
    let err = Trainer::new(toy_net(), cfg).unwrap().train_with_hooks(
        &train,
        &test,
        &mut Clobber(dir.clone()),
    );
    assert!(matches!(err, Err(CoreError::Io { .. })), "{err:?}");
    let _ = std::fs::remove_file(&dir);
}

/// What a guarded cifarnet run with one rolled-back step ends with, as the
/// parent of the change that made the rollback copy a plain in-memory copy
/// (99b0385) produced it: `crc32(save_full)`, its length, the per-epoch
/// `train_loss` bits, the final accuracy bits, and the CRC of the newest
/// state file.
const BN_ROLLBACK_AT_99B0385: (u32, usize, [u64; 3], u64, u32) = (
    0x484F_06DF,
    4912,
    [
        0x4003_39AA_6000_0000,
        0x3FFD_FD61_5555_5555,
        0x3FF9_679D_F000_0000,
    ],
    0x3FD0_0000_0000_0000,
    0x552B_AA90,
);

#[test]
fn a_rolled_back_batch_norm_model_gets_its_running_stats_back() {
    use apt_data::{SynthCifar, SynthCifarConfig};
    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 4,
        train_per_class: 16,
        test_per_class: 6,
        img_size: 8,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    let net = models::cifarnet(
        4,
        8,
        0.25,
        &QuantScheme::paper_apt(),
        &mut apt_tensor::rng::seeded(11),
    )
    .unwrap();
    let dir = tmp_dir("bn-rollback");
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        policy: Some(apt_core::PolicyConfig::paper_default()),
        interval: 2,
        seed: 13,
        sentinel: Some(SentinelConfig::default()),
        // The batch screen lets the finite payload through to the
        // forward pass.
        integrity: Some(apt_core::IntegrityConfig {
            max_abs_input: f32::MAX,
            ..Default::default()
        }),
        checkpoint: Some(CheckpointConfig {
            dir: dir.clone(),
            every: 5,
            keep: 2,
        }),
        ..TrainConfig::default()
    };
    // `f32::MAX` pixels are finite, so they pass both input screens; the
    // first convolution overflows, the batch-norm layer folds the
    // non-finite batch statistics into its running statistics, and the
    // step is rolled back once its loss or gradients are looked at.
    let mut hook = fill(7, 1, f32::MAX);
    let mut t = Trainer::new(net, cfg).unwrap();
    let report = t
        .train_with_hooks(&data.train, &data.test, &mut hook)
        .unwrap();
    assert_eq!(
        hook.seen.iter().filter(|&&s| s == 7).count(),
        2,
        "step 7 was rolled back and retried"
    );
    let blob = apt_nn::checkpoint::save_full(t.network_mut());
    let mut loss_bits = [0u64; 3];
    for (slot, e) in loss_bits.iter_mut().zip(&report.epochs) {
        *slot = e.train_loss.to_bits();
    }
    let newest = state_files(&dir).pop().expect("a state file").1;
    let got = (
        apt_nn::checkpoint::crc32(&blob),
        blob.len(),
        loss_bits,
        report.final_accuracy.to_bits(),
        apt_nn::checkpoint::crc32(&newest),
    );
    assert_eq!(got, BN_ROLLBACK_AT_99B0385, "{got:#x?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the run of the next test ends with at 99b0385: `crc32(save_full)`,
/// the final `layer_bits` and the per-epoch `train_loss` bits.
/// Three of the five rollbacks escalate; each starts from the 6-bit clean
/// step again, so the run ends at 7 bits, not 9.
const ESCALATIONS_AT_99B0385: (u32, [u32; 2], [u64; 4]) = (
    0x4581_AC6C,
    [7, 7],
    [
        0x3FF5_C123_6CCC_CCCD,
        0x3FEB_5D7B_2000_0000,
        0x3FE2_21F9_5555_5555,
        0x3FCF_7E7C_CAAA_AAAB,
    ],
);

#[test]
fn escalated_rollbacks_return_to_the_last_clean_step() {
    // Five rolled-back attempts in a row with the guard and the sentinel
    // armed: the later ones raise precision, and each rollback goes back
    // to the last clean step, not to the state the previous rollback
    // escalated.
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig {
        max_retries: 6,
        ..Default::default()
    });
    cfg.integrity = Some(apt_core::IntegrityConfig {
        max_abs_input: f32::MAX,
        max_retries: 6,
        ..Default::default()
    });
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    let report = t
        .train_with_hooks(&train, &test, &mut fill(5, 5, f32::MAX))
        .unwrap();
    let blob = apt_nn::checkpoint::save_full(t.network_mut());
    let last = report.epochs.last().unwrap();
    let mut bits = [0u32; 2];
    for (slot, (_, k)) in bits.iter_mut().zip(&last.layer_bits) {
        *slot = *k;
    }
    let mut loss_bits = [0u64; 4];
    for (slot, e) in loss_bits.iter_mut().zip(&report.epochs) {
        *slot = e.train_loss.to_bits();
    }
    let got = (apt_nn::checkpoint::crc32(&blob), bits, loss_bits);
    assert_eq!(
        got, ESCALATIONS_AT_99B0385,
        "{got:#x?} {:?}",
        report.integrity
    );
}

/// At step `at`, pins most of `fc0.weight`'s codes to the top rail and
/// fills the batch with `f32::MAX`.
struct SaturateThenSpike {
    at: u64,
    fired: bool,
}

impl StepHook for SaturateThenSpike {
    fn inject(&mut self, info: &StepInfo, surface: &mut dyn apt_core::faults::FaultSurface) {
        if info.global_step == self.at && !self.fired {
            assert!(surface.saturate("fc0.weight") > 0);
        }
    }

    fn before_step(&mut self, info: &StepInfo, batch: &mut Batch) -> StepAction {
        if info.global_step == self.at && !self.fired {
            self.fired = true;
            batch.images.data_mut().fill(f32::MAX);
        }
        StepAction::Continue
    }
}

/// What the run of the next test ends with at 99b0385: `crc32(save_full)`,
/// the final `layer_bits` and the guard's bit-raise count.
const RAISE_THEN_ROLLBACK_AT_99B0385: (u32, [u32; 2], usize) = (0x566C_47D7, [6, 6], 1);

#[test]
fn a_rollback_undoes_a_saturation_raise_made_in_the_same_step() {
    // The saturation screen raises fc0.weight to 7 bits before the step's
    // forward pass; the step then rolls back, to the 6-bit clean step.
    let (train, test) = toy_data();
    let mut cfg = base_cfg();
    cfg.sentinel = Some(SentinelConfig::default());
    cfg.integrity = Some(apt_core::IntegrityConfig {
        check_digests: false,
        max_abs_input: f32::MAX,
        ..Default::default()
    });
    let mut t = Trainer::new(toy_net(), cfg).unwrap();
    let report = t
        .train_with_hooks(
            &train,
            &test,
            &mut SaturateThenSpike {
                at: 5,
                fired: false,
            },
        )
        .unwrap();
    let blob = apt_nn::checkpoint::save_full(t.network_mut());
    let last = report.epochs.last().unwrap();
    let mut bits = [0u32; 2];
    for (slot, (_, k)) in bits.iter_mut().zip(&last.layer_bits) {
        *slot = *k;
    }
    let got = (
        apt_nn::checkpoint::crc32(&blob),
        bits,
        report.integrity.bit_raises,
    );
    assert_eq!(got, RAISE_THEN_ROLLBACK_AT_99B0385, "{got:#x?}");
}
