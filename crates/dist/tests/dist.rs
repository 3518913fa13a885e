//! Acceptance tests for the distributed trainer:
//!
//! 1. a 1-worker `DistTrainer` run is **bit-identical** to the
//!    single-process `Trainer` (byte-equal report and checkpoint files);
//! 2. multi-worker runs are bit-reproducible run-to-run, replicas stay in
//!    lockstep, and the k = 4 exchange moves < 0.2× the fp32 bytes;
//! 3. kill-anywhere crash recovery: a rank power-cut at any step resumes
//!    from the lockstep checkpoints and finishes with reports bit-identical
//!    to the uninterrupted fleet's;
//! 4. all of 2–3 on a batch-norm net, whose running statistics every rank
//!    updates from its own shard and the exchange has to make identical.

use apt_core::{CheckpointConfig, PolicyConfig, TrainConfig, TrainReport, Trainer};
use apt_data::{Dataset, SynthCifar, SynthCifarConfig};
use apt_dist::{DistConfig, DistFault, DistTrainer};
use apt_nn::{models, Network, QuantScheme};
use apt_quant::Bitwidth;
use apt_tensor::rng;
use std::fs;
use std::path::{Path, PathBuf};

fn data() -> SynthCifar {
    SynthCifar::generate(&SynthCifarConfig {
        num_classes: 2,
        train_per_class: 8,
        test_per_class: 2,
        img_size: 6,
        seed: 3,
        ..SynthCifarConfig::default()
    })
    .unwrap()
}

fn replica() -> apt_core::Result<Network> {
    models::mlp(
        "dist-mlp",
        &[108, 16, 2],
        &QuantScheme::paper_apt(),
        &mut rng::seeded(7),
    )
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

fn dist_cfg(world: usize, ckpt_root: Option<&Path>) -> DistConfig {
    DistConfig {
        world,
        grad_bits: Bitwidth::new(4).unwrap(),
        train: base_cfg(ckpt_root),
        max_recovery_rounds: 3,
    }
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apt-dist-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// `(file name, bytes)` of every checkpoint in `dir`, sorted by name.
fn checkpoint_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "apts"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

fn run_dist(
    world: usize,
    ckpt_root: Option<&Path>,
    train: &Dataset,
    test: &Dataset,
    fault: Option<DistFault>,
) -> apt_dist::DistReport {
    DistTrainer::new(dist_cfg(world, ckpt_root), replica)
        .unwrap()
        .train_with_fault(train, test, fault)
        .unwrap()
}

/// The batch-norm fleet's data: 8 × 8 images (cifarnet pools twice), 24 to
/// train on so worlds 2 and 3 shard evenly, and a test split large enough
/// that replicas evaluating with different running statistics disagree on
/// some image.
fn bn_data() -> SynthCifar {
    SynthCifar::generate(&SynthCifarConfig {
        num_classes: 2,
        train_per_class: 12,
        test_per_class: 100,
        img_size: 8,
        seed: 5,
        ..SynthCifarConfig::default()
    })
    .unwrap()
}

fn bn_replica() -> apt_core::Result<Network> {
    models::cifarnet(2, 8, 0.25, &QuantScheme::paper_apt(), &mut rng::seeded(7))
        .map_err(apt_core::CoreError::from)
}

#[test]
fn one_worker_is_bit_identical_to_single_process_trainer() {
    let data = data();
    let dir_single = tmp("single");
    let dir_dist = tmp("world1");

    let mut trainer = Trainer::new(replica().unwrap(), base_cfg(Some(&dir_single))).unwrap();
    let report_single: TrainReport = trainer.train(&data.train, &data.test).unwrap();

    let report_dist = run_dist(1, Some(&dir_dist), &data.train, &data.test, None);
    assert_eq!(report_dist.reports.len(), 1);
    assert_eq!(
        report_dist.reports[0], report_single,
        "world=1 must take the exact single-process path"
    );
    assert_eq!(report_dist.recovery_rounds, 0);
    assert_eq!(
        report_dist.exchange().bytes_on_wire,
        0,
        "no exchange at world=1"
    );

    // The persisted evidence must match byte for byte, file for file.
    let single_files = checkpoint_files(&dir_single);
    let dist_files = checkpoint_files(&dir_dist.join("rank0"));
    assert!(!single_files.is_empty());
    assert_eq!(single_files, dist_files, "checkpoints must be byte-equal");

    let _ = fs::remove_dir_all(&dir_single);
    let _ = fs::remove_dir_all(&dir_dist);
}

#[test]
fn multi_worker_runs_are_bit_reproducible_and_in_lockstep() {
    let data = data();
    for world in [2usize, 4] {
        let a = run_dist(world, None, &data.train, &data.test, None);
        let b = run_dist(world, None, &data.train, &data.test, None);
        assert_eq!(a, b, "world={world}: same inputs ⇒ bit-identical runs");
        assert_eq!(a.reports.len(), world);
        assert!(
            a.replicas_in_lockstep(),
            "world={world}: replicated state must agree on every rank"
        );
        // Every rank reports the same (analytic) exchange accounting, and
        // every step was digest-gated.
        let ex = a.exchange();
        for st in &a.per_rank_exchange {
            assert_eq!(*st, ex);
        }
        let shard = data.train.len() / world;
        let steps = 3 * (shard / 2); // epochs × (shard / batch_size)
        assert_eq!(ex.steps, steps as u64);
        assert_eq!(ex.digest_checks, ex.steps);
        // The tentpole bandwidth claim: k=4 codes (plus headers and the
        // widened integer sums) stay under 0.2× the fp32 exchange.
        assert!(
            ex.wire_ratio() < 0.2,
            "world={world}: wire ratio {:.3} too high",
            ex.wire_ratio()
        );
        // Comm energy is charged: the distributed arms must not be free.
        assert!(a.reports[0].total_energy_pj > 0.0);
    }
}

#[test]
fn killed_rank_recovers_bit_identically_anywhere_in_the_run() {
    let data = data();
    let world = 2usize;
    // 8-sample shards, batch 2 ⇒ 4 steps/epoch ⇒ 12 global steps.
    let dir_base = tmp("recovery-base");
    let base = run_dist(world, Some(&dir_base), &data.train, &data.test, None);
    assert_eq!(base.recovery_rounds, 0);

    // Kill either rank at steps spanning epoch starts, mid-epoch and the
    // checkpoint cadence itself (every = 2).
    for (i, at_step) in [1u64, 3, 5, 10].into_iter().enumerate() {
        let rank = i % world;
        let dir = tmp(&format!("recovery-{at_step}-{rank}"));
        let hurt = run_dist(
            world,
            Some(&dir),
            &data.train,
            &data.test,
            Some(DistFault { rank, at_step }),
        );
        assert_eq!(hurt.recovery_rounds, 1, "at_step={at_step}");
        assert_eq!(
            hurt.reports, base.reports,
            "kill rank {rank} at step {at_step}: recovered reports must be \
             bit-identical to the uninterrupted fleet's"
        );
        // And the persisted end state matches too.
        for r in 0..world {
            let base_files = checkpoint_files(&dir_base.join(format!("rank{r}")));
            let hurt_files = checkpoint_files(&dir.join(format!("rank{r}")));
            assert_eq!(
                base_files
                    .last()
                    .map(|(n, b)| (n.clone(), b.len(), b.clone())),
                hurt_files
                    .last()
                    .map(|(n, b)| (n.clone(), b.len(), b.clone())),
                "rank {r} newest checkpoint must be byte-equal"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&dir_base);
}

#[test]
fn batch_norm_fleet_is_in_lockstep_reproducible_and_recovers() {
    let data = bn_data();
    for world in [2usize, 3] {
        let run = |tag: &str, fault| {
            let dir = tmp(&format!("bn-{world}-{tag}"));
            let report = DistTrainer::new(dist_cfg(world, Some(&dir)), bn_replica)
                .unwrap()
                .train_with_fault(&data.train, &data.test, fault)
                .unwrap();
            let _ = fs::remove_dir_all(&dir);
            report
        };
        let base = run("base", None);
        assert!(
            base.replicas_in_lockstep(),
            "world={world}: every rank must evaluate with the same running statistics"
        );
        assert_eq!(base.reports.len(), world);
        assert_eq!(base.recovery_rounds, 0);
        assert_eq!(base, run("again", None), "world={world}: run to run");
        // A death after the first checkpoint and off the cadence: the
        // relaunched fleet resumes buffers the exchange had already made
        // equal, and ends on the same bytes.
        let rank = world - 1;
        let hurt = run("hurt", Some(DistFault { rank, at_step: 5 }));
        assert_eq!(hurt.recovery_rounds, 1, "world={world}");
        assert_eq!(hurt.reports, base.reports, "world={world}");
        assert_eq!(hurt.model, base.model, "world={world}");
    }
}

#[test]
fn fault_outside_the_world_is_rejected() {
    let data = data();
    let err = DistTrainer::new(dist_cfg(2, None), replica)
        .unwrap()
        .train_with_fault(
            &data.train,
            &data.test,
            Some(DistFault {
                rank: 2,
                at_step: 0,
            }),
        )
        .unwrap_err();
    assert!(matches!(err, apt_core::CoreError::BadConfig { .. }));
}

#[test]
fn unrecoverable_crash_surfaces_after_the_budget() {
    let data = data();
    // No checkpoints and a fault that re-fires is impossible here (faults
    // only run in round 0), so instead exhaust the budget directly: zero
    // recovery rounds means the first interruption is terminal.
    let mut cfg = dist_cfg(2, None);
    cfg.max_recovery_rounds = 0;
    let err = DistTrainer::new(cfg, replica)
        .unwrap()
        .train_with_fault(
            &data.train,
            &data.test,
            Some(DistFault {
                rank: 1,
                at_step: 2,
            }),
        )
        .unwrap_err();
    assert!(
        matches!(err, apt_core::CoreError::Interrupted { .. }),
        "the root cause (the power cut), not a secondary PeerLost, must surface: {err:?}"
    );
}
