//! Behavioural tests of Algorithm 2's knobs: evaluation cadence,
//! augmentation, Gavg sampling interval and gradient quantisation.

use apt_core::{GradQuant, PolicyConfig, TrainConfig, Trainer};
use apt_data::{blobs, AugmentConfig, Dataset, SynthCifar, SynthCifarConfig};
use apt_nn::{models, QuantScheme};
use apt_optim::{LrSchedule, SgdConfig};
use apt_quant::{Bitwidth, RoundingMode};
use apt_tensor::rng::seeded;

fn toy() -> (Dataset, Dataset) {
    blobs(3, 40, 6, 0.35, 11)
        .unwrap()
        .split_shuffled(90, 12)
        .unwrap()
}

fn base(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        sgd: SgdConfig {
            momentum: 0.9,
            weight_decay: 0.0,
            ..Default::default()
        },
        augment: None,
        seed: 13,
        ..Default::default()
    }
}

#[test]
fn eval_every_carries_accuracy_forward() {
    let (train, test) = toy();
    let net = models::mlp("m", &[6, 12, 3], &QuantScheme::float32(), &mut seeded(1)).unwrap();
    let mut cfg = base(7);
    cfg.eval_every = 3;
    let mut t = Trainer::new(net, cfg).unwrap();
    let r = t.train(&train, &test).unwrap();
    // Epochs 0,3,6 evaluate fresh; 1-2 and 4-5 repeat the previous value.
    assert_eq!(r.epochs[1].test_accuracy, r.epochs[0].test_accuracy);
    assert_eq!(r.epochs[2].test_accuracy, r.epochs[0].test_accuracy);
    assert_eq!(r.epochs[4].test_accuracy, r.epochs[3].test_accuracy);
    // Final epoch always evaluates.
    assert_eq!(r.final_accuracy, r.epochs.last().unwrap().test_accuracy);
}

#[test]
fn augmentation_changes_the_training_stream_only() {
    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 3,
        train_per_class: 12,
        test_per_class: 6,
        img_size: 8,
        seed: 2,
        ..Default::default()
    })
    .unwrap();
    let run = |augment: Option<AugmentConfig>| {
        let net = models::cifarnet(3, 8, 0.25, &QuantScheme::float32(), &mut seeded(3)).unwrap();
        let mut cfg = base(3);
        cfg.augment = augment;
        let mut t = Trainer::new(net, cfg).unwrap();
        t.train(&data.train, &data.test).unwrap()
    };
    let plain = run(None);
    let augmented = run(Some(AugmentConfig::default()));
    // Same seeds but different pixel streams ⇒ different training losses.
    assert_ne!(plain.epochs[0].train_loss, augmented.epochs[0].train_loss);
}

#[test]
fn interval_controls_profile_granularity_not_correctness() {
    let (train, test) = toy();
    for interval in [1usize, 2, 8] {
        let net = models::mlp("m", &[6, 12, 3], &QuantScheme::paper_apt(), &mut seeded(4)).unwrap();
        let mut cfg = base(4);
        cfg.interval = interval;
        cfg.policy = Some(PolicyConfig::paper_default());
        let mut t = Trainer::new(net, cfg).unwrap();
        let r = t.train(&train, &test).unwrap();
        assert!(
            !r.epochs.last().unwrap().gavg.is_empty(),
            "interval={interval}: profile must exist"
        );
    }
}

#[test]
fn fixed_grad_quant_coarsens_gradients_but_still_learns() {
    let (train, test) = toy();
    let run = |gq: GradQuant| {
        let net = models::mlp("m", &[6, 16, 3], &QuantScheme::float32(), &mut seeded(5)).unwrap();
        let mut cfg = base(10);
        cfg.grad_quant = gq;
        let mut t = Trainer::new(net, cfg).unwrap();
        t.train(&train, &test).unwrap()
    };
    let coarse = run(GradQuant::Fixed(Bitwidth::new(4).unwrap()));
    let fine = run(GradQuant::Fixed(Bitwidth::new(8).unwrap()));
    assert!(
        coarse.final_accuracy > 0.5,
        "coarse={}",
        coarse.final_accuracy
    );
    assert!(fine.final_accuracy > 0.5, "fine={}", fine.final_accuracy);
}

#[test]
fn layer_bits_accessor_matches_report() {
    let (train, test) = toy();
    let net = models::mlp("m", &[6, 12, 3], &QuantScheme::paper_apt(), &mut seeded(6)).unwrap();
    let mut cfg = base(3);
    cfg.policy = Some(PolicyConfig::paper_default());
    let mut t = Trainer::new(net, cfg).unwrap();
    let r = t.train(&train, &test).unwrap();
    assert_eq!(t.layer_bits(), r.epochs.last().unwrap().layer_bits);
    assert!(r.total_energy_pj > 0.0);
}

#[test]
fn into_network_returns_the_trained_model() {
    let (train, test) = toy();
    let net = models::mlp("m", &[6, 12, 3], &QuantScheme::float32(), &mut seeded(7)).unwrap();
    let mut t = Trainer::new(net, base(4)).unwrap();
    let _ = t.train(&train, &test).unwrap();
    let trained = t.into_network();
    assert_eq!(trained.name(), "m");
    assert!(trained.num_params() > 0);
}

#[test]
fn early_stopping_truncates_the_run() {
    let (train, test) = toy();
    let run = |patience: Option<usize>| {
        let net = models::mlp("m", &[6, 16, 3], &QuantScheme::float32(), &mut seeded(31)).unwrap();
        let mut cfg = base(40);
        cfg.early_stop_patience = patience;
        let mut t = Trainer::new(net, cfg).unwrap();
        t.train(&train, &test).unwrap()
    };
    let full = run(None);
    let stopped = run(Some(3));
    assert_eq!(full.epochs.len(), 40);
    assert!(
        stopped.epochs.len() < 40,
        "patience 3 should stop early on a toy task: ran {}",
        stopped.epochs.len()
    );
    // Early stopping saves energy without sacrificing the best accuracy by
    // more than noise.
    assert!(stopped.total_energy_pj < full.total_energy_pj);
    assert!(stopped.best_accuracy >= full.best_accuracy - 0.15);
}

#[test]
fn early_stopping_respects_eval_cadence() {
    let (train, test) = toy();
    let net = models::mlp("m", &[6, 12, 3], &QuantScheme::float32(), &mut seeded(32)).unwrap();
    let mut cfg = base(30);
    cfg.eval_every = 5;
    cfg.early_stop_patience = Some(2);
    let mut t = Trainer::new(net, cfg).unwrap();
    let r = t.train(&train, &test).unwrap();
    // With evaluation every 5 epochs and patience 2, the earliest stop is
    // after the third evaluation (epoch 10); the run can never stop before.
    assert!(
        r.epochs.len() >= 11 || r.epochs.len() == 30,
        "len={}",
        r.epochs.len()
    );
}

#[test]
fn adam_optimizer_composes_with_apt() {
    // §III-B: Gavg excludes optimiser factors so "sophisticated
    // optimisers" can sit on top — train APT with Adam end-to-end.
    let (train, test) = toy();
    let net = models::mlp("m", &[6, 16, 3], &QuantScheme::paper_apt(), &mut seeded(41)).unwrap();
    let mut cfg = base(12);
    cfg.optimizer = apt_core::OptimizerKind::Adam(apt_optim::AdamConfig::default());
    cfg.schedule = LrSchedule::Constant(0.005);
    cfg.policy = Some(PolicyConfig::paper_default());
    let mut t = Trainer::new(net, cfg).unwrap();
    let r = t.train(&train, &test).unwrap();
    assert!(r.final_accuracy > 0.6, "acc={}", r.final_accuracy);
    // Gavg profiling and the policy still ran.
    assert!(!r.epochs.last().unwrap().gavg.is_empty());
    let total_changes: usize = r.epochs.iter().map(|e| e.changes.len()).sum();
    assert!(total_changes > 0, "policy should adapt under Adam too");
}

#[test]
fn quantised_training_peaks_below_fp32_resident_memory() {
    // The memory saving is physical through a whole APT run — policy
    // re-packs, stochastic rounding, range expansion — for per-tensor and
    // per-channel stores alike. The hidden layers are wide enough that the
    // per-channel quantisers (one per output row, counted resident) do not
    // swamp the code bytes.
    let (train, test) = toy();
    let run = |scheme: &QuantScheme| {
        let net = models::mlp("m", &[6, 32, 32, 3], scheme, &mut seeded(0)).unwrap();
        let mut cfg = base(4);
        cfg.interval = 2;
        cfg.policy = Some(PolicyConfig::default());
        cfg.sgd.rounding = RoundingMode::Stochastic;
        let mut t = Trainer::new(net, cfg).unwrap();
        t.train(&train, &test).unwrap()
    };
    let fp32_peak = run(&QuantScheme::float32()).peak_resident_bytes;
    for scheme in [
        QuantScheme::paper_apt(),
        QuantScheme::per_channel(Bitwidth::new(6).unwrap()),
    ] {
        let r = run(&scheme);
        assert!(
            r.peak_resident_bytes < fp32_peak,
            "{scheme:?}: peak {} not below fp32 {fp32_peak}",
            r.peak_resident_bytes
        );
        let changes: usize = r.epochs.iter().map(|e| e.changes.len()).sum();
        assert!(changes > 0, "{scheme:?}: Alg. 1 never re-packed a layer");
    }
}
