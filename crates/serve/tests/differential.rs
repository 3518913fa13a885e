//! Differential proof that the serving path is the training eval path:
//! an [`InferenceSession`] loaded from a checkpoint must reproduce the
//! trainer's own `forward(Mode::Eval)` on the network that wrote the
//! checkpoint. (That a legacy v1/v2 blob loads to the same network as its
//! v3 re-save is `apt-nn`'s fixture test; once `load` returns, the version
//! is gone.)
//!
//! Two grades of agreement:
//!
//! * the checkpoint round trip is **bit-identical** — `forward(Mode::Eval)`
//!   on a network loaded from the blob runs the same layer kernels on the
//!   same weights as the trainer's eval forward;
//! * the **frozen** session folds BatchNorm into conv weights at compile
//!   time, which reassociates per-channel float multiplies, so its logits
//!   agree with that reference within a small relative tolerance.

use apt_core::{PolicyConfig, TrainConfig, Trainer};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_nn::{checkpoint, Mode, Network};
use apt_optim::LrSchedule;
use apt_serve::{InferenceSession, ModelArch, ModelSpec};
use apt_tensor::Tensor;

fn spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: 3,
        img_size: 8,
        width_mult: 0.25,
    }
}

/// A short real training run (APT policy on, batch norm collecting running
/// stats) so the checkpoint carries non-trivial quantisers and BN state.
fn trained_network() -> Network {
    let data = SynthCifar::generate(&SynthCifarConfig {
        num_classes: 3,
        train_per_class: 16,
        test_per_class: 6,
        img_size: 8,
        seed: 7,
        ..Default::default()
    })
    .unwrap();
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        schedule: LrSchedule::Constant(0.05),
        interval: 1,
        policy: Some(PolicyConfig::default()),
        ..Default::default()
    };
    let net = spec().build().unwrap();
    let mut t = Trainer::new(net, cfg).unwrap();
    t.train(&data.train, &data.test).unwrap();
    // Steal the trained network back out of the trainer via a checkpoint
    // round trip (Trainer keeps ownership of its Network).
    let blob = checkpoint::save_full(t.network_mut());
    let mut fresh = spec().build().unwrap();
    checkpoint::load(&mut fresh, &blob).unwrap();
    fresh
}

fn eval_logits(net: &mut Network, batch: &Tensor) -> Vec<u32> {
    net.forward(batch, Mode::Eval)
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn session_matches_trainer_eval_after_checkpoint_round_trip() {
    let samples: Vec<Vec<f32>> = (0..4)
        .map(|i| {
            (0..3 * 8 * 8)
                .map(|j| ((i * 97 + j * 13) % 29) as f32 * 0.07 - 1.0)
                .collect()
        })
        .collect();
    let flat: Vec<f32> = samples.iter().flatten().copied().collect();
    let batch = Tensor::from_vec(flat, &[4, 3, 8, 8]).unwrap();

    let mut net = trained_network();
    let want = eval_logits(&mut net, &batch);
    let blob = checkpoint::save_full(&mut net);

    // Exact reference: eval forward on the loaded network.
    let mut loaded = spec().build().unwrap();
    checkpoint::load(&mut loaded, &blob).unwrap();
    let exact = loaded.forward(&batch, Mode::Eval).unwrap();
    let got: Vec<u32> = exact.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "loaded eval logits diverged from trainer eval");
    let rows: Vec<&[f32]> = (0..4).map(|i| exact.row(i).unwrap()).collect();
    // Frozen path: BN folding drifts only by float reassociation.
    let frozen = InferenceSession::from_checkpoint(&spec(), &blob).unwrap();
    let frows = frozen.infer_samples(&samples).unwrap();
    for (row, frow) in rows.iter().zip(&frows) {
        let scale = row.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (&e, &g) in row.iter().zip(frow) {
            assert!(
                (e - g).abs() <= 1e-4 * scale,
                "frozen logits drifted past tolerance: {e} vs {g}"
            );
        }
    }
}
