//! Differential proof that the serving path is the training eval path:
//! an [`InferenceSession`] loaded from a checkpoint must reproduce the
//! trainer's own `forward(Mode::Eval)` on the network that wrote the
//! checkpoint. (That a frozen blob loads to the network it was saved from
//! is `apt-nn`'s fixture test.)
//!
//! Two grades of agreement:
//!
//! * the checkpoint round trip is **bit-identical** — `forward(Mode::Eval)`
//!   on a network loaded from the blob runs the same layer kernels on the
//!   same weights as the trainer's eval forward;
//! * the **frozen** session folds BatchNorm into conv weights at compile
//!   time, which reassociates per-channel float multiplies, so its logits
//!   agree with that reference within a small relative tolerance; a
//!   BN-free MLP folds nothing and matches it to the bit. Every backbone
//!   of the model zoo is swept.

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

/// Every backbone the model zoo serves, fresh at paper-APT precision,
/// `save_full` → `from_checkpoint`, against `forward(Mode::Eval)` on a
/// network loaded from the same blob: the BN-free MLP to the bit, the
/// BatchNorm nets within the fold's reassociation drift (`1e-4` of the
/// largest logit magnitude, floored at 1). The plan's own weights must be
/// counted resident on top of the network's stores.
#[test]
fn every_backbone_serves_its_eval_forward() {
    let backbones = [
        ModelSpec {
            arch: ModelArch::Mlp(vec![48, 32, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        },
        spec(),
        ModelSpec {
            arch: ModelArch::VggSmall,
            ..spec()
        },
        ModelSpec {
            arch: ModelArch::Resnet20,
            ..spec()
        },
        ModelSpec {
            arch: ModelArch::Resnet110,
            ..spec()
        },
        ModelSpec {
            arch: ModelArch::MobilenetV2,
            ..spec()
        },
    ];
    for spec in &backbones {
        let ctx = format!("{:?}", spec.arch);
        let blob = checkpoint::save_full(&mut spec.build().unwrap());
        let sample_len: usize = spec.sample_dims().iter().product();
        let samples: Vec<Vec<f32>> = (0..2)
            .map(|i| {
                (0..sample_len)
                    .map(|j| ((i * 31 + j * 7) % 23) as f32 * 0.08 - 0.9)
                    .collect()
            })
            .collect();
        let mut dims = vec![samples.len()];
        dims.extend(spec.sample_dims());
        let batch = Tensor::from_vec(samples.concat(), &dims).unwrap();
        let mut loaded = spec.build().unwrap();
        checkpoint::load(&mut loaded, &blob).unwrap();
        let want = loaded.forward(&batch, Mode::Eval).unwrap();

        let session = InferenceSession::from_checkpoint(spec, &blob).unwrap();
        let got = session.infer_samples(&samples).unwrap().concat();
        assert_eq!(got.len(), want.len(), "{ctx}: output length");
        if matches!(spec.arch, ModelArch::Mlp(_)) {
            for (g, w) in got.iter().zip(want.data()) {
                assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {g} vs {w}");
            }
        } else {
            let scale = want.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (g, w) in got.iter().zip(want.data()) {
                assert!(
                    (g - w).abs() <= 1e-4 * scale,
                    "{ctx}: {g} vs {w} (± 1e-4·{scale})"
                );
            }
        }
        assert!(
            session.resident_bytes() > session.network().resident_bytes(),
            "{ctx}: the compiled plan's weights must be counted resident"
        );
    }
}
