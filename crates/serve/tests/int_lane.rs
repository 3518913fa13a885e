//! Differential coverage for the two compiled serving lanes.
//!
//! Two claims, both against the exact reference — `forward(Mode::Eval)` on
//! a network loaded from the same checkpoint:
//!
//! 1. **Dequant cache is the eval arithmetic.** A
//!    [`KernelLane::DequantCache`] plan is bit-identical on a BN-free net
//!    and within the BN-fold reassociation drift (`1e-4` relative)
//!    everywhere else.
//! 2. **Integer lane is bit-close with a documented bound.** A
//!    [`KernelLane::IntGemm`] plan computes its linear layers entirely on
//!    integer codes; its only approximation is the per-row 8-bit
//!    activation requantisation (weight side exact, integer bracket exact
//!    in `i64`). Per layer that is an error of at most `εx/2 · Σ|ŵ|`; end
//!    to end we assert logits within 6% of the largest exact logit
//!    magnitude on every supported backbone, and on a *trained* network.
//!
//! The plan compiler keeps convs in f32 (packing conv panels would break
//! the plan's zero-allocation arena contract), so a conv net honestly
//! reports the weakened `dequant-cache` lane under an `int-gemm` request —
//! asserted below — while an all-linear net achieves the full integer
//! lane.

use apt_core::{PolicyConfig, TrainConfig, Trainer};
use apt_data::{SynthCifar, SynthCifarConfig};
use apt_nn::{checkpoint, Mode};
use apt_optim::LrSchedule;
use apt_serve::{InferenceSession, KernelLane, ModelArch, ModelSpec};
use apt_tensor::Tensor;

fn cifar_spec() -> ModelSpec {
    ModelSpec {
        arch: ModelArch::Cifarnet,
        classes: 3,
        img_size: 8,
        width_mult: 0.25,
    }
}

/// A short real training run so the checkpoint carries non-trivial
/// quantisers and batch-norm state (mirrors `differential.rs`).
fn trained_checkpoint() -> Vec<u8> {
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
    let net = cifar_spec().build().unwrap();
    let mut t = Trainer::new(net, cfg).unwrap();
    t.train(&data.train, &data.test).unwrap();
    checkpoint::save_full(t.network_mut())
}

fn synth_samples(n: usize, sample_len: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..sample_len)
                .map(|j| ((i * 31 + j * 7) % 23) as f32 * 0.08 - 0.9)
                .collect()
        })
        .collect()
}

/// The exact reference: `forward(Mode::Eval)` on a network loaded from
/// `blob`, one row per sample.
fn eval_rows(spec: &ModelSpec, blob: &[u8], samples: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let mut net = spec.build().unwrap();
    checkpoint::load(&mut net, blob).unwrap();
    let mut dims = vec![samples.len()];
    dims.extend(spec.sample_dims());
    let batch = Tensor::from_vec(samples.concat(), &dims).unwrap();
    let out = net.forward(&batch, Mode::Eval).unwrap();
    (0..samples.len())
        .map(|i| out.row(i).unwrap().to_vec())
        .collect()
}

fn assert_rows_bitwise(got: &[Vec<f32>], want: &[Vec<f32>], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (gr, wr) in got.iter().zip(want) {
        assert_eq!(gr.len(), wr.len(), "{ctx}: row width");
        for (g, w) in gr.iter().zip(wr) {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {g} vs {w}");
        }
    }
}

/// Logit-level closeness: every element within `rel` of the largest exact
/// logit magnitude (floored at 1 so near-zero logits don't demand exact
/// zeros). Also proves no row was lost or resized — "zero corrupted or
/// lost responses" at the session level.
fn assert_rows_close(got: &[Vec<f32>], want: &[Vec<f32>], rel: f32, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    let scale = want.iter().flatten().fold(1.0f32, |a, &v| a.max(v.abs()));
    for (i, (gr, wr)) in got.iter().zip(want).enumerate() {
        assert_eq!(gr.len(), wr.len(), "{ctx}: row {i} width");
        for (g, w) in gr.iter().zip(wr) {
            assert!(g.is_finite(), "{ctx}: non-finite logit {g}");
            assert!(
                (g - w).abs() <= rel * scale,
                "{ctx}: row {i}: {g} vs {w} (± {} = {rel}·{scale})",
                rel * scale
            );
        }
    }
}

#[test]
fn integer_lane_is_bit_close_everywhere_dequant_cache_bit_exact() {
    // ── Claim 1 + 2 across every supported backbone (fresh paper-APT
    //    quantised weights straight from the model zoo). ──
    let backbones = [
        ModelSpec {
            arch: ModelArch::Mlp(vec![48, 32, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        },
        cifar_spec(),
        ModelSpec {
            arch: ModelArch::VggSmall,
            ..cifar_spec()
        },
        ModelSpec {
            arch: ModelArch::Resnet20,
            ..cifar_spec()
        },
        ModelSpec {
            arch: ModelArch::Resnet110,
            ..cifar_spec()
        },
        ModelSpec {
            arch: ModelArch::MobilenetV2,
            ..cifar_spec()
        },
    ];
    for spec in &backbones {
        let ctx = format!("{:?}", spec.arch);
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        let sample_len: usize = spec.sample_dims().iter().product();
        let samples = synth_samples(2, sample_len);

        let want = eval_rows(spec, &blob, &samples);
        let is_mlp = matches!(spec.arch, ModelArch::Mlp(_));

        let cached =
            InferenceSession::from_checkpoint_with_lane(spec, &blob, KernelLane::DequantCache)
                .unwrap();
        assert_eq!(cached.lane(), KernelLane::DequantCache);
        let cached_rows = cached.infer_samples(&samples).unwrap();
        if is_mlp {
            assert_rows_bitwise(&cached_rows, &want, &ctx);
        } else {
            assert_rows_close(&cached_rows, &want, 1e-4, &ctx);
        }

        // Lane honesty: an all-linear plan packs integer panels and keeps
        // the full lane; a plan with convs degrades to dequant-cache (convs
        // compile f32) and must say so.
        let int =
            InferenceSession::from_checkpoint_with_lane(spec, &blob, KernelLane::IntGemm).unwrap();
        let expect_lane = if is_mlp {
            KernelLane::IntGemm
        } else {
            KernelLane::DequantCache
        };
        assert_eq!(int.lane(), expect_lane, "{ctx}");
        assert!(
            int.plan_report().unwrap().packed_panels > 0,
            "{ctx}: paper-APT linear weights are quantised and must pack"
        );
        assert!(
            int.resident_bytes() > int.network().resident_bytes(),
            "{ctx}: the compiled plan's weights must be counted resident"
        );
        assert_rows_close(&int.infer_samples(&samples).unwrap(), &want, 0.06, &ctx);
    }

    // ── Claim 2 on a trained network. ──
    let spec = cifar_spec();
    let samples = synth_samples(4, 3 * 8 * 8);
    let blob = trained_checkpoint();
    let want = eval_rows(&spec, &blob, &samples);
    let session =
        InferenceSession::from_checkpoint_with_lane(&spec, &blob, KernelLane::IntGemm).unwrap();
    // Both of cifarnet's linear layers go integer; its convs do not.
    assert_eq!(session.plan_report().unwrap().packed_panels, 2);
    assert_eq!(session.lane(), KernelLane::DequantCache);
    let got = session.infer_samples(&samples).unwrap();
    assert_rows_close(&got, &want, 0.06, "trained cifarnet");
}
