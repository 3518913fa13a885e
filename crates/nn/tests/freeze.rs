//! Differential tests for the freeze/fusion compiler: every backbone in the
//! zoo, frozen fresh and after a checkpoint round trip, must agree with the
//! layer-by-layer evaluation path.
//!
//! Agreement comes in two grades:
//!
//! * **bit-identical** — plans with no BatchNorm folding (the MLP) replay
//!   exactly the same float op sequence as the layer path, so the outputs
//!   must match to the bit.
//! * **rows-close** — BN folding rescales conv weights at compile time,
//!   which reassociates the per-channel multiply (`Σ (s·w)·x` vs
//!   `s·Σ w·x`). That is exact algebra with only float rounding drift, so
//!   outputs agree to `REL_TOL` relative to each row's max magnitude.

use apt_nn::{checkpoint, models, Mode, Network, ParamPrecision, QuantScheme};
use apt_tensor::rng::{normal, seeded};
use apt_tensor::Tensor;
use proptest::prelude::*;

/// Relative tolerance for BN-folded plans: folding is exact per-channel
/// affine algebra, so the only drift is float reassociation (~1 ulp per
/// multiply) amplified through a handful of tiny layers.
const REL_TOL: f32 = 1e-4;

fn zoo(scheme: &QuantScheme) -> Vec<(Network, Vec<usize>)> {
    let mut r = seeded(7);
    vec![
        (
            models::resnet20(10, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::resnet(8, 10, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::mobilenet_v2(10, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::cifarnet(10, 8, 0.25, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::vgg_small(10, 8, 0.05, scheme, &mut r).unwrap(),
            vec![2, 3, 8, 8],
        ),
        (
            models::mlp("m", &[16, 8, 10], scheme, &mut r).unwrap(),
            vec![2, 16],
        ),
    ]
}

/// Asserts plan output matches layer output: bitwise when `exact`, else
/// row-relative within [`REL_TOL`].
fn assert_close(name: &str, expected: &Tensor, got: &Tensor, exact: bool) {
    assert_eq!(expected.dims(), got.dims(), "{name}: dims");
    if exact {
        assert_eq!(expected.data(), got.data(), "{name}: must be bit-identical");
        return;
    }
    let cols = expected.dims()[1..].iter().product::<usize>().max(1);
    for (r, (erow, grow)) in expected
        .data()
        .chunks(cols)
        .zip(got.data().chunks(cols))
        .enumerate()
    {
        let scale = erow.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (c, (&e, &g)) in erow.iter().zip(grow).enumerate() {
            assert!(
                (e - g).abs() <= REL_TOL * scale,
                "{name}: row {r} col {c}: expected {e}, got {g} (scale {scale})"
            );
        }
    }
}

/// Trains one step so BN running stats move off their init, then compares
/// the frozen plan against `Mode::Eval` layer evaluation.
fn freeze_and_compare(net: &mut Network, dims: &[usize], exact: bool) {
    let x = normal(dims, 1.0, &mut seeded(11));
    let _ = net.forward(&x, Mode::Train).unwrap();
    let expected = net.forward(&x, Mode::Eval).unwrap();
    let plan = net.freeze(&dims[1..]).unwrap();
    let got = plan.infer(&x).unwrap();
    assert_close(net.name(), &expected, &got, exact);
}

#[test]
fn frozen_plan_matches_layer_eval_across_backbones_and_schemes() {
    for scheme in [QuantScheme::float32(), QuantScheme::paper_apt()] {
        for (mut net, dims) in zoo(&scheme) {
            let exact = net.name() == "m"; // the MLP has no BN to fold
            freeze_and_compare(&mut net, &dims, exact);
        }
    }
}

#[test]
fn mlp_frozen_is_bit_identical_at_the_exact_lane() {
    let mut net =
        models::mlp("m", &[16, 8, 10], &QuantScheme::paper_apt(), &mut seeded(7)).unwrap();
    freeze_and_compare(&mut net, &[2, 16], true);
}

#[test]
fn serving_shaped_mlp_is_bit_identical_at_every_small_batch() {
    // Rectangular layers wider than the widest row strip: a plan that
    // stored `W` (or transposed it with the wrong stride) would read
    // another weight for most output columns. Batch 1 and 3 run the wide
    // strip, batch 8 the 4-row tiles.
    let mut net = models::mlp(
        "m",
        &[300, 260, 130, 10],
        &QuantScheme::paper_apt(),
        &mut seeded(7),
    )
    .unwrap();
    let plan = net.freeze(&[300]).unwrap();
    for batch in [1, 3, 8] {
        let x = normal(&[batch, 300], 1.0, &mut seeded(batch as u64));
        let want = net.forward(&x, Mode::Eval).unwrap();
        let got = plan.infer(&x).unwrap();
        assert_eq!(want.dims(), got.dims());
        for (i, (w, g)) in want.data().iter().zip(got.data()).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "batch {batch} [{i}]: {w} vs {g}");
        }
    }
}

#[test]
fn a_plan_is_a_snapshot_that_training_neither_sees_nor_moves() {
    let mut net =
        models::mlp("m", &[16, 8, 10], &QuantScheme::paper_apt(), &mut seeded(7)).unwrap();
    let x = normal(&[2, 16], 1.0, &mut seeded(41));
    let plan = net.freeze(&[16]).unwrap();
    let before = plan.infer(&x).unwrap();

    // One SGD step (Eq. 3 on the quantised weights).
    let y = net.forward(&x, Mode::Train).unwrap();
    net.backward(&Tensor::ones(y.dims())).unwrap();
    let mut r = seeded(42);
    net.visit_params(&mut |p| {
        let g = p.grad().clone();
        p.apply_update(&g, 0.5, apt_quant::RoundingMode::Truncate, &mut r)
            .unwrap();
    });

    // The BN-free MLP runs the same arithmetic in both modes, so an eval
    // forward that still served pre-step weights would show up here.
    let train = net.forward(&x, Mode::Train).unwrap();
    let eval = net.forward(&x, Mode::Eval).unwrap();
    assert_close("eval after step", &train, &eval, true);
    assert_ne!(eval.data(), before.data(), "the step must move the weights");
    assert_close("plan after step", &before, &plan.infer(&x).unwrap(), true);
}

#[test]
fn frozen_plan_matches_after_checkpoint_round_trip() {
    // Round-trip every backbone through a checkpoint, then freeze the
    // restored network: the plan must agree with the restored network's own
    // eval forward.
    let scheme = QuantScheme::paper_apt();
    for (mut net, dims) in zoo(&scheme) {
        let x = normal(&dims, 1.0, &mut seeded(13));
        let _ = net.forward(&x, Mode::Train).unwrap();
        let blob = checkpoint::save_full(&mut net);
        let name = net.name().to_string();
        let mut fresh = match name.as_str() {
            "resnet20" => models::resnet20(10, 0.25, &scheme, &mut seeded(50)),
            "resnet8" => models::resnet(8, 10, 0.25, &scheme, &mut seeded(50)),
            "mobilenet_v2" => models::mobilenet_v2(10, 0.25, &scheme, &mut seeded(50)),
            "cifarnet" => models::cifarnet(10, 8, 0.25, &scheme, &mut seeded(50)),
            "vgg_small" => models::vgg_small(10, 8, 0.05, &scheme, &mut seeded(50)),
            "m" => models::mlp("m", &[16, 8, 10], &scheme, &mut seeded(50)),
            other => panic!("unknown backbone {other}"),
        }
        .unwrap();
        checkpoint::load(&mut fresh, &blob).unwrap();
        let expected = fresh.forward(&x, Mode::Eval).unwrap();
        let plan = fresh.freeze(&dims[1..]).unwrap();
        let got = plan.infer(&x).unwrap();
        assert_close(&name, &expected, &got, name == "m");
    }
}

#[test]
fn frozen_plan_reports_fusions_and_zero_bn_steps_on_plain_chains() {
    // cifarnet = (conv→bn→relu→pool)×2 → flatten → fc → relu → fc: every BN
    // must fold into its conv and every relu must fuse into its producer.
    let mut net = models::cifarnet(10, 8, 0.25, &QuantScheme::float32(), &mut seeded(3)).unwrap();
    let x = normal(&[2, 3, 8, 8], 1.0, &mut seeded(4));
    let _ = net.forward(&x, Mode::Train).unwrap();
    let plan = net.freeze(&[3, 8, 8]).unwrap();
    let report = plan.report();
    assert_eq!(report.bn_folds, 2, "both BNs fold");
    assert!(report.act_fusions >= 3, "{report}");
    assert!(report.steps < report.lowered_steps);
    assert!(
        !plan.step_mnemonics().contains(&"bn"),
        "no BN steps survive: {:?}",
        plan.step_mnemonics()
    );
    assert!(!plan.step_mnemonics().contains(&"act"));
}

#[test]
fn unfreezable_layer_reports_typed_reason() {
    // A network containing a layer that declines to lower must fail with
    // the typed `Unfreezable` error naming the layer, not a panic.
    struct Opaque;
    impl apt_nn::Layer for Opaque {
        fn name(&self) -> &str {
            "opaque"
        }
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> apt_nn::Result<Tensor> {
            Ok(input.clone())
        }
        fn backward(&mut self, grad: &Tensor) -> apt_nn::Result<Tensor> {
            Ok(grad.clone())
        }
        fn visit_params(&mut self, _f: &mut dyn FnMut(&mut apt_nn::Param)) {}
        fn visit_params_ref(&self, _f: &mut dyn FnMut(&apt_nn::Param)) {}
        fn lower(&self, _builder: &mut apt_nn::PlanBuilder) -> apt_nn::Result<()> {
            Err(apt_nn::NnError::Unfreezable {
                layer: "opaque".to_string(),
                reason: "layer type has no frozen-plan lowering".to_string(),
            })
        }
    }
    impl std::fmt::Debug for Opaque {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Opaque")
        }
    }
    let net = Network::new("n", vec![Box::new(Opaque)]);
    let err = net.freeze(&[4]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("opaque") && msg.contains("frozen"), "{msg}");
}

/// Builds a single conv→bn network with fully randomised affine params and
/// running stats, so the proptest exercises the fold algebra directly.
fn conv_bn_net(
    c_in: usize,
    c_out: usize,
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
) -> Network {
    use apt_nn::layers::{BatchNorm2d, Conv2d};
    let mut r = seeded(21);
    let conv = Conv2d::new(
        "c",
        c_in,
        c_out,
        3,
        1,
        1,
        1,
        ParamPrecision::Float32,
        None,
        &mut r,
    )
    .unwrap();
    let bn = BatchNorm2d::new("b", c_out, ParamPrecision::Float32).unwrap();
    let mut net = Network::new("p", vec![Box::new(conv), Box::new(bn)]);
    net.visit_params(&mut |p| {
        let store = if p.name().ends_with(".gamma") {
            Some(gamma)
        } else if p.name().ends_with(".beta") {
            Some(beta)
        } else {
            None
        };
        if let Some(vals) = store {
            p.set_store(apt_nn::ParamStore::Float(Tensor::from_slice(vals)))
                .unwrap();
        }
    });
    net.visit_buffers(&mut |name, t| {
        let vals = if name.ends_with(".running_mean") {
            mean
        } else if name.ends_with(".running_var") {
            var
        } else {
            return;
        };
        *t = Tensor::from_slice(vals);
    });
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The BN fold is exact per-output-channel affine algebra: for random
    /// γ, β, running stats and inputs, the folded conv agrees with the
    /// conv→bn sequence up to float reassociation (tight tolerance).
    #[test]
    fn bn_fold_is_exact_for_random_affine_params(
        seed in 0u64..1000,
        c_out in 1usize..4,
        gamma_scale in 0.1f32..4.0,
        mean_shift in -2.0f32..2.0,
        var_base in 0.01f32..9.0,
    ) {
        let c_in = 2;
        let mut r = seeded(seed);
        let rnd = |r: &mut _, n: usize, s: f32| -> Vec<f32> {
            normal(&[n], s, r).into_vec()
        };
        let gamma: Vec<f32> = rnd(&mut r, c_out, gamma_scale);
        let beta = rnd(&mut r, c_out, 1.0);
        let mean: Vec<f32> = rnd(&mut r, c_out, 1.0)
            .iter()
            .map(|v| v + mean_shift)
            .collect();
        let var: Vec<f32> = rnd(&mut r, c_out, 1.0)
            .iter()
            .map(|v| v.abs() + var_base)
            .collect();
        let mut net = conv_bn_net(c_in, c_out, &gamma, &beta, &mean, &var);
        let x = normal(&[2, c_in, 5, 5], 1.0, &mut r);
        let expected = net.forward(&x, Mode::Eval).unwrap();
        let plan = net.freeze(&[c_in, 5, 5]).unwrap();
        prop_assert_eq!(plan.report().bn_folds, 1);
        let got = plan.infer(&x).unwrap();
        for (&e, &g) in expected.data().iter().zip(got.data()) {
            prop_assert!(
                (e - g).abs() <= 1e-4 * e.abs().max(1.0),
                "expected {}, got {}", e, g
            );
        }
    }
}
