use crate::layers::{GlobalAvgPool, Linear, Relu, Residual, Sequential};
use crate::models::{conv_bn, scale_width};
use crate::{Network, NnError, ParamKind, QuantScheme};
use apt_tensor::ops::fused::Epilogue;
use rand::rngs::StdRng;

/// Builds a CIFAR-style ResNet of depth `6n + 2` (He et al. \[6\]).
///
/// Architecture: 3×3 stem conv (16·w channels) → three stages of `n` basic
/// blocks at 16·w / 32·w / 64·w channels (stride-2 transitions) → global
/// average pool → linear classifier. `width_mult` scales all channel counts
/// (1.0 reproduces the paper's exact shapes; smaller values give
/// CPU-tractable models with the same topology — see DESIGN.md §2).
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] unless `depth ≡ 2 (mod 6)` and
/// `depth ≥ 8`.
pub fn resnet(
    depth: usize,
    num_classes: usize,
    width_mult: f32,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    if depth < 8 || !(depth - 2).is_multiple_of(6) {
        return Err(NnError::BadConfig {
            reason: format!("resnet depth must be 6n+2 with n ≥ 1, got {depth}"),
        });
    }
    if num_classes == 0 {
        return Err(NnError::BadConfig {
            reason: "num_classes must be ≥ 1".into(),
        });
    }
    let n = (depth - 2) / 6;
    let widths = [
        scale_width(16, width_mult),
        scale_width(32, width_mult),
        scale_width(64, width_mult),
    ];

    let stem = conv_bn("stem", ["conv", "bn"], [3, widths[0], 3, 1, 1], scheme, rng)?;
    let mut layers = Vec::from(stem);
    layers.push(Box::new(Relu::new("stem.relu")));

    let mut in_ch = widths[0];
    for (stage, &out_ch) in widths.iter().enumerate() {
        for block in 0..n {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let name = format!("stage{}.block{}", stage + 1, block);
            let block = basic_block(&name, in_ch, out_ch, stride, scheme, rng)?;
            layers.push(Box::new(block));
            in_ch = out_ch;
        }
    }

    layers.push(Box::new(GlobalAvgPool::new("head.gap")));
    layers.push(Box::new(Linear::new(
        "head.fc",
        widths[2],
        num_classes,
        scheme.precision_for(ParamKind::Weight),
        Some(scheme.precision_for(ParamKind::Bias)),
        rng,
    )?));

    Ok(Network::new(format!("resnet{depth}"), layers))
}

/// The ResNet basic residual block (He et al. \[6\]):
///
/// ```text
/// out = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )
/// ```
///
/// The shortcut is identity when the shape is preserved, otherwise a 1×1
/// strided convolution + batch-norm projection. Both 3×3 convolutions (and
/// the projection, if any) carry their own independently adaptable
/// quantised weights — these are the "layers" whose bitwidths Figure 3
/// traces.
fn basic_block(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Residual> {
    let [conv1, bn1] = conv_bn(
        name,
        ["conv1", "bn1"],
        [in_ch, out_ch, 3, stride, 1],
        scheme,
        rng,
    )?;
    let [conv2, bn2] = conv_bn(
        name,
        ["conv2", "bn2"],
        [out_ch, out_ch, 3, 1, 1],
        scheme,
        rng,
    )?;
    let relu1 = Box::new(Relu::new(format!("{name}.relu1")));
    let body = Sequential::new(name, vec![conv1, bn1, relu1, conv2, bn2]);
    let shortcut = if stride != 1 || in_ch != out_ch {
        let [conv, bn] = conv_bn(
            name,
            ["shortcut.conv", "shortcut.bn"],
            [in_ch, out_ch, 1, stride, 1],
            scheme,
            rng,
        )?;
        Some(Sequential::new(format!("{name}.shortcut"), vec![conv, bn]))
    } else {
        None
    };
    Ok(Residual::new(body, shortcut, Epilogue::Relu))
}

/// ResNet-20 — the paper's primary backbone for Figures 2–5 and Table I.
///
/// # Errors
///
/// Propagates construction errors from [`resnet`].
pub fn resnet20(
    num_classes: usize,
    width_mult: f32,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    resnet(20, num_classes, width_mult, scheme, rng)
}

/// ResNet-110 — the paper's CIFAR-100 backbone (Table I).
///
/// # Errors
///
/// Propagates construction errors from [`resnet`].
pub fn resnet110(
    num_classes: usize,
    width_mult: f32,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    resnet(110, num_classes, width_mult, scheme, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::assert_input_gradient;
    use crate::network::tests::weight_names;
    use crate::{Layer, Mode, ParamKind};
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

    fn block(in_ch: usize, out_ch: usize, stride: usize, seed: u64) -> Residual {
        let (scheme, mut r) = (QuantScheme::float32(), seeded(seed));
        basic_block("b", in_ch, out_ch, stride, &scheme, &mut r).unwrap()
    }

    #[test]
    fn identity_and_projection_blocks_shapes() {
        for (in_ch, out_ch, stride, dims, out) in [
            (8, 8, 1, [2, 8, 4, 4], [2, 8, 4, 4]),
            (8, 16, 2, [1, 8, 8, 8], [1, 16, 4, 4]),
        ] {
            let mut b = block(in_ch, out_ch, stride, 0);
            let x = normal(&dims, 1.0, &mut seeded(1));
            assert_eq!(b.forward(&x, Mode::Train).unwrap().dims(), out);
            assert_eq!(b.backward(&Tensor::ones(&out)).unwrap().dims(), x.dims());
            assert!(b.macs_last_forward() > 0);
        }
    }

    #[test]
    fn block_gradient_matches_finite_difference() {
        assert_input_gradient(&mut block(2, 2, 1, 3), &[1, 2, 4, 4], [1, 11, 23]);
    }

    #[test]
    fn param_count_identity_vs_projection() {
        let names = |b: &Residual| {
            let mut n = Vec::new();
            b.visit_params_ref(&mut |p| n.push(p.name().to_string()));
            n
        };
        // 2 convs × 1 weight + 2 bns × 2 = 6; projection adds conv + bn = 3 more
        assert_eq!(names(&block(8, 8, 1, 0)).len(), 6);
        let projected = names(&block(8, 16, 2, 0));
        assert_eq!(projected.len(), 9);
        let want = "b.shortcut.conv.weight b.shortcut.bn.gamma b.shortcut.bn.beta";
        assert_eq!(projected[6..].join(" "), want, "the shortcut's come last");
    }

    #[test]
    fn block_backward_requires_forward() {
        let mut b = block(4, 4, 1, 0);
        assert!(b.backward(&Tensor::zeros(&[1, 4, 2, 2])).is_err());
    }

    #[test]
    fn resnet20_has_expected_weight_layers() {
        let net = resnet20(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(0)).unwrap();
        let names = weight_names(&net);
        // stem + 9 blocks × 2 convs + 2 projection convs + head fc = 22
        assert_eq!(names.len(), 22, "{names:?}");
        assert!(names[0].contains("stem"));
        assert!(names.last().unwrap().contains("head.fc"));
    }

    #[test]
    fn resnet20_forward_backward_tiny() {
        let mut net = resnet20(10, 0.25, &QuantScheme::float32(), &mut seeded(1)).unwrap();
        let x = normal(&[2, 3, 8, 8], 1.0, &mut seeded(2));
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
        let dx = net.backward_by_hand(&Tensor::ones(&[2, 10])).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert!(net.macs_last_forward() > 0);
    }

    #[test]
    fn depth_validation() {
        let mut r = seeded(0);
        assert!(resnet(21, 10, 1.0, &QuantScheme::float32(), &mut r).is_err());
        assert!(resnet(6, 10, 1.0, &QuantScheme::float32(), &mut r).is_err());
        assert!(resnet(8, 0, 1.0, &QuantScheme::float32(), &mut r).is_err());
        assert!(resnet(8, 10, 1.0, &QuantScheme::float32(), &mut r).is_ok());
    }

    #[test]
    fn resnet110_is_deep() {
        // width_mult tiny to keep the test fast; 110 = 6·18 + 2.
        let net = resnet110(100, 0.05, &QuantScheme::paper_apt(), &mut seeded(3)).unwrap();
        // stem + 54 blocks × 2 convs + 2 projection convs + head fc = 112
        assert_eq!(weight_names(&net).len(), 112);
        assert_eq!(net.name(), "resnet110");
    }

    #[test]
    fn quantized_scheme_quantizes_only_weights() {
        let net = resnet20(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(4)).unwrap();
        net.visit_params_ref(&mut |p| match p.kind() {
            ParamKind::Weight => assert!(p.bits().is_some(), "{} not quantised", p.name()),
            _ => assert!(p.bits().is_none(), "{} should be fp32", p.name()),
        });
    }
}
