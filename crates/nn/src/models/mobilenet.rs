use crate::layers::{GlobalAvgPool, Linear, Relu6, Residual, Sequential};
use crate::models::{conv_bn, scale_width};
use crate::{Layer, Network, NnError, ParamKind, QuantScheme};
use apt_tensor::ops::fused::Epilogue;
use rand::rngs::StdRng;

/// Inverted-residual settings: (expand ratio t, channels c, repeats n,
/// first stride s). This is the 32×32-input adaptation of MobileNetV2
/// (Sandler et al. \[17\]): the ImageNet stem stride and the deepest stages
/// are dropped, as is standard for CIFAR-scale inputs.
const SETTINGS: &[(usize, usize, usize, usize)] =
    &[(1, 16, 1, 1), (6, 24, 2, 1), (6, 32, 2, 2), (6, 64, 2, 2)];

/// Builds a CIFAR-scale MobileNetV2 (the third backbone of Table I).
///
/// Architecture: 3×3 stem conv → four inverted-residual stages (settings
/// above, scaled by `width_mult`) → 1×1 head conv → global average pool →
/// linear classifier.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for `num_classes == 0` and propagates
/// layer construction errors.
pub fn mobilenet_v2(
    num_classes: usize,
    width_mult: f32,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    if num_classes == 0 {
        return Err(NnError::BadConfig {
            reason: "num_classes must be ≥ 1".into(),
        });
    }
    let stem_ch = scale_width(16, width_mult);
    let head_ch = scale_width(128, width_mult);

    let stem = conv_bn("stem", ["conv", "bn"], [3, stem_ch, 3, 1, 1], scheme, rng)?;
    let mut layers = Vec::from(stem);
    layers.push(Box::new(Relu6::new("stem.relu6")));

    let mut in_ch = stem_ch;
    for (stage, &(t, c, n, s)) in SETTINGS.iter().enumerate() {
        let out_ch = scale_width(c, width_mult);
        for block in 0..n {
            let stride = if block == 0 { s } else { 1 };
            let name = format!("stage{}.block{}", stage + 1, block);
            layers.push(inverted_residual(
                &name, in_ch, out_ch, stride, t, scheme, rng,
            )?);
            in_ch = out_ch;
        }
    }

    let geometry = [in_ch, head_ch, 1, 1, 1];
    let head = conv_bn("head", ["conv", "bn"], geometry, scheme, rng)?;
    layers.extend(head);
    layers.push(Box::new(Relu6::new("head.relu6")));
    layers.push(Box::new(GlobalAvgPool::new("head.gap")));
    layers.push(Box::new(Linear::new(
        "head.fc",
        head_ch,
        num_classes,
        scheme.precision_for(ParamKind::Weight),
        Some(scheme.precision_for(ParamKind::Bias)),
        rng,
    )?));

    Ok(Network::new("mobilenet_v2", layers))
}

/// MobileNetV2 inverted-residual block (Sandler et al. \[17\]):
///
/// ```text
/// expand (1×1 conv, t×) → bn → relu6
///   → depthwise (3×3, stride s) → bn → relu6
///   → project (1×1 conv) → bn
/// + identity skip when s == 1 and in == out
/// ```
///
/// The expansion stage is omitted when `expand_ratio == 1` (the first
/// MobileNetV2 block). With the skip the block is a [`Residual`] with no
/// activation after the merge (the linear bottleneck), without it a plain
/// [`Sequential`].
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for a zero `expand_ratio` and propagates
/// layer construction errors.
fn inverted_residual(
    name: &str,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    expand_ratio: usize,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Box<dyn Layer>> {
    if expand_ratio == 0 {
        return Err(NnError::BadConfig {
            reason: format!("inverted residual `{name}`: expand_ratio must be ≥ 1"),
        });
    }
    let hidden = in_ch * expand_ratio;
    let mut body: Vec<Box<dyn Layer>> = Vec::new();
    let mut stage = |at: &str, geometry, relu6: bool| -> crate::Result<()> {
        let at = format!("{name}.{at}");
        body.extend(conv_bn(&at, ["conv", "bn"], geometry, scheme, rng)?);
        if relu6 {
            body.push(Box::new(Relu6::new(format!("{at}.relu6"))));
        }
        Ok(())
    };
    if expand_ratio > 1 {
        stage("expand", [in_ch, hidden, 1, 1, 1], true)?;
    }
    stage("dw", [hidden, hidden, 3, stride, hidden], true)?;
    stage("project", [hidden, out_ch, 1, 1, 1], false)?;
    let body = Sequential::new(name, body);
    Ok(if stride == 1 && in_ch == out_ch {
        Box::new(Residual::new(body, None, Epilogue::None))
    } else {
        Box::new(body)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::assert_input_gradient;
    use crate::network::tests::weight_names;
    use crate::Mode;
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

    fn block(in_ch: usize, out_ch: usize, stride: usize, t: usize) -> Box<dyn Layer> {
        let (scheme, mut r) = (QuantScheme::float32(), seeded(0));
        inverted_residual("ir", in_ch, out_ch, stride, t, &scheme, &mut r).unwrap()
    }

    /// Whether `b` merges a skip: its lowered program ends in an add.
    fn has_skip(b: Box<dyn Layer>, sample: &[usize]) -> bool {
        let plan = Network::new("n", vec![b]).freeze(sample);
        plan.unwrap().step_mnemonics().contains(&"add")
    }

    #[test]
    fn skip_block_preserves_shape_and_strided_block_downsamples_without() {
        for (in_ch, out_ch, stride, t, dims, out) in [
            (8, 8, 1, 2, [1, 8, 4, 4], [1, 8, 4, 4]),
            (8, 16, 2, 4, [2, 8, 8, 8], [2, 16, 4, 4]),
        ] {
            let mut b = block(in_ch, out_ch, stride, t);
            let x = normal(&dims, 1.0, &mut seeded(1));
            assert_eq!(b.forward(&x, Mode::Train).unwrap().dims(), out);
            assert_eq!(b.backward(&Tensor::ones(&out)).unwrap().dims(), x.dims());
            assert_eq!(has_skip(b, &dims[1..]), stride == 1);
        }
    }

    #[test]
    fn expand_ratio_one_has_no_expansion_stage() {
        let mut weights = 0;
        block(8, 8, 1, 1).visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight {
                weights += 1;
            }
        });
        assert_eq!(weights, 2); // depthwise + project only
        let (scheme, mut r) = (QuantScheme::float32(), seeded(0));
        assert!(matches!(
            inverted_residual("x", 8, 8, 1, 0, &scheme, &mut r),
            Err(NnError::BadConfig { .. })
        ));
    }

    #[test]
    fn block_gradient_matches_finite_difference() {
        assert_input_gradient(block(2, 2, 1, 2).as_mut(), &[1, 2, 3, 3], [0, 7, 13]);
    }

    #[test]
    fn block_backward_requires_forward() {
        let mut b = block(4, 4, 1, 2);
        assert!(b.backward(&Tensor::zeros(&[1, 4, 2, 2])).is_err());
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = mobilenet_v2(10, 0.25, &QuantScheme::float32(), &mut seeded(0)).unwrap();
        let x = normal(&[1, 3, 16, 16], 1.0, &mut seeded(1));
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 10]);
        let dx = net.backward_by_hand(&Tensor::ones(&[1, 10])).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn has_depthwise_stages() {
        let net = mobilenet_v2(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(2)).unwrap();
        let names = weight_names(&net);
        assert!(names.iter().any(|n| n.contains("dw.conv")));
        assert!(names.iter().any(|n| n.contains("expand.conv")));
        assert!(names.iter().any(|n| n.contains("project.conv")));
        // stage1 block uses t=1 ⇒ no expand conv in its name set
        assert!(!names.iter().any(|n| n.contains("stage1.block0.expand")));
    }

    #[test]
    fn rejects_zero_classes() {
        assert!(mobilenet_v2(0, 1.0, &QuantScheme::float32(), &mut seeded(0)).is_err());
    }

    #[test]
    fn spatial_downsampling_is_4x() {
        let mut net = mobilenet_v2(5, 0.25, &QuantScheme::float32(), &mut seeded(3)).unwrap();
        // Two stride-2 stages: 16 → 8 → 4; GAP collapses the rest.
        let x = normal(&[1, 3, 16, 16], 1.0, &mut seeded(4));
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 5]);
    }
}
