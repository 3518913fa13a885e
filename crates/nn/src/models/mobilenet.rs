use crate::layers::{BatchNorm2d, Conv2d, GlobalAvgPool, InvertedResidual, Linear, Relu6};
use crate::models::scale_width;
use crate::{Layer, Network, NnError, ParamKind, QuantScheme};
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
    let wp = scheme.precision_for(ParamKind::Weight);
    let bnp = scheme.precision_for(ParamKind::BnGamma);
    let stem_ch = scale_width(16, width_mult);
    let head_ch = scale_width(128, width_mult);

    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(Conv2d::new(
        "stem.conv",
        3,
        stem_ch,
        3,
        1,
        1,
        1,
        wp,
        None,
        rng,
    )?));
    layers.push(Box::new(BatchNorm2d::new("stem.bn", stem_ch, bnp)?));
    layers.push(Box::new(Relu6::new("stem.relu6")));

    let mut in_ch = stem_ch;
    for (stage, &(t, c, n, s)) in SETTINGS.iter().enumerate() {
        let out_ch = scale_width(c, width_mult);
        for block in 0..n {
            let stride = if block == 0 { s } else { 1 };
            layers.push(Box::new(InvertedResidual::new(
                format!("stage{}.block{}", stage + 1, block),
                in_ch,
                out_ch,
                stride,
                t,
                scheme,
                rng,
            )?));
            in_ch = out_ch;
        }
    }

    layers.push(Box::new(Conv2d::new(
        "head.conv",
        in_ch,
        head_ch,
        1,
        1,
        0,
        1,
        wp,
        None,
        rng,
    )?));
    layers.push(Box::new(BatchNorm2d::new("head.bn", head_ch, bnp)?));
    layers.push(Box::new(Relu6::new("head.relu6")));
    layers.push(Box::new(GlobalAvgPool::new("head.gap")));
    layers.push(Box::new(Linear::new(
        "head.fc",
        head_ch,
        num_classes,
        wp,
        Some(scheme.precision_for(ParamKind::Bias)),
        rng,
    )?));

    Ok(Network::new("mobilenet_v2", layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

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
        let names = net.weight_param_names();
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
