use crate::layers::{BasicBlock, BatchNorm2d, Conv2d, GlobalAvgPool, Linear, Relu};
use crate::models::scale_width;
use crate::{Layer, Network, NnError, ParamKind, QuantScheme};
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
    let wp = scheme.precision_for(ParamKind::Weight);
    let bnp = scheme.precision_for(ParamKind::BnGamma);

    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(Conv2d::new(
        "stem.conv",
        3,
        widths[0],
        3,
        1,
        1,
        1,
        wp,
        None,
        rng,
    )?));
    layers.push(Box::new(BatchNorm2d::new("stem.bn", widths[0], bnp)?));
    layers.push(Box::new(Relu::new("stem.relu")));

    let mut in_ch = widths[0];
    for (stage, &out_ch) in widths.iter().enumerate() {
        for block in 0..n {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            layers.push(Box::new(BasicBlock::new(
                format!("stage{}.block{}", stage + 1, block),
                in_ch,
                out_ch,
                stride,
                scheme,
                rng,
            )?));
            in_ch = out_ch;
        }
    }

    layers.push(Box::new(GlobalAvgPool::new("head.gap")));
    layers.push(Box::new(Linear::new(
        "head.fc",
        widths[2],
        num_classes,
        wp,
        Some(scheme.precision_for(ParamKind::Bias)),
        rng,
    )?));

    Ok(Network::new(format!("resnet{depth}"), layers))
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
    use crate::Mode;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn resnet20_has_expected_weight_layers() {
        let net = resnet20(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(0)).unwrap();
        let names = net.weight_param_names();
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
        let dx = net
            .backward_by_hand(&apt_tensor::Tensor::ones(&[2, 10]))
            .unwrap();
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
        // stem + 54 blocks + gap + fc... layer count = 3 + 54 + 2
        assert_eq!(net.num_layers(), 59);
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
