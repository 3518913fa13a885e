use crate::layers::{BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d, Relu};
use crate::models::{conv_bn, scale_width};
use crate::{Layer, Network, NnError, ParamKind, QuantScheme};
use rand::rngs::StdRng;

/// Builds a multilayer perceptron with ReLU between layers.
///
/// `dims` is `[input, hidden…, output]`; at least two entries are required.
/// Used by the toy experiments and most integration tests.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for fewer than two dims or zero-sized
/// layers.
pub fn mlp(
    name: &str,
    dims: &[usize],
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    if dims.len() < 2 {
        return Err(NnError::BadConfig {
            reason: format!("mlp needs ≥ 2 dims, got {}", dims.len()),
        });
    }
    let wp = scheme.precision_for(ParamKind::Weight);
    let bp = scheme.precision_for(ParamKind::Bias);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    // Accept [n, d] and degenerate-image [n, 1, 1, d] batches alike.
    layers.push(Box::new(Flatten::new("input_flatten")));
    for (i, pair) in dims.windows(2).enumerate() {
        layers.push(Box::new(Linear::new(
            format!("fc{i}"),
            pair[0],
            pair[1],
            wp,
            Some(bp),
            rng,
        )?));
        if i + 2 < dims.len() {
            layers.push(Box::new(Relu::new(format!("relu{i}"))));
        }
    }
    Ok(Network::new(name, layers))
}

/// Builds CifarNet — the small conv net the TernGrad row of Table I uses:
/// two conv/bn/relu/pool stages followed by two linear layers.
///
/// `img_size` must be divisible by 4 (two 2× poolings).
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for invalid sizes.
pub fn cifarnet(
    num_classes: usize,
    img_size: usize,
    width_mult: f32,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    if num_classes == 0 || img_size == 0 || !img_size.is_multiple_of(4) {
        return Err(NnError::BadConfig {
            reason: format!("cifarnet: img_size {img_size} must be a positive multiple of 4"),
        });
    }
    let wp = scheme.precision_for(ParamKind::Weight);
    let bp = scheme.precision_for(ParamKind::Bias);
    let bnp = scheme.precision_for(ParamKind::BnGamma);
    let c1 = scale_width(32, width_mult);
    let c2 = scale_width(64, width_mult);
    let hidden = scale_width(128, width_mult);
    let spatial = img_size / 4;

    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("conv1", 3, c1, 3, 1, 1, 1, wp, None, rng)?),
        Box::new(BatchNorm2d::new("bn1", c1, bnp)?),
        Box::new(Relu::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2)),
        Box::new(Conv2d::new("conv2", c1, c2, 3, 1, 1, 1, wp, None, rng)?),
        Box::new(BatchNorm2d::new("bn2", c2, bnp)?),
        Box::new(Relu::new("relu2")),
        Box::new(MaxPool2d::new("pool2", 2)),
        Box::new(Flatten::new("flatten")),
        Box::new(Linear::new(
            "fc1",
            c2 * spatial * spatial,
            hidden,
            wp,
            Some(bp),
            rng,
        )?),
        Box::new(Relu::new("relu3")),
        Box::new(Linear::new("fc2", hidden, num_classes, wp, Some(bp), rng)?),
    ];
    Ok(Network::new("cifarnet", layers))
}

/// Builds the WAGE-style "VGG-like" network (Table I): three conv/conv/pool
/// stages followed by a linear classifier, channel counts scaled by
/// `width_mult`.
///
/// `img_size` must be divisible by 8 (three 2× poolings).
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for invalid sizes.
pub fn vgg_small(
    num_classes: usize,
    img_size: usize,
    width_mult: f32,
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<Network> {
    if num_classes == 0 || img_size == 0 || !img_size.is_multiple_of(8) {
        return Err(NnError::BadConfig {
            reason: format!("vgg_small: img_size {img_size} must be a positive multiple of 8"),
        });
    }
    let wp = scheme.precision_for(ParamKind::Weight);
    let bp = scheme.precision_for(ParamKind::Bias);
    let widths = [
        scale_width(128, width_mult),
        scale_width(256, width_mult),
        scale_width(512, width_mult),
    ];
    let spatial = img_size / 8;

    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut in_ch = 3;
    for (stage, &w) in widths.iter().enumerate() {
        for rep in 0..2 {
            let at = format!("stage{stage}");
            let names = [format!("conv{rep}"), format!("bn{rep}")];
            layers.extend(conv_bn(&at, names, [in_ch, w, 3, 1, 1], scheme, rng)?);
            layers.push(Box::new(Relu::new(format!("stage{stage}.relu{rep}"))));
            in_ch = w;
        }
        layers.push(Box::new(MaxPool2d::new(format!("stage{stage}.pool"), 2)));
    }
    layers.push(Box::new(Flatten::new("flatten")));
    layers.push(Box::new(Linear::new(
        "head.fc",
        widths[2] * spatial * spatial,
        num_classes,
        wp,
        Some(bp),
        rng,
    )?));
    Ok(Network::new("vgg_small", layers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

    #[test]
    fn mlp_shapes_and_param_count() {
        let net = mlp("m", &[4, 8, 8, 2], &QuantScheme::float32(), &mut seeded(0)).unwrap();
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2);
        assert!(mlp("m", &[4], &QuantScheme::float32(), &mut seeded(0)).is_err());
    }

    #[test]
    fn cifarnet_forward_backward() {
        let mut net = cifarnet(10, 16, 0.25, &QuantScheme::paper_apt(), &mut seeded(1)).unwrap();
        let x = normal(&[2, 3, 16, 16], 1.0, &mut seeded(2));
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
        let dx = net.backward_by_hand(&Tensor::ones(&[2, 10])).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert!(cifarnet(10, 15, 1.0, &QuantScheme::float32(), &mut seeded(0)).is_err());
        assert!(cifarnet(0, 16, 1.0, &QuantScheme::float32(), &mut seeded(0)).is_err());
    }

    #[test]
    fn vgg_small_forward() {
        let mut net = vgg_small(10, 8, 0.05, &QuantScheme::float32(), &mut seeded(3)).unwrap();
        let x = normal(&[1, 3, 8, 8], 1.0, &mut seeded(4));
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[1, 10]);
        assert!(vgg_small(10, 12, 1.0, &QuantScheme::float32(), &mut seeded(0)).is_err());
    }

    #[test]
    fn mlp_trains_quantized() {
        // One forward/backward with quantised weights exercises the full
        // quantised path end-to-end.
        let mut net = mlp("m", &[4, 8, 2], &QuantScheme::paper_apt(), &mut seeded(5)).unwrap();
        let x = normal(&[3, 4], 1.0, &mut seeded(6));
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::ones(y.dims())).unwrap();
        let mut grads_flow = false;
        net.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight && p.grad().l2_norm() > 0.0 {
                grads_flow = true;
            }
        });
        assert!(grads_flow);
    }
}
