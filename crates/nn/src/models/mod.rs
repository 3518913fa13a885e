//! Model zoo: the backbones the paper evaluates (§IV), parameterised by a
//! width multiplier so experiments can scale to the host.
//!
//! * [`resnet`] / [`resnet20`] / [`resnet110`] — CIFAR-style ResNets
//!   (He et al. \[6\], depth = 6n+2).
//! * [`mobilenet_v2`] — inverted-residual backbone (Sandler et al. \[17\]),
//!   scaled for 32×32 inputs.
//! * [`cifarnet`] — the small conv net TernGrad evaluates on.
//! * [`vgg_small`] — the WAGE-style "VGG-like" network.
//! * [`mlp`] — multilayer perceptron for toy problems and tests.

use crate::layers::{BatchNorm2d, Conv2d};
use crate::{Layer, ParamKind, QuantScheme};
use rand::rngs::StdRng;

mod mobilenet;
mod resnet;
mod simple;

pub use mobilenet::mobilenet_v2;
pub use resnet::{resnet, resnet110, resnet20};
pub use simple::{cifarnet, mlp, vgg_small};

/// `{at}.{conv}`, a bias-free `k × k` convolution `c_in → c_out` with
/// `k / 2` padding, then `{at}.{bn}`, the batch norm behind it: the pair
/// every stem, block and head of the residual backbones repeats.
pub(crate) fn conv_bn(
    at: &str,
    [conv, bn]: [impl std::fmt::Display; 2],
    [c_in, c_out, k, stride, groups]: [usize; 5],
    scheme: &QuantScheme,
    rng: &mut StdRng,
) -> crate::Result<[Box<dyn Layer>; 2]> {
    let wp = scheme.precision_for(ParamKind::Weight);
    let conv = Conv2d::new(
        format!("{at}.{conv}"),
        c_in,
        c_out,
        k,
        stride,
        k / 2,
        groups,
        wp,
        None,
        rng,
    )?;
    let bnp = scheme.precision_for(ParamKind::BnGamma);
    Ok([
        Box::new(conv),
        Box::new(BatchNorm2d::new(format!("{at}.{bn}"), c_out, bnp)?),
    ])
}

/// Scales a channel count by a width multiplier, flooring at 4 channels.
pub(crate) fn scale_width(channels: usize, width_mult: f32) -> usize {
    ((channels as f32 * width_mult).round() as usize).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_width_floors_at_four() {
        assert_eq!(scale_width(16, 1.0), 16);
        assert_eq!(scale_width(16, 0.5), 8);
        assert_eq!(scale_width(16, 0.01), 4);
        assert_eq!(scale_width(64, 0.25), 16);
    }
}
