use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param, ParamKind, ParamPrecision};
use apt_tensor::ops::conv::{self, Conv2dParams};
use apt_tensor::{ops, rng as trng, Tensor};
use rand::rngs::StdRng;

/// 2-D convolution layer (NCHW) with optional bias and grouped/depthwise
/// support.
///
/// Weight shape is `[out_channels, in_channels/groups, k, k]`; its storage
/// precision follows the configured [`ParamPrecision`] (quantised under
/// APT).
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    weight: Param,
    bias: Option<Param>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    params: Conv2dParams,
    cached_input: Option<Tensor>,
    macs: u64,
}

impl Conv2d {
    /// Creates a conv layer with He-normal weight init scaled by
    /// `fan_in = (in_channels/groups)·k²`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for invalid channel/group/kernel
    /// combinations.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        groups: usize,
        weight_precision: ParamPrecision,
        bias_precision: Option<ParamPrecision>,
        rng: &mut StdRng,
    ) -> crate::Result<Self> {
        let name = name.into();
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::BadConfig {
                reason: format!("conv `{name}`: zero-sized hyper-parameter"),
            });
        }
        if groups == 0
            || !in_channels.is_multiple_of(groups)
            || !out_channels.is_multiple_of(groups)
        {
            return Err(NnError::BadConfig {
                reason: format!(
                    "conv `{name}`: groups {groups} must divide channels {in_channels}/{out_channels}"
                ),
            });
        }
        let c_in_g = in_channels / groups;
        let fan_in = c_in_g * kernel * kernel;
        let w_init = trng::he_normal(&[out_channels, c_in_g, kernel, kernel], fan_in, rng);
        let weight = Param::new(
            format!("{name}.weight"),
            ParamKind::Weight,
            w_init,
            weight_precision,
        )?;
        let bias = match bias_precision {
            Some(p) => Some(Param::new(
                format!("{name}.bias"),
                ParamKind::Bias,
                Tensor::zeros(&[out_channels]),
                p,
            )?),
            None => None,
        };
        Ok(Conv2d {
            name,
            weight,
            bias,
            in_channels,
            out_channels,
            kernel,
            params: Conv2dParams::new(stride, padding, groups),
            cached_input: None,
            macs: 0,
        })
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    fn validate_input(&self, input: &Tensor) -> crate::Result<()> {
        if input.rank() != 4 || input.dims()[1] != self.in_channels {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "expected [n, {}, h, w], got {:?}",
                    self.in_channels,
                    input.dims()
                ),
            });
        }
        Ok(())
    }

    /// The shared compute kernel: validate, convolve, add bias. Called by
    /// both the training forward and the inference path so the two stay
    /// bit-identical.
    fn compute_output(&self, input: &Tensor) -> crate::Result<Tensor> {
        self.validate_input(input)?;
        let mut y = conv::conv2d(input, &self.weight.value(), &self.params)?;
        if let Some(bias) = &self.bias {
            let b = bias.value();
            let (n, c, oh, ow) = (y.dims()[0], y.dims()[1], y.dims()[2], y.dims()[3]);
            let yd = y.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let bch = b.data()[ch];
                    let base = (img * c + ch) * oh * ow;
                    for v in &mut yd[base..base + oh * ow] {
                        *v += bch;
                    }
                }
            }
        }
        Ok(y)
    }

    /// `dW` and `db` from the stashed input, which goes with them; returns
    /// the input's dims, all backward-input still needs. Backward-weight
    /// needs just the weight's dims, which the parameter has without
    /// dequantising, and it validates `grad_output` against the input and
    /// those dims — every check backward-input would repeat.
    fn param_grads(&mut self, grad_output: &Tensor) -> crate::Result<[usize; 4]> {
        let input = take_stash(&mut self.cached_input, &self.name)?;
        let dims = self.weight.dims();
        let dw = conv::conv2d_backward_weight(&input, grad_output, dims, &self.params)?;
        self.weight.accumulate_grad(&dw)?;
        if let Some(bias) = &mut self.bias {
            bias.accumulate_grad(&ops::reduce::sum_channels(grad_output)?)?;
        }
        // `validate_input` held the stashed input to rank 4.
        Ok(std::array::from_fn(|i| input.dims()[i]))
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let y = self.compute_output(input)?;
        let (n, oh, ow) = (y.dims()[0], y.dims()[2], y.dims()[3]);
        let c_in_g = self.in_channels / self.params.groups;
        self.macs = (n * self.out_channels * oh * ow * c_in_g * self.kernel * self.kernel) as u64;
        self.cached_input = Some(input.clone());
        Ok(y)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        self.compute_output(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let input_dims = self.param_grads(grad_output)?;
        // The stashed input and `dW` are gone by the time `value()`
        // allocates.
        let w = self.weight.value();
        let dx = conv::conv2d_backward_input(grad_output, &w, &input_dims, &self.params)?;
        Ok(dx)
    }

    /// `dW` and `db` only.
    fn backward_params(&mut self, grad_output: &Tensor) -> crate::Result<()> {
        self.param_grads(grad_output).map(drop)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        if let Some(b) = &self.bias {
            f(b);
        }
    }

    fn macs_last_forward(&self) -> u64 {
        self.macs
    }

    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        f(self.weight.name(), self.macs);
    }

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_conv(
            &self.weight,
            self.bias.as_ref(),
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.params,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::seeded;

    fn make() -> Conv2d {
        Conv2d::new(
            "c",
            3,
            4,
            3,
            1,
            1,
            1,
            ParamPrecision::Float32,
            Some(ParamPrecision::Float32),
            &mut seeded(0),
        )
        .unwrap()
    }

    #[test]
    fn forward_shape_and_macs() {
        let mut c = make();
        let x = trng::normal(&[2, 3, 8, 8], 1.0, &mut seeded(1));
        let y = c.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 4, 8, 8]);
        assert_eq!(c.macs_last_forward(), (2 * 4 * 8 * 8 * 3 * 3 * 3) as u64);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut c = make();
        let x = trng::normal(&[1, 3, 4, 4], 1.0, &mut seeded(2));
        let _ = c.forward(&x, Mode::Train).unwrap();
        let go = trng::normal(&[1, 4, 4, 4], 1.0, &mut seeded(3));
        let dx = c.backward(&go).unwrap();
        let eps = 1e-2;
        let loss = |c: &mut Conv2d, x: &Tensor| -> f32 {
            let y = c.forward(x, Mode::Eval).unwrap();
            y.data().iter().zip(go.data()).map(|(a, b)| a * b).sum()
        };
        for k in [0usize, 13, 29, 47] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let fd = (loss(&mut c, &xp) - loss(&mut c, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[k]).abs() < 3e-2,
                "k={k} fd={fd} an={}",
                dx.data()[k]
            );
        }
    }

    #[test]
    fn bias_gradient_is_channel_sum() {
        let mut c = make();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let _ = c.forward(&x, Mode::Train).unwrap();
        let go = Tensor::ones(&[2, 4, 4, 4]);
        let _ = c.backward(&go).unwrap();
        c.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Bias {
                assert!(p.grad().data().iter().all(|&g| (g - 32.0).abs() < 1e-5));
            }
        });
    }

    #[test]
    fn quantized_weight_is_on_grid() {
        let c = Conv2d::new(
            "cq",
            3,
            8,
            3,
            1,
            1,
            1,
            ParamPrecision::Quantized(apt_quant::Bitwidth::new(4).unwrap()),
            None,
            &mut seeded(5),
        )
        .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        c.visit_params_ref(&mut |p| {
            for &v in p.value().data() {
                seen.insert((v * 1e6) as i64);
            }
        });
        assert!(
            seen.len() <= 16,
            "4-bit weights must have ≤16 levels, got {}",
            seen.len()
        );
    }

    #[test]
    fn config_validation() {
        let mut r = seeded(0);
        assert!(Conv2d::new("x", 0, 4, 3, 1, 1, 1, ParamPrecision::Float32, None, &mut r).is_err());
        assert!(Conv2d::new("x", 3, 4, 3, 1, 1, 2, ParamPrecision::Float32, None, &mut r).is_err());
        assert!(Conv2d::new("x", 4, 4, 0, 1, 1, 1, ParamPrecision::Float32, None, &mut r).is_err());
        let mut ok =
            Conv2d::new("x", 4, 4, 3, 1, 1, 4, ParamPrecision::Float32, None, &mut r).unwrap();
        assert!(ok
            .forward(&Tensor::zeros(&[1, 3, 4, 4]), Mode::Train)
            .is_err());
        assert!(ok.backward(&Tensor::zeros(&[1, 4, 4, 4])).is_err());
    }
}
