use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param, ParamKind, ParamPrecision};
use apt_tensor::{ops, rng as trng, Tensor};
use rand::rngs::StdRng;

/// Fully-connected layer: `y = x·Wᵀ + b` with `W: [out, in]`.
///
/// Weight storage follows the configured [`ParamPrecision`]; under the
/// paper's APT scheme the weight is a [`crate::ParamStore::Quantized`]
/// tensor whose bitwidth Algorithm 1 adapts.
#[derive(Debug)]
pub struct Linear {
    name: String,
    weight: Param,
    bias: Option<Param>,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    macs: u64,
}

impl Linear {
    /// Creates a linear layer with He-normal weight init (paper §IV).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero-sized dimensions and
    /// quantisation errors from parameter construction.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        weight_precision: ParamPrecision,
        bias_precision: Option<ParamPrecision>,
        rng: &mut StdRng,
    ) -> crate::Result<Self> {
        let name = name.into();
        if in_features == 0 || out_features == 0 {
            return Err(NnError::BadConfig {
                reason: format!("linear `{name}`: zero-sized dims {in_features}x{out_features}"),
            });
        }
        let w_init = trng::he_normal(&[out_features, in_features], in_features, rng);
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
                Tensor::zeros(&[out_features]),
                p,
            )?),
            None => None,
        };
        Ok(Linear {
            name,
            weight,
            bias,
            in_features,
            out_features,
            cached_input: None,
            macs: 0,
        })
    }

    fn validate_input(&self, input: &Tensor) -> crate::Result<()> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "expected [batch, {}], got {:?}",
                    self.in_features,
                    input.dims()
                ),
            });
        }
        Ok(())
    }

    /// The shared compute kernel: validate, `x·Wᵀ`, add bias. Pure w.r.t.
    /// the layer — both the training forward and the inference path call
    /// this, which is what keeps them bit-identical.
    fn compute_output(&self, input: &Tensor) -> crate::Result<Tensor> {
        self.validate_input(input)?;
        let mut y = ops::matmul_a_bt(input, &self.weight.value())?;
        if let Some(bias) = &self.bias {
            let b = bias.value();
            let n = input.dims()[0];
            for i in 0..n {
                for (yij, &bj) in y.data_mut()[i * self.out_features..(i + 1) * self.out_features]
                    .iter_mut()
                    .zip(b.data())
                {
                    *yij += bj;
                }
            }
        }
        Ok(y)
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let y = self.compute_output(input)?;
        if mode == Mode::Eval {
            return Ok(y);
        }
        self.macs = (input.dims()[0] * self.out_features * self.in_features) as u64;
        self.cached_input = Some(input.clone());
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        // dX = dY · W. The stashed input and the `[out, in]` f32 `dW` are
        // gone before `value()` dequantises a second tensor of that shape.
        self.backward_params(grad_output)?;
        let w = self.weight.value();
        let dx = ops::matmul(grad_output, &w)?;
        Ok(dx)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> crate::Result<()> {
        let input = take_stash(&mut self.cached_input, &self.name)?;
        if grad_output.rank() != 2
            || grad_output.dims()[0] != input.dims()[0]
            || grad_output.dims()[1] != self.out_features
        {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "grad_output {:?} incompatible with [batch, {}]",
                    grad_output.dims(),
                    self.out_features
                ),
            });
        }
        // dW = dYᵀ · X, db = Σ_rows dY; each temporary drops as soon as it
        // is accumulated.
        self.weight
            .accumulate_grad(&ops::matmul_at_b(grad_output, &input)?)?;
        if let Some(bias) = &mut self.bias {
            bias.accumulate_grad(&ops::reduce::sum_rows(grad_output)?)?;
        }
        Ok(())
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
        builder.push_linear(
            &self.weight,
            self.bias.as_ref(),
            self.in_features,
            self.out_features,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::seeded;

    fn make(out: usize, inp: usize) -> Linear {
        Linear::new(
            "fc",
            inp,
            out,
            ParamPrecision::Float32,
            Some(ParamPrecision::Float32),
            &mut seeded(0),
        )
        .unwrap()
    }

    #[test]
    fn forward_shape_and_macs() {
        let mut l = make(5, 3);
        let x = trng::normal(&[4, 3], 1.0, &mut seeded(1));
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[4, 5]);
        assert_eq!(l.macs_last_forward(), 4 * 5 * 3);
    }

    #[test]
    fn bias_is_added() {
        let mut l = make(2, 2);
        l.visit_params(&mut |p| {
            if p.kind() == ParamKind::Bias {
                p.grad_mut().fill(0.0);
                // overwrite bias value via store
                if let crate::ParamStore::Float(_) = p.store() {
                    // set through apply_update: w -= lr*g  with g = -1 ⇒ +1
                    let g = Tensor::full(&[2], -1.0);
                    p.apply_update(&g, 1.0, apt_quant::RoundingMode::Truncate, &mut seeded(0))
                        .unwrap();
                }
            }
        });
        let x = Tensor::zeros(&[1, 2]);
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.data(), &[1.0, 1.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut l = make(3, 4);
        let x = trng::normal(&[2, 4], 1.0, &mut seeded(2));
        let go = trng::normal(&[2, 3], 1.0, &mut seeded(3));
        let _ = l.forward(&x, Mode::Train).unwrap();
        let dx = l.backward(&go).unwrap();
        assert_eq!(dx.dims(), x.dims());

        // finite differences on the input
        let eps = 1e-2;
        let loss = |l: &mut Linear, x: &Tensor| -> f32 {
            let y = l.forward(x, Mode::Eval).unwrap();
            y.data().iter().zip(go.data()).map(|(a, b)| a * b).sum()
        };
        for k in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let fd = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            assert!(
                (fd - dx.data()[k]).abs() < 1e-2,
                "k={k} fd={fd} an={}",
                dx.data()[k]
            );
        }
    }

    #[test]
    fn weight_gradient_accumulates() {
        let mut l = make(2, 2);
        let x = Tensor::ones(&[1, 2]);
        let go = Tensor::ones(&[1, 2]);
        let _ = l.forward(&x, Mode::Train).unwrap();
        let _ = l.backward(&go).unwrap();
        let _ = l.forward(&x, Mode::Train).unwrap();
        let _ = l.backward(&go).unwrap();
        l.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight {
                // dW = 1 per call, accumulated twice
                assert!(p.grad().data().iter().all(|&g| (g - 2.0).abs() < 1e-6));
            }
        });
    }

    #[test]
    fn errors_on_misuse() {
        let mut l = make(2, 3);
        assert!(l.forward(&Tensor::zeros(&[1, 5]), Mode::Train).is_err());
        assert!(l.forward(&Tensor::zeros(&[3]), Mode::Train).is_err());
        let mut fresh = make(2, 3);
        assert!(matches!(
            fresh.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
        let _ = fresh.forward(&Tensor::zeros(&[1, 3]), Mode::Train).unwrap();
        assert!(fresh.backward(&Tensor::zeros(&[1, 5])).is_err());
        assert!(Linear::new("z", 0, 2, ParamPrecision::Float32, None, &mut seeded(0)).is_err());
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut l = make(2, 2);
        let _ = l.forward(&Tensor::zeros(&[1, 2]), Mode::Eval).unwrap();
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }
}
