use super::activation::RegionMask;
use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param, ParamKind, ParamPrecision};
use apt_quant::{fake, Bitwidth};
use apt_tensor::Tensor;

/// Activation quantisation with a **learnable clipping point** — the
/// PACT-style activation the paper's §III-B anticipates ("Gavg applies to
/// other parameters that need to be learned during training, e.g. bias,
/// the clipping point of activation") and the piece WAGE-style arms need
/// to quantise activations as well as weights.
///
/// Forward: `y = quantize_k( clamp(x, 0, α) )` on the uniform `[0, α]`
/// grid with `2^k` levels. Backward (straight-through estimator):
///
/// * `∂L/∂x = g · 1[0 < x < α]`
/// * `∂L/∂α = Σ g · 1[x ≥ α]` — saturated positions push the clip.
#[derive(Debug)]
pub struct ActQuant {
    name: String,
    bits: Bitwidth,
    clip: Param,
    /// Where each input of the last training forward fell against
    /// `(0, α)`, until the backward that reads it.
    mask: Option<RegionMask>,
}

impl ActQuant {
    /// Creates an activation quantiser with initial clip `alpha` (a good
    /// default is 6.0, matching ReLU6).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] unless `alpha` is finite and > 0.
    pub fn new(name: impl Into<String>, bits: Bitwidth, alpha: f32) -> crate::Result<Self> {
        let name = name.into();
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(NnError::BadConfig {
                reason: format!("act-quant `{name}`: clip {alpha} must be finite and > 0"),
            });
        }
        let clip = Param::new(
            format!("{name}.clip"),
            ParamKind::ActClip,
            Tensor::from_slice(&[alpha]),
            ParamPrecision::Float32,
        )?;
        Ok(ActQuant {
            name,
            bits,
            clip,
            mask: None,
        })
    }

    /// The activation bitwidth.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// The current clipping point α.
    fn clip_value(&self) -> f32 {
        self.clip.value().data()[0]
    }

    /// The `[0, α]` grid as `(α, ε)`: the clip floored away from zero and
    /// the step `α / (2^k − 1)`.
    fn grid(&self) -> (f32, f32) {
        let alpha = self.clip_value().max(f32::MIN_POSITIVE);
        (alpha, alpha / self.bits.num_steps() as f32)
    }
}

impl Layer for ActQuant {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let (alpha, eps) = self.grid();
        let mut y = input.clone();
        let snap = |x| fake::quantize_clipped(x, alpha, eps);
        self.mask = Some(RegionMask::apply(&mut y, Some(alpha), snap));
        Ok(y)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let (alpha, eps) = self.grid();
        Ok(input.map(|x| fake::quantize_clipped(x, alpha, eps)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let mask = take_stash(&mut self.mask, &self.name)?;
        // dα accumulates from saturated positions; dx passes inside (0, α).
        let dalpha = mask.saturated_sum(grad_output)?;
        self.clip
            .accumulate_grad(&Tensor::from_slice(&[dalpha as f32]))?;
        mask.pass(grad_output)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.clip);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.clip);
    }

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        // The grid `forward_inference` uses, captured at compile time —
        // freezing snapshots the learned clip.
        let (alpha, eps) = self.grid();
        builder.push_act_quant(alpha, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn forward_clamps_and_discretises() {
        let mut aq = ActQuant::new("aq", b(2), 6.0).unwrap();
        let x = Tensor::from_slice(&[-1.0, 1.0, 3.0, 7.0]);
        let y = aq.forward(&x, Mode::Eval).unwrap();
        // 2-bit grid on [0, 6]: {0, 2, 4, 6}
        assert_eq!(y.data(), &[0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn level_count_bounded_by_bits() {
        let mut aq = ActQuant::new("aq", b(3), 4.0).unwrap();
        let x = normal(&[2048], 2.0, &mut seeded(1)).map(|v| v + 2.0);
        let y = aq.forward(&x, Mode::Eval).unwrap();
        let mut levels: Vec<i64> = y.data().iter().map(|&v| (v * 1e5) as i64).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() as u64 <= aq.bits().num_levels() + 1);
    }

    #[test]
    fn input_gradient_is_masked_ste() {
        let mut aq = ActQuant::new("aq", b(4), 2.0).unwrap();
        let x = Tensor::from_slice(&[-0.5, 1.0, 2.5]);
        let _ = aq.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_slice(&[10.0, 10.0, 10.0]);
        let dx = aq.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 10.0, 0.0]);
    }

    #[test]
    fn clip_gradient_counts_saturated_positions() {
        let mut aq = ActQuant::new("aq", b(4), 2.0).unwrap();
        let x = Tensor::from_slice(&[0.5, 2.5, 3.0, -1.0]);
        let _ = aq.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let _ = aq.backward(&g).unwrap();
        let mut clip_grad = 0.0;
        aq.visit_params_ref(&mut |p| {
            assert_eq!(p.kind(), ParamKind::ActClip);
            clip_grad = p.grad().data()[0];
        });
        assert_eq!(clip_grad, 5.0); // only the two saturated inputs (2+3)
    }

    #[test]
    fn clip_is_learnable_and_moves() {
        let mut aq = ActQuant::new("aq", b(8), 1.0).unwrap();
        let before = aq.clip_value();
        // Saturating inputs with positive upstream gradient push α down
        // when the accumulated gradient is applied (gradient descent).
        let x = Tensor::from_slice(&[2.0, 2.0, 2.0, 2.0]);
        let _ = aq.forward(&x, Mode::Train).unwrap();
        let _ = aq.backward(&Tensor::ones(&[4])).unwrap();
        aq.visit_params(&mut |p| {
            let g = p.grad().clone();
            assert!(g.data()[0] > 0.0);
            p.apply_update(
                &g,
                0.01,
                apt_quant::RoundingMode::Truncate,
                &mut apt_tensor::rng::seeded(0),
            )
            .unwrap();
        });
        let after = aq.clip_value();
        assert!(after < before, "clip should decrease: {before} -> {after}");
    }

    #[test]
    fn validation_and_misuse() {
        assert!(ActQuant::new("aq", b(4), 0.0).is_err());
        assert!(ActQuant::new("aq", b(4), f32::NAN).is_err());
        let mut aq = ActQuant::new("aq", b(4), 1.0).unwrap();
        assert!(aq.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn gavg_applies_when_clip_is_quantized() {
        // §III-B's full claim: with a quantised clip store, the underflow
        // metric covers the clipping point too.
        let mut aq = ActQuant::new("aq", b(8), 6.0).unwrap();
        // swap the clip store for a quantised one
        aq.visit_params(&mut |p| {
            // degenerate single-value tensors quantise with the ε floor
            let v = p.value();
            let store = apt_nn_store(&v);
            p.set_store(store).unwrap();
        });
        let x = normal(&[64], 3.0, &mut seeded(2)).map(f32::abs);
        let _ = aq.forward(&x, Mode::Train).unwrap();
        let _ = aq.backward(&Tensor::ones(&[64])).unwrap();
        let mut gavg = None;
        aq.visit_params_ref(&mut |p| gavg = p.gavg());
        assert!(gavg.is_some(), "quantised clip must be Gavg-profilable");
    }

    fn apt_nn_store(v: &Tensor) -> crate::ParamStore {
        crate::ParamStore::Quantized(
            apt_quant::QuantizedTensor::from_tensor(v, Bitwidth::new(8).unwrap()).unwrap(),
        )
    }
}
