use crate::layer::cached;
use crate::{Layer, Mode, Param};
use apt_tensor::ops::fused::Epilogue;
use apt_tensor::Tensor;

/// A clamp activation, written once for its two instances: [`Relu`]
/// (`SIX == false`) and [`Relu6`] (`SIX == true`).
#[derive(Debug)]
pub struct Clamp<const SIX: bool> {
    name: String,
    cached_input: Option<Tensor>,
}

/// Rectified linear unit: `y = max(x, 0)`.
pub type Relu = Clamp<false>;

/// ReLU6 (`y = min(max(x, 0), 6)`) — MobileNetV2's activation (Sandler et
/// al. \[17\]).
pub type Relu6 = Clamp<true>;

impl<const SIX: bool> Clamp<SIX> {
    /// Creates the activation layer.
    pub fn new(name: impl Into<String>) -> Self {
        Clamp {
            name: name.into(),
            cached_input: None,
        }
    }
}

/// `∂L/∂x` of a ReLU (`six == false`) or ReLU6 at pre-activation `x`:
/// `g` where the clamp passes `x` through, 0 where it clamps.
pub(crate) fn clamp_grad(six: bool, x: &Tensor, g: &Tensor) -> crate::Result<Tensor> {
    Ok(if six {
        x.zip(g, |x, g| if x > 0.0 && x < 6.0 { g } else { 0.0 })?
    } else {
        x.zip(g, |x, g| if x > 0.0 { g } else { 0.0 })?
    })
}

impl<const SIX: bool> Layer for Clamp<SIX> {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let y = self.forward_inference(input)?;
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        Ok(y)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        Ok(input.map(|x| if SIX { x.clamp(0.0, 6.0) } else { x.max(0.0) }))
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let input = cached(&self.cached_input, &self.name)?;
        clamp_grad(SIX, input, grad_output)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_act(if SIX { Epilogue::Relu6 } else { Epilogue::Relu });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new("r");
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = r.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = Tensor::from_slice(&[5.0, 5.0, 5.0]);
        let dx = r.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn relu6_saturates_both_ends() {
        let mut r = Relu6::new("r6");
        let x = Tensor::from_slice(&[-1.0, 3.0, 7.0]);
        let y = r.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.data(), &[0.0, 3.0, 6.0]);
        let g = Tensor::from_slice(&[1.0, 1.0, 1.0]);
        let dx = r.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut r = Relu::new("r");
        assert!(r.backward(&Tensor::zeros(&[1])).is_err());
        let mut r6 = Relu6::new("r6");
        assert!(r6.backward(&Tensor::zeros(&[1])).is_err());
        // Eval mode does not cache.
        let _ = r.forward(&Tensor::zeros(&[1]), Mode::Eval).unwrap();
        assert!(r.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn activations_have_no_params() {
        let mut count = 0;
        Relu::new("r").visit_params_ref(&mut |_| count += 1);
        Relu6::new("r6").visit_params_ref(&mut |_| count += 1);
        assert_eq!(count, 0);
    }
}
