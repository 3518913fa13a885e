use crate::layer::take_stash;
use crate::{Layer, Mode, Param};
use apt_tensor::ops::fused::Epilogue;
use apt_tensor::{Tensor, TensorError};

/// A clamp activation, written once for its two instances: [`Relu`]
/// (`SIX == false`) and [`Relu6`] (`SIX == true`).
#[derive(Debug)]
pub struct Clamp<const SIX: bool> {
    name: String,
    /// Where each input of the last training forward fell, until the
    /// backward that reads it.
    mask: Option<RegionMask>,
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
            mask: None,
        }
    }
}

/// Whether the gradient passes each element of a clamp's input, a byte
/// each: `true` inside the band `(0, top)`, `false` outside it or at NaN.
/// The stash of [`Clamp`] and of a `Residual`'s activation: all their
/// backward reads of the input, at a quarter of its bytes.
#[derive(Debug)]
pub(crate) struct RegionMask(Vec<bool>);

impl RegionMask {
    /// Applies `act` to `x` in place and records, in the same pass, whether
    /// each element fell inside the band `(0, top)`. `top` must be above 0;
    /// with none, the band has no top (ReLU).
    #[inline]
    fn apply(x: &mut Tensor, top: Option<f32>, act: impl Fn(f32) -> f32) -> Self {
        let mut mask = vec![false; x.len()];
        for (v, m) in x.data_mut().iter_mut().zip(&mut mask) {
            // A NaN input fails `v > 0` and passes nothing.
            *m = *v > 0.0 && top.is_none_or(|t| *v < t);
            *v = act(*v);
        }
        RegionMask(mask)
    }

    /// ReLU6 when `six`, else ReLU, over `x` in place, and its mask.
    #[inline]
    pub(crate) fn clamp(x: &mut Tensor, six: bool) -> Self {
        if six {
            Self::apply(x, Some(6.0), |v| v.clamp(0.0, 6.0))
        } else {
            Self::apply(x, None, |v| v.max(0.0))
        }
    }

    /// `∂L/∂x`: `g` where the element passed, 0 where it was clamped — a
    /// select, so a NaN or `−0` gradient passes as itself.
    pub(crate) fn pass(&self, g: &Tensor) -> crate::Result<Tensor> {
        if g.len() != self.0.len() {
            return Err(TensorError::LengthMismatch {
                expected: self.0.len(),
                actual: g.len(),
            }
            .into());
        }
        let dx = self.0.iter().zip(g.data());
        let dx = dx.map(|(&m, &g)| if m { g } else { 0.0 }).collect();
        Ok(Tensor::from_vec(dx, g.dims())?)
    }
}

impl<const SIX: bool> Layer for Clamp<SIX> {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return Ok(input.map(|x| if SIX { x.clamp(0.0, 6.0) } else { x.max(0.0) }));
        }
        let mut y = input.clone();
        self.mask = Some(RegionMask::clamp(&mut y, SIX));
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        take_stash(&mut self.mask, &self.name)?.pass(grad_output)
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
