use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param};
use apt_tensor::Tensor;

/// Zero-pads the spatial dims of an NCHW tensor:
/// `[n,c,h,w] → [n,c,h+2p,w+2p]`.
///
/// Backbones imported from exporters that keep padding as a separate op
/// (rather than a conv attribute) lower through this layer; the freeze
/// compiler's pad-fold pass then constant-folds a `pad → conv` chain back
/// into the convolution's own `padding` parameter, bit-identically —
/// explicit zeros and implicit boundary zeros contribute the same `+0.0`
/// terms to each accumulator.
#[derive(Debug)]
pub struct ZeroPad2d {
    name: String,
    pad: usize,
    cached_dims: Option<Vec<usize>>,
}

impl ZeroPad2d {
    /// Creates a zero-padding layer adding `pad` rows/columns on every
    /// spatial side.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for `pad == 0` (an identity layer is
    /// a configuration mistake, not a padding).
    pub fn new(name: impl Into<String>, pad: usize) -> crate::Result<Self> {
        let name = name.into();
        if pad == 0 {
            return Err(NnError::BadConfig {
                reason: format!("pad `{name}`: padding must be positive"),
            });
        }
        Ok(ZeroPad2d {
            name,
            pad,
            cached_dims: None,
        })
    }

    /// Padding added on each spatial side.
    pub fn pad(&self) -> usize {
        self.pad
    }
}

impl Layer for ZeroPad2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let y = self.forward_inference(input)?;
        self.cached_dims = Some(input.dims().to_vec());
        Ok(y)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let dims = input.dims();
        if dims.len() != 4 {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("expected [n,c,h,w], got {dims:?}"),
            });
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let p = self.pad;
        let (oh, ow) = (h + 2 * p, w + 2 * p);
        let src = input.data();
        let mut out = vec![0.0f32; n * c * oh * ow];
        for img in 0..n * c {
            let s0 = img * h * w;
            let d0 = img * oh * ow;
            for row in 0..h {
                let s = s0 + row * w;
                let d = d0 + (row + p) * ow + p;
                out[d..d + w].copy_from_slice(&src[s..s + w]);
            }
        }
        Ok(Tensor::from_vec(out, &[n, c, oh, ow])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let dims = take_stash(&mut self.cached_dims, &self.name)?;
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let p = self.pad;
        let (oh, ow) = (h + 2 * p, w + 2 * p);
        if grad_output.dims() != [n, c, oh, ow] {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!(
                    "gradient shape {:?} does not match padded output [{n},{c},{oh},{ow}]",
                    grad_output.dims()
                ),
            });
        }
        // The padded border never depends on the input, so its gradient is
        // simply cropped away.
        let g = grad_output.data();
        let mut out = vec![0.0f32; n * c * h * w];
        for img in 0..n * c {
            let g0 = img * oh * ow;
            let d0 = img * h * w;
            for row in 0..h {
                let s = g0 + (row + p) * ow + p;
                let d = d0 + row * w;
                out[d..d + w].copy_from_slice(&g[s..s + w]);
            }
        }
        Ok(Tensor::from_vec(out, &[n, c, h, w])?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_pad(self.pad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_and_crops_roundtrip() {
        let mut l = ZeroPad2d::new("p", 1).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = l.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        #[rustfmt::skip]
        let expect = vec![
            0.0, 0.0, 0.0, 0.0,
            0.0, 1.0, 2.0, 0.0,
            0.0, 3.0, 4.0, 0.0,
            0.0, 0.0, 0.0, 0.0,
        ];
        assert_eq!(y.data(), &expect[..]);
        // Backward crops the centre back out.
        let dx = l.backward(&y).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    fn misuse_errors() {
        assert!(ZeroPad2d::new("p", 0).is_err());
        let mut l = ZeroPad2d::new("p", 1).unwrap();
        assert!(l.forward(&Tensor::zeros(&[2, 4]), Mode::Train).is_err());
        assert!(l.backward(&Tensor::zeros(&[1, 1, 4, 4])).is_err());
        let _ = l
            .forward(&Tensor::zeros(&[1, 1, 2, 2]), Mode::Train)
            .unwrap();
        // Wrong gradient shape after a successful forward.
        assert!(l.backward(&Tensor::zeros(&[1, 1, 5, 5])).is_err());
    }
}
