use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param};
use apt_tensor::ops::{fused, pool};
use apt_tensor::Tensor;

/// Non-overlapping max pooling with window and stride `k`.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    k: usize,
    /// The last training forward's argmax table — a byte per window — and
    /// input dims, until the backward that reads them.
    stash: Option<(Vec<u8>, [usize; 4])>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with square window `k`.
    pub fn new(name: impl Into<String>, k: usize) -> Self {
        MaxPool2d {
            name: name.into(),
            k,
            stash: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            // The frozen plans' kernel: the training walk without its
            // argmax table.
            let &[n, c, h, w] = input.dims() else {
                return Err(NnError::BadInput {
                    layer: self.name.clone(),
                    reason: format!("expected [n, c, h, w], got {:?}", input.dims()),
                });
            };
            // A zero `k` sizes an empty output, which `max_pool2d_into` refuses.
            let (oh, ow) = (h.checked_div(self.k), w.checked_div(self.k));
            let mut y = Tensor::zeros(&[n, c, oh.unwrap_or(0), ow.unwrap_or(0)]);
            fused::max_pool2d_into(input.data(), y.data_mut(), n * c, h, w, self.k)?;
            return Ok(y);
        }
        let out = pool::max_pool2d(input, self.k)?;
        // `max_pool2d` takes only `[n, c, h, w]`.
        let dims = std::array::from_fn(|i| input.dims()[i]);
        self.stash = Some((out.argmax, dims));
        Ok(out.output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let (argmax, dims) = take_stash(&mut self.stash, &self.name)?;
        Ok(pool::max_pool2d_backward(
            grad_output,
            &argmax,
            &dims,
            self.k,
        )?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_max_pool(self.k)
    }
}

/// Global average pooling `[n, c, h, w] → [n, c]` (the ResNet/MobileNet
/// head).
#[derive(Debug)]
pub struct GlobalAvgPool {
    name: String,
    cached_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global-average-pool layer.
    pub fn new(name: impl Into<String>) -> Self {
        GlobalAvgPool {
            name: name.into(),
            cached_dims: None,
        }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let y = pool::global_avg_pool(input)?;
        if mode == Mode::Train {
            self.cached_dims = Some(input.dims().to_vec());
        }
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let dims = take_stash(&mut self.cached_dims, &self.name)?;
        Ok(pool::global_avg_pool_backward(grad_output, &dims)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_global_avg_pool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn max_pool_layer_roundtrip() {
        let mut p = MaxPool2d::new("mp", 2);
        let x = normal(&[1, 2, 4, 4], 1.0, &mut seeded(1));
        let y = p.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        let eval = p.forward(&x, Mode::Eval).unwrap();
        assert_eq!(eval.data(), y.data(), "evaluation walks the same windows");
        let dx = p.backward(&Tensor::ones(&[1, 2, 2, 2])).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(dx.data().iter().sum::<f32>(), 8.0);
    }

    #[test]
    fn global_pool_layer_roundtrip() {
        let mut p = GlobalAvgPool::new("gap");
        let x = normal(&[3, 4, 2, 2], 1.0, &mut seeded(3));
        let y = p.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        let dx = p.backward(&Tensor::ones(&[3, 4])).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn backward_requires_forward() {
        assert!(MaxPool2d::new("a", 2)
            .backward(&Tensor::zeros(&[1, 1, 1, 1]))
            .is_err());
        assert!(GlobalAvgPool::new("c")
            .backward(&Tensor::zeros(&[1, 1]))
            .is_err());
    }
}
