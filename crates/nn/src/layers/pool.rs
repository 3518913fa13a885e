use crate::layer::cached;
use crate::{Layer, Mode, Param};
use apt_tensor::ops::pool;
use apt_tensor::Tensor;

/// Non-overlapping max pooling with window and stride `k`.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    k: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax, input dims)
}

impl MaxPool2d {
    /// Creates a max-pool layer with square window `k`.
    pub fn new(name: impl Into<String>, k: usize) -> Self {
        MaxPool2d {
            name: name.into(),
            k,
            cache: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let out = pool::max_pool2d(input, self.k)?;
        self.cache = Some((out.argmax, input.dims().to_vec()));
        Ok(out.output)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        Ok(pool::max_pool2d(input, self.k)?.output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let (argmax, dims) = cached(&self.cache, &self.name)?;
        Ok(pool::max_pool2d_backward(grad_output, argmax, dims)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_max_pool(self.k)
    }
}

/// Non-overlapping average pooling with window and stride `k`.
#[derive(Debug)]
pub struct AvgPool2d {
    name: String,
    k: usize,
    cached_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer with square window `k`.
    pub fn new(name: impl Into<String>, k: usize) -> Self {
        AvgPool2d {
            name: name.into(),
            k,
            cached_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let y = pool::avg_pool2d(input, self.k)?;
        self.cached_dims = Some(input.dims().to_vec());
        Ok(y)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        Ok(pool::avg_pool2d(input, self.k)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let dims = cached(&self.cached_dims, &self.name)?;
        Ok(pool::avg_pool2d_backward(grad_output, dims, self.k)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_avg_pool(self.k)
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
        if mode == Mode::Eval {
            return self.forward_inference(input);
        }
        let y = pool::global_avg_pool(input)?;
        self.cached_dims = Some(input.dims().to_vec());
        Ok(y)
    }

    fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        Ok(pool::global_avg_pool(input)?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let dims = cached(&self.cached_dims, &self.name)?;
        Ok(pool::global_avg_pool_backward(grad_output, dims)?)
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
        let dx = p.backward(&Tensor::ones(&[1, 2, 2, 2])).unwrap();
        assert_eq!(dx.dims(), x.dims());
        assert_eq!(dx.sum(), 8.0);
    }

    #[test]
    fn avg_pool_layer_roundtrip() {
        let mut p = AvgPool2d::new("ap", 2);
        let x = normal(&[2, 1, 4, 4], 1.0, &mut seeded(2));
        let y = p.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 1, 2, 2]);
        let dx = p.backward(&Tensor::ones(&[2, 1, 2, 2])).unwrap();
        assert!((dx.sum() - 8.0).abs() < 1e-5);
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
        assert!(AvgPool2d::new("b", 2)
            .backward(&Tensor::zeros(&[1, 1, 1, 1]))
            .is_err());
        assert!(GlobalAvgPool::new("c")
            .backward(&Tensor::zeros(&[1, 1]))
            .is_err());
    }
}
