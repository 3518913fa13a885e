use crate::layer::take_stash;
use crate::{Layer, Mode, NnError, Param};
use apt_tensor::Tensor;

/// Flattens `[n, …]` to `[n, volume/n]` (the conv→linear boundary).
#[derive(Debug)]
pub struct Flatten {
    name: String,
    cached_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Flatten {
            name: name.into(),
            cached_dims: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        if input.rank() < 2 {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("rank must be ≥ 2, got {:?}", input.dims()),
            });
        }
        let n = input.dims()[0];
        let features = input.len() / n.max(1);
        let y = input.reshape(&[n, features])?;
        if mode == Mode::Train {
            self.cached_dims = Some(input.dims().to_vec());
        }
        Ok(y)
    }

    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let dims = take_stash(&mut self.cached_dims, &self.name)?;
        Ok(grad_output.reshape(&dims)?)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
    fn visit_params_ref(&self, _f: &mut dyn FnMut(&Param)) {}

    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()> {
        builder.push_flatten();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new("fl");
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 48]);
        let dx = f.backward(&Tensor::zeros(&[2, 48])).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn misuse_errors() {
        let mut f = Flatten::new("fl");
        assert!(f.forward(&Tensor::zeros(&[3]), Mode::Train).is_err());
        assert!(f.backward(&Tensor::zeros(&[2, 4])).is_err());
    }
}
