use crate::{KernelLane, Layer, Mode, Param, ParamKind};
use apt_tensor::Tensor;

/// A sequential container of layers — the unit APT trains.
///
/// `Network` wires layer forward/backward passes together and exposes the
/// parameter set through visitors, which is how the optimiser, the energy
/// meter and the APT precision controller all reach the weights without
/// the network knowing about any of them.
///
/// ```
/// use apt_nn::{models, Mode, QuantScheme};
/// use apt_tensor::{rng, Tensor};
///
/// let mut net = models::mlp("m", &[4, 6, 2], &QuantScheme::float32(), &mut rng::seeded(0))?;
/// assert!(net.num_params() > 0);
/// let y = net.forward(&Tensor::zeros(&[1, 4]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 2]);
/// # Ok::<(), apt_nn::NnError>(())
/// ```
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates a network from an ordered layer list.
    pub fn new(name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        Network {
            name: name.into(),
            layers,
        }
    }

    /// The network's name (e.g. `"resnet20"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers (composite blocks count as one).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Runs the full forward pass through a **shared** reference —
    /// evaluation arithmetic, no activation caching, no gradient or MAC
    /// bookkeeping.
    ///
    /// Because this never mutates the network, a frozen model wrapped in
    /// an `Arc<Network>` can serve concurrent inferences from many threads;
    /// the output is bit-identical to `forward(input, Mode::Eval)`.
    ///
    /// ```
    /// use apt_nn::{models, Mode, QuantScheme};
    /// use apt_tensor::{rng, Tensor};
    ///
    /// let mut net = models::mlp("m", &[4, 6, 2], &QuantScheme::float32(), &mut rng::seeded(0))?;
    /// let x = Tensor::zeros(&[1, 4]);
    /// let eval = net.forward(&x, Mode::Eval)?;
    /// let infer = net.forward_inference(&x)?;
    /// assert_eq!(eval.data(), infer.data());
    /// # Ok::<(), apt_nn::NnError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn forward_inference(&self, input: &Tensor) -> crate::Result<Tensor> {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward_inference(&x)?;
        }
        Ok(x)
    }

    /// Runs the full backward pass from `∂L/∂output`, accumulating parameter
    /// gradients, and returns `∂L/∂input`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Visits every parameter mutably, in layer order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits every parameter immutably, in layer order.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params_ref(f);
        }
    }

    /// Clears every parameter's gradient accumulator.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.len());
        n
    }

    /// Names of the weight parameters, in network order — the "M layers"
    /// whose bitwidths Algorithm 1 adapts.
    pub fn weight_param_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight {
                names.push(p.name().to_string());
            }
        });
        names
    }

    /// The [`Param::integrity_digest`] of every parameter, in layer order.
    ///
    /// This is the whole-network fingerprint the trainer's integrity guard
    /// refreshes after each clean step and re-checks before the next one —
    /// any in-memory corruption of weights, quantiser calibration, or
    /// momentum shows up as a per-layer digest mismatch.
    pub fn integrity_digests(&self) -> Vec<(String, u64)> {
        let mut digests = Vec::new();
        self.visit_params_ref(&mut |p| {
            digests.push((p.name().to_string(), p.integrity_digest()));
        });
        digests
    }

    /// Total training-memory footprint of the model state in bits
    /// (Figure 5's "model size for training").
    pub fn memory_bits(&self) -> u64 {
        let mut bits = 0;
        self.visit_params_ref(&mut |p| bits += p.memory_bits());
        bits
    }

    /// Bytes of process memory the model state actually occupies right now
    /// — bit-packed code stores, fp32 tensors and any allocated momentum
    /// buffers. The physically-measured counterpart of [`memory_bits`].
    ///
    /// [`memory_bits`]: Network::memory_bits
    pub fn resident_bytes(&self) -> u64 {
        let mut bytes = 0;
        self.visit_params_ref(&mut |p| bytes += p.resident_bytes());
        bytes
    }

    /// Multiply-accumulates executed by the most recent forward pass.
    pub fn macs_last_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.macs_last_forward()).sum()
    }

    /// Visits every (weight-parameter name, MACs of last forward) pair
    /// across all layers — the energy model's per-tensor compute inventory.
    pub fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        for layer in &self.layers {
            layer.visit_compute(f);
        }
    }

    /// Visits every non-learnable state buffer (batch-norm running
    /// statistics) mutably, for checkpointing.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }

    /// Immutable access to the layer list.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Compiles the network into an immutable, fused, arena-planned
    /// [`FrozenPlan`](crate::FrozenPlan) for inputs of per-sample shape
    /// `sample_dims`, targeting kernel `lane`.
    ///
    /// Each layer lowers itself into typed steps
    /// ([`Layer::lower`](crate::Layer::lower)), then the plan pipeline
    /// folds BatchNorm into preceding convolutions, fuses activations
    /// into kernel epilogues, and pre-plans every intermediate buffer
    /// into one scratch arena — see [`crate::plan`] for the contract.
    /// The network itself is untouched (`&self`) and the plan copies what
    /// it needs, so later training steps neither see nor change it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Unfreezable`](crate::NnError::Unfreezable) when
    /// a layer has no plan lowering or the shapes cannot be threaded
    /// through — callers treat this as a typed signal to fall back to
    /// [`forward_inference`](Self::forward_inference), not as a fatal
    /// error.
    pub fn freeze(
        &self,
        sample_dims: &[usize],
        lane: KernelLane,
    ) -> crate::Result<crate::FrozenPlan> {
        let mut builder = crate::PlanBuilder::new(sample_dims, lane)?;
        for layer in &self.layers {
            builder.set_layer(layer.name());
            layer.lower(&mut builder)?;
        }
        builder.finish()
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.name()).collect::<Vec<_>>(),
            )
            .field("num_params", &self.num_params())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, Relu};
    use crate::{ParamPrecision, QuantScheme};
    use apt_tensor::rng::{normal, seeded};

    fn tiny_net() -> Network {
        let mut rng = seeded(0);
        let l1 = Linear::new(
            "fc1",
            4,
            8,
            ParamPrecision::Float32,
            Some(ParamPrecision::Float32),
            &mut rng,
        )
        .unwrap();
        let l2 = Linear::new(
            "fc2",
            8,
            3,
            ParamPrecision::Float32,
            Some(ParamPrecision::Float32),
            &mut rng,
        )
        .unwrap();
        Network::new(
            "tiny",
            vec![Box::new(l1), Box::new(Relu::new("r")), Box::new(l2)],
        )
    }

    #[test]
    fn forward_backward_chain() {
        let mut net = tiny_net();
        let x = normal(&[2, 4], 1.0, &mut seeded(1));
        let y = net.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        let dx = net.backward(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(dx.dims(), &[2, 4]);
    }

    #[test]
    fn param_accounting() {
        let net = tiny_net();
        // fc1: 4*8 + 8 = 40; fc2: 8*3 + 3 = 27
        assert_eq!(net.num_params(), 67);
        assert_eq!(net.memory_bits(), 67 * 32);
        assert_eq!(net.resident_bytes(), 67 * 4, "all-fp32 net: 4 bytes/param");
        assert_eq!(net.weight_param_names(), vec!["fc1.weight", "fc2.weight"]);
        assert_eq!(net.num_layers(), 3);
        assert_eq!(net.name(), "tiny");
    }

    #[test]
    fn zero_grads_clears() {
        let mut net = tiny_net();
        let x = normal(&[2, 4], 1.0, &mut seeded(2));
        let _ = net.forward(&x, Mode::Train).unwrap();
        let _ = net.backward(&Tensor::ones(&[2, 3])).unwrap();
        let mut nonzero = 0;
        net.visit_params_ref(&mut |p| {
            if p.grad().abs_max() > 0.0 {
                nonzero += 1;
            }
        });
        assert!(nonzero > 0);
        net.zero_grads();
        net.visit_params_ref(&mut |p| assert_eq!(p.grad().abs_max(), 0.0));
    }

    #[test]
    fn debug_output_lists_layers() {
        let net = tiny_net();
        let s = format!("{net:?}");
        assert!(s.contains("fc1"));
        assert!(s.contains("tiny"));
    }

    #[test]
    fn flatten_integrates() {
        let mut net = Network::new("f", vec![Box::new(Flatten::new("fl"))]);
        let y = net
            .forward(&Tensor::zeros(&[2, 3, 2, 2]), Mode::Train)
            .unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let _ = QuantScheme::default();
    }
}
