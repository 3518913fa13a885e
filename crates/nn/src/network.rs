use crate::layers::Sequential;
use crate::{Layer, Mode, Param, ParamKind};
use apt_tensor::Tensor;

/// A named [`Sequential`] of layers — the unit APT trains.
///
/// `Network` runs the chain's forward/backward passes and exposes the
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
pub struct Network(Sequential);

impl Network {
    /// Creates a network from an ordered layer list.
    pub fn new(name: impl Into<String>, layers: Vec<Box<dyn Layer>>) -> Self {
        Network(Sequential::new(name, layers))
    }

    /// The network's name (e.g. `"resnet20"`).
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// Number of layers (composite blocks count as one).
    pub fn num_layers(&self) -> usize {
        self.0.len()
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor> {
        self.0.forward(input, mode)
    }

    /// Runs the backward pass from `∂L/∂output`, accumulating every
    /// parameter gradient.
    ///
    /// It returns no `∂L/∂input`, and does not compute one: the pass stops
    /// at the first layer that has parameters, which runs
    /// [`Layer::backward_params`] (for a `Conv2d` or `Linear` that is `dW`
    /// and `db` without the input-gradient GEMM), and the parameter-free
    /// layers in front of it (an MLP's `Flatten`) do not run at all. Every
    /// layer behind it runs [`Layer::backward`]. A caller that wants the
    /// gradient with respect to an input calls the layers' `backward`
    /// itself.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn backward(&mut self, grad_output: &Tensor) -> crate::Result<()> {
        self.0.backward_params(grad_output)
    }

    /// Visits every parameter mutably, in layer order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_params(f);
    }

    /// Visits every parameter immutably, in layer order.
    pub fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.0.visit_params_ref(f);
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
        self.0.macs_last_forward()
    }

    /// Visits every (weight-parameter name, MACs of last forward) pair
    /// across all layers — the energy model's per-tensor compute inventory.
    pub fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        self.0.visit_compute(f);
    }

    /// Visits every non-learnable state buffer (batch-norm running
    /// statistics) mutably, for checkpointing.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        self.0.visit_buffers(f);
    }

    /// Compiles the network into an immutable, fused, arena-planned
    /// [`FrozenPlan`](crate::FrozenPlan) for inputs of per-sample shape
    /// `sample_dims`.
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
    /// the shapes cannot be threaded through or a layer's grid cannot be
    /// expressed — a model that cannot freeze cannot be served.
    pub fn freeze(&self, sample_dims: &[usize]) -> crate::Result<crate::FrozenPlan> {
        let mut builder = crate::PlanBuilder::new(sample_dims)?;
        self.0.lower(&mut builder)?;
        builder.finish()
    }
}

#[cfg(test)]
impl Network {
    /// Every layer's [`Layer::backward`], last to first (the chain's own
    /// `backward`), returning the first layer's `∂L/∂input`: the loop
    /// [`backward`](Network::backward) was, kept as its reference.
    pub(crate) fn backward_by_hand(&mut self, grad_output: &Tensor) -> crate::Result<Tensor> {
        self.0.backward(grad_output)
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.0)
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
        let dx = net.backward_by_hand(&Tensor::ones(&[2, 3])).unwrap();
        assert_eq!(dx.dims(), &[2, 4]);
    }

    #[test]
    fn backward_accumulates_what_the_layers_do_by_hand() {
        use crate::layers::Conv2d;
        use crate::models;
        let fp = ParamPrecision::Float32;
        type Build = Box<dyn Fn() -> Network>;
        let nets: Vec<(Build, Vec<usize>)> = vec![
            (
                Box::new(|| {
                    models::cifarnet(10, 8, 0.5, &QuantScheme::paper_apt(), &mut seeded(3)).unwrap()
                }),
                vec![4, 3, 8, 8],
            ),
            (
                // `Flatten` in front: the first trainable layer is `fc0`.
                Box::new(|| {
                    let dims = [48, 16, 8, 10];
                    models::mlp("m", &dims, &QuantScheme::paper_apt(), &mut seeded(4)).unwrap()
                }),
                vec![4, 3, 4, 4],
            ),
            (
                Box::new(|| {
                    models::resnet20(10, 0.25, &QuantScheme::paper_apt(), &mut seeded(5)).unwrap()
                }),
                vec![2, 3, 8, 8],
            ),
            (
                Box::new(|| {
                    models::mobilenet_v2(10, 0.25, &QuantScheme::float32(), &mut seeded(6)).unwrap()
                }),
                vec![2, 3, 8, 8],
            ),
            (
                Box::new(|| {
                    models::vgg_small(10, 8, 0.05, &QuantScheme::float32(), &mut seeded(7)).unwrap()
                }),
                vec![2, 3, 8, 8],
            ),
            (
                Box::new(move || {
                    let fc = Linear::new("fc", 6, 3, fp, Some(fp), &mut seeded(8)).unwrap();
                    Network::new("one-linear", vec![Box::new(fc)])
                }),
                vec![5, 6],
            ),
            (
                Box::new(move || {
                    let conv = Conv2d::new("c", 3, 4, 3, 1, 1, 1, fp, Some(fp), &mut seeded(9));
                    Network::new("one-conv", vec![Box::new(conv.unwrap())])
                }),
                vec![2, 3, 5, 5],
            ),
        ];
        for (build, dims) in nets {
            let (mut net, mut by_hand) = (build(), build());
            let x = normal(&dims, 1.0, &mut seeded(11));
            // Two steps, so the second accumulates onto gradients in place.
            for step in 0..2 {
                let y = net.forward(&x, Mode::Train).unwrap();
                let same_y = by_hand.forward(&x, Mode::Train).unwrap();
                assert_eq!(y.data(), same_y.data());
                let g = normal(y.dims(), 1.0, &mut seeded(12 + step));
                net.backward(&g).unwrap();
                let dx = by_hand.backward_by_hand(&g).unwrap();
                assert_eq!(dx.dims(), x.dims(), "{}", net.name());
            }
            let grads = |n: &Network| {
                let mut all = Vec::new();
                n.visit_params_ref(&mut |p| {
                    all.push((p.name().to_string(), p.grad().data().to_vec()));
                });
                all
            };
            let (got, want) = (grads(&net), grads(&by_hand));
            assert_eq!(got.len(), want.len());
            for ((name, g), (_, w)) in got.iter().zip(&want) {
                assert!(g.iter().any(|&v| v != 0.0), "{name}: no gradient arrived");
                assert!(
                    g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{}: {name} differs from the layer-by-layer pass",
                    net.name()
                );
            }
        }
    }

    #[test]
    fn backward_errors_are_the_layers_errors() {
        // The shortened pass keeps every check of the full one.
        let mut net = tiny_net();
        assert!(matches!(
            net.backward(&Tensor::ones(&[2, 3])),
            Err(crate::NnError::BackwardBeforeForward { .. })
        ));
        let x = normal(&[2, 4], 1.0, &mut seeded(1));
        let _ = net.forward(&x, Mode::Train).unwrap();
        assert!(net.backward(&Tensor::ones(&[2, 5])).is_err());
        assert!(net.backward(&Tensor::ones(&[3, 3])).is_err());
        let mut empty = Network::new("empty", Vec::new());
        assert_eq!(empty.forward(&x, Mode::Train).unwrap().data(), x.data());
        empty.backward(&x).unwrap();
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
        net.backward(&Tensor::ones(&[2, 3])).unwrap();
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
