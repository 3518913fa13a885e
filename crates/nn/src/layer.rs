use crate::Param;
use apt_tensor::Tensor;

/// Whether a forward pass is part of training (batch-norm uses batch
/// statistics and caches activations) or evaluation (running statistics, no
/// caching requirements).
///
/// `Mode::Eval` is the trainer's evaluation; serving runs the
/// [`FrozenPlan`](crate::FrozenPlan) compiled from the same layers, which
/// matches it bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Training: batch statistics, activations cached for backward.
    #[default]
    Train,
    /// Inference: running statistics, gradients not required.
    Eval,
}

/// A differentiable network layer with manual forward/backward passes.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`forward`](Layer::forward) consumes an input batch and, in
///    [`Mode::Train`], stashes what its backward reads — and no more.
/// 2. [`backward`](Layer::backward) consumes `∂L/∂output`, **accumulates**
///    parameter gradients into its [`Param`]s, returns `∂L/∂input`, and
///    releases the stash: a second backward without a forward between is
///    [`crate::NnError::BackwardBeforeForward`].
///    [`backward_params`](Layer::backward_params) is the same pass for the
///    layer whose `∂L/∂input` nobody reads — the first trainable layer of
///    a [`crate::Network`] — and may skip computing it.
///
/// Layers also self-report the multiply-accumulate count of their last
/// forward pass ([`macs_last_forward`](Layer::macs_last_forward)), which the
/// energy model multiplies by the bit-dependent per-MAC cost.
///
/// The trait is object-safe; networks store `Box<dyn Layer>`. Layers are
/// plain data (tensors, code stores, counters) and must be `Send + Sync`
/// so a frozen [`crate::Network`] can be `Arc`-shared across serving
/// threads.
pub trait Layer: Send + Sync {
    /// Unique (within the network) layer name, e.g. `"stage1.block0.conv1"`.
    fn name(&self) -> &str;

    /// Runs the layer on `input`, caching activations when `mode` is
    /// [`Mode::Train`].
    ///
    /// In [`Mode::Eval`] it runs evaluation arithmetic (batch-norm running
    /// statistics, quantised grids) and touches no training scratch
    /// (activation caches, MAC counters); a plan the layer
    /// [`lower`](Layer::lower)s to computes the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError`] for shape mismatches.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> crate::Result<Tensor>;

    /// Back-propagates `grad_output`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] if no activations
    /// are cached, and shape errors for mismatched gradients.
    fn backward(&mut self, grad_output: &Tensor) -> crate::Result<Tensor>;

    /// [`backward`](Layer::backward) without its result: accumulates the
    /// same parameter gradients, bit for bit, and makes the same checks,
    /// but owes nobody `∂L/∂input`. [`crate::Network::backward`] calls it
    /// on the first layer that has parameters, where that gradient is the
    /// one with respect to the training images.
    ///
    /// The default runs `backward` and drops what it returns; a layer whose
    /// input gradient is separate work (`Conv2d`: dequantise, `Wᵀ·dY`,
    /// col2im; `Linear`: dequantise, `dY·W`) overrides it to stop after
    /// `dW` / `db`.
    ///
    /// # Errors
    ///
    /// Exactly those of [`backward`](Layer::backward).
    fn backward_params(&mut self, grad_output: &Tensor) -> crate::Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Visits every learnable parameter mutably (optimiser / precision
    /// controller entry point).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visits every learnable parameter immutably (metrics / accounting).
    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param));

    /// Multiply-accumulate operations executed by the most recent forward
    /// pass (whole batch). Layers without arithmetic return 0.
    fn macs_last_forward(&self) -> u64 {
        0
    }

    /// Visits each (weight-parameter name, MACs of the last forward pass)
    /// pair — the association the energy model needs, since a composite
    /// block's convolutions may carry *different* adaptive bitwidths.
    /// Layers without weight arithmetic visit nothing.
    fn visit_compute(&self, f: &mut dyn FnMut(&str, u64)) {
        let _ = f;
    }

    /// Visits every non-learnable state buffer mutably (batch-norm running
    /// statistics), for checkpointing. Layers without buffers visit
    /// nothing.
    fn visit_buffers(&mut self, f: &mut dyn FnMut(&str, &mut Tensor)) {
        let _ = f;
    }

    /// Lowers this layer into the freeze compiler's step program by
    /// appending steps to `builder`. Composite layers lower their children
    /// in evaluation order (including branch/merge steps for residual
    /// adds). Every layer has a lowering — it is how the layer is served.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::Unfreezable`] when the incoming value's
    /// dimensions or the layer's grid cannot be expressed as plan steps.
    fn lower(&self, builder: &mut crate::plan::PlanBuilder) -> crate::Result<()>;
}

/// The stash a layer's training forward left for its backward, taken: the
/// backward that reads it frees it, so it never lives beside the next
/// forward's. [`crate::NnError::BackwardBeforeForward`] naming `layer` when
/// there is none — before any training forward, or on a second backward.
pub(crate) fn take_stash<T>(stash: &mut Option<T>, layer: &str) -> crate::Result<T> {
    stash
        .take()
        .ok_or_else(|| crate::NnError::BackwardBeforeForward {
            layer: layer.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_default_is_train() {
        assert_eq!(Mode::default(), Mode::Train);
        assert_ne!(Mode::Train, Mode::Eval);
    }

    #[test]
    fn layer_is_object_safe() {
        fn _takes_dyn(_: &dyn Layer) {}
    }
}
