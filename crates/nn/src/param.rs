use crate::NnError;
use apt_quant::{fake, Bitwidth, QuantizedTensor, RoundingMode, UpdateStats};
use apt_tensor::Tensor;
use rand::rngs::StdRng;

/// What role a learnable tensor plays in its layer.
///
/// The paper quantises **weights** ("the weights of all models are quantised
/// for both forward pass and backward pass", §IV-A); biases and batch-norm
/// affine parameters stay in fp32 by default, but [`QuantScheme`] lets each
/// kind be configured independently (§III-B notes Gavg applies to any
/// learnable parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Convolution / linear weight — the tensors Algorithm 1 adapts.
    Weight,
    /// Additive bias.
    Bias,
    /// Batch-norm scale (γ).
    BnGamma,
    /// Batch-norm shift (β).
    BnBeta,
}

impl std::fmt::Display for ParamKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParamKind::Weight => "weight",
            ParamKind::Bias => "bias",
            ParamKind::BnGamma => "bn_gamma",
            ParamKind::BnBeta => "bn_beta",
        };
        f.write_str(s)
    }
}

/// Extreme-quantisation projections for master-copy weight views.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Projection {
    /// BNN-style `{−s, +s}` (1-bit view).
    Binary,
    /// TWN-style `{−s, 0, +s}` (2-bit view).
    Ternary,
}

impl Projection {
    /// Bits of the projected view (what the forward pass reads).
    pub fn view_bits(self) -> u32 {
        match self {
            Projection::Binary => 1,
            Projection::Ternary => 2,
        }
    }
}

/// Requested storage precision for a parameter kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamPrecision {
    /// Plain fp32 storage and updates.
    Float32,
    /// Integer-codes-only storage (APT / fixed-bit baselines); updates go
    /// through the Eq. 3 quantised step.
    Quantized(Bitwidth),
    /// fp32 master copy updated in float, viewed through a `k`-bit
    /// fake-quantisation for forward/backward (DoReFa/TTQ-style).
    MasterCopy(Bitwidth),
    /// fp32 master copy viewed through a sign/ternary projection
    /// (BNN/TWN-style, Table I).
    Projected(Projection),
    /// Integer-codes-only storage with **per-output-channel** calibration
    /// (Krishnamoorthi \[13\]) — an ablation of the paper's per-tensor
    /// scheme.
    PerChannel(Bitwidth),
}

/// Per-kind precision configuration used by model constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantScheme {
    /// Precision for conv/linear weights.
    pub weights: ParamPrecision,
    /// Precision for biases.
    pub biases: ParamPrecision,
    /// Precision for batch-norm γ/β.
    pub batch_norm: ParamPrecision,
}

impl QuantScheme {
    /// The paper's APT setup: weights start quantised at 6 bits (§IV),
    /// biases and batch-norm affine parameters in fp32.
    pub fn paper_apt() -> Self {
        QuantScheme {
            weights: ParamPrecision::Quantized(Bitwidth::PAPER_INITIAL),
            biases: ParamPrecision::Float32,
            batch_norm: ParamPrecision::Float32,
        }
    }

    /// Everything quantised — weights, biases *and* batch-norm affine all
    /// start at `bits` integer codes. §III-B notes Gavg "applies to other
    /// parameters that need to be learned during training, e.g. bias", and
    /// under this scheme the APT policy adapts all of them.
    pub fn fully_quantized(bits: Bitwidth) -> Self {
        QuantScheme {
            weights: ParamPrecision::Quantized(bits),
            biases: ParamPrecision::Quantized(bits),
            batch_norm: ParamPrecision::Quantized(bits),
        }
    }

    /// Fixed-bitwidth quantised weights (the 8/12/14/16-bit arms of
    /// Figures 2 and 4).
    pub fn fixed(bits: Bitwidth) -> Self {
        QuantScheme {
            weights: ParamPrecision::Quantized(bits),
            biases: ParamPrecision::Float32,
            batch_norm: ParamPrecision::Float32,
        }
    }

    /// Everything in fp32 (the paper's 32-bit reference arm).
    pub fn float32() -> Self {
        QuantScheme {
            weights: ParamPrecision::Float32,
            biases: ParamPrecision::Float32,
            batch_norm: ParamPrecision::Float32,
        }
    }

    /// fp32 master copy with a `k`-bit forward/backward view — the storage
    /// layout of the Table I comparators that "keep an fp32 copy".
    pub fn master_copy(bits: Bitwidth) -> Self {
        QuantScheme {
            weights: ParamPrecision::MasterCopy(bits),
            biases: ParamPrecision::Float32,
            batch_norm: ParamPrecision::Float32,
        }
    }

    /// Per-output-channel quantised weights (the calibration ablation);
    /// biases and batch-norm affine stay fp32 as in the paper scheme.
    pub fn per_channel(bits: Bitwidth) -> Self {
        QuantScheme {
            weights: ParamPrecision::PerChannel(bits),
            biases: ParamPrecision::Float32,
            batch_norm: ParamPrecision::Float32,
        }
    }

    /// fp32 master copy with a binary/ternary projected view (BNN/TWN-style
    /// Table I comparators).
    pub fn projected(projection: Projection) -> Self {
        QuantScheme {
            weights: ParamPrecision::Projected(projection),
            biases: ParamPrecision::Float32,
            batch_norm: ParamPrecision::Float32,
        }
    }

    /// The precision configured for a given parameter kind.
    pub fn precision_for(&self, kind: ParamKind) -> ParamPrecision {
        match kind {
            ParamKind::Weight => self.weights,
            ParamKind::Bias => self.biases,
            ParamKind::BnGamma | ParamKind::BnBeta => self.batch_norm,
        }
    }
}

impl Default for QuantScheme {
    fn default() -> Self {
        QuantScheme::paper_apt()
    }
}

/// Physical storage of a learnable tensor.
#[derive(Debug)]
pub enum ParamStore {
    /// Plain fp32 values.
    Float(Tensor),
    /// Integer codes only — no fp32 copy anywhere (APT's memory saving):
    /// calibrated per tensor ([`ParamPrecision::Quantized`], the paper's
    /// scheme) or per output channel ([`ParamPrecision::PerChannel`]); the
    /// one [`QuantizedTensor`] type holds both.
    Quantized(QuantizedTensor),
    /// fp32 master plus the bitwidth of the fake-quantised compute view.
    MasterCopy {
        /// The fp32 master copy updated by the optimiser.
        master: Tensor,
        /// Precision of the forward/backward view.
        bits: Bitwidth,
    },
    /// fp32 master viewed through a binary/ternary projection.
    Projected {
        /// The fp32 master copy updated by the optimiser.
        master: Tensor,
        /// The extreme-quantisation projection of the compute view.
        projection: Projection,
    },
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        match self {
            ParamStore::Float(t) => ParamStore::Float(t.clone()),
            ParamStore::Quantized(q) => ParamStore::Quantized(q.clone()),
            ParamStore::MasterCopy { master, bits } => ParamStore::MasterCopy {
                master: master.clone(),
                bits: *bits,
            },
            ParamStore::Projected { master, projection } => ParamStore::Projected {
                master: master.clone(),
                projection: *projection,
            },
        }
    }

    /// Into the buffers `self` already owns when the store kind is
    /// unchanged (a snapshot refreshed every step); a different kind is
    /// cloned afresh.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (ParamStore::Float(to), ParamStore::Float(from)) => to.clone_from(from),
            (ParamStore::Quantized(to), ParamStore::Quantized(from)) => to.clone_from(from),
            (
                ParamStore::MasterCopy { master: to, bits },
                ParamStore::MasterCopy {
                    master: from,
                    bits: from_bits,
                },
            ) => {
                to.clone_from(from);
                *bits = *from_bits;
            }
            (
                ParamStore::Projected {
                    master: to,
                    projection,
                },
                ParamStore::Projected {
                    master: from,
                    projection: from_projection,
                },
            ) => {
                to.clone_from(from);
                *projection = *from_projection;
            }
            (to, from) => *to = from.clone(),
        }
    }
}

impl ParamStore {
    /// The float view [`Param::value`] returns.
    fn value(&self) -> Tensor {
        match self {
            ParamStore::Float(t) => t.clone(),
            ParamStore::Quantized(q) => q.to_tensor(),
            ParamStore::MasterCopy { master, bits } => {
                fake::fake_quantize(master, *bits).unwrap_or_else(|_| master.clone())
            }
            ParamStore::Projected { master, projection } => match projection {
                Projection::Binary => fake::binarize(master),
                Projection::Ternary => fake::ternarize(master),
            },
        }
    }

    /// Shape of the tensor held. A per-channel store's calibration groups
    /// follow from it (one per axis-0 channel), so equal dims mean equal
    /// grouping.
    fn dims(&self) -> &[usize] {
        match self {
            ParamStore::Float(t) => t.dims(),
            ParamStore::Quantized(q) => q.dims(),
            ParamStore::MasterCopy { master, .. } => master.dims(),
            ParamStore::Projected { master, .. } => master.dims(),
        }
    }

    /// Calls `f(i, w)` for every element in order, `w` its value in the
    /// compute view ([`Param::value`]) — read straight from the code tier
    /// for a quantised store.
    #[inline]
    fn for_each_weight(&self, f: impl FnMut(usize, f32)) {
        #[inline]
        fn plain(t: &Tensor, mut f: impl FnMut(usize, f32)) {
            t.data().iter().enumerate().for_each(|(i, &w)| f(i, w));
        }
        match self {
            ParamStore::Quantized(q) => q.for_each_value(f),
            ParamStore::Float(t) => plain(t, f),
            // The view is a function of the whole master: materialise it.
            ParamStore::MasterCopy { .. } | ParamStore::Projected { .. } => plain(&self.value(), f),
        }
    }
}

/// A named learnable tensor with its gradient accumulator and (optional)
/// momentum buffer.
///
/// `Param` is the unit the APT policy operates on: Algorithm 1's "layers"
/// map to the [`ParamKind::Weight`] params of a [`crate::Network`], each
/// carrying its own bitwidth `k_i` and resolution `ε_i`.
#[derive(Debug, Clone)]
pub struct Param {
    name: String,
    kind: ParamKind,
    store: ParamStore,
    grad: Tensor,
    velocity: Option<Tensor>,
}

impl Param {
    /// Creates a parameter from initial float values under a precision
    /// policy.
    ///
    /// # Errors
    ///
    /// Returns quantisation errors for empty/non-finite initial values when
    /// a quantised precision is requested.
    pub fn new(
        name: impl Into<String>,
        kind: ParamKind,
        init: Tensor,
        precision: ParamPrecision,
    ) -> crate::Result<Self> {
        let grad = Tensor::zeros(init.dims());
        let store = match precision {
            ParamPrecision::Float32 => ParamStore::Float(init),
            ParamPrecision::Quantized(bits) => {
                ParamStore::Quantized(QuantizedTensor::from_tensor(&init, bits)?)
            }
            ParamPrecision::MasterCopy(bits) => ParamStore::MasterCopy { master: init, bits },
            ParamPrecision::Projected(projection) => ParamStore::Projected {
                master: init,
                projection,
            },
            ParamPrecision::PerChannel(bits) => {
                ParamStore::Quantized(QuantizedTensor::from_tensor_per_channel(&init, bits)?)
            }
        };
        Ok(Param {
            name: name.into(),
            kind,
            store,
            grad,
            velocity: None,
        })
    }

    /// The parameter's unique (within a network) name, e.g.
    /// `"stage2.block0.conv1.weight"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's role.
    pub fn kind(&self) -> ParamKind {
        self.kind
    }

    /// The underlying store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Replaces the store with a deserialised one of identical shape
    /// (checkpoint loading). The store *kind* may change — a checkpoint
    /// records the trained state, including any bitwidths APT adapted.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the replacement's shape differs:
    /// this is the last check between a checkpoint and the layer's GEMM,
    /// and an `[8, 4]` weight is not a `[4, 8]` one.
    pub fn set_store(&mut self, store: ParamStore) -> crate::Result<()> {
        if store.dims() != self.dims() {
            return Err(NnError::BadConfig {
                reason: format!(
                    "parameter `{}`: checkpoint has shape {:?}, expected {:?}",
                    self.name,
                    store.dims(),
                    self.dims()
                ),
            });
        }
        self.store = store;
        Ok(())
    }

    /// Materialises the float view used for compute:
    ///
    /// * `Float` — the values themselves,
    /// * `Quantized` — the dequantised grid values,
    /// * `MasterCopy` — the master fake-quantised at the view bitwidth,
    /// * `Projected` — the master through its sign/ternary projection.
    pub fn value(&self) -> Tensor {
        self.store.value()
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.grad.len()
    }

    /// `true` if the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.grad.is_empty()
    }

    /// Shape of the parameter tensor.
    pub fn dims(&self) -> &[usize] {
        self.grad.dims()
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable access to the gradient accumulator.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// Adds `g` into the gradient accumulator.
    ///
    /// # Errors
    ///
    /// Returns a shape-mismatch error if `g` differs in shape.
    pub fn accumulate_grad(&mut self, g: &Tensor) -> crate::Result<()> {
        apt_tensor::ops::add_in_place(&mut self.grad, g)?;
        Ok(())
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// The Gavg metric (paper Eq. 4) of the accumulated gradient against
    /// this parameter's quantisation resolution
    /// ([`QuantizedTensor::gavg`]). `None` for stores without a live `ε`
    /// (fp32, master-copy, projected).
    pub fn gavg(&self) -> Option<f64> {
        match &self.store {
            ParamStore::Quantized(q) => q.gavg(&self.grad).ok(),
            _ => None,
        }
    }

    /// Current storage bitwidth: `Some(k)` for quantised stores, `None` for
    /// fp32 and projected stores (whose view widths are 1–2 bits but fixed).
    pub fn bits(&self) -> Option<Bitwidth> {
        match &self.store {
            ParamStore::Float(_) | ParamStore::Projected { .. } => None,
            ParamStore::Quantized(q) => Some(q.bits()),
            ParamStore::MasterCopy { bits, .. } => Some(*bits),
        }
    }

    /// Re-quantises a [`ParamStore::Quantized`] parameter at a new
    /// precision (Algorithm 1's `k_i := k_i ± 1`), or changes the view
    /// bitwidth of a master-copy parameter.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for fp32 parameters.
    pub fn set_bits(&mut self, bits: Bitwidth) -> crate::Result<()> {
        match &mut self.store {
            ParamStore::Quantized(q) => {
                q.set_bits(bits)?;
                Ok(())
            }
            ParamStore::MasterCopy { bits: b, .. } => {
                *b = bits;
                Ok(())
            }
            ParamStore::Float(_) | ParamStore::Projected { .. } => Err(NnError::BadConfig {
                reason: format!(
                    "parameter `{}` has no adjustable bitwidth (fp32/projected)",
                    self.name
                ),
            }),
        }
    }

    /// Training-memory footprint of this parameter's *model state* in bits
    /// (the quantity Figure 5 reports):
    ///
    /// * `Float` — `32·N`
    /// * `Quantized` — `k·N` (`+ 96` per channel when calibrated per
    ///   channel)
    /// * `MasterCopy` — `32·N + k·N` (master **and** view live in memory)
    pub fn memory_bits(&self) -> u64 {
        let n = self.len() as u64;
        match &self.store {
            ParamStore::Float(_) => 32 * n,
            ParamStore::Quantized(q) => q.memory_bits(),
            ParamStore::MasterCopy { bits, .. } => 32 * n + u64::from(bits.get()) * n,
            ParamStore::Projected { projection, .. } => {
                32 * n + u64::from(projection.view_bits()) * n
            }
        }
    }

    /// Bytes this parameter's model state actually occupies in process
    /// memory, as opposed to the idealised [`memory_bits`] accounting:
    /// quantised stores report their bit-packed (or `i8`/`i16`-tiered)
    /// code storage, float-backed stores their fp32 words, and the
    /// momentum buffer is counted once it has been lazily allocated.
    /// Master-copy/projected views are materialised transiently per
    /// forward pass and are not resident between steps.
    ///
    /// [`memory_bits`]: Param::memory_bits
    pub fn resident_bytes(&self) -> u64 {
        let n = self.len() as u64;
        let store = match &self.store {
            ParamStore::Float(_) | ParamStore::MasterCopy { .. } | ParamStore::Projected { .. } => {
                4 * n
            }
            ParamStore::Quantized(q) => q.resident_bytes(),
        };
        let velocity = self.velocity.as_ref().map_or(0, |v| 4 * v.len() as u64);
        store + velocity
    }

    /// Applies an SGD step with the already-combined effective gradient
    /// (momentum / weight decay folded in by the optimiser).
    ///
    /// * `Float` / `MasterCopy` — plain fp32 `w −= lr·g` (master copy then
    ///   re-views through fake quantisation on the next [`value`] call).
    /// * `Quantized` — the paper's Eq. 3 quantised step.
    ///
    /// Returns underflow statistics for quantised stores.
    ///
    /// # Errors
    ///
    /// Returns shape/finiteness errors from the underlying stores.
    ///
    /// [`value`]: Param::value
    pub fn apply_update(
        &mut self,
        effective_grad: &Tensor,
        lr: f32,
        mode: RoundingMode,
        rng: &mut StdRng,
    ) -> crate::Result<Option<UpdateStats>> {
        Self::update_store(&mut self.store, effective_grad, lr, mode, rng)
    }

    fn update_store(
        store: &mut ParamStore,
        effective_grad: &Tensor,
        lr: f32,
        mode: RoundingMode,
        rng: &mut StdRng,
    ) -> crate::Result<Option<UpdateStats>> {
        match store {
            ParamStore::Float(t) => {
                apt_tensor::ops::axpy(-lr, effective_grad, t)?;
                Ok(None)
            }
            ParamStore::MasterCopy { master, .. } | ParamStore::Projected { master, .. } => {
                apt_tensor::ops::axpy(-lr, effective_grad, master)?;
                Ok(None)
            }
            ParamStore::Quantized(q) => Ok(Some(q.sgd_update(effective_grad, lr, mode, rng)?)),
        }
    }

    /// One SGD step from the accumulated gradient, which is left untouched:
    /// with momentum, two passes that allocate nothing once the velocity
    /// buffer exists.
    ///
    /// **Pass A** folds the effective gradient into the velocity element
    /// by element, `v ← µ·v + (s·g + λ·w)` — `s` the norm-clipping factor
    /// when the gradient's L2 norm exceeds `clip_norm` (one read-only norm
    /// pass), `λ = weight_decay` on [`ParamKind::Weight`] tensors and 0
    /// elsewhere, `w` dequantised straight from the code tier. No copy of
    /// the gradient, no fp32 view of the weights and no copy of the
    /// velocity is made, and each element sees exactly the f32 operations,
    /// in the order, that scaling a copy of the gradient, `axpy`-ing the
    /// weights into it, scaling the velocity and adding would perform.
    /// **Pass B** is [`apply_update`](Self::apply_update) on `v`, which
    /// rejects a non-finite operand before any code is written.
    ///
    /// Without momentum there is no buffer to build in: the effective
    /// gradient, where it differs from the accumulated one, is a transient
    /// tensor.
    ///
    /// # Errors
    ///
    /// As [`apply_update`](Self::apply_update).
    pub fn sgd_step(
        &mut self,
        lr: f32,
        momentum: f32,
        weight_decay: f32,
        clip_norm: Option<f32>,
        mode: RoundingMode,
        rng: &mut StdRng,
    ) -> crate::Result<Option<UpdateStats>> {
        // Multiplying by 1.0 is the identity on every non-NaN float (and a
        // NaN stays one), so an unclipped gradient passes through bit for
        // bit without a second copy of every loop below.
        let clip = clip_norm.map_or(1.0, |max_norm| {
            let norm = self.grad.l2_norm();
            if norm > max_norm {
                max_norm / norm
            } else {
                1.0
            }
        });
        let decay = if self.kind == ParamKind::Weight {
            weight_decay
        } else {
            0.0
        };
        if momentum == 0.0 {
            if clip == 1.0 && decay == 0.0 {
                return Self::update_store(&mut self.store, &self.grad, lr, mode, rng);
            }
            let mut effective = apt_tensor::ops::scale(&self.grad, clip);
            if decay != 0.0 {
                apt_tensor::ops::axpy(decay, &self.store.value(), &mut effective)?;
            }
            return Self::update_store(&mut self.store, &effective, lr, mode, rng);
        }
        let n = self.grad.len();
        let dims = self.grad.dims();
        let velocity = self.velocity.get_or_insert_with(|| Tensor::zeros(dims));
        // Both cut to one length up front, so the indexed loop below
        // carries no bounds check and vectorises.
        let (g, v) = (&self.grad.data()[..n], &mut velocity.data_mut()[..n]);
        if decay == 0.0 {
            for (v, &g) in v.iter_mut().zip(g) {
                *v = *v * momentum + g * clip;
            }
        } else {
            self.store.for_each_weight(
                #[inline(always)]
                |i, w| v[i] = v[i] * momentum + (g[i] * clip + decay * w),
            );
        }
        Self::update_store(&mut self.store, velocity, lr, mode, rng)
    }

    /// A 64-bit digest of everything that must stay bit-stable between
    /// optimiser steps: the stored representation (integer codes *and*
    /// quantiser calibration, or raw fp32 bits), plus the momentum buffer
    /// if one exists.
    ///
    /// Any single-event upset in the parameter's memory — a flipped code
    /// bit, a corrupted scale, a perturbed velocity — changes the digest,
    /// which is how the trainer's integrity guard detects silent corruption
    /// without keeping a second copy of the values. The guarantee is exact,
    /// not probabilistic. The state is absorbed a resident 64-bit word at a
    /// time, `h ← fold((h ⊕ w)·P)` with `P` odd and `fold(x) = x ⊕ (x ≫ 32)`
    /// — each step a bijection of `h` for a fixed word and of the word for
    /// a fixed `h` — in several independent chains that the same step then
    /// folds together, so a change confined to one word, one bit of it or
    /// all sixty-four, always changes the result. Digests
    /// identify content within one build; no file or wire format carries
    /// them.
    pub fn integrity_digest(&self) -> u64 {
        let mut h = WordDigest::new();
        match &self.store {
            ParamStore::Float(t) => {
                h.write(0);
                h.write_f32s(t.data());
            }
            ParamStore::Quantized(q) => {
                // The store kinds' words are the checkpoint's store tags.
                h.write(if q.is_per_channel() { 4 } else { 1 });
                for quantizer in q.quantizers() {
                    h.write_quantizer(quantizer);
                }
                // Hash the *physical* storage words, so the digest covers
                // exactly the bits an SEU can land on.
                q.store().for_each_word_block(
                    #[inline(always)]
                    |block| h.lanes.absorb(block),
                    |w| h.serial.write(w),
                );
            }
            ParamStore::MasterCopy { master, bits } => {
                h.write(2 | u64::from(bits.get()) << 8);
                h.write_f32s(master.data());
            }
            ParamStore::Projected { master, projection } => {
                h.write(3 | u64::from(projection.view_bits()) << 8);
                h.write_f32s(master.data());
            }
        }
        match &self.velocity {
            None => h.write(0),
            Some(v) => {
                h.write(1);
                h.write_f32s(v.data());
            }
        }
        h.finish()
    }

    /// Flips one bit of the stored representation of element `elem` — the
    /// in-memory SEU model used by fault injection.
    ///
    /// Quantised stores flip a bit of the integer code (within the low `k`
    /// bits, so the code stays on the grid); float-backed stores flip a bit
    /// of the fp32 word (`bit % 32`).
    ///
    /// # Errors
    ///
    /// Returns an error if `elem` is out of bounds.
    pub fn flip_stored_bit(&mut self, elem: usize, bit: u32) -> crate::Result<()> {
        let len = self.len();
        let oob = || NnError::BadConfig {
            reason: format!("flip_stored_bit: element {elem} out of bounds for len {len}"),
        };
        match &mut self.store {
            ParamStore::Float(t) => {
                let v = t.data_mut().get_mut(elem).ok_or_else(oob)?;
                *v = f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)));
                Ok(())
            }
            ParamStore::MasterCopy { master, .. } | ParamStore::Projected { master, .. } => {
                let v = master.data_mut().get_mut(elem).ok_or_else(oob)?;
                *v = f32::from_bits(v.to_bits() ^ (1u32 << (bit % 32)));
                Ok(())
            }
            ParamStore::Quantized(q) => {
                q.flip_code_bit(elem, bit)?;
                Ok(())
            }
        }
    }

    /// Flips one bit of the momentum buffer's fp32 word at `elem`. Returns
    /// `false` (and does nothing) when no buffer has been allocated or
    /// `elem` is out of bounds — momentum is lazily created, so a fault can
    /// only land where memory actually exists.
    pub fn flip_velocity_bit(&mut self, elem: usize, bit: u32) -> bool {
        match &mut self.velocity {
            Some(v) => match v.data_mut().get_mut(elem) {
                Some(x) => {
                    *x = f32::from_bits(x.to_bits() ^ (1u32 << (bit % 32)));
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Fraction of integer codes on a grid rail, for quantised stores
    /// (`None` otherwise). The trainer's saturation guard reads this.
    pub fn saturation_ratio(&self) -> Option<f64> {
        match &self.store {
            ParamStore::Quantized(q) => Some(q.saturation_ratio()),
            _ => None,
        }
    }

    /// Drives a deterministic subset of a quantised store's codes to a grid
    /// rail (fault injection: integer saturation). Returns the number of
    /// codes forced — 0 for float-backed stores, which have no rails.
    pub fn saturate_codes(&mut self, fraction: f64, high: bool) -> usize {
        match &mut self.store {
            ParamStore::Quantized(q) => q.saturate(fraction, high),
            _ => 0,
        }
    }

    /// Mutable access to the momentum buffer, creating it (zeroed) on first
    /// use.
    pub fn velocity_mut(&mut self) -> &mut Tensor {
        let dims = self.grad.dims().to_vec();
        self.velocity.get_or_insert_with(|| Tensor::zeros(&dims))
    }

    /// The momentum buffer, if one has been created.
    pub fn velocity(&self) -> Option<&Tensor> {
        self.velocity.as_ref()
    }

    /// Replaces the momentum buffer wholesale (`None` clears it). Used by
    /// checkpoint restore, which must reproduce the exact pre-interruption
    /// optimiser state including "no buffer allocated yet".
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the replacement's element count
    /// does not match the parameter.
    pub fn set_velocity(&mut self, velocity: Option<Tensor>) -> crate::Result<()> {
        if let Some(v) = &velocity {
            if v.len() != self.grad.len() {
                return Err(NnError::BadConfig {
                    reason: format!(
                        "velocity for `{}` has {} elements, expected {}",
                        self.name,
                        v.len(),
                        self.grad.len()
                    ),
                });
            }
        }
        self.velocity = velocity;
        Ok(())
    }
}

/// Chains the bulk of a digest runs side by side. One chain retires a word
/// per multiply *latency* (xor, multiply, shift, xor: ~6 cycles); several
/// overlap their multiplies. Measured on the 265 k-parameter MLP (1.33 MB
/// resident), alternating builds of one scratch loop: one chain 238–303 µs,
/// four 67–95, eight 96–118 — four it is.
const LANES: usize = 4;

/// One chain of the integrity hasher: absorbs a 64-bit word per step,
/// `h ← fold((h ⊕ w)·P)` with `P` odd and `fold(x) = x ⊕ (x ≫ 32)`.
///
/// Xor with a fixed word, multiplication by an odd constant and the
/// xor-shift are each bijections of `u64`, so a step is a bijection of the
/// state for a fixed word **and** of the word for a fixed state. Changing
/// one absorbed word therefore changes the state right after it, and every
/// later step — its word unchanged — carries distinct states to distinct
/// states.
///
/// The fold is what makes the next-weakest case safe. Bit 63 of `h ⊕ w`
/// survives the multiplication as bit 63 alone (`2⁶³·P ≡ 2⁶³`), so without
/// it, flipping bit 63 of two different words would cancel; folded, the
/// difference also sits in bit 31, where the next multiplication smears it.
#[derive(Debug, Clone, Copy)]
struct Chain(u64);

impl Chain {
    /// 2⁶⁴/φ, odd.
    const P: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline(always)]
    fn write(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(Self::P);
        self.0 = h ^ (h >> 32);
    }
}

/// [`LANES`] chains advanced together, one word each per
/// [`absorb`](Lanes::absorb): no chain waits on another, so the multiplies
/// overlap.
#[derive(Debug, Clone)]
struct Lanes([Chain; LANES]);

impl Lanes {
    #[inline(always)]
    fn absorb(&mut self, block: [u64; LANES]) {
        for (chain, word) in self.0.iter_mut().zip(block) {
            chain.write(word);
        }
    }
}

/// The one integrity hasher: [`LANES`] + 1 chains. Bulk data — a code
/// store's resident words, an fp32 buffer — goes to the lanes a block of
/// [`LANES`] consecutive words at a time; everything else (tags, quantiser
/// fields, the under-a-block tail of each buffer) goes to the serial chain.
/// [`finish`](WordDigest::finish) closes each lane with one more step and
/// absorbs the lanes' states into the serial chain, in lane order, as
/// [`LANES`] more words.
///
/// Every word is absorbed by exactly one chain, a chain's final state is a
/// bijection of each of its words, and the serial chain's is a bijection of
/// each lane state it absorbs: a single-word upset is detected with
/// certainty, as it was with one chain. Two flips of bit 63 in one lane
/// meet the fold as before. The closing step is for two flips in two
/// chains: a flip in a lane's last word leaves that lane `2⁶³ | 2³¹` off,
/// exactly what a flip in the serial chain's last word leaves *it* off,
/// and `h ⊕ w` would cancel the two; one more multiplication spreads the
/// lane's difference over the word first.
#[derive(Debug, Clone)]
struct WordDigest {
    lanes: Lanes,
    serial: Chain,
}

impl WordDigest {
    fn new() -> Self {
        let serial = Chain(0xcbf2_9ce4_8422_2325);
        // A start of its own per lane, so equal data in two lanes does not
        // mean equal states.
        let lanes = std::array::from_fn(|j| {
            let mut lane = serial;
            lane.write(j as u64 + 1);
            lane
        });
        WordDigest {
            lanes: Lanes(lanes),
            serial,
        }
    }

    #[inline]
    fn write(&mut self, word: u64) {
        self.serial.write(word);
    }

    /// Absorbs the raw bits of `xs`, two to a word (an odd last element
    /// alone in its word).
    fn write_f32s(&mut self, xs: &[f32]) {
        let word = |pair: &[f32]| match *pair {
            [lo, hi] => u64::from(lo.to_bits()) | u64::from(hi.to_bits()) << 32,
            [last] => u64::from(last.to_bits()),
            _ => unreachable!("chunks of at most two"),
        };
        let mut blocks = xs.chunks_exact(2 * LANES);
        for b in &mut blocks {
            self.lanes
                .absorb(std::array::from_fn(|j| word(&b[2 * j..2 * j + 2])));
        }
        for pair in blocks.remainder().chunks(2) {
            self.serial.write(word(pair));
        }
    }

    fn write_quantizer(&mut self, q: &apt_quant::AffineQuantizer) {
        self.write(u64::from(q.eps().to_bits()) | u64::from(q.bits().get()) << 32);
        self.write(q.zero_point() as u64);
    }

    fn finish(mut self) -> u64 {
        for mut lane in self.lanes.0 {
            lane.write(0);
            self.serial.write(lane.0);
        }
        self.serial.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    /// The quantisation step of a quantised parameter's store.
    fn eps(p: &Param) -> Option<f32> {
        match p.store() {
            ParamStore::Quantized(q) => Some(q.eps()),
            _ => None,
        }
    }

    #[test]
    fn float_param_roundtrip() {
        let init = Tensor::from_slice(&[1.0, -1.0]);
        let p = Param::new(
            "w",
            ParamKind::Weight,
            init.clone(),
            ParamPrecision::Float32,
        )
        .unwrap();
        assert_eq!(p.value().data(), init.data());
        assert_eq!(p.bits(), None);
        assert_eq!(eps(&p), None);
        assert_eq!(p.memory_bits(), 64);
    }

    #[test]
    fn quantized_param_is_on_grid_and_small() {
        let init = normal(&[100], 1.0, &mut seeded(1));
        let p = Param::new(
            "w",
            ParamKind::Weight,
            init,
            ParamPrecision::Quantized(b(6)),
        )
        .unwrap();
        assert_eq!(p.bits().unwrap().get(), 6);
        assert!(eps(&p).unwrap() > 0.0);
        assert_eq!(p.memory_bits(), 600);
    }

    #[test]
    fn master_copy_counts_both_copies() {
        let init = normal(&[100], 1.0, &mut seeded(2));
        let p = Param::new(
            "w",
            ParamKind::Weight,
            init,
            ParamPrecision::MasterCopy(b(8)),
        )
        .unwrap();
        assert_eq!(p.memory_bits(), 100 * (32 + 8));
        assert_eq!(p.bits().unwrap().get(), 8);
    }

    #[test]
    fn master_copy_view_is_quantised_but_update_is_float() {
        let init = normal(&[256], 1.0, &mut seeded(3));
        let mut p = Param::new(
            "w",
            ParamKind::Weight,
            init.clone(),
            ParamPrecision::MasterCopy(b(3)),
        )
        .unwrap();
        // 3-bit view has ≤ 8 distinct values
        let view = p.value();
        let mut vals: Vec<i64> = view.data().iter().map(|&x| (x * 1e6) as i64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(vals.len() <= 8);
        // A tiny float update still lands on the master (no underflow).
        let g = Tensor::full(&[256], 1e-6);
        let stats = p
            .apply_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert!(stats.is_none());
        if let ParamStore::MasterCopy { master, .. } = p.store() {
            assert!((master.data()[0] - (init.data()[0] - 1e-6)).abs() < 1e-9);
        } else {
            panic!("wrong store kind");
        }
    }

    #[test]
    fn quantized_update_reports_underflow() {
        let init = Tensor::from_slice(&[-1.0, 0.0, 1.0]);
        let mut p = Param::new(
            "w",
            ParamKind::Weight,
            init,
            ParamPrecision::Quantized(b(4)),
        )
        .unwrap();
        let eps = eps(&p).unwrap();
        let g = Tensor::full(&[3], eps * 0.1);
        let stats = p
            .apply_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap()
            .unwrap();
        assert_eq!(stats.underflowed, 3);
    }

    #[test]
    fn set_bits_rules() {
        let init = normal(&[10], 1.0, &mut seeded(4));
        let mut q = Param::new(
            "w",
            ParamKind::Weight,
            init.clone(),
            ParamPrecision::Quantized(b(6)),
        )
        .unwrap();
        q.set_bits(b(7)).unwrap();
        assert_eq!(q.bits().unwrap().get(), 7);
        let mut m = Param::new(
            "w",
            ParamKind::Weight,
            init.clone(),
            ParamPrecision::MasterCopy(b(6)),
        )
        .unwrap();
        m.set_bits(b(9)).unwrap();
        assert_eq!(m.bits().unwrap().get(), 9);
        let mut f = Param::new("w", ParamKind::Weight, init, ParamPrecision::Float32).unwrap();
        assert!(f.set_bits(b(8)).is_err());
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let init = Tensor::zeros(&[2]);
        let mut p = Param::new("b", ParamKind::Bias, init, ParamPrecision::Float32).unwrap();
        p.accumulate_grad(&Tensor::from_slice(&[1.0, 2.0])).unwrap();
        p.accumulate_grad(&Tensor::from_slice(&[1.0, 2.0])).unwrap();
        assert_eq!(p.grad().data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
        assert!(p.accumulate_grad(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn velocity_lazily_created() {
        let mut p = Param::new(
            "w",
            ParamKind::Weight,
            Tensor::zeros(&[4]),
            ParamPrecision::Float32,
        )
        .unwrap();
        assert!(p.velocity().is_none());
        p.velocity_mut().fill(1.0);
        assert_eq!(p.velocity().unwrap().data(), &[1.0; 4]);
    }

    /// A 3 × 7 weight of every store kind and code tier, momentum buffer
    /// allocated: 21 elements, so f32 data ends on a half-filled word and
    /// the `i8`, `i16` and packed tiers each end mid-word.
    fn one_of_each_kind() -> Vec<Param> {
        let init = normal(&[3, 7], 1.0, &mut seeded(9));
        let precisions = [
            ParamPrecision::Float32,
            ParamPrecision::Quantized(b(6)),
            ParamPrecision::Quantized(b(12)),
            ParamPrecision::Quantized(b(20)),
            ParamPrecision::MasterCopy(b(8)),
            ParamPrecision::Projected(Projection::Ternary),
            ParamPrecision::PerChannel(b(6)),
        ];
        let build = |prec| {
            let mut p = Param::new("w", ParamKind::Weight, init.clone(), prec).unwrap();
            *p.velocity_mut() = normal(&[3, 7], 0.1, &mut seeded(10));
            p
        };
        precisions.into_iter().map(build).collect()
    }

    #[test]
    fn digest_detects_every_single_bit_flip_in_every_store_kind() {
        for mut p in one_of_each_kind() {
            let what = format!("{:?}", p.store());
            let clean = p.integrity_digest();
            assert_eq!(clean, p.integrity_digest(), "digest must be deterministic");
            let width = p
                .bits()
                .filter(|_| eps(&p).is_some())
                .map_or(32, Bitwidth::get);
            for elem in 0..p.len() {
                for bit in 0..width {
                    p.flip_stored_bit(elem, bit).unwrap();
                    assert_ne!(clean, p.integrity_digest(), "store {elem}:{bit} of {what}");
                    p.flip_stored_bit(elem, bit).unwrap();
                }
                for bit in 0..32 {
                    assert!(p.flip_velocity_bit(elem, bit));
                    assert_ne!(
                        clean,
                        p.integrity_digest(),
                        "velocity {elem}:{bit} of {what}"
                    );
                    assert!(p.flip_velocity_bit(elem, bit));
                }
            }
            assert_eq!(clean, p.integrity_digest(), "every flip was undone");
        }
    }

    #[test]
    fn digest_detects_every_bit_flip_in_the_quantiser_fields() {
        use apt_quant::AffineQuantizer;
        // Flips that leave the field valid (a finite positive scale, a
        // zero point on the grid) — what `from_parts` lets exist at all.
        let variants = |q: &AffineQuantizer| -> Vec<AffineQuantizer> {
            let scale = (0..32).map(|bit| {
                let flipped = f32::from_bits(q.eps().to_bits() ^ 1 << bit);
                AffineQuantizer::from_parts(flipped, q.zero_point(), q.bits())
            });
            let zero = (0..64).map(|bit| {
                AffineQuantizer::from_parts(q.eps(), q.zero_point() ^ 1 << bit, q.bits())
            });
            scale.chain(zero).filter_map(Result::ok).collect()
        };
        let mut checked = 0;
        for mut p in one_of_each_kind() {
            let clean = p.integrity_digest();
            let ParamStore::Quantized(q) = p.store().clone() else {
                continue;
            };
            for ch in 0..q.quantizers().len() {
                for v in variants(&q.quantizers()[ch]) {
                    let mut qs = q.quantizers().to_vec();
                    qs[ch] = v;
                    let (codes, dims) = (q.store().to_vec(), q.dims().to_vec());
                    let hurt = if q.is_per_channel() {
                        QuantizedTensor::from_parts_per_channel(codes, dims, qs)
                    } else {
                        QuantizedTensor::from_parts(codes, dims, qs[0])
                    };
                    p.set_store(ParamStore::Quantized(hurt.unwrap())).unwrap();
                    assert_ne!(clean, p.integrity_digest(), "channel {ch}: {v:?}");
                    checked += 1;
                }
            }
        }
        // 3 quantised tiers + 3 channels, ≥ 23 mantissa + some exponent
        // flips + the in-grid zero-point flips each.
        assert!(checked > 6 * 25, "only {checked} variants were valid");
    }

    #[test]
    fn word_digest_separates_every_single_word_change_and_paired_top_bits() {
        // Whole blocks through the lanes, the rest through the serial
        // chain, as a buffer's words are absorbed.
        let digest = |words: &[u64]| {
            let mut h = WordDigest::new();
            let mut blocks = words.chunks_exact(LANES);
            for block in &mut blocks {
                h.lanes.absorb(block.try_into().unwrap());
            }
            blocks.remainder().iter().for_each(|&w| h.write(w));
            h.finish()
        };
        let mut r = seeded(14);
        for len in 1..=3 * LANES + 1 {
            use rand::Rng;
            let mut words: Vec<u64> = (0..len).map(|_| r.gen()).collect();
            // The degenerate content a fresh buffer holds.
            if len.is_multiple_of(3) {
                words.iter_mut().for_each(|w| *w = 0);
            }
            let clean = digest(&words);
            for at in 0..len {
                for bit in 0..64 {
                    words[at] ^= 1 << bit;
                    assert_ne!(digest(&words), clean, "word {at} bit {bit} of {len}");
                    words[at] ^= 1 << bit;
                }
                // A whole-word change is still one word.
                let keep = std::mem::replace(&mut words[at], r.gen());
                assert!(digest(&words) != clean || words[at] == keep);
                words[at] = keep;
            }
            // `(h ⊕ w)·P` alone would let these cancel: bit 63 passes
            // through the multiplication as bit 63. Every pair: the same
            // lane, two lanes, a lane and the serial chain.
            for first in 0..len {
                for second in first + 1..len {
                    words[first] ^= 1 << 63;
                    words[second] ^= 1 << 63;
                    assert_ne!(
                        digest(&words),
                        clean,
                        "bit 63 of words {first} and {second}"
                    );
                    words[first] ^= 1 << 63;
                    words[second] ^= 1 << 63;
                }
            }
        }
    }

    /// A weight of `n` elements on the tier whose resident element is
    /// exactly `k` bits wide (`k` = 8, 16, 32: every bit of a resident word
    /// is a payload bit a fault can land on), momentum allocated.
    fn full_width(k: u32, n: usize) -> Param {
        let init = normal(&[n], 1.0, &mut seeded(n as u64));
        let precision = ParamPrecision::Quantized(b(k));
        let mut p = Param::new("w", ParamKind::Weight, init, precision).unwrap();
        *p.velocity_mut() = normal(&[n], 0.1, &mut seeded(10));
        p
    }

    /// `(element, bit)` of bit `bit` of resident word `word`, `per_word`
    /// elements to the word; `None` past the last of `n` elements.
    fn resident_bit(n: usize, per_word: usize, word: usize, bit: usize) -> Option<(usize, u32)> {
        let width = 64 / per_word;
        let elem = word * per_word + bit / width;
        (elem < n).then_some((elem, (bit % width) as u32))
    }

    #[test]
    fn lanes_keep_single_word_certainty_at_every_length_residue() {
        for k in [8u32, 16, 32] {
            let per_word = (64 / k) as usize;
            // 44 to 44 + 2·LANES whole store words and the partial ones in
            // between: every residue of the word count mod 2·LANES, for the
            // store and for the momentum (two elements to the word).
            for n in 44 * per_word..=(44 + 2 * LANES) * per_word + 1 {
                let mut p = full_width(k, n);
                let clean = p.integrity_digest();
                for (what, per_word) in [("store", per_word), ("velocity", 2)] {
                    let flip = |p: &mut Param, (elem, bit): (usize, u32)| match what {
                        "store" => p.flip_stored_bit(elem, bit).unwrap(),
                        _ => assert!(p.flip_velocity_bit(elem, bit)),
                    };
                    let words = n.div_ceil(per_word);
                    // Single flips: the head of the buffer, through several
                    // blocks, and the block-to-tail hand-over at its end.
                    for word in (0..=40).chain(words - 3..words) {
                        for bit in [0, 31, 32, 63] {
                            let Some(at) = resident_bit(n, per_word, word, bit) else {
                                continue;
                            };
                            flip(&mut p, at);
                            let hurt = p.integrity_digest();
                            assert_ne!(hurt, clean, "k={k} n={n} {what} word {word} bit {bit}");
                            flip(&mut p, at);
                        }
                    }
                    // Bit 63 of two words: one lane, two lanes, a lane and
                    // the tail — the last block's words and the first and
                    // last tail words among them.
                    let blocks = n / (per_word * LANES) * LANES;
                    let mut picks = vec![0, 1, LANES, LANES + 1, 2 * LANES];
                    picks.extend([blocks - LANES, blocks - 1, blocks, words - 1]);
                    picks.sort_unstable();
                    picks.dedup();
                    for (i, &first) in picks.iter().enumerate() {
                        for &second in &picks[i + 1..] {
                            let top = |w| resident_bit(n, per_word, w, 63);
                            let (Some(a), Some(b)) = (top(first), top(second)) else {
                                continue;
                            };
                            flip(&mut p, a);
                            flip(&mut p, b);
                            let hurt = p.integrity_digest();
                            assert_ne!(hurt, clean, "k={k} n={n} {what} {first}+{second}");
                            flip(&mut p, a);
                            flip(&mut p, b);
                        }
                    }
                }
                assert_eq!(clean, p.integrity_digest(), "every flip was undone");
            }
        }
    }

    #[test]
    fn digest_detects_paired_top_bit_flips_in_resident_words() {
        // Bit 63 of an f32 word is the sign of its odd-indexed element; of
        // an `i8` word, code bit 5 (after sign extension, the byte's top
        // bit) of its eighth element.
        for mut p in one_of_each_kind() {
            let clean = p.integrity_digest();
            for (first, second) in [(1, 3), (7, 15), (5, 19)] {
                assert!(p.flip_velocity_bit(first, 31) && p.flip_velocity_bit(second, 31));
                assert_ne!(clean, p.integrity_digest(), "velocity {first}+{second}");
                assert!(p.flip_velocity_bit(first, 31) && p.flip_velocity_bit(second, 31));
                let top = p
                    .bits()
                    .filter(|_| eps(&p).is_some())
                    .map_or(31, |k| k.get() - 1);
                p.flip_stored_bit(first, top).unwrap();
                p.flip_stored_bit(second, top).unwrap();
                assert_ne!(clean, p.integrity_digest(), "store {first}+{second}");
                p.flip_stored_bit(first, top).unwrap();
                p.flip_stored_bit(second, top).unwrap();
            }
            assert_eq!(clean, p.integrity_digest());
        }
    }

    #[test]
    fn store_clone_from_follows_the_source_across_kinds_and_tiers() {
        // Whatever `kept` held before — same kind, another tier, another
        // kind — it holds the source afterwards, digest and bytes.
        let all = one_of_each_kind();
        for to in &all {
            for from in &all {
                let mut kept = to.store().clone();
                kept.clone_from(from.store());
                assert_eq!(format!("{kept:?}"), format!("{:?}", from.store()));
                let mut p = to.clone();
                p.set_store(kept).unwrap();
                assert_eq!(p.integrity_digest(), from.integrity_digest());
            }
        }
    }

    #[test]
    fn digest_covers_velocity_and_its_presence() {
        let mut p = Param::new(
            "w",
            ParamKind::Weight,
            normal(&[16], 1.0, &mut seeded(10)),
            ParamPrecision::Quantized(b(6)),
        )
        .unwrap();
        let no_velocity = p.integrity_digest();
        assert!(!p.flip_velocity_bit(0, 0), "no buffer ⇒ no flip");
        p.velocity_mut().fill(0.5);
        let with_velocity = p.integrity_digest();
        assert_ne!(no_velocity, with_velocity);
        assert!(p.flip_velocity_bit(3, 17));
        assert_ne!(with_velocity, p.integrity_digest());
        assert!(!p.flip_velocity_bit(99, 0), "out of bounds ⇒ no flip");
    }

    #[test]
    fn saturation_helpers_follow_store_kind() {
        let init = normal(&[64], 1.0, &mut seeded(11));
        let mut q = Param::new(
            "w",
            ParamKind::Weight,
            init.clone(),
            ParamPrecision::Quantized(b(6)),
        )
        .unwrap();
        assert!(q.saturation_ratio().unwrap() < 0.2);
        assert_eq!(q.saturate_codes(0.5, true), 32);
        assert!(q.saturation_ratio().unwrap() >= 0.5);
        let mut f = Param::new("w", ParamKind::Weight, init, ParamPrecision::Float32).unwrap();
        assert_eq!(f.saturation_ratio(), None);
        assert_eq!(f.saturate_codes(0.5, true), 0);
        assert!(f.flip_stored_bit(99, 0).is_err());
    }

    #[test]
    fn resident_bytes_track_store_and_velocity() {
        let init = normal(&[64], 1.0, &mut seeded(12));
        let mut f = Param::new(
            "w",
            ParamKind::Weight,
            init.clone(),
            ParamPrecision::Float32,
        )
        .unwrap();
        assert_eq!(f.resident_bytes(), 64 * 4);
        f.velocity_mut().fill(0.0);
        assert_eq!(
            f.resident_bytes(),
            64 * 4 + 64 * 4,
            "velocity counts once allocated"
        );

        let mut q = Param::new(
            "w",
            ParamKind::Weight,
            init,
            ParamPrecision::Quantized(b(6)),
        )
        .unwrap();
        let store_bytes = match q.store() {
            ParamStore::Quantized(qt) => qt.resident_bytes(),
            _ => unreachable!(),
        };
        assert_eq!(q.resident_bytes(), store_bytes);
        q.velocity_mut().fill(0.0);
        assert_eq!(q.resident_bytes(), store_bytes + 64 * 4);
        // The modeled k·N figure is unchanged by physical packing.
        assert_eq!(q.memory_bits(), 64 * 6);
    }

    #[test]
    fn scheme_presets() {
        let s = QuantScheme::paper_apt();
        assert_eq!(
            s.precision_for(ParamKind::Weight),
            ParamPrecision::Quantized(b(6))
        );
        assert_eq!(s.precision_for(ParamKind::Bias), ParamPrecision::Float32);
        assert_eq!(s.precision_for(ParamKind::BnGamma), ParamPrecision::Float32);
        let f = QuantScheme::fixed(b(12));
        assert_eq!(
            f.precision_for(ParamKind::Weight),
            ParamPrecision::Quantized(b(12))
        );
        let m = QuantScheme::master_copy(b(2));
        assert_eq!(
            m.precision_for(ParamKind::Weight),
            ParamPrecision::MasterCopy(b(2))
        );
        assert_eq!(QuantScheme::default(), QuantScheme::paper_apt());
        assert_eq!(QuantScheme::float32().weights, ParamPrecision::Float32);
    }
}
