use crate::{AffineQuantizer, Bitwidth, CodeStore, QuantError, RoundingMode};
use apt_tensor::Tensor;
use rand::rngs::StdRng;
use std::ops::Range;

/// Per-update bookkeeping returned by [`QuantizedTensor::sgd_update`].
///
/// `underflowed` counts the elements whose update quantised to zero steps —
/// the paper's *quantisation underflow* (§III-A). The APT trainer aggregates
/// these for diagnostics; the Gavg metric itself is computed from raw
/// gradients upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Elements whose non-zero gradient produced a zero-step update.
    pub underflowed: usize,
    /// Elements whose updated value fell outside the representable range
    /// (triggering range expansion).
    pub expanded: usize,
    /// Elements left sitting on a grid rail (code 0 or the maximum code)
    /// after the update settled, post any recalibration. A large value on a
    /// small tensor is normal (calibration pins the min/max to the rails);
    /// a large *fraction* on a big tensor signals integer saturation.
    pub saturated: usize,
    /// Total elements updated.
    pub total: usize,
}

impl UpdateStats {
    /// Fraction of elements that underflowed (0 for empty tensors).
    pub fn underflow_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.underflowed as f64 / self.total as f64
        }
    }
}

/// Who holds the `(S, Z)` pairs of a [`QuantizedTensor`]. Its only job is
/// the slice view: every algorithm walks it with `stride = len / groups`,
/// so the paper's per-tensor scheme is the one-group case of per-channel
/// calibration — held inline, it allocates nothing.
#[derive(Debug, Clone)]
enum Grid {
    /// The paper's scheme: one quantiser for the whole tensor.
    PerTensor(AffineQuantizer),
    /// One per axis-0 channel (Krishnamoorthi \[13\] §3.1), all at one
    /// bitwidth — even when axis 0 has a single channel.
    PerChannel(Vec<AffineQuantizer>),
}

impl Grid {
    fn quantizers(&self) -> &[AffineQuantizer] {
        match self {
            Grid::PerTensor(q) => std::slice::from_ref(q),
            Grid::PerChannel(qs) => qs,
        }
    }

    fn quantizers_mut(&mut self) -> &mut [AffineQuantizer] {
        match self {
            Grid::PerTensor(q) => std::slice::from_mut(q),
            Grid::PerChannel(qs) => qs,
        }
    }

    /// Each group's element range in a store of `len` codes, with its
    /// quantiser, in order.
    fn groups(&self, len: usize) -> impl Iterator<Item = (Range<usize>, AffineQuantizer)> + '_ {
        let stride = len / self.quantizers().len();
        (self.quantizers().iter().enumerate()).map(move |(c, &q)| (c * stride..(c + 1) * stride, q))
    }
}

/// A parameter tensor whose source of truth is its integer codes.
///
/// This realises the paper's central memory claim: during training the model
/// is held **only** at its current (adaptive) precision — there is no fp32
/// master copy (§I, §III-B, Table I "Model Precision in BPROP"). Float views
/// are materialised on demand for compute, but every value is always exactly
/// `S·(q − Z)` for an integer code `q` on the `k`-bit grid.
///
/// The paper calibrates one `(S, Z)` per tensor
/// ([`from_tensor`](Self::from_tensor)), so one outlier channel inflates `ε`
/// for every channel and pushes the whole layer toward underflow;
/// [`from_tensor_per_channel`](Self::from_tensor_per_channel) gives each
/// output channel (axis-0 slice) its own range instead (the `ablations`
/// binary compares them). Eq. 2, Eq. 3 and Eq. 4 are written once, over
/// [`quantizers`](Self::quantizers), each group under its own `ε`.
///
/// The codes live in a [`CodeStore`], so the saving is *physical*: a 6-bit
/// layer occupies one byte per weight of process memory (`i8` tier), not a
/// simulated 64. [`memory_bits`](QuantizedTensor::memory_bits) remains the
/// idealised `N·k` model the paper's figures normalise;
/// [`resident_bytes`](QuantizedTensor::resident_bytes) is what the
/// allocator actually holds.
///
/// The SGD step implements Eq. 3:
///
/// ```text
/// w_ij ← w_ij − ⌊ lr·g_ij / ε_i ⌋ · ε_i     (magnitude truncation)
/// ```
///
/// so updates smaller than `ε_i` vanish (quantisation underflow). When an
/// update would leave the representable range, the range is expanded and the
/// group recalibrated — weights may legitimately grow during training.
///
/// ```
/// use apt_quant::{Bitwidth, QuantizedTensor};
/// use apt_tensor::Tensor;
/// let w = Tensor::from_slice(&[-1.0, 0.0, 1.0]);
/// let q = QuantizedTensor::from_tensor(&w, Bitwidth::new(8)?)?;
/// assert_eq!(q.bits().get(), 8);
/// assert_eq!(q.memory_bits(), 3 * 8);
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug)]
pub struct QuantizedTensor {
    store: CodeStore,
    dims: Vec<usize>,
    grid: Grid,
}

impl Clone for QuantizedTensor {
    fn clone(&self) -> Self {
        QuantizedTensor {
            store: self.store.clone(),
            dims: self.dims.clone(),
            grid: self.grid.clone(),
        }
    }

    /// Into the code buffer, shape and quantiser list `self` already owns.
    fn clone_from(&mut self, source: &Self) {
        self.store.clone_from(&source.store);
        self.dims.clone_from(&source.dims);
        match (&mut self.grid, &source.grid) {
            (Grid::PerChannel(to), Grid::PerChannel(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

impl QuantizedTensor {
    /// Quantises a float tensor at the given precision, calibrating one
    /// range from the whole tensor's min/max (Eq. 2) — the paper's scheme.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for empty or non-finite input.
    pub fn from_tensor(t: &Tensor, bits: Bitwidth) -> crate::Result<Self> {
        let (store, grid) = Self::quantize(t.data(), None, bits)?;
        let dims = t.dims().to_vec();
        Ok(QuantizedTensor { store, dims, grid })
    }

    /// Quantises a tensor (rank ≥ 1) with one range per axis-0 channel.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for empty, rank-0 or
    /// non-finite input.
    pub fn from_tensor_per_channel(t: &Tensor, bits: Bitwidth) -> crate::Result<Self> {
        // Rank 0 has no axis 0: zero channels, rejected like an empty tensor.
        let channels = t.dims().first().copied().unwrap_or(0);
        let (store, grid) = Self::quantize(t.data(), Some(channels), bits)?;
        let dims = t.dims().to_vec();
        Ok(QuantizedTensor { store, dims, grid })
    }

    /// Eq. 2 per group — the whole of `values`, or each of `channels` equal
    /// slices — then every value through its group's quantiser straight
    /// into the tier.
    fn quantize(
        values: &[f32],
        channels: Option<usize>,
        bits: Bitwidth,
    ) -> crate::Result<(CodeStore, Grid)> {
        let Some(channels) = channels else {
            let quantizer = AffineQuantizer::calibrate(values, bits)?;
            let store = quantizer.quantize_to_store(values);
            return Ok((store, Grid::PerTensor(quantizer)));
        };
        if values.is_empty() || channels == 0 {
            return Err(QuantError::NonFiniteRange {
                min: f32::NAN,
                max: f32::NAN,
            });
        }
        let stride = values.len() / channels;
        let quantizers = (values.chunks(stride))
            .map(|channel| AffineQuantizer::calibrate(channel, bits))
            .collect::<crate::Result<Vec<_>>>()?;
        let codes = (values.chunks(stride).zip(&quantizers))
            .flat_map(|(channel, q)| channel.iter().map(|&v| q.quantize_value(v)));
        let store = CodeStore::from_code_iter(codes, bits);
        Ok((store, Grid::PerChannel(quantizers)))
    }

    /// Reassembles a per-tensor quantised tensor from stored parts
    /// (checkpoint store tag 1).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if `codes.len()` disagrees
    /// with `dims` and [`QuantError::NonFiniteRange`] if any code is
    /// outside the quantiser's grid.
    pub fn from_parts(
        codes: Vec<i64>,
        dims: Vec<usize>,
        quantizer: AffineQuantizer,
    ) -> crate::Result<Self> {
        Self::assemble(codes, dims, Grid::PerTensor(quantizer))
    }

    /// Reassembles a per-channel quantised tensor from stored parts
    /// (checkpoint store tag 4).
    ///
    /// # Errors
    ///
    /// As [`from_parts`](Self::from_parts), and
    /// [`QuantError::ShapeMismatch`] unless there is exactly one quantiser
    /// per axis-0 channel, all at one bitwidth (the physical store packs at
    /// a single width).
    pub fn from_parts_per_channel(
        codes: Vec<i64>,
        dims: Vec<usize>,
        quantizers: Vec<AffineQuantizer>,
    ) -> crate::Result<Self> {
        if quantizers.is_empty()
            || dims.first() != Some(&quantizers.len())
            || quantizers.iter().any(|q| q.bits() != quantizers[0].bits())
        {
            return Err(QuantError::ShapeMismatch {
                op: "from_parts",
                lhs: vec![codes.len(), quantizers.len()],
                rhs: dims,
            });
        }
        Self::assemble(codes, dims, Grid::PerChannel(quantizers))
    }

    /// The checks both forms share: volume against `dims`, every code on
    /// the grid. Sits behind the checkpoint reader — a trust boundary.
    fn assemble(codes: Vec<i64>, dims: Vec<usize>, grid: Grid) -> crate::Result<Self> {
        let volume: usize = dims.iter().product();
        if codes.len() != volume {
            return Err(QuantError::ShapeMismatch {
                op: "from_parts",
                lhs: vec![codes.len()],
                rhs: dims,
            });
        }
        let bits = grid.quantizers()[0].bits();
        let max_code = bits.num_steps() as i64;
        if codes.iter().any(|&q| !(0..=max_code).contains(&q)) {
            return Err(QuantError::NonFiniteRange {
                min: 0.0,
                max: max_code as f32,
            });
        }
        Ok(QuantizedTensor {
            store: CodeStore::from_codes(&codes, bits),
            dims,
            grid,
        })
    }

    /// The physical code container (integrity digests, serialisation,
    /// memory accounting).
    pub fn store(&self) -> &CodeStore {
        &self.store
    }

    /// The calibration groups' quantisers, in order: one for a per-tensor
    /// tensor, one per axis-0 channel for a per-channel one. Group `c`
    /// covers elements `c·stride .. (c+1)·stride`, `stride = len / groups`.
    pub fn quantizers(&self) -> &[AffineQuantizer] {
        self.grid.quantizers()
    }

    /// Whether the tensor was calibrated per axis-0 channel — a recorded
    /// fact even when axis 0 is 1 and it behaves as a per-tensor one. It
    /// decides the checkpoint store tag (4, not 1), the leading word of the
    /// integrity digest and the metadata term of
    /// [`memory_bits`](Self::memory_bits); nothing else may ask.
    pub fn is_per_channel(&self) -> bool {
        matches!(self.grid, Grid::PerChannel(_))
    }

    /// Materialises the float view `S·(q − Z)` of every element, straight
    /// from the tier.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = vec![0.0f32; self.store.len()];
        self.for_each_value(|i, w| data[i] = w);
        Tensor::from_vec(data, &self.dims).expect("codes/dims invariant")
    }

    /// Calls `f(i, w)` with the float value `w = S·(q_i − Z)` of every
    /// element under its group's quantiser, in order —
    /// [`to_tensor`](Self::to_tensor) without the tensor, for callers that
    /// fold the weights into something else (the optimiser's weight-decay
    /// term).
    ///
    /// Every value equals [`AffineQuantizer::dequantize_value`] of its
    /// code. For `k ≤ 16` it is computed as an i32→f32 conversion, which
    /// yields the same float as the i64 one for these magnitudes and lets
    /// the loop vectorise.
    #[inline]
    pub fn for_each_value(&self, mut f: impl FnMut(usize, f32)) {
        for (range, quantizer) in self.grid.groups(self.len()) {
            self.for_each_value_in(range, quantizer, &mut f);
        }
    }

    /// [`for_each_value`](Self::for_each_value) over one group's `range`.
    #[inline]
    fn for_each_value_in(
        &self,
        range: Range<usize>,
        quantizer: AffineQuantizer,
        mut f: impl FnMut(usize, f32),
    ) {
        let (scale, z) = (quantizer.eps(), quantizer.zero_point());
        if self.bits().get() <= 16 {
            self.store
                .for_each(range, |i, q| f(i, scale * ((q - z) as i32 as f32)));
        } else {
            self.store
                .for_each(range, |i, q| f(i, quantizer.dequantize_value(q)));
        }
    }

    /// The quantisation step — the paper's `ε_i` for this layer: the mean
    /// over groups, which is the one `ε` itself under per-tensor
    /// calibration and a scalar summary for reporting under per-channel
    /// (Eq. 3 and Eq. 4 use each channel's own).
    pub fn eps(&self) -> f32 {
        let qs = self.quantizers();
        (qs.iter().map(|q| f64::from(q.eps())).sum::<f64>() / qs.len() as f64) as f32
    }

    /// Current precision (uniform across groups).
    pub fn bits(&self) -> Bitwidth {
        self.store.bits()
    }

    /// Shape of the parameter tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of parameters.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Training-memory footprint of this parameter in bits: `N · k`, plus
    /// one `(S, Z)` pair (96 bits) per channel of calibration metadata for
    /// a per-channel tensor.
    ///
    /// This is the quantity Figure 5 normalises ("model size for training")
    /// — the *idealised* k-bit model. Compare
    /// [`resident_bytes`](Self::resident_bytes) for what the process
    /// actually holds.
    pub fn memory_bits(&self) -> u64 {
        let channels = if self.is_per_channel() {
            self.quantizers().len()
        } else {
            0
        };
        self.store.len() as u64 * u64::from(self.bits().get()) + channels as u64 * 96
    }

    /// Physical bytes resident for this parameter: the code store plus one
    /// quantiser's `(S, Z, k)` per calibration group.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes() + std::mem::size_of_val(self.quantizers()) as u64
    }

    /// The Gavg metric of Eq. 4 for a gradient of this tensor:
    /// `mean_j |g_j| / ε_group(j)`, each group's reciprocal taken once.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if `grad` differs in shape.
    pub fn gavg(&self, grad: &Tensor) -> crate::Result<f64> {
        self.check_shape("gavg", grad)?;
        if grad.is_empty() {
            return Ok(0.0);
        }
        let mut sum = 0.0f64;
        for (range, quantizer) in self.grid.groups(self.len()) {
            let inv = 1.0 / f64::from(quantizer.eps());
            for &g in &grad.data()[range] {
                sum += f64::from(g).abs() * inv;
            }
        }
        Ok(sum / grad.len() as f64)
    }

    fn check_shape(&self, op: &'static str, t: &Tensor) -> crate::Result<()> {
        if t.dims() == self.dims.as_slice() {
            return Ok(());
        }
        Err(QuantError::ShapeMismatch {
            op,
            lhs: self.dims.clone(),
            rhs: t.dims().to_vec(),
        })
    }

    /// Re-quantises the tensor at a new precision, recalibrating every
    /// group's range from its current values (used by Alg. 1 when `k_i`
    /// changes). The codes are re-packed into the tier matching the new
    /// bitwidth.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] if the tensor is empty.
    pub fn set_bits(&mut self, bits: Bitwidth) -> crate::Result<()> {
        self.recalibrate(&self.to_tensor(), bits)
    }

    /// Re-quantises to `values` at `bits`, calibrating every group from them.
    fn recalibrate(&mut self, values: &Tensor, bits: Bitwidth) -> crate::Result<()> {
        let channels = self.is_per_channel().then(|| self.quantizers().len());
        (self.store, self.grid) = Self::quantize(values.data(), channels, bits)?;
        Ok(())
    }

    /// Applies the quantised SGD step of Eq. 3 with effective step
    /// `lr · grad` (callers fold momentum/weight-decay into `grad`), each
    /// calibration group under its own `ε`.
    ///
    /// Elements whose step quantises to zero are counted as underflow. If
    /// any updated value leaves its group's representable range, that group
    /// — the whole tensor under per-tensor calibration, one channel under
    /// per-channel — is recalibrated to the new min/max (range expansion);
    /// the count of such elements is reported in
    /// [`UpdateStats::expanded`]. In-range results are written straight
    /// into the packed store; out-of-range codes (rare) are spilled to the
    /// side, since a `k`-bit field cannot hold them, and the recalibration
    /// runs on the exact updated values, so the result does not depend on
    /// the storage tier.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if `grad` has a different shape
    /// and [`QuantError::NonFiniteOperand`] if `grad` or `lr` is NaN/Inf.
    pub fn sgd_update(
        &mut self,
        grad: &Tensor,
        lr: f32,
        mode: RoundingMode,
        rng: &mut StdRng,
    ) -> crate::Result<UpdateStats> {
        self.check_shape("sgd_update", grad)?;
        if !lr.is_finite() || grad.has_non_finite() {
            return Err(QuantError::NonFiniteOperand { op: "sgd_update" });
        }
        let lr = f64::from(lr);
        let max_code = self.bits().num_steps() as i64;
        let g = grad.data();
        // Underflow is counted where it is decided: by the block mask for
        // the elements it rules out, by the element body for the rest.
        let (mut masked_out, mut underflowed, mut on_rails) = (0usize, 0usize, 0usize);
        // `(index, raw code)` of every update that left its grid, in index
        // order: a `k`-bit field cannot hold it, so the store keeps the old
        // code there (counted, for now, at the code it kept).
        let mut spills: Vec<(usize, i64)> = Vec::new();
        for (range, quantizer) in self.grid.groups(self.store.len()) {
            let eps = f64::from(quantizer.eps());
            on_rails += self.store.rewrite_blocks(
                range,
                // Under truncation an element with `|lr·g| < ε` takes zero
                // steps ([`RoundingMode::round_quotient`]'s exact test),
                // and on an under-resolved layer that is nine in ten: one
                // branch-free pass rules them out a block at a time, so
                // the body below is entered for the rest only. The other
                // modes can move on any element.
                |block| {
                    if mode != RoundingMode::Truncate {
                        return u64::MAX;
                    }
                    let (mask, zero_steps) = may_move(&g[block], lr, eps);
                    masked_out += zero_steps;
                    mask
                },
                #[inline(always)]
                |i, q| {
                    let steps = mode.round_quotient(lr * f64::from(g[i]), eps, rng);
                    if steps == 0 {
                        underflowed += usize::from(g[i] != 0.0);
                        return q;
                    }
                    // Saturating: a pathological gradient can round to
                    // ±i64::MAX steps, and plain subtraction would
                    // overflow. The saturated code is out of range, so it
                    // spills.
                    let moved = q.saturating_sub(steps);
                    if (0..=max_code).contains(&moved) {
                        moved
                    } else {
                        spills.push((i, moved));
                        q
                    }
                },
            );
        }
        let underflowed = masked_out + underflowed;
        if !spills.is_empty() {
            self.expand(&spills)?;
            on_rails = self.store.count_rails(max_code);
        }
        Ok(UpdateStats {
            underflowed,
            expanded: spills.len(),
            saturated: on_rails,
            total: self.store.len(),
        })
    }

    /// Range expansion: recalibrates each group named in `spills` (index
    /// order, so a group's are adjacent) to cover its new values, which are
    /// exact multiples of its old ε — the stored ones with the spilled ones
    /// patched in. Out of line so [`sgd_update`](Self::sgd_update)'s sweep
    /// keeps the registers.
    #[inline(never)]
    fn expand(&mut self, spills: &[(usize, i64)]) -> crate::Result<()> {
        let stride = self.len() / self.quantizers().len();
        for spilled in spills.chunk_by(|a, b| a.0 / stride == b.0 / stride) {
            let c = spilled[0].0 / stride;
            let range = c * stride..(c + 1) * stride;
            let old = self.quantizers()[c];
            let mut values = vec![0.0f32; stride];
            self.for_each_value_in(range.clone(), old, |i, w| values[i - range.start] = w);
            for &(i, q) in spilled {
                values[i - range.start] = old.dequantize_value(q);
            }
            let new = AffineQuantizer::calibrate(&values, self.bits())?;
            if self.quantizers().len() == 1 {
                // The group is the whole store: build it afresh, streaming
                // (in place, the packed tier pays a read-modify-write per
                // code).
                self.store = new.quantize_to_store(&values);
            } else {
                self.store.rewrite_blocks(
                    range.clone(),
                    |_| u64::MAX,
                    |i, _| new.quantize_value(values[i - range.start]),
                );
            }
            self.grid.quantizers_mut()[c] = new;
        }
        Ok(())
    }

    /// Fraction of codes sitting on a grid rail (0 or `2^k − 1`), pooled
    /// across groups.
    ///
    /// A freshly calibrated group keeps its min/max on (or one code off)
    /// the rails, so a healthy ratio is about `2/stride`. Values
    /// far above that indicate integer saturation — either a pathological
    /// update or an injected fault — and are what the trainer's saturation
    /// guard watches.
    pub fn saturation_ratio(&self) -> f64 {
        if self.store.is_empty() {
            return 0.0;
        }
        let max_code = self.bits().num_steps() as i64;
        self.store.count_rails(max_code) as f64 / self.store.len() as f64
    }

    /// Flips one bit of one stored code, modelling a single-event upset in
    /// the integer memory that holds the parameter.
    ///
    /// The flip lands on the *physical* storage: in the bit-packed tier it
    /// is literally one XOR on the resident `u64` word holding that field.
    /// The logical effect in every tier is `q ^= 1 << (bit % k)` — the
    /// centered pattern the tiers store differs from `q` only in an
    /// inverted MSB — so the perturbed code always stays on the `k`-bit
    /// grid, exactly what corrupted SRAM would hold. Returns the new code
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] if `elem` is out of bounds.
    pub fn flip_code_bit(&mut self, elem: usize, bit: u32) -> crate::Result<i64> {
        if elem >= self.store.len() {
            return Err(QuantError::ShapeMismatch {
                op: "flip_code_bit",
                lhs: vec![elem],
                rhs: vec![self.store.len()],
            });
        }
        let k = self.bits().get();
        Ok(self.store.flip_bit(elem, bit % k))
    }

    /// Drives a deterministic subset of codes to a grid rail (fault
    /// injection: integer saturation).
    ///
    /// Every `round(1/fraction)`-th element is set to the maximum code when
    /// `high` is true, or to code 0 otherwise. Returns the number of codes
    /// forced to the rail. `fraction` is clamped to `(0, 1]`; a
    /// non-positive or non-finite fraction saturates nothing.
    pub fn saturate(&mut self, fraction: f64, high: bool) -> usize {
        if !fraction.is_finite() || fraction <= 0.0 || self.store.is_empty() {
            return 0;
        }
        let stride = (1.0 / fraction.min(1.0)).round().max(1.0) as usize;
        let rail = if high {
            self.bits().num_steps() as i64
        } else {
            0
        };
        let mut forced = 0;
        for i in (0..self.store.len()).step_by(stride) {
            self.store.set(i, rail);
            forced += 1;
        }
        forced
    }
}

/// Eq. 3's truncation test over one block of at most 64 gradients: bit `j`
/// of the mask is set unless `|lr·g_j| < eps` — the element may take a
/// step — and the count is of the cleared bits with `g_j ≠ 0`, the
/// block's underflows. Flags first, then eight flags to the byte: both
/// loops are branch-free and the first is a vector compare.
#[inline(always)]
fn may_move(g: &[f32], lr: f64, eps: f64) -> (u64, usize) {
    let mut flags = [0u8; CodeStore::BLOCK];
    let mut zero_steps = 0usize;
    for (flag, &g) in flags.iter_mut().zip(g) {
        let under = (lr * f64::from(g)).abs() < eps;
        *flag = u8::from(!under);
        zero_steps += usize::from(under & (g != 0.0));
    }
    // Eight 0/1 bytes times this constant put byte `i`'s bit at 56 + i, and
    // no two partial products share a bit, so nothing carries.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mask = flags.chunks_exact(8).enumerate().fold(0, |mask, (j, c)| {
        let bytes = u64::from_le_bytes(c.try_into().expect("chunks of eight"));
        mask | (bytes.wrapping_mul(GATHER) >> 56) << (8 * j)
    });
    (mask, zero_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{self, normal, seeded};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn roundtrip_within_half_eps() {
        // Each element within half its own group's ε.
        let w = normal(&[4, 16], 0.5, &mut seeded(1));
        for q in [
            QuantizedTensor::from_tensor(&w, b(8)).unwrap(),
            QuantizedTensor::from_tensor_per_channel(&w, b(8)).unwrap(),
        ] {
            let stride = 64 / q.quantizers().len();
            let back = q.to_tensor();
            for (i, (a, b_)) in w.data().iter().zip(back.data()).enumerate() {
                assert!((a - b_).abs() <= q.quantizers()[i / stride].eps() / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn tiny_updates_underflow_entirely() {
        let w = Tensor::from_slice(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(4)).unwrap();
        let before = q.to_tensor();
        let g = Tensor::full(&[5], q.eps() * 0.4);
        let stats = q
            .sgd_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert_eq!(stats.underflowed, 5);
        assert_eq!(stats.underflow_rate(), 1.0);
        assert_eq!(q.to_tensor().data(), before.data());
    }

    #[test]
    fn large_updates_apply_in_eps_multiples() {
        let w = Tensor::from_slice(&[-1.0, 0.0, 0.5, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        let eps = q.eps();
        // Positive gradients shrink weights; keep the minimum fixed so no
        // value leaves the representable range (no recalibration).
        let g = Tensor::from_slice(&[0.0, 2.5 * eps, 2.5 * eps, 2.5 * eps]);
        let before = q.to_tensor();
        let stats = q
            .sgd_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert_eq!(stats.underflowed, 0);
        assert_eq!(stats.expanded, 0);
        let after = q.to_tensor();
        assert_eq!(before.data()[0], after.data()[0]);
        for (x, y) in before.data().iter().zip(after.data()).skip(1) {
            assert!((x - y - 2.0 * eps).abs() < 1e-5, "x={x} y={y} eps={eps}");
        }
    }

    #[test]
    fn update_moves_against_gradient_sign() {
        let w = Tensor::from_slice(&[-1.0, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(8)).unwrap();
        let eps = q.eps();
        let g = Tensor::from_slice(&[-3.0 * eps, 3.0 * eps]);
        q.sgd_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        let after = q.to_tensor();
        assert!(after.data()[0] > -1.0); // negative grad ⇒ weight increases
        assert!(after.data()[1] < 1.0); // positive grad ⇒ weight decreases
    }

    #[test]
    fn range_expansion_lets_weights_grow() {
        let w = Tensor::from_slice(&[-0.1, 0.0, 0.1]);
        let mut q = QuantizedTensor::from_tensor(&w, b(8)).unwrap();
        // Push the max weight far beyond the original range repeatedly.
        let g = Tensor::from_slice(&[0.0, 0.0, -1.0]);
        let mut expanded = 0;
        for _ in 0..5 {
            let s = q
                .sgd_update(&g, 0.5, RoundingMode::Truncate, &mut seeded(0))
                .unwrap();
            expanded += s.expanded;
        }
        assert!(expanded > 0, "expected at least one range expansion");
        let after = q.to_tensor();
        assert!(
            after.data()[2] > 0.5,
            "weight should have grown: {:?}",
            after.data()
        );
    }

    #[test]
    fn set_bits_preserves_values_within_new_eps() {
        let w = rng::normal(&[128], 1.0, &mut seeded(2));
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        let before = q.to_tensor();
        q.set_bits(b(7)).unwrap();
        assert_eq!(q.bits().get(), 7);
        let after = q.to_tensor();
        for (x, y) in before.data().iter().zip(after.data()) {
            assert!((x - y).abs() <= q.eps() + 1e-6);
        }
        // Higher precision ⇒ smaller ε (range identical up to grid snap).
        let mut q2 = q.clone();
        q2.set_bits(b(16)).unwrap();
        assert!(q2.eps() < q.eps());
    }

    #[test]
    fn memory_bits_tracks_precision() {
        let w = rng::normal(&[100], 1.0, &mut seeded(3));
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        assert_eq!(q.memory_bits(), 600);
        q.set_bits(b(13)).unwrap();
        assert_eq!(q.memory_bits(), 1300);
    }

    #[test]
    fn resident_bytes_track_the_physical_tier() {
        let w = rng::normal(&[100], 1.0, &mut seeded(3));
        let meta = std::mem::size_of::<AffineQuantizer>() as u64;
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        // One byte per 6-bit code.
        assert_eq!(q.resident_bytes(), 100 + meta);
        q.set_bits(b(13)).unwrap();
        assert_eq!(q.resident_bytes(), 200 + meta);
        q.set_bits(b(20)).unwrap();
        assert_eq!(q.resident_bytes(), (2000u64.div_ceil(64) + 1) * 8 + meta);
    }

    #[test]
    fn rejects_bad_operands() {
        let w = Tensor::from_slice(&[0.0, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(8)).unwrap();
        let bad_shape = Tensor::from_slice(&[1.0]);
        assert!(q
            .sgd_update(&bad_shape, 0.1, RoundingMode::Truncate, &mut seeded(0))
            .is_err());
        // A refused operand is refused before any code is written: the
        // first element's step is a whole one, inwards off its rail, and
        // would have landed.
        let before = q.store.clone();
        let mut nan_grad = Tensor::from_slice(&[-1.0, 1.0]);
        nan_grad.data_mut()[1] = f32::NAN;
        assert!(q
            .sgd_update(&nan_grad, 0.1, RoundingMode::Truncate, &mut seeded(0))
            .is_err());
        let fine = Tensor::from_slice(&[-1.0, 1.0]);
        assert!(q
            .sgd_update(&fine, f32::INFINITY, RoundingMode::Truncate, &mut seeded(0))
            .is_err());
        assert_eq!(q.store, before);
        assert!(q
            .sgd_update(&fine, 0.1, RoundingMode::Truncate, &mut seeded(0))
            .is_ok());
        assert_ne!(q.store, before);
    }

    #[test]
    fn rejects_a_nan_at_any_position() {
        // `f32::min`/`max` skip a NaN, which would otherwise calibrate a
        // finite range and be stored as the zero point.
        let clean = Tensor::from_vec(vec![1.0, -1.0, 0.5, 0.25], &[2, 2]).unwrap();
        let refused = |r: crate::Result<()>| matches!(r, Err(QuantError::NonFiniteRange { .. }));
        for build in [
            QuantizedTensor::from_tensor,
            QuantizedTensor::from_tensor_per_channel,
        ] {
            for at in [0, 1, 3] {
                let mut t = clean.clone();
                t.data_mut()[at] = f32::NAN;
                assert!(refused(build(&t, b(6)).map(drop)), "NaN at {at}");
            }
        }
    }

    #[test]
    fn nearest_mode_halves_underflow_threshold() {
        let w = Tensor::from_slice(&[-1.0, 1.0]);
        let mut qt = QuantizedTensor::from_tensor(&w, b(4)).unwrap();
        let mut qn = qt.clone();
        let g = Tensor::full(&[2], qt.eps() * 0.7);
        let st = qt
            .sgd_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        let sn = qn
            .sgd_update(&g, 1.0, RoundingMode::Nearest, &mut seeded(0))
            .unwrap();
        assert_eq!(st.underflowed, 2); // 0.7ε truncates to 0
        assert_eq!(sn.underflowed, 0); // 0.7ε rounds to 1
    }

    #[test]
    fn saturation_ratio_tracks_rail_codes() {
        let w = rng::normal(&[64], 0.5, &mut seeded(7));
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        // Calibration pins min→0 and max→2^k−1, so a clean tensor sits near
        // the 2/N floor.
        let clean = q.saturation_ratio();
        assert!((2.0 / 64.0..0.2).contains(&clean), "clean ratio {clean}");
        let forced = q.saturate(0.5, true);
        assert_eq!(forced, 32);
        assert!(q.saturation_ratio() >= 0.5);
        // All forced codes decode to the calibrated maximum.
        let max = q.quantizers()[0].dequantize_value(b(6).num_steps() as i64);
        let t = q.to_tensor();
        for v in t.data().iter().step_by(2) {
            assert!((v - max).abs() <= q.eps(), "v={v} max={max}");
        }
    }

    #[test]
    fn saturate_handles_degenerate_fractions() {
        let w = Tensor::from_slice(&[-1.0, 0.0, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(4)).unwrap();
        assert_eq!(q.saturate(0.0, true), 0);
        assert_eq!(q.saturate(f64::NAN, true), 0);
        assert_eq!(q.saturate(-0.3, false), 0);
        assert_eq!(q.saturate(2.0, false), 3); // clamped to 1.0 ⇒ every code
        assert_eq!(q.saturation_ratio(), 1.0);
    }

    #[test]
    fn flip_code_bit_stays_on_grid() {
        let w = rng::normal(&[32], 1.0, &mut seeded(8));
        for k in [2u32, 4, 6, 8] {
            let mut q = QuantizedTensor::from_tensor(&w, b(k)).unwrap();
            let max_code = q.bits().num_steps() as i64;
            for bit in 0..40u32 {
                let new = q.flip_code_bit((bit as usize) % 32, bit).unwrap();
                assert!((0..=max_code).contains(&new), "k={k} bit={bit} q={new}");
            }
            assert!(q.to_tensor().data().iter().all(|v| v.is_finite()));
        }
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        assert!(q.flip_code_bit(32, 0).is_err());
    }

    #[test]
    fn sgd_update_reports_saturated_codes() {
        let w = Tensor::from_slice(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        let g = Tensor::full(&[5], 0.0);
        let stats = q
            .sgd_update(&g, 0.1, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        // Only calibration extremes sit on the rails (the zero-point snap
        // can shift the max off the top rail, as it does here).
        assert_eq!((stats.saturated, stats.total), (1, 5));
    }

    #[test]
    fn stochastic_mode_sometimes_commits_small_updates() {
        let w = rng::normal(&[256], 1.0, &mut seeded(4));
        let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
        let g = Tensor::full(&[256], q.eps() * 0.5);
        let s = q
            .sgd_update(&g, 1.0, RoundingMode::Stochastic, &mut seeded(5))
            .unwrap();
        assert!(
            s.underflowed > 0 && s.underflowed < 256,
            "underflowed={}",
            s.underflowed
        );
    }

    /// Per-channel `ε_c`, for the cases the one-group form cannot show.
    fn channel_eps(q: &QuantizedTensor) -> Vec<f32> {
        q.quantizers().iter().map(|q| q.eps()).collect()
    }

    #[test]
    fn outlier_channel_does_not_inflate_other_channels_eps() {
        // Channel 0 has range 100×, channel 1 stays tight — the motivation
        // for per-channel calibration.
        let mut data = vec![0.0f32; 32];
        for (i, v) in data.iter_mut().enumerate() {
            *v = if i < 16 {
                (i as f32 - 8.0) * 10.0
            } else {
                (i as f32 - 24.0) * 0.1
            };
        }
        let t = Tensor::from_vec(data, &[2, 16]).unwrap();
        let pc = QuantizedTensor::from_tensor_per_channel(&t, b(8)).unwrap();
        let eps = channel_eps(&pc);
        assert!(eps[0] > eps[1] * 50.0, "eps0={} eps1={}", eps[0], eps[1]);
        // Per-tensor calibration would give channel 1 the inflated ε.
        let pt = QuantizedTensor::from_tensor(&t, b(8)).unwrap();
        assert!(pt.eps() > eps[1] * 50.0);
    }

    #[test]
    fn gavg_uses_per_channel_eps() {
        let t = Tensor::from_vec(vec![-10.0, 10.0, -0.1, 0.1], &[2, 2]).unwrap();
        let pc = QuantizedTensor::from_tensor_per_channel(&t, b(4)).unwrap();
        let grad = Tensor::from_vec(vec![0.01, 0.01, 0.01, 0.01], &[2, 2]).unwrap();
        let g = pc.gavg(&grad).unwrap();
        let eps = channel_eps(&pc);
        let gm = f64::from(0.01f32);
        let expected = 0.5 * (gm / f64::from(eps[0])) + 0.5 * (gm / f64::from(eps[1]));
        assert!((g - expected).abs() < 1e-9, "g={g} expected={expected}");
        assert!(pc.gavg(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn underflow_depends_on_channel() {
        // A gradient that underflows the coarse channel but lands on the
        // fine one — per-tensor calibration would lose both.
        let t = Tensor::from_vec(vec![-10.0, 10.0, -0.1, 0.1], &[2, 2]).unwrap();
        let mut pc = QuantizedTensor::from_tensor_per_channel(&t, b(4)).unwrap();
        let eps = channel_eps(&pc);
        let g_mag = eps[1] * 1.5; // > ε₁ but well below ε₀
        assert!(g_mag < eps[0] * 0.1, "g_mag={g_mag} eps0={}", eps[0]);
        let grad = Tensor::from_vec(vec![g_mag, g_mag, g_mag, g_mag], &[2, 2]).unwrap();
        let stats = pc
            .sgd_update(&grad, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert_eq!(
            stats.underflowed, 2,
            "coarse channel underflows, fine channel updates"
        );
    }

    #[test]
    fn set_bits_and_memory() {
        let t = normal(&[3, 8], 1.0, &mut seeded(2));
        let mut pc = QuantizedTensor::from_tensor_per_channel(&t, b(6)).unwrap();
        assert_eq!(pc.memory_bits(), 24 * 6 + 3 * 96);
        pc.set_bits(b(9)).unwrap();
        assert_eq!(pc.bits().get(), 9);
        assert_eq!(pc.memory_bits(), 24 * 9 + 3 * 96);
        assert!(pc.eps() > 0.0);
    }

    #[test]
    fn resident_bytes_count_store_and_quantizers() {
        let t = normal(&[3, 8], 1.0, &mut seeded(2));
        let pc = QuantizedTensor::from_tensor_per_channel(&t, b(6)).unwrap();
        let meta = 3 * std::mem::size_of::<AffineQuantizer>() as u64;
        assert_eq!(pc.resident_bytes(), 24 + meta);
    }

    #[test]
    fn from_parts_roundtrip_and_validation() {
        let t = normal(&[2, 4], 1.0, &mut seeded(3));
        let pc = QuantizedTensor::from_tensor_per_channel(&t, b(5)).unwrap();
        let re = QuantizedTensor::from_parts_per_channel(
            pc.store().to_vec(),
            pc.dims().to_vec(),
            pc.quantizers().to_vec(),
        )
        .unwrap();
        assert_eq!(re.to_tensor().data(), pc.to_tensor().data());
        assert!(QuantizedTensor::from_parts_per_channel(
            vec![0; 8],
            vec![3, 4],
            pc.quantizers().to_vec()
        )
        .is_err());
        // Mixed channel bitwidths cannot share one packed store.
        let mixed = vec![
            AffineQuantizer::from_range(-1.0, 1.0, b(5)).unwrap(),
            AffineQuantizer::from_range(-1.0, 1.0, b(6)).unwrap(),
        ];
        assert!(QuantizedTensor::from_parts_per_channel(vec![0; 8], vec![2, 4], mixed).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert!(QuantizedTensor::from_tensor_per_channel(&empty, b(8)).is_err());
        let scalar = Tensor::scalar(1.0);
        assert!(QuantizedTensor::from_tensor_per_channel(&scalar, b(8)).is_err());
        let t = normal(&[2, 4], 1.0, &mut seeded(4));
        let mut pc = QuantizedTensor::from_tensor_per_channel(&t, b(8)).unwrap();
        assert!(pc
            .sgd_update(
                &Tensor::zeros(&[3]),
                0.1,
                RoundingMode::Truncate,
                &mut seeded(0)
            )
            .is_err());
    }

    #[test]
    fn range_expansion_is_channel_local() {
        let t = Tensor::from_vec(vec![-1.0, 1.0, -1.0, 1.0], &[2, 2]).unwrap();
        let mut pc = QuantizedTensor::from_tensor_per_channel(&t, b(8)).unwrap();
        let eps_before = channel_eps(&pc);
        // Push only channel 0 out of range.
        let grad = Tensor::from_vec(vec![-5.0, 0.0, 0.0, 0.0], &[2, 2]).unwrap();
        let stats = pc
            .sgd_update(&grad, 1.0, RoundingMode::Truncate, &mut seeded(0))
            .unwrap();
        assert!(stats.expanded > 0);
        let eps_after = channel_eps(&pc);
        assert!(
            eps_after[0] > eps_before[0],
            "expanded channel recalibrates"
        );
        assert_eq!(eps_after[1], eps_before[1], "other channel untouched");
    }

    /// Eq. 3 as it ran before the block form: one element at a time, a
    /// branch on the step count each — the loop
    /// [`QuantizedTensor::sgd_update`] is held to.
    fn sgd_update_per_element(
        t: &mut QuantizedTensor,
        grad: &Tensor,
        lr: f32,
        mode: RoundingMode,
        rng: &mut StdRng,
    ) -> crate::Result<UpdateStats> {
        t.check_shape("sgd_update", grad)?;
        if !lr.is_finite() || grad.data().iter().any(|x| !x.is_finite()) {
            return Err(QuantError::NonFiniteOperand { op: "sgd_update" });
        }
        let lr = f64::from(lr);
        let max_code = t.bits().num_steps() as i64;
        let g = grad.data();
        let (mut underflowed, mut on_rails) = (0usize, 0usize);
        let mut spills: Vec<(usize, i64)> = Vec::new();
        let groups: Vec<_> = t.grid.groups(t.store.len()).collect();
        let codes = t.store.to_vec();
        for (range, quantizer) in groups {
            let eps = f64::from(quantizer.eps());
            for i in range {
                let q = codes[i];
                let steps = mode.round_quotient(lr * f64::from(g[i]), eps, rng);
                let mut new = q;
                if steps == 0 {
                    underflowed += usize::from(g[i] != 0.0);
                } else {
                    let moved = q.saturating_sub(steps);
                    if (0..=max_code).contains(&moved) {
                        new = moved;
                    } else {
                        spills.push((i, moved));
                    }
                }
                on_rails += usize::from(new == 0 || new == max_code);
                t.store.set(i, new);
            }
        }
        if !spills.is_empty() {
            t.expand(&spills)?;
            on_rails = t.store.count_rails(max_code);
        }
        Ok(UpdateStats {
            underflowed,
            expanded: spills.len(),
            saturated: on_rails,
            total: t.store.len(),
        })
    }

    mod block_form {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        const MODES: [RoundingMode; 3] = [
            RoundingMode::Truncate,
            RoundingMode::Nearest,
            RoundingMode::Stochastic,
        ];
        /// Every tier, and both sides of each tier boundary.
        const WIDTHS: [u32; 6] = [2, 6, 8, 9, 16, 20];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn sgd_update_equals_the_per_element_loop(
                seed in 0u64..u64::MAX,
                mode in 0usize..3,
                width in 0usize..6,
                per_channel in any::<bool>(),
                channels in 1usize..5,
                // A group is one to three blocks long and mostly ends off a
                // block boundary; 64 and 128 are in the range too.
                stride in 1usize..150,
                spill in any::<bool>(),
            ) {
                let (mode, bits) = (MODES[mode], b(WIDTHS[width]));
                let mut r = rng::substream(seed, 1);
                let w = normal(&[channels, stride], 0.5, &mut r);
                let quantized = if per_channel {
                    QuantizedTensor::from_tensor_per_channel(&w, bits)
                } else {
                    QuantizedTensor::from_tensor(&w, bits)
                };
                let mut block = quantized.unwrap();
                let mut one = block.clone();
                // Against ε: exact zeros, a majority under one step (most
                // of a block masked out), a few steps, and — when asked —
                // a few far off the grid, which spill and recalibrate.
                let eps = block.eps();
                let mut g = normal(&[channels, stride], eps * 0.6, &mut r);
                for x in g.data_mut() {
                    match r.gen_range(0..16u32) {
                        0 => *x = 0.0,
                        1 => *x = -0.0,
                        2 | 3 => *x *= 8.0,
                        4 if spill => *x *= 1e4,
                        _ => {}
                    }
                }
                let lr = [1.0f32, 0.25][r.gen_range(0..2usize)];
                let (mut rng_block, mut rng_one) = (seeded(seed ^ 7), seeded(seed ^ 7));
                let got = block.sgd_update(&g, lr, mode, &mut rng_block).unwrap();
                let want = sgd_update_per_element(&mut one, &g, lr, mode, &mut rng_one).unwrap();
                prop_assert_eq!(got, want);
                prop_assert_eq!(&block.store, &one.store);
                prop_assert_eq!(block.quantizers(), one.quantizers());
                prop_assert_eq!(rng_block.gen::<u64>(), rng_one.gen::<u64>());
            }
        }

        #[test]
        fn the_cases_reach_every_outcome_of_eq3() {
            // What the property above is relied on to cover, counted over
            // the same construction at a fixed spread of seeds.
            let (mut underflowed, mut moved, mut expanded) = (0, 0, 0);
            for seed in 0..32u64 {
                let mut r = rng::substream(seed, 1);
                let w = normal(&[3, 70], 0.5, &mut r);
                let mut q = QuantizedTensor::from_tensor(&w, b(6)).unwrap();
                let before = q.store.to_vec();
                let mut g = normal(&[3, 70], q.eps() * 0.6, &mut r);
                g.data_mut()[seed as usize] *= 1e4;
                let s = q
                    .sgd_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(seed))
                    .unwrap();
                underflowed += s.underflowed;
                expanded += s.expanded;
                moved += usize::from(q.store.to_vec() != before);
            }
            assert!(underflowed > 32 * 150 && moved == 32 && expanded >= 16);
        }
    }

    #[test]
    fn may_move_mask_is_the_truncation_test_bit_for_bit() {
        let mut r = seeded(31);
        for len in [0usize, 1, 7, 8, 9, 63, 64] {
            for _ in 0..50 {
                let eps = 0.01f64;
                let g: Vec<f32> = (0..len)
                    .map(|i| match i % 5 {
                        0 => 0.0,
                        // Either side of ε, to the last bit.
                        1 => f32::from_bits((0.01f32).to_bits() - 1),
                        2 => 0.01,
                        _ => normal(&[1], 0.02, &mut r).data()[0],
                    })
                    .collect();
                let (mask, zero_steps) = may_move(&g, 1.0, eps);
                let mut want = (0u64, 0usize);
                for (j, &x) in g.iter().enumerate() {
                    let under = f64::from(x).abs() < eps;
                    want.0 |= u64::from(!under) << j;
                    want.1 += usize::from(under && x != 0.0);
                }
                assert_eq!((mask, zero_steps), want, "len {len}");
            }
        }
    }

    #[test]
    fn clone_from_follows_the_source_across_tiers_and_forms() {
        let w = normal(&[4, 16], 0.5, &mut seeded(1));
        let sources = [
            QuantizedTensor::from_tensor(&w, b(6)).unwrap(),
            QuantizedTensor::from_tensor(&w, b(9)).unwrap(),
            QuantizedTensor::from_tensor(&w, b(20)).unwrap(),
            QuantizedTensor::from_tensor_per_channel(&w, b(8)).unwrap(),
            QuantizedTensor::from_tensor(&normal(&[5], 1.0, &mut seeded(2)), b(6)).unwrap(),
        ];
        let mut kept = sources[0].clone();
        for source in sources.iter().chain(sources.iter().rev()) {
            kept.clone_from(source);
            assert_eq!(kept.store, source.store);
            assert_eq!(kept.quantizers(), source.quantizers());
            assert_eq!(kept.dims(), source.dims());
            assert_eq!(kept.is_per_channel(), source.is_per_channel());
        }
    }
}
