use crate::{AffineQuantizer, Bitwidth, CodeStore, QuantError, RoundingMode};
use apt_tensor::Tensor;
use rand::rngs::StdRng;

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

    /// Fraction of elements left on a grid rail (0 for empty tensors).
    pub fn saturation_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.saturated as f64 / self.total as f64
        }
    }
}

/// What one [`eq3_sweep`] did.
pub(crate) struct Eq3Sweep {
    /// Non-zero gradients whose step rounded to zero.
    pub underflowed: usize,
    /// Codes on a grid rail after the sweep (spilled elements counted at
    /// the code they kept).
    pub on_rails: usize,
    /// `(index, raw code)` of every update that left the grid, in index
    /// order; the store keeps the old code there.
    pub spills: Vec<(usize, i64)>,
}

/// Eq. 3 over a whole store, in place and in one pass:
/// `q_i ← q_i − round(lr·g_i / ε(i))`, counting underflow and rail codes
/// on the way. An update that would leave the grid is not written — a
/// `k`-bit field cannot hold it — but returned for range expansion.
pub(crate) fn eq3_sweep(
    store: &mut CodeStore,
    g: &[f32],
    lr: f32,
    eps_at: impl Fn(usize) -> f64,
    mode: RoundingMode,
    rng: &mut StdRng,
) -> Eq3Sweep {
    let lr = f64::from(lr);
    let max_code = store.bits().num_steps() as i64;
    let (mut underflowed, mut on_rails) = (0usize, 0usize);
    let mut spills: Vec<(usize, i64)> = Vec::new();
    store.rewrite(
        #[inline(always)]
        |i, q| {
            let steps = mode.round_quotient(lr * f64::from(g[i]), eps_at(i), rng);
            let mut new = q;
            if steps == 0 {
                underflowed += usize::from(g[i] != 0.0);
            } else {
                // Saturating: a pathological gradient can round to
                // ±i64::MAX steps, and plain subtraction would overflow.
                // The saturated code is out of range, so it spills.
                let moved = q.saturating_sub(steps);
                if (0..=max_code).contains(&moved) {
                    new = moved;
                } else {
                    spills.push((i, moved));
                }
            }
            on_rails += usize::from(new == 0 || new == max_code);
            new
        },
    );
    Eq3Sweep {
        underflowed,
        on_rails,
        spills,
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
/// tensor recalibrated — weights may legitimately grow during training.
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
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    store: CodeStore,
    dims: Vec<usize>,
    quantizer: AffineQuantizer,
}

impl QuantizedTensor {
    /// Quantises a float tensor at the given precision, calibrating the
    /// range from the tensor's own min/max (Eq. 2).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for empty or non-finite input.
    pub fn from_tensor(t: &Tensor, bits: Bitwidth) -> crate::Result<Self> {
        let quantizer = AffineQuantizer::from_tensor(t, bits)?;
        Ok(QuantizedTensor {
            store: quantizer.quantize_to_store(t.data()),
            dims: t.dims().to_vec(),
            quantizer,
        })
    }

    /// Reassembles a quantised tensor from stored parts (checkpoint
    /// loading).
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
        let volume: usize = dims.iter().product();
        if codes.len() != volume {
            return Err(QuantError::ShapeMismatch {
                op: "from_parts",
                lhs: vec![codes.len()],
                rhs: dims,
            });
        }
        let max_code = quantizer.bits().num_steps() as i64;
        if codes.iter().any(|&q| !(0..=max_code).contains(&q)) {
            return Err(QuantError::NonFiniteRange {
                min: 0.0,
                max: max_code as f32,
            });
        }
        Ok(QuantizedTensor {
            store: CodeStore::from_codes(&codes, quantizer.bits()),
            dims,
            quantizer,
        })
    }

    /// Materialises the raw integer codes (checkpoint saving, tests).
    pub fn codes(&self) -> Vec<i64> {
        self.store.to_vec()
    }

    /// The physical code container (integrity digests, serialisation,
    /// memory accounting).
    pub fn store(&self) -> &CodeStore {
        &self.store
    }

    /// Materialises the float view `S·(q − Z)` of every element, straight
    /// from the tier.
    pub fn to_tensor(&self) -> Tensor {
        let mut data = vec![0.0f32; self.store.len()];
        self.for_each_value(|i, w| data[i] = w);
        Tensor::from_vec(data, &self.dims).expect("codes/dims invariant")
    }

    /// Calls `f(i, w)` with the float value `w = S·(q_i − Z)` of every
    /// element, in order — [`to_tensor`](Self::to_tensor) without the
    /// tensor, for callers that fold the weights into something else (the
    /// optimiser's weight-decay term).
    ///
    /// Every value equals [`AffineQuantizer::dequantize_value`] of its
    /// code. For `k ≤ 16` it is computed as an i32→f32 conversion, which
    /// yields the same float as the i64 one for these magnitudes and lets
    /// the loop vectorise.
    #[inline]
    pub fn for_each_value(&self, mut f: impl FnMut(usize, f32)) {
        let quantizer = self.quantizer;
        let (scale, z) = (quantizer.eps(), quantizer.zero_point());
        if self.bits().get() <= 16 {
            self.store
                .for_each(|i, q| f(i, scale * ((q - z) as i32 as f32)));
        } else {
            self.store
                .for_each(|i, q| f(i, quantizer.dequantize_value(q)));
        }
    }

    /// The tensor's quantisation step — the paper's `ε_i` for this layer.
    pub fn eps(&self) -> f32 {
        self.quantizer.eps()
    }

    /// Current precision.
    pub fn bits(&self) -> Bitwidth {
        self.quantizer.bits()
    }

    /// The underlying quantiser (scale, zero point, range).
    pub fn quantizer(&self) -> &AffineQuantizer {
        &self.quantizer
    }

    /// Shape of the parameter tensor.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the tensor holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Training-memory footprint of this parameter in bits: `N · k`.
    ///
    /// This is the quantity Figure 5 normalises ("model size for training")
    /// — the *idealised* k-bit model. Compare
    /// [`resident_bytes`](Self::resident_bytes) for what the process
    /// actually holds.
    pub fn memory_bits(&self) -> u64 {
        self.store.len() as u64 * u64::from(self.bits().get())
    }

    /// Physical bytes resident for this parameter: the code store plus the
    /// quantiser's `(S, Z, k)` metadata.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes() + std::mem::size_of::<AffineQuantizer>() as u64
    }

    /// Re-quantises the tensor at a new precision, recalibrating the range
    /// from the current values (used by Alg. 1 when `k_i` changes). The
    /// codes are re-packed into the tier matching the new bitwidth.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] if the tensor is empty.
    pub fn set_bits(&mut self, bits: Bitwidth) -> crate::Result<()> {
        self.recalibrate(&self.to_tensor(), bits)
    }

    /// Re-quantises to `values` at `bits`, calibrating the range from them.
    fn recalibrate(&mut self, values: &Tensor, bits: Bitwidth) -> crate::Result<()> {
        let quantizer = AffineQuantizer::from_tensor(values, bits)?;
        self.store = quantizer.quantize_to_store(values.data());
        self.quantizer = quantizer;
        Ok(())
    }

    /// Applies the quantised SGD step of Eq. 3 with effective step
    /// `lr · grad` (callers fold momentum/weight-decay into `grad`).
    ///
    /// Elements whose step quantises to zero are counted as underflow. If
    /// any updated value leaves the representable range, the whole tensor is
    /// recalibrated to the new min/max (range expansion) — the count of such
    /// elements is reported in [`UpdateStats::expanded`]. In-range results
    /// are written straight into the packed store; out-of-range codes (rare)
    /// are spilled to the side, since a `k`-bit field cannot hold them, and
    /// the recalibration runs on the exact updated values, so the result
    /// does not depend on the storage tier.
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
        if grad.dims() != self.dims.as_slice() {
            return Err(QuantError::ShapeMismatch {
                op: "sgd_update",
                lhs: self.dims.clone(),
                rhs: grad.dims().to_vec(),
            });
        }
        if !lr.is_finite() || grad.has_non_finite() {
            return Err(QuantError::NonFiniteOperand { op: "sgd_update" });
        }
        let eps = f64::from(self.eps());
        let max_code = self.bits().num_steps() as i64;
        let Eq3Sweep {
            underflowed,
            mut on_rails,
            spills,
        } = eq3_sweep(&mut self.store, grad.data(), lr, |_| eps, mode, rng);

        if !spills.is_empty() {
            // Expand: recalibrate the quantiser to cover the new values,
            // which are exact multiples of the old ε — the stored ones
            // with the spilled ones patched in.
            let mut values = self.to_tensor();
            for &(i, c) in &spills {
                values.data_mut()[i] = self.quantizer.dequantize_value(c);
            }
            self.recalibrate(&values, self.bits())?;
            on_rails = self.store.count_rails(max_code);
        }
        Ok(UpdateStats {
            underflowed,
            expanded: spills.len(),
            saturated: on_rails,
            total: self.store.len(),
        })
    }

    /// Fraction of codes sitting on a grid rail (0 or `2^k − 1`).
    ///
    /// A freshly calibrated tensor keeps its min/max on (or one code off)
    /// the rails, so a healthy ratio is about `2/N`. Values
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

    /// Directly overwrites the values (recalibrating the range), keeping the
    /// current precision. Used by tests and by layers that re-initialise.
    ///
    /// # Errors
    ///
    /// Returns errors for shape mismatch or non-finite input.
    pub fn assign(&mut self, t: &Tensor) -> crate::Result<()> {
        if t.dims() != self.dims.as_slice() {
            return Err(QuantError::ShapeMismatch {
                op: "assign",
                lhs: self.dims.clone(),
                rhs: t.dims().to_vec(),
            });
        }
        self.recalibrate(t, self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{self, seeded};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn roundtrip_within_half_eps() {
        let w = rng::normal(&[64], 0.5, &mut seeded(1));
        let q = QuantizedTensor::from_tensor(&w, b(8)).unwrap();
        let back = q.to_tensor();
        for (a, b_) in w.data().iter().zip(back.data()) {
            assert!((a - b_).abs() <= q.eps() / 2.0 + 1e-6);
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
        let w = Tensor::from_slice(&[0.0, 0.0, 0.0, 0.0]);
        // zero-range tensor gets MIN_SCALE eps; use a real range instead
        let w = w
            .zip(&Tensor::from_slice(&[-1.0, 0.0, 0.5, 1.0]), |_, b_| b_)
            .unwrap();
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
        assert_eq!(q.store().tier_name(), "i8");
        assert_eq!(q.resident_bytes(), 100 + meta);
        q.set_bits(b(13)).unwrap();
        assert_eq!(q.resident_bytes(), 200 + meta);
        q.set_bits(b(20)).unwrap();
        assert_eq!(q.store().tier_name(), "packed");
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
        let mut nan_grad = Tensor::from_slice(&[1.0, 1.0]);
        nan_grad.data_mut()[0] = f32::NAN;
        assert!(q
            .sgd_update(&nan_grad, 0.1, RoundingMode::Truncate, &mut seeded(0))
            .is_err());
        let fine = Tensor::from_slice(&[1.0, 1.0]);
        assert!(q
            .sgd_update(&fine, f32::INFINITY, RoundingMode::Truncate, &mut seeded(0))
            .is_err());
        assert!(q.assign(&bad_shape).is_err());
    }

    #[test]
    fn assign_replaces_values() {
        let w = Tensor::from_slice(&[0.0, 1.0]);
        let mut q = QuantizedTensor::from_tensor(&w, b(8)).unwrap();
        let new = Tensor::from_slice(&[-2.0, 2.0]);
        q.assign(&new).unwrap();
        let back = q.to_tensor();
        for (a, b_) in new.data().iter().zip(back.data()) {
            assert!((a - b_).abs() <= q.eps() / 2.0 + 1e-6);
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
        let max = q.quantizer().range_max();
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
        assert_eq!(stats.saturated, 1);
        assert!((stats.saturation_rate() - 0.2).abs() < 1e-12);
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
}
