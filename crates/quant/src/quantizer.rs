use crate::{Bitwidth, CodeStore, QuantError};
use apt_tensor::Tensor;

/// Floor applied to the quantisation step so a degenerate (constant) tensor
/// never produces `ε = 0`, which would make the paper's `g/ε` metrics and
/// the Eq. 3 division blow up. Any real training tensor has range far above
/// this.
pub const MIN_SCALE: f32 = 1e-12;

/// The affine quantisation mapping `r = S·(q − Z)` of Jacob et al. \[11\],
/// as adopted by the paper (§III).
///
/// Codes `q` live in `[0, 2^k − 1]`; `S` (the *scale*) is exactly the
/// paper's minimum resolution `ε_i` from Eq. 2:
///
/// ```text
/// ε_i = (max(W_i) − min(W_i)) / (2^k − 1)
/// ```
///
/// ```
/// use apt_quant::{AffineQuantizer, Bitwidth};
/// let q = AffineQuantizer::from_range(-1.0, 1.0, Bitwidth::new(8)?)?;
/// assert!((q.eps() - 2.0 / 255.0).abs() < 1e-7);
/// let code = q.quantize_value(0.0);
/// assert!((q.dequantize_value(code)).abs() <= q.eps() / 2.0 + 1e-7);
/// # Ok::<(), apt_quant::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineQuantizer {
    scale: f32,
    zero_point: i64,
    bits: Bitwidth,
}

impl AffineQuantizer {
    /// Calibrates a quantiser covering `[min, max]` at `bits` precision.
    ///
    /// The range is widened to include 0 so the affine grid always has an
    /// exact (or near-exact) zero — standard practice from \[11\] that also
    /// keeps ReLU-adjacent weights well-behaved.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] if either bound is NaN/Inf.
    pub fn from_range(min: f32, max: f32, bits: Bitwidth) -> crate::Result<Self> {
        if !min.is_finite() || !max.is_finite() {
            return Err(QuantError::NonFiniteRange { min, max });
        }
        let lo = min.min(max).min(0.0);
        let hi = min.max(max).max(0.0);
        let scale = ((hi - lo) / bits.num_steps() as f32).max(MIN_SCALE);
        // Z is the code that represents real 0: r = S(q − Z) ⇒ 0 = S(Z − Z).
        let zero_point = (-lo / scale).round() as i64;
        let zero_point = zero_point.clamp(0, bits.num_steps() as i64);
        Ok(AffineQuantizer {
            scale,
            zero_point,
            bits,
        })
    }

    /// Calibrates from a tensor's observed `(min, max)` range.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for empty tensors or tensors
    /// containing NaN/Inf.
    pub fn from_tensor(t: &Tensor, bits: Bitwidth) -> crate::Result<Self> {
        Self::calibrate(t.data(), bits)
    }

    /// Eq. 2 over a slice — the crate's one min/max calibration: a whole
    /// tensor, one channel of it, a gradient being fake-quantised or an
    /// activation row all come through here.
    ///
    /// The range is found under IEEE total order, where a NaN cannot hide:
    /// `f32::min`/`max` skip one, so it would calibrate a finite range and
    /// be stored as the zero point, but in total order it sorts beyond the
    /// infinities, comes out as an extreme and is refused with them. The
    /// order is taken on the integer key [`f32::total_cmp`] compares by, so
    /// the one pass is two integer reductions and vectorises on any target.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for an empty slice or one
    /// holding NaN/Inf anywhere.
    pub(crate) fn calibrate(values: &[f32], bits: Bitwidth) -> crate::Result<Self> {
        /// Float bits to total-order key and back: it is its own inverse.
        fn key(bits: i32) -> i32 {
            bits ^ (((bits >> 31) as u32) >> 1) as i32
        }
        // Empty: the untouched extremes decode to NaN.
        let (min, max) = values.iter().fold((i32::MAX, i32::MIN), |(min, max), v| {
            let k = key(v.to_bits() as i32);
            (min.min(k), max.max(k))
        });
        let value = |k: i32| f32::from_bits(key(k) as u32);
        Self::from_range(value(min), value(max), bits)
    }

    /// Reassembles a quantiser from its stored parts (checkpoint loading).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for a non-finite or
    /// non-positive scale, or a zero point outside the code grid.
    pub fn from_parts(scale: f32, zero_point: i64, bits: Bitwidth) -> crate::Result<Self> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(QuantError::NonFiniteRange {
                min: scale,
                max: scale,
            });
        }
        if !(0..=bits.num_steps() as i64).contains(&zero_point) {
            return Err(QuantError::NonFiniteRange {
                min: zero_point as f32,
                max: bits.num_steps() as f32,
            });
        }
        Ok(AffineQuantizer {
            scale,
            zero_point,
            bits,
        })
    }

    /// The quantisation step `S` — the paper's `ε` (Eq. 2).
    pub fn eps(&self) -> f32 {
        self.scale
    }

    /// The zero-point code `Z`.
    pub fn zero_point(&self) -> i64 {
        self.zero_point
    }

    /// The precision this quantiser was calibrated for.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Largest representable real value (`q = 2^k − 1`).
    pub fn range_max(&self) -> f32 {
        self.dequantize_value(self.bits.num_steps() as i64)
    }

    /// Quantises a real value to its nearest code, clamped to the grid.
    /// Saturating: values beyond the `i64` range (possible after a
    /// pathological update expanded the grid) clamp instead of overflowing.
    pub fn quantize_value(&self, r: f32) -> i64 {
        let q = ((r / self.scale).round() as i64).saturating_add(self.zero_point);
        q.clamp(0, self.bits.num_steps() as i64)
    }

    /// Reconstructs the real value of a code: `r = S·(q − Z)`, saturating
    /// for codes near the `i64` limits.
    pub fn dequantize_value(&self, q: i64) -> f32 {
        self.scale * q.saturating_sub(self.zero_point) as f32
    }

    /// [`quantize_value`](Self::quantize_value) for `k ≤ 16`, branch-free:
    /// the grid bounds `[−Z, 2^k−1−Z]` are integers of magnitude ≤ 65535,
    /// exactly representable in f32, so the clamp runs in f32 lanes and the
    /// final conversion is a plain f32→i32 cast. Bit-equivalent to the
    /// scalar path for every input including NaN (→ `Z`, since both
    /// `NaN as i64` and `NaN as i32` are 0) and ±Inf (→ the grid rails),
    /// but unlike it, a loop over this autovectorises.
    fn quantize_lane16(&self) -> impl Fn(f32) -> i64 {
        debug_assert!(self.bits.get() <= 16);
        let (scale, z) = (self.scale, self.zero_point);
        let lo = -(z as f32);
        let hi = (self.bits.num_steps() as i64 - z) as f32;
        move |r| i64::from((r / scale).round().clamp(lo, hi) as i32) + z
    }

    /// Quantises `values` straight into a [`CodeStore`] of this
    /// quantiser's tier — [`quantize_value`](Self::quantize_value) of every
    /// element, with no `Vec<i64>` (8 bytes per one-byte code) between the
    /// f32 source and the store. This is how every parameter store is
    /// built and recalibrated.
    pub fn quantize_to_store(&self, values: &[f32]) -> CodeStore {
        if self.bits.get() <= 16 {
            let lane = self.quantize_lane16();
            CodeStore::from_code_iter(values.iter().map(|&r| lane(r)), self.bits)
        } else {
            let codes = values.iter().map(|&r| self.quantize_value(r));
            CodeStore::from_code_iter(codes, self.bits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn eps_matches_eq2() {
        // ε = (max − min) / (2^k − 1) with the zero-inclusion widening.
        let q = AffineQuantizer::from_range(-2.0, 6.0, b(4)).unwrap();
        assert!((q.eps() - 8.0 / 15.0).abs() < 1e-6);
        let q = AffineQuantizer::from_range(-1.0, 1.0, b(8)).unwrap();
        assert!((q.eps() - 2.0 / 255.0).abs() < 1e-7);
    }

    #[test]
    fn range_widened_to_include_zero() {
        let q = AffineQuantizer::from_range(2.0, 6.0, b(4)).unwrap();
        assert!(q.dequantize_value(0) <= 0.0 + q.eps() / 2.0);
        let q = AffineQuantizer::from_range(-6.0, -2.0, b(4)).unwrap();
        assert!(q.range_max() >= 0.0 - q.eps() / 2.0);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_eps() {
        let q = AffineQuantizer::from_range(-1.5, 2.5, b(6)).unwrap();
        for i in 0..1000 {
            let r = -1.5 + 4.0 * (i as f32 / 999.0);
            let back = q.dequantize_value(q.quantize_value(r));
            assert!(
                (back - r).abs() <= q.eps() / 2.0 + 1e-6,
                "r={r} back={back} eps={}",
                q.eps()
            );
        }
    }

    #[test]
    fn values_outside_range_clamp() {
        let q = AffineQuantizer::from_range(-1.0, 1.0, b(4)).unwrap();
        assert_eq!(q.quantize_value(100.0), q.bits().num_steps() as i64);
        assert_eq!(q.quantize_value(-100.0), 0);
    }

    #[test]
    fn degenerate_range_uses_min_scale() {
        let q = AffineQuantizer::from_range(0.0, 0.0, b(8)).unwrap();
        assert_eq!(q.eps(), MIN_SCALE);
        let t = Tensor::full(&[4], 0.0);
        let q2 = AffineQuantizer::from_tensor(&t, b(8)).unwrap();
        assert!(q2.eps() > 0.0);
    }

    #[test]
    fn non_finite_rejected() {
        assert!(AffineQuantizer::from_range(f32::NAN, 1.0, b(8)).is_err());
        assert!(AffineQuantizer::from_range(0.0, f32::INFINITY, b(8)).is_err());
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert!(AffineQuantizer::from_tensor(&empty, b(8)).is_err());
        // `f32::min`/`max` skip a NaN: it must be caught wherever it sits,
        // whatever its sign.
        for at in [0, 2, 3] {
            for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut t = Tensor::from_slice(&[1.0, -1.0, 0.5, 0.25]);
                t.data_mut()[at] = bad;
                assert!(
                    matches!(
                        AffineQuantizer::from_tensor(&t, b(8)),
                        Err(QuantError::NonFiniteRange { .. })
                    ),
                    "{bad} at {at}"
                );
            }
        }
    }

    #[test]
    fn higher_bits_lower_eps() {
        let lo = AffineQuantizer::from_range(-1.0, 1.0, b(4)).unwrap();
        let hi = AffineQuantizer::from_range(-1.0, 1.0, b(12)).unwrap();
        assert!(hi.eps() < lo.eps());
        // Eq. 2: one extra bit ≈ halves ε.
        let k5 = AffineQuantizer::from_range(-1.0, 1.0, b(5)).unwrap();
        assert!((lo.eps() / k5.eps() - (31.0 / 15.0)).abs() < 1e-5);
    }

    #[test]
    fn branch_free_path_matches_scalar_bitwise() {
        // The k ≤ 16 fast lane of `quantize_to_store` must agree with
        // `quantize_value` for every input class, including non-finite
        // values.
        for k in [2u32, 4, 8, 12, 16, 20, 32] {
            let q = AffineQuantizer::from_range(-1.3, 2.7, b(k)).unwrap();
            let mut vals: Vec<f32> = vec![
                0.0,
                -0.0,
                1.0,
                -1.3,
                2.7,
                1e30,
                -1e30,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MIN_POSITIVE,
            ];
            for i in 0..1000 {
                vals.push(-2.0 + 5.0 * (i as f32 / 999.0));
            }
            let store = q.quantize_to_store(&vals);
            for (i, &r) in vals.iter().enumerate() {
                assert_eq!(store.get(i), q.quantize_value(r), "k={k} r={r}");
            }
        }
    }

    #[test]
    fn zero_is_representable_near_exactly() {
        let q = AffineQuantizer::from_range(-0.7, 1.3, b(8)).unwrap();
        let zero_code = q.quantize_value(0.0);
        assert!(q.dequantize_value(zero_code).abs() <= q.eps() / 2.0);
    }
}
