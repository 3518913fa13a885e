use crate::{Bitwidth, CodeStore, QuantError};
use apt_tensor::{par, Tensor};

/// Elements per parallel chunk for the whole-tensor maps below. Fixed
/// (shape-independent) so chunk boundaries never depend on thread count.
const QUANT_CHUNK: usize = 16 * 1024;

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
        let (min, max) = match (t.min(), t.max()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(QuantError::NonFiniteRange {
                    min: f32::NAN,
                    max: f32::NAN,
                })
            }
        };
        Self::from_range(min, max, bits)
    }

    /// Calibrates from the `(pct, 1−pct)` percentile range of a tensor
    /// instead of its absolute min/max — the standard outlier-robust
    /// calibration (Krishnamoorthi \[13\] §3): a handful of extreme weights
    /// no longer inflate `ε` for the whole tensor. Values outside the
    /// clipped range saturate at the grid ends.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::NonFiniteRange`] for empty/non-finite tensors
    /// or `pct` outside `[0, 0.5)`.
    pub fn from_tensor_percentile(t: &Tensor, bits: Bitwidth, pct: f64) -> crate::Result<Self> {
        if !(0.0..0.5).contains(&pct) || t.is_empty() {
            return Err(QuantError::NonFiniteRange {
                min: pct as f32,
                max: pct as f32,
            });
        }
        let mut sorted: Vec<f32> = t.data().to_vec();
        if sorted.iter().any(|v| !v.is_finite()) {
            return Err(QuantError::NonFiniteRange {
                min: f32::NAN,
                max: f32::NAN,
            });
        }
        sorted.sort_by(f32::total_cmp);
        let n = sorted.len();
        let lo_idx = ((n as f64 * pct) as usize).min(n - 1);
        let hi_idx = n - 1 - lo_idx;
        Self::from_range(sorted[lo_idx], sorted[hi_idx], bits)
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

    /// Smallest representable real value (`q = 0`).
    pub fn range_min(&self) -> f32 {
        self.dequantize_value(0)
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
    fn quantize_lane16(&self) -> impl Fn(f32) -> i64 + Sync {
        debug_assert!(self.bits.get() <= 16);
        let (scale, z) = (self.scale, self.zero_point);
        let lo = -(z as f32);
        let hi = (self.bits.num_steps() as i64 - z) as f32;
        move |r| i64::from((r / scale).round().clamp(lo, hi) as i32) + z
    }

    /// Quantises a whole tensor into codes (clamped to the grid).
    ///
    /// Pure per-element map, so it chunks onto the [`apt_tensor::par`]
    /// pool; results are bit-identical for every thread count, and equal
    /// to [`quantize_value`](Self::quantize_value) of every element.
    pub fn quantize_tensor(&self, t: &Tensor) -> Vec<i64> {
        let mut codes = vec![0i64; t.len()];
        let rd = t.data();
        if self.bits.get() <= 16 {
            let lane = self.quantize_lane16();
            par::for_each_chunk_mut(&mut codes, QUANT_CHUNK, |ci, chunk| {
                let base = ci * QUANT_CHUNK;
                let src = &rd[base..base + chunk.len()];
                for (q, &r) in chunk.iter_mut().zip(src) {
                    *q = lane(r);
                }
            });
        } else {
            // Above 16 bits the rails are no longer exact in f32; keep the
            // saturating scalar path.
            par::for_each_chunk_mut(&mut codes, QUANT_CHUNK, |ci, chunk| {
                let base = ci * QUANT_CHUNK;
                for (j, q) in chunk.iter_mut().enumerate() {
                    *q = self.quantize_value(rd[base + j]);
                }
            });
        }
        codes
    }

    /// Quantises `values` straight into a [`CodeStore`] of this
    /// quantiser's tier — the codes [`quantize_tensor`](Self::quantize_tensor)
    /// yields, with no `Vec<i64>` (8 bytes per one-byte code) between the
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

    /// Reconstructs a float tensor from codes.
    ///
    /// Pure per-element map (parallel, bit-identical for any thread count).
    ///
    /// For `k ≤ 16`, chunks whose codes are all on the grid take a
    /// branch-free lane: `q − Z` fits an `i32`, so the conversion is a
    /// vectorisable i32→f32 cast producing the same f32 value as the
    /// scalar i64→f32 conversion (same integer, same rounding). Chunks
    /// containing out-of-grid codes — impossible from a [`crate::CodeStore`],
    /// but allowed by this public API — fall back to the saturating scalar
    /// path, keeping the output bit-identical in every case.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `codes.len()` disagrees with `dims`.
    pub fn dequantize_tensor(&self, codes: &[i64], dims: &[usize]) -> crate::Result<Tensor> {
        let mut data = vec![0.0f32; codes.len()];
        if self.bits.get() <= 16 {
            let scale = self.scale;
            let z = self.zero_point;
            let max = self.bits.num_steps() as i64;
            par::for_each_chunk_mut(&mut data, QUANT_CHUNK, |ci, chunk| {
                let base = ci * QUANT_CHUNK;
                let src = &codes[base..base + chunk.len()];
                let on_grid = src.iter().fold(true, |ok, &q| ok & (q >= 0) & (q <= max));
                if on_grid {
                    for (r, &q) in chunk.iter_mut().zip(src) {
                        *r = scale * ((q - z) as i32 as f32);
                    }
                } else {
                    for (r, &q) in chunk.iter_mut().zip(src) {
                        *r = self.dequantize_value(q);
                    }
                }
            });
        } else {
            par::for_each_chunk_mut(&mut data, QUANT_CHUNK, |ci, chunk| {
                let base = ci * QUANT_CHUNK;
                for (j, r) in chunk.iter_mut().enumerate() {
                    *r = self.dequantize_value(codes[base + j]);
                }
            });
        }
        Ok(Tensor::from_vec(data, dims)?)
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
        assert!(q.range_min() <= 0.0 + q.eps() / 2.0);
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
    fn tensor_roundtrip() {
        let t = Tensor::from_slice(&[-1.0, -0.25, 0.0, 0.5, 1.0]);
        let q = AffineQuantizer::from_tensor(&t, b(8)).unwrap();
        let codes = q.quantize_tensor(&t);
        let back = q.dequantize_tensor(&codes, t.dims()).unwrap();
        for (a, b_) in t.data().iter().zip(back.data()) {
            assert!((a - b_).abs() <= q.eps() / 2.0 + 1e-6);
        }
        assert!(q.dequantize_tensor(&codes, &[3]).is_err());
    }

    #[test]
    fn branch_free_paths_match_scalar_bitwise() {
        // The k ≤ 16 fast lanes must agree with quantize_value /
        // dequantize_value to the last bit for every input class,
        // including non-finite values and off-grid codes.
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
            let t = Tensor::from_vec(vals.clone(), &[vals.len()]).unwrap();
            let codes = q.quantize_tensor(&t);
            for (&r, &c) in vals.iter().zip(&codes) {
                assert_eq!(c, q.quantize_value(r), "k={k} r={r}");
            }
            let back = q.dequantize_tensor(&codes, t.dims()).unwrap();
            for (&c, &r) in codes.iter().zip(back.data()) {
                assert_eq!(
                    r.to_bits(),
                    q.dequantize_value(c).to_bits(),
                    "k={k} code={c}"
                );
            }
            // Off-grid codes exercise the per-chunk fallback.
            let wild = vec![-1i64, q.bits().num_steps() as i64 + 7, i64::MIN, i64::MAX];
            let back = q.dequantize_tensor(&wild, &[4]).unwrap();
            for (&c, &r) in wild.iter().zip(back.data()) {
                assert_eq!(r.to_bits(), q.dequantize_value(c).to_bits(), "k={k}");
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

#[cfg(test)]
mod percentile_tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn percentile_calibration_shrinks_eps_under_outliers() {
        // 1000 tight values plus two extreme outliers.
        let mut t = normal(&[1000], 0.1, &mut seeded(1));
        t.data_mut()[0] = 50.0;
        t.data_mut()[1] = -50.0;
        let minmax = AffineQuantizer::from_tensor(&t, b(8)).unwrap();
        let robust = AffineQuantizer::from_tensor_percentile(&t, b(8), 0.01).unwrap();
        assert!(
            robust.eps() < minmax.eps() / 10.0,
            "robust eps {} vs minmax {}",
            robust.eps(),
            minmax.eps()
        );
    }

    #[test]
    fn percentile_zero_equals_minmax() {
        let t = normal(&[256], 1.0, &mut seeded(2));
        let a = AffineQuantizer::from_tensor(&t, b(6)).unwrap();
        let p = AffineQuantizer::from_tensor_percentile(&t, b(6), 0.0).unwrap();
        assert!((a.eps() - p.eps()).abs() < 1e-9);
        assert_eq!(a.zero_point(), p.zero_point());
    }

    #[test]
    fn outliers_saturate_rather_than_widen() {
        let mut t = normal(&[512], 0.1, &mut seeded(3));
        t.data_mut()[0] = 100.0;
        let q = AffineQuantizer::from_tensor_percentile(&t, b(8), 0.01).unwrap();
        assert_eq!(q.quantize_value(100.0), q.bits().num_steps() as i64);
        // Reconstruction of the outlier clamps to the range edge.
        let back = q.dequantize_value(q.quantize_value(100.0));
        assert!(back < 5.0, "outlier should saturate: back={back}");
    }

    #[test]
    fn percentile_validation() {
        let t = normal(&[16], 1.0, &mut seeded(4));
        assert!(AffineQuantizer::from_tensor_percentile(&t, b(8), 0.5).is_err());
        assert!(AffineQuantizer::from_tensor_percentile(&t, b(8), -0.1).is_err());
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert!(AffineQuantizer::from_tensor_percentile(&empty, b(8), 0.01).is_err());
        let mut nan = normal(&[8], 1.0, &mut seeded(5));
        nan.data_mut()[3] = f32::NAN;
        assert!(AffineQuantizer::from_tensor_percentile(&nan, b(8), 0.01).is_err());
    }
}
