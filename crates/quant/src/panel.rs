//! GEMM-ready packed weight panels for the dequant-free serving lane.
//!
//! A [`WeightPanel`] is built **once per session load** from a parameter's
//! [`CodeStore`](crate::CodeStore)-backed codes: the codes are centered
//! (`wq = q − 2^(k−1)`) and laid out as row-major `i8`/`i16` rows over the
//! shared GEMM dimension, with the per-output-channel rescale metadata
//! (`Sw_o`, `dw_o = 2^(k−1) − Zw_o`, `wsum_o = Σ_j wq_oj`) alongside.
//! A one-group (per-tensor) parameter's single scale serves every channel
//! slot, so the integer kernels in [`apt_tensor::ops::int_gemm`] never
//! branch on the calibration flavour.
//!
//! An [`ActPanel`] is the per-request counterpart: each activation row is
//! calibrated to its own 8-bit affine grid, quantised branch-free, and
//! stored centered with its `(Sx_i, dx_i, asum_i)` triple. A forward pass
//! through the integer lane is then panel build → fused
//! [`WeightPanel::gemm_rescale`] → f32 output; the f32 weights are never
//! materialised.
//!
//! ## Exactness
//!
//! The weight side of the lane is exact: `Sw·(wq + dw)` reconstructs the
//! same value the f32 lane reads, and the integer bracket is exact in
//! `i64`. The activation side re-quantises the input to 8 bits, so the
//! lane as a whole is *bit-close*, not bit-exact, to the f32 forward —
//! except when the activations already sit on their own 8-bit grid (then
//! requantisation is lossless and the only divergence is the final
//! f64-vs-f32 rounding of the scale product). Panel construction refuses
//! (returns `None`) when the lane cannot be sound: `k > 16` weights, rows
//! longer than [`MAX_I8_DOT_LEN`] in the `i8` tier, or shape mismatches;
//! callers fall back to the cached-f32 lane.

use crate::{AffineQuantizer, Bitwidth, QuantError, QuantizedTensor};
use apt_tensor::ops::int_gemm::{self, IntRescale, MAX_I8_DOT_LEN};

/// Physical tier of a panel's centered weight codes.
#[derive(Debug, Clone)]
enum PanelCodes {
    /// `k ≤ 8`: one byte per code, `i8 × i8 → i32` kernel.
    I8(Vec<i8>),
    /// `8 < k ≤ 16`: two bytes per code, `i8 × i16 → i64` kernel.
    I16(Vec<i16>),
}

/// A quantised parameter unpacked into a GEMM-ready integer panel:
/// row-major centered codes (one output channel per row) plus the
/// per-channel rescale metadata the fused kernels consume.
#[derive(Debug, Clone)]
pub struct WeightPanel {
    codes: PanelCodes,
    rows: usize,
    cols: usize,
    w_scale: Vec<f32>,
    w_dw: Vec<i32>,
    w_sum: Vec<i64>,
}

impl WeightPanel {
    /// Builds a panel from a quantised parameter, one `(S, Z)` per row: a
    /// per-channel tensor's axis-0 channels are the panel rows, and a
    /// one-group tensor's single pair serves every row.
    ///
    /// Returns `None` when the integer lane cannot serve this parameter:
    /// `rows·cols` disagrees with the tensor volume, several calibration
    /// groups that are not one per row, `k > 16`, or the shared dimension
    /// exceeds [`MAX_I8_DOT_LEN`] in the `i8` tier.
    pub fn from_quantized(q: &QuantizedTensor, rows: usize, cols: usize) -> Option<Self> {
        let quantizers = q.quantizers();
        let k = q.bits().get();
        if q.len() != rows * cols
            || (quantizers.len() != 1 && quantizers.len() != rows)
            || k > 16
            || (k <= 8 && cols > MAX_I8_DOT_LEN)
        {
            return None;
        }
        let half = 1i64 << (k - 1);
        let (mut w_scale, mut w_dw) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        for quantizer in quantizers.iter().cycle().take(rows) {
            w_scale.push(quantizer.eps());
            w_dw.push((half - quantizer.zero_point()) as i32);
        }
        let mut w_sum = vec![0i64; rows];
        let codes = if k <= 8 {
            PanelCodes::I8(Self::centred(q, cols, &mut w_sum, |wq| wq as i8))
        } else {
            PanelCodes::I16(Self::centred(q, cols, &mut w_sum, |wq| wq as i16))
        };
        Some(WeightPanel {
            codes,
            rows,
            cols,
            w_scale,
            w_dw,
            w_sum,
        })
    }

    /// The centred codes `q − 2^(k−1)` straight out of the tier, narrowed
    /// to the panel's element type, each added into its row's sum.
    fn centred<T>(
        q: &QuantizedTensor,
        cols: usize,
        w_sum: &mut [i64],
        narrow: impl Fn(i64) -> T,
    ) -> Vec<T> {
        let half = 1i64 << (q.bits().get() - 1);
        let mut data = Vec::with_capacity(q.len());
        q.store().for_each(0..q.len(), |i, code| {
            data.push(narrow(code - half));
            w_sum[i / cols.max(1)] += code - half;
        });
        data
    }

    /// Output channels (panel rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shared GEMM dimension (panel row length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Physical bytes this panel keeps resident: the centered codes plus
    /// the per-channel `(scale, dw, sum)` metadata. Counted into session
    /// `resident_bytes` so registry eviction budgets stay honest.
    pub fn resident_bytes(&self) -> u64 {
        let code_bytes = match &self.codes {
            PanelCodes::I8(v) => v.len() as u64,
            PanelCodes::I16(v) => v.len() as u64 * 2,
        };
        code_bytes + self.rows as u64 * (4 + 4 + 8)
    }

    /// Name of the physical code tier (`"i8"` or `"i16"`), for diagnostics.
    pub fn tier_name(&self) -> &'static str {
        match &self.codes {
            PanelCodes::I8(_) => "i8",
            PanelCodes::I16(_) => "i16",
        }
    }

    /// The fused integer forward: `out[act.rows × self.rows] =
    /// dequant(act) · dequant(self)ᵀ (+ bias)`, computed entirely on
    /// integer codes with one rescale per output element.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::ShapeMismatch`] when the panels' shared
    /// dimensions, the output slice, or the bias length disagree.
    pub fn gemm_rescale(
        &self,
        act: &ActPanel,
        out: &mut [f32],
        bias: Option<&[f32]>,
    ) -> crate::Result<()> {
        if act.cols != self.cols
            || out.len() != act.rows * self.rows
            || bias.is_some_and(|b| b.len() != self.rows)
        {
            return Err(QuantError::ShapeMismatch {
                op: "gemm_rescale",
                lhs: vec![act.rows, act.cols],
                rhs: vec![self.rows, self.cols],
            });
        }
        let p = IntRescale {
            w_scale: &self.w_scale,
            w_dw: &self.w_dw,
            w_sum: &self.w_sum,
            act_scale: &act.scale,
            act_dx: &act.dx,
            act_sum: &act.sum,
            bias,
        };
        let (m, n, k) = (act.rows, self.rows, self.cols);
        match &self.codes {
            PanelCodes::I8(w) => int_gemm::gemm_i8_rescale(&act.codes, w, out, m, n, k, &p),
            PanelCodes::I16(w) => int_gemm::gemm_i16_rescale(&act.codes, w, out, m, n, k, &p),
        }
        Ok(())
    }
}

/// A batch of activation rows quantised to per-row 8-bit affine grids:
/// centered codes plus the `(Sx_i, dx_i, asum_i)` rescale triple per row.
/// Built per request — the integer lane's only per-forward quantisation.
#[derive(Debug, Clone)]
pub struct ActPanel {
    codes: Vec<i8>,
    rows: usize,
    cols: usize,
    scale: Vec<f32>,
    dx: Vec<i32>,
    sum: Vec<i64>,
}

impl ActPanel {
    /// Quantises `rows` contiguous rows of `cols` floats each, calibrating
    /// every row to its own min/max (always widened to include zero, so
    /// padding and ReLU zeros stay exact).
    ///
    /// Returns `None` when `data` disagrees with the shape or any value is
    /// non-finite — the caller falls back to the f32 lane, which
    /// propagates NaN/Inf faithfully instead of silently flushing it onto
    /// a grid rail.
    pub fn quantize_rows(data: &[f32], rows: usize, cols: usize) -> Option<Self> {
        if data.len() != rows * cols {
            return None;
        }
        let bits8 = Bitwidth::new(8).expect("8 is a valid bitwidth");
        let mut codes = Vec::with_capacity(data.len());
        let mut scale = Vec::with_capacity(rows);
        let mut dx = Vec::with_capacity(rows);
        let mut sum = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &data[r * cols..(r + 1) * cols];
            // An empty row calibrates like an all-zero one.
            let q = AffineQuantizer::calibrate(if cols == 0 { &[0.0] } else { row }, bits8).ok()?;
            let (s, z) = (q.eps(), q.zero_point());
            let (clamp_lo, clamp_hi) = (-(z as f32), (255 - z) as f32);
            let mut asum = 0i64;
            for &v in row {
                let t = (v / s).round().clamp(clamp_lo, clamp_hi);
                let aq = (t as i32 + z as i32 - 128) as i8;
                codes.push(aq);
                asum += i64::from(aq);
            }
            scale.push(s);
            dx.push((128 - z) as i32);
            sum.push(asum);
        }
        Some(ActPanel {
            codes,
            rows,
            cols,
            scale,
            dx,
            sum,
        })
    }

    /// Number of activation rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length (shared GEMM dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::{ops, Tensor};

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    /// f32 reference: dequantise the weights, matmul_a_bt, add bias.
    fn f32_reference(x: &Tensor, w: &Tensor, bias: Option<&[f32]>) -> Vec<f32> {
        let mut y = ops::matmul_a_bt(x, w).unwrap();
        if let Some(bv) = bias {
            let out = w.dims()[0];
            for row in y.data_mut().chunks_mut(out) {
                for (v, b_) in row.iter_mut().zip(bv) {
                    *v += b_;
                }
            }
        }
        y.data().to_vec()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let bound = tol * w.abs().max(1.0);
            assert!((g - w).abs() <= bound, "[{i}] got={g} want={w} tol={bound}");
        }
    }

    /// Analytic bound check: the weight side is exact, so the divergence
    /// is at most the activation rounding (≤ εx_i/2 per element) pushed
    /// through the dequantised weights: `|Δy[i,o]| ≤ εx_i/2 · Σ_j |ŵ_oj|`.
    fn assert_within_requant_bound(got: &[f32], want: &[f32], x: &Tensor, w_deq: &Tensor) {
        let (rows, cols) = (x.dims()[0], x.dims()[1]);
        let out = w_deq.dims()[0];
        for i in 0..rows {
            let row = &x.data()[i * cols..(i + 1) * cols];
            let (lo, hi) = row
                .iter()
                .fold((0.0f32, 0.0f32), |(a, b), &v| (a.min(v), b.max(v)));
            let eps_x = ((hi - lo) / 255.0).max(1e-12);
            for o in 0..out {
                let wsum: f32 = w_deq.data()[o * cols..(o + 1) * cols]
                    .iter()
                    .map(|v| v.abs())
                    .sum();
                let bound = 0.5 * eps_x * wsum * 1.001 + 1e-4;
                let (g, want_v) = (got[i * out + o], want[i * out + o]);
                assert!(
                    (g - want_v).abs() <= bound,
                    "[{i},{o}] got={g} want={want_v} bound={bound}"
                );
            }
        }
    }

    #[test]
    fn per_tensor_panel_matches_f32_lane() {
        let mut r = seeded(21);
        for k in [2u32, 4, 8, 12, 16] {
            let w = normal(&[6, 40], 1.0, &mut r);
            let x = normal(&[5, 40], 1.0, &mut r);
            let qw = QuantizedTensor::from_tensor(&w, b(k)).unwrap();
            let panel = WeightPanel::from_quantized(&qw, 6, 40).unwrap();
            assert_eq!(panel.tier_name(), if k <= 8 { "i8" } else { "i16" });
            let act = ActPanel::quantize_rows(x.data(), 5, 40).unwrap();
            let bias: Vec<f32> = (0..6).map(|i| i as f32 * 0.1).collect();
            let mut out = vec![0.0f32; 5 * 6];
            panel.gemm_rescale(&act, &mut out, Some(&bias)).unwrap();
            // Reference runs on the *dequantised* weights (weight side is
            // exact); the activation requantisation bounds the error.
            let w_deq = qw.to_tensor();
            let want = f32_reference(&x, &w_deq, Some(&bias));
            assert_within_requant_bound(&out, &want, &x, &w_deq);
        }
    }

    #[test]
    fn per_channel_panel_matches_f32_lane() {
        let mut r = seeded(22);
        let w = normal(&[8, 30], 1.0, &mut r);
        let x = normal(&[4, 30], 1.0, &mut r);
        let qw = QuantizedTensor::from_tensor_per_channel(&w, b(4)).unwrap();
        let panel = WeightPanel::from_quantized(&qw, 8, 30).unwrap();
        let act = ActPanel::quantize_rows(x.data(), 4, 30).unwrap();
        let mut out = vec![0.0f32; 4 * 8];
        panel.gemm_rescale(&act, &mut out, None).unwrap();
        let w_deq = qw.to_tensor();
        let want = f32_reference(&x, &w_deq, None);
        assert_within_requant_bound(&out, &want, &x, &w_deq);
    }

    #[test]
    fn on_grid_activations_are_requantised_losslessly() {
        // Activations already produced by an 8-bit grid must survive the
        // round trip: the lane is exact up to the final scale rounding.
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let qw = QuantizedTensor::from_tensor(&w, b(8)).unwrap();
        let panel = WeightPanel::from_quantized(&qw, 2, 2).unwrap();
        let x = vec![0.0f32, 1.0, -1.0, 0.5];
        let act = ActPanel::quantize_rows(&x, 2, 2).unwrap();
        let mut out = vec![0.0f32; 4];
        panel.gemm_rescale(&act, &mut out, None).unwrap();
        let want = f32_reference(
            &Tensor::from_vec(x, &[2, 2]).unwrap(),
            &qw.to_tensor(),
            None,
        );
        assert_close(&out, &want, 1e-5);
    }

    #[test]
    fn builders_refuse_unserviceable_parameters() {
        let mut r = seeded(23);
        let w = normal(&[4, 8], 1.0, &mut r);
        let q20 = QuantizedTensor::from_tensor(&w, b(20)).unwrap();
        assert!(WeightPanel::from_quantized(&q20, 4, 8).is_none(), "k>16");
        let q4 = QuantizedTensor::from_tensor(&w, b(4)).unwrap();
        assert!(WeightPanel::from_quantized(&q4, 4, 9).is_none(), "shape");
        let pc = QuantizedTensor::from_tensor_per_channel(&w, b(4)).unwrap();
        assert!(
            WeightPanel::from_quantized(&pc, 8, 4).is_none(),
            "channel/row mismatch"
        );
        assert!(WeightPanel::from_quantized(&pc, 4, 8).is_some());
    }

    #[test]
    fn gemm_rescale_rejects_mismatched_shapes() {
        let mut r = seeded(25);
        let w = normal(&[6, 12], 1.0, &mut r);
        let qw = QuantizedTensor::from_tensor(&w, b(4)).unwrap();
        let panel = WeightPanel::from_quantized(&qw, 6, 12).unwrap();
        let act = ActPanel::quantize_rows(&[0.5; 3 * 12], 3, 12).unwrap();
        let mut out = vec![0.0f32; 3 * 6];
        assert!(panel.gemm_rescale(&act, &mut out[..17], None).is_err());
        assert!(panel.gemm_rescale(&act, &mut out, Some(&[0.0; 5])).is_err());
        let narrow = ActPanel::quantize_rows(&[0.5; 3 * 11], 3, 11).unwrap();
        assert!(panel.gemm_rescale(&narrow, &mut out, None).is_err());
        assert!(panel.gemm_rescale(&act, &mut out, Some(&[0.0; 6])).is_ok());
    }

    #[test]
    fn act_panel_refuses_non_finite_rows() {
        assert!(ActPanel::quantize_rows(&[1.0, f32::NAN], 1, 2).is_none());
        assert!(ActPanel::quantize_rows(&[1.0, f32::INFINITY], 1, 2).is_none());
        assert!(ActPanel::quantize_rows(&[1.0, 2.0, 3.0], 2, 2).is_none());
        let p = ActPanel::quantize_rows(&[1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        assert_eq!((p.rows(), p.cols()), (2, 2));
    }

    #[test]
    fn resident_bytes_track_tier() {
        let mut r = seeded(24);
        let w = normal(&[4, 8], 1.0, &mut r);
        let p8 =
            WeightPanel::from_quantized(&QuantizedTensor::from_tensor(&w, b(4)).unwrap(), 4, 8)
                .unwrap();
        assert_eq!(p8.resident_bytes(), 32 + 4 * 16);
        let p16 =
            WeightPanel::from_quantized(&QuantizedTensor::from_tensor(&w, b(12)).unwrap(), 4, 8)
                .unwrap();
        assert_eq!(p16.resident_bytes(), 64 + 4 * 16);
    }
}
