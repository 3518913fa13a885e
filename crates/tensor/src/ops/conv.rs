//! 2-D convolution (NCHW) via im2col + GEMM.
//!
//! Three kernels implement the full training path of a conv layer:
//!
//! * [`conv2d`] — forward.
//! * [`conv2d_backward_input`] — gradient w.r.t. the input (col2im of
//!   `Wᵀ·dY`).
//! * [`conv2d_backward_weight`] — gradient w.r.t. the weights
//!   (`dY·colᵀ`).
//!
//! Grouped convolution is supported so `apt-nn` can build MobileNetV2's
//! depthwise layers (`groups == in_channels`). All kernels take a
//! [`Conv2dParams`] describing stride/padding/groups, validated once.
//!
//! The lowering moves rows, not elements: for each kernel tap the range of
//! output positions that land inside the image is computed once
//! (`Conv2dParams::valid_outputs`), and every matrix row is then a slice
//! copy (im2col) or slice add (col2im) of that range with the edges
//! zero-filled — no per-element bounds test. Values, and the order in which
//! col2im adds contributions onto each input pixel, are those of the
//! per-element loops, which the tests keep as the reference.
//!
//! The im2col/col2im staging matrices live in a per-thread scratch
//! buffer that is grown once and reused for every subsequent call, so
//! steady-state training allocates nothing here beyond the output
//! tensor. The GEMMs run on the scratch slices directly via the
//! `pub(crate)` kernels in `matmul_impl` — the register-tiled micro-kernel
//! every conv and linear layer shares. Every kernel walks the images in
//! order; backward-weight `+=`-accumulates each image's contribution into
//! the same weight gradient, so that order is also its summation order.

use crate::ops::matmul_impl::{gemm, gemm_a_bt, gemm_at_b};
use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;

thread_local! {
    /// Per-thread im2col/col2im staging buffer, grown monotonically and
    /// reused across calls (and across training steps).
    static COL_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's scratch buffer, grown to at least `len`.
/// Shared with the fused conv kernel in [`crate::ops::fused`] so frozen
/// plans reuse the same warm per-thread staging memory.
pub(crate) fn with_col_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    COL_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Hyper-parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dParams {
    /// Stride along height and width.
    pub stride: usize,
    /// Zero padding applied symmetrically along height and width.
    pub padding: usize,
    /// Number of channel groups (1 = dense, `in_channels` = depthwise).
    pub groups: usize,
}

impl Default for Conv2dParams {
    fn default() -> Self {
        Conv2dParams {
            stride: 1,
            padding: 0,
            groups: 1,
        }
    }
}

impl Conv2dParams {
    /// Convenience constructor.
    pub fn new(stride: usize, padding: usize, groups: usize) -> Self {
        Conv2dParams {
            stride,
            padding,
            groups,
        }
    }

    /// Output spatial size for an input spatial size and kernel size.
    pub fn out_size(&self, in_size: usize, kernel: usize) -> usize {
        (in_size + 2 * self.padding).saturating_sub(kernel) / self.stride + 1
    }

    /// Checks `[n, c_in, h, w]` input dims against `[c_out, c_in/groups,
    /// kh, kw]` weight dims and returns `(n, c_in, h, w, c_out, kh, kw)`.
    fn validate(
        &self,
        input_dims: &[usize],
        weight_dims: &[usize],
    ) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
        let (&[n, c_in, h, w], &[c_out, c_in_per_group, kh, kw]) = (input_dims, weight_dims) else {
            let bad = if input_dims.len() != 4 {
                input_dims
            } else {
                weight_dims
            };
            return Err(TensorError::RankMismatch {
                op: "conv2d",
                expected: 4,
                actual: bad.len(),
            });
        };
        if self.stride == 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: "stride must be >= 1".into(),
            });
        }
        if self.groups == 0 || c_in % self.groups != 0 || c_out % self.groups != 0 {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: format!(
                    "groups {} must divide in_channels {} and out_channels {}",
                    self.groups, c_in, c_out
                ),
            });
        }
        if c_in / self.groups != c_in_per_group {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: input_dims.to_vec(),
                rhs: weight_dims.to_vec(),
            });
        }
        if h + 2 * self.padding < kh || w + 2 * self.padding < kw {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                reason: format!("kernel {kh}x{kw} larger than padded input {h}x{w}"),
            });
        }
        Ok((n, c_in, h, w, c_out, kh, kw))
    }

    /// The output positions `o` of one axis whose tap `o·stride + tap −
    /// padding` lands inside an input axis of length `len`, as a half-open
    /// range clipped to `0..out_len`. It depends on the tap alone, so the
    /// lowering computes it once per kernel row/column instead of testing
    /// every element.
    fn valid_outputs(&self, tap: usize, len: usize, out_len: usize) -> (usize, usize) {
        let lo = self.padding.saturating_sub(tap).div_ceil(self.stride);
        let hi = match (len + self.padding).checked_sub(tap + 1) {
            Some(last) => (last / self.stride + 1).min(out_len),
            None => 0,
        };
        (lo.min(hi), hi)
    }
}

/// Lowers one image's group-slice into the im2col matrix
/// `[c_g·kh·kw, oh·ow]`. Shared with [`crate::ops::fused`] so the fused
/// conv epilogue kernel stages patches exactly like [`conv2d`] does.
///
/// Each `(c, ki, kj, oi)` row of the matrix is one input row shifted by
/// `kj − padding`: the valid `oj` range is copied as a slice (a strided
/// walk when `stride > 1`) and the out-of-image edges are zero-filled.
/// When `stride == 1` and `ow == w` (a "same" convolution) the whole
/// `(c, ki, kj)` row is the channel plane shifted by one offset, so its
/// valid span is one block copy, after which the edge columns it carried
/// in from neighbouring input rows are zeroed. The valid ranges depend on
/// the tap alone and are computed once per `ki` / `kj`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn im2col_group(
    input: &[f32],
    c_start: usize,
    c_g: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    oh: usize,
    ow: usize,
    col: &mut [f32],
) {
    let col_w = oh * ow;
    let one_block = p.stride == 1 && ow == w;
    for ki in 0..kh {
        let (oi_lo, oi_hi) = p.valid_outputs(ki, h, oh);
        for kj in 0..kw {
            let (oj_lo, oj_hi) = p.valid_outputs(kj, w, ow);
            for c in 0..c_g {
                let chan = &input[(c_start + c) * h * w..(c_start + c + 1) * h * w];
                let row = &mut col[((c * kh + ki) * kw + kj) * col_w..][..col_w];
                if oj_lo == oj_hi || oi_lo == oi_hi {
                    // This tap reads padding only (kernel wider or taller
                    // than the image).
                    row.fill(0.0);
                    continue;
                }
                if one_block {
                    // Output `(oi, oj)` reads input `(oi + ki − padding,
                    // oj + kj − padding)`: with `ow == w` that is one fixed
                    // offset from the output index, from the first valid
                    // element to the last.
                    let (start, end) = (oi_lo * ow + oj_lo, (oi_hi - 1) * ow + oj_hi);
                    let src = (oi_lo + ki - p.padding) * w + oj_lo + kj - p.padding;
                    row[..start].fill(0.0);
                    row[end..].fill(0.0);
                    row[start..end].copy_from_slice(&chan[src..src + (end - start)]);
                    for oi in oi_lo..oi_hi - 1 {
                        // Right edge of output row `oi`, left edge of `oi + 1`.
                        row[oi * ow + oj_hi..(oi + 1) * ow + oj_lo].fill(0.0);
                    }
                    continue;
                }
                row[..oi_lo * ow].fill(0.0);
                row[oi_hi * ow..].fill(0.0);
                for oi in oi_lo..oi_hi {
                    let ii = oi * p.stride + ki - p.padding;
                    // First input column a valid `oj` reads.
                    let src = &chan[ii * w + oj_lo * p.stride + kj - p.padding..(ii + 1) * w];
                    let dst = &mut row[oi * ow..(oi + 1) * ow];
                    dst[..oj_lo].fill(0.0);
                    dst[oj_hi..].fill(0.0);
                    let dst = &mut dst[oj_lo..oj_hi];
                    if p.stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(p.stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Scatters an im2col-shaped gradient back onto the input (col2im): the
/// inverse walk of [`im2col_group`], adding each matrix row's valid `oj`
/// range onto its input row. Every input pixel receives its
/// contributions in the same `(ki, kj, oi, oj)` order as a per-element
/// scatter would deliver them.
#[allow(clippy::too_many_arguments)]
fn col2im_group(
    col: &[f32],
    c_start: usize,
    c_g: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: &Conv2dParams,
    oh: usize,
    ow: usize,
    out: &mut [f32],
) {
    let col_w = oh * ow;
    for c in 0..c_g {
        let chan = &mut out[(c_start + c) * h * w..(c_start + c + 1) * h * w];
        for ki in 0..kh {
            let (oi_lo, oi_hi) = p.valid_outputs(ki, h, oh);
            for kj in 0..kw {
                let (oj_lo, oj_hi) = p.valid_outputs(kj, w, ow);
                if oj_lo == oj_hi {
                    continue;
                }
                let row = &col[((c * kh + ki) * kw + kj) * col_w..][..col_w];
                for oi in oi_lo..oi_hi {
                    let ii = oi * p.stride + ki - p.padding;
                    let dst = &mut chan[ii * w + oj_lo * p.stride + kj - p.padding..(ii + 1) * w];
                    let src = &row[oi * ow + oj_lo..oi * ow + oj_hi];
                    if p.stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(p.stride).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution.
///
/// * `input` — `[n, c_in, h, w]`
/// * `weight` — `[c_out, c_in/groups, kh, kw]`
///
/// Returns `[n, c_out, oh, ow]`.
///
/// # Errors
///
/// Returns shape/rank/argument errors for malformed operands; see
/// [`Conv2dParams`].
pub fn conv2d(input: &Tensor, weight: &Tensor, params: &Conv2dParams) -> Result<Tensor> {
    let (n, c_in, h, w, c_out, kh, kw) = params.validate(input.dims(), weight.dims())?;
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    let g = params.groups;
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kh * kw;
    let col_w = oh * ow;

    let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
    let img_len = c_out * col_w;
    if n == 0 || img_len == 0 {
        return Ok(out);
    }
    let (in_data, w_data) = (input.data(), weight.data());
    for (img, out_img) in out.data_mut().chunks_mut(img_len).enumerate() {
        let in_img = &in_data[img * c_in * h * w..(img + 1) * c_in * h * w];
        with_col_scratch(col_rows * col_w, |col| {
            for grp in 0..g {
                im2col_group(
                    in_img,
                    grp * c_in_g,
                    c_in_g,
                    h,
                    w,
                    kh,
                    kw,
                    params,
                    oh,
                    ow,
                    col,
                );
                let w_grp = &w_data[grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                let dst = &mut out_img[grp * c_out_g * col_w..(grp + 1) * c_out_g * col_w];
                gemm(w_grp, col, dst, c_out_g, col_rows, col_w);
            }
        });
    }
    Ok(out)
}

/// Gradient of [`conv2d`] w.r.t. the input.
///
/// * `grad_output` — `[n, c_out, oh, ow]`
///
/// Returns `[n, c_in, h, w]` where `input_dims = [n, c_in, h, w]` are the
/// original input dimensions.
///
/// # Errors
///
/// Returns shape errors when `grad_output`/`weight`/`input_dims` disagree.
pub fn conv2d_backward_input(
    grad_output: &Tensor,
    weight: &Tensor,
    input_dims: &[usize],
    params: &Conv2dParams,
) -> Result<Tensor> {
    if input_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_input",
            expected: 4,
            actual: input_dims.len(),
        });
    }
    let (n, c_in, h, w, c_out, kh, kw) = params.validate(input_dims, weight.dims())?;
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    if grad_output.dims() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_input",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, c_out, oh, ow],
        });
    }
    let g = params.groups;
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kh * kw;
    let col_w = oh * ow;

    let mut grad_in = Tensor::zeros(input_dims);
    let img_len = c_in * h * w;
    if n == 0 || img_len == 0 {
        return Ok(grad_in);
    }
    let (go_data, w_data) = (grad_output.data(), weight.data());
    for (img, gi_img) in grad_in.data_mut().chunks_mut(img_len).enumerate() {
        with_col_scratch(col_rows * col_w, |dcol| {
            for grp in 0..g {
                let go_base = img * c_out * col_w + grp * c_out_g * col_w;
                let go = &go_data[go_base..go_base + c_out_g * col_w];
                let w_grp = &w_data[grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                // dCol[col_rows, col_w] = Wᵀ · dY
                dcol.fill(0.0);
                gemm_at_b(w_grp, go, dcol, c_out_g, col_rows, col_w);
                col2im_group(
                    dcol,
                    grp * c_in_g,
                    c_in_g,
                    h,
                    w,
                    kh,
                    kw,
                    params,
                    oh,
                    ow,
                    gi_img,
                );
            }
        });
    }
    Ok(grad_in)
}

/// Gradient of [`conv2d`] w.r.t. the weights.
///
/// Returns a tensor shaped like `weight_dims = [c_out, c_in/groups, kh, kw]`.
///
/// # Errors
///
/// Returns shape errors when operands disagree.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    weight_dims: &[usize],
    params: &Conv2dParams,
) -> Result<Tensor> {
    if weight_dims.len() != 4 {
        return Err(TensorError::RankMismatch {
            op: "conv2d_backward_weight",
            expected: 4,
            actual: weight_dims.len(),
        });
    }
    let (n, c_in, h, w, c_out, kh, kw) = params.validate(input.dims(), weight_dims)?;
    let (oh, ow) = (params.out_size(h, kh), params.out_size(w, kw));
    if grad_output.dims() != [n, c_out, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward_weight",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, c_out, oh, ow],
        });
    }
    let g = params.groups;
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kh * kw;
    let col_w = oh * ow;

    let mut grad_w = Tensor::zeros(weight_dims);
    // Every image accumulates into the same dW, in image order.
    for img in 0..n {
        let in_img = &input.data()[img * c_in * h * w..(img + 1) * c_in * h * w];
        with_col_scratch(col_rows * col_w, |col| {
            for grp in 0..g {
                im2col_group(
                    in_img,
                    grp * c_in_g,
                    c_in_g,
                    h,
                    w,
                    kh,
                    kw,
                    params,
                    oh,
                    ow,
                    col,
                );
                let go_base = img * c_out * col_w + grp * c_out_g * col_w;
                let go = &grad_output.data()[go_base..go_base + c_out_g * col_w];
                // dW[c_out_g, col_rows] += dY · colᵀ
                let dst = &mut grad_w.data_mut()
                    [grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                gemm_a_bt(go, col, dst, c_out_g, col_rows, col_w);
            }
        });
    }
    Ok(grad_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    /// Direct (non-im2col) reference convolution.
    fn naive_conv(input: &Tensor, weight: &Tensor, p: &Conv2dParams) -> Tensor {
        let (n, c_in, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let (c_out, c_in_g, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let g = p.groups;
        let c_out_g = c_out / g;
        let mut out = Tensor::zeros(&[n, c_out, oh, ow]);
        for img in 0..n {
            for co in 0..c_out {
                let grp = co / c_out_g;
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c_in_g {
                            let c_abs = grp * c_in_g + ci;
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ii = (oi * p.stride + ki) as isize - p.padding as isize;
                                    let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                                    if ii < 0 || jj < 0 || ii as usize >= h || jj as usize >= w {
                                        continue;
                                    }
                                    let (ii, jj) = (ii as usize, jj as usize);
                                    acc += input.data()[((img * c_in + c_abs) * h + ii) * w + jj]
                                        * weight.data()[((co * c_in_g + ci) * kh + ki) * kw + kj];
                                }
                            }
                        }
                        out.data_mut()[((img * c_out + co) * oh + oi) * ow + oj] = acc;
                    }
                }
            }
        }
        out
    }

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn forward_matches_naive_dense() {
        let mut r = rng::seeded(10);
        for &(stride, padding) in &[(1, 0), (1, 1), (2, 1)] {
            let p = Conv2dParams::new(stride, padding, 1);
            let x = rng::normal(&[2, 3, 6, 6], 1.0, &mut r);
            let w = rng::normal(&[4, 3, 3, 3], 1.0, &mut r);
            let got = conv2d(&x, &w, &p).unwrap();
            assert!(
                close(&got, &naive_conv(&x, &w, &p), 1e-4),
                "s={stride} p={padding}"
            );
        }
    }

    #[test]
    fn forward_matches_naive_grouped_and_depthwise() {
        let mut r = rng::seeded(11);
        // grouped: 4 channels, 2 groups
        let p = Conv2dParams::new(1, 1, 2);
        let x = rng::normal(&[1, 4, 5, 5], 1.0, &mut r);
        let w = rng::normal(&[6, 2, 3, 3], 1.0, &mut r);
        assert!(close(
            &conv2d(&x, &w, &p).unwrap(),
            &naive_conv(&x, &w, &p),
            1e-4
        ));
        // depthwise: groups == channels
        let p = Conv2dParams::new(2, 1, 4);
        let w = rng::normal(&[4, 1, 3, 3], 1.0, &mut r);
        assert!(close(
            &conv2d(&x, &w, &p).unwrap(),
            &naive_conv(&x, &w, &p),
            1e-4
        ));
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut r = rng::seeded(12);
        let p = Conv2dParams::new(1, 1, 1);
        let x = rng::normal(&[1, 2, 4, 4], 1.0, &mut r);
        let w = rng::normal(&[3, 2, 3, 3], 1.0, &mut r);
        let go = rng::normal(&[1, 3, 4, 4], 1.0, &mut r);
        let gi = conv2d_backward_input(&go, &w, x.dims(), &p).unwrap();
        // loss = sum(conv(x) * go); d loss / d x[k] via central differences
        let eps = 1e-2;
        for k in [0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[k] += eps;
            let mut xm = x.clone();
            xm.data_mut()[k] -= eps;
            let lp: f32 = conv2d(&xp, &w, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d(&xm, &w, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gi.data()[k]).abs() < 2e-2,
                "k={k} fd={fd} an={}",
                gi.data()[k]
            );
        }
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut r = rng::seeded(13);
        let p = Conv2dParams::new(2, 1, 1);
        let x = rng::normal(&[2, 2, 5, 5], 1.0, &mut r);
        let w = rng::normal(&[3, 2, 3, 3], 1.0, &mut r);
        let oh = p.out_size(5, 3);
        let go = rng::normal(&[2, 3, oh, oh], 1.0, &mut r);
        let gw = conv2d_backward_weight(&x, &go, w.dims(), &p).unwrap();
        let eps = 1e-2;
        for k in [0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[k] += eps;
            let mut wm = w.clone();
            wm.data_mut()[k] -= eps;
            let lp: f32 = conv2d(&x, &wp, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = conv2d(&x, &wm, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gw.data()[k]).abs() < 5e-2,
                "k={k} fd={fd} an={}",
                gw.data()[k]
            );
        }
    }

    #[test]
    fn depthwise_backward_consistency() {
        let mut r = rng::seeded(14);
        let p = Conv2dParams::new(1, 1, 3);
        let x = rng::normal(&[1, 3, 4, 4], 1.0, &mut r);
        let w = rng::normal(&[3, 1, 3, 3], 1.0, &mut r);
        let go = rng::normal(&[1, 3, 4, 4], 1.0, &mut r);
        let gi = conv2d_backward_input(&go, &w, x.dims(), &p).unwrap();
        assert_eq!(gi.dims(), x.dims());
        let eps = 1e-2;
        let k = 10;
        let mut xp = x.clone();
        xp.data_mut()[k] += eps;
        let mut xm = x.clone();
        xm.data_mut()[k] -= eps;
        let f = |t: &Tensor| -> f32 {
            conv2d(t, &w, &p)
                .unwrap()
                .data()
                .iter()
                .zip(go.data())
                .map(|(a, b)| a * b)
                .sum()
        };
        let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
        assert!((fd - gi.data()[k]).abs() < 2e-2);
    }

    /// The per-element lowering the row-wise [`im2col_group`] replaced
    /// (one bounds test per matrix element), kept as its reference.
    #[allow(clippy::too_many_arguments)]
    fn im2col_group_ref(
        input: &[f32],
        c_start: usize,
        c_g: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        p: &Conv2dParams,
        (oh, ow): (usize, usize),
        col: &mut [f32],
    ) {
        for c in 0..c_g {
            for ki in 0..kh {
                for kj in 0..kw {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let ii = (oi * p.stride + ki) as isize - p.padding as isize;
                            let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                            let inside =
                                ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w;
                            col[(((c * kh + ki) * kw + kj) * oh + oi) * ow + oj] = if inside {
                                input[((c_start + c) * h + ii as usize) * w + jj as usize]
                            } else {
                                0.0
                            };
                        }
                    }
                }
            }
        }
    }

    /// Per-element scatter: the reference for [`col2im_group`], including
    /// the order in which each input pixel receives its contributions.
    #[allow(clippy::too_many_arguments)]
    fn col2im_group_ref(
        col: &[f32],
        c_start: usize,
        c_g: usize,
        (h, w): (usize, usize),
        (kh, kw): (usize, usize),
        p: &Conv2dParams,
        (oh, ow): (usize, usize),
        out: &mut [f32],
    ) {
        for c in 0..c_g {
            for ki in 0..kh {
                for kj in 0..kw {
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let ii = (oi * p.stride + ki) as isize - p.padding as isize;
                            let jj = (oj * p.stride + kj) as isize - p.padding as isize;
                            if ii >= 0 && jj >= 0 && (ii as usize) < h && (jj as usize) < w {
                                out[((c_start + c) * h + ii as usize) * w + jj as usize] +=
                                    col[(((c * kh + ki) * kw + kj) * oh + oi) * ow + oj];
                            }
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn row_wise_lowering_matches_per_element_reference(
            stride in 1usize..4,
            padding in 0usize..4,
            kh_idx in 0usize..3,
            kw_idx in 0usize..3,
            h in 1usize..8,
            w in 1usize..8,
            c_in in 1usize..3,
            g_idx in 0usize..3,
            seed in 0u64..1000,
        ) {
            // Kernels up to 5 on inputs down to 1 pixel: the kernel is often
            // wider than the unpadded image, and some taps read padding only.
            let (kh, kw) = ([1, 3, 5][kh_idx], [1, 3, 5][kw_idx]);
            proptest::prop_assume!(h + 2 * padding >= kh && w + 2 * padding >= kw);
            let p = Conv2dParams::new(stride, padding, 1);
            let (hw, k, o) = ((h, w), (kh, kw), (p.out_size(h, kh), p.out_size(w, kw)));
            // groups ∈ {1, 2, c_in} over 2 or 4 channels: the lowering sees
            // one group at a time, as a channel offset into the image.
            let c_in = 2 * c_in;
            let groups = [1, 2, c_in][g_idx];
            let c_g = c_in / groups;
            let col_len = c_g * kh * kw * o.0 * o.1;
            let mut r = rng::seeded(seed);
            let image = rng::normal(&[c_in, h, w], 1.0, &mut r);
            let dcol = rng::normal(&[col_len], 1.0, &mut r);
            let grad_seed = rng::normal(&[c_in, h, w], 1.0, &mut r);
            let same =
                |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
            for c0 in (0..groups).map(|grp| grp * c_g) {
                // Poisoned destination: every element must be written.
                let mut got = vec![f32::NAN; col_len];
                let mut want = got.clone();
                im2col_group(image.data(), c0, c_g, h, w, kh, kw, &p, o.0, o.1, &mut got);
                im2col_group_ref(image.data(), c0, c_g, hw, k, &p, o, &mut want);
                proptest::prop_assert!(same(&got, &want), "im2col");

                let mut got = grad_seed.data().to_vec();
                let mut want = got.clone();
                col2im_group(dcol.data(), c0, c_g, h, w, kh, kw, &p, o.0, o.1, &mut got);
                col2im_group_ref(dcol.data(), c0, c_g, hw, k, &p, o, &mut want);
                proptest::prop_assert!(same(&got, &want), "col2im");
            }
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let x = Tensor::zeros(&[1, 3, 4, 4]);
        let w = Tensor::zeros(&[4, 3, 3, 3]);
        assert!(conv2d(&x, &w, &Conv2dParams::new(0, 0, 1)).is_err());
        assert!(conv2d(&x, &w, &Conv2dParams::new(1, 0, 2)).is_err());
        let w_big = Tensor::zeros(&[4, 3, 9, 9]);
        assert!(conv2d(&x, &w_big, &Conv2dParams::default()).is_err());
        let w_badch = Tensor::zeros(&[4, 2, 3, 3]);
        assert!(conv2d(&x, &w_badch, &Conv2dParams::default()).is_err());
        let x3 = Tensor::zeros(&[3, 4, 4]);
        assert!(conv2d(&x3, &w, &Conv2dParams::default()).is_err());
    }

    #[test]
    fn output_shape_formula() {
        let p = Conv2dParams::new(2, 1, 1);
        assert_eq!(p.out_size(32, 3), 16);
        let p = Conv2dParams::new(1, 1, 1);
        assert_eq!(p.out_size(32, 3), 32);
    }
}
