//! Fused slice-level kernels for compiled inference plans.
//!
//! The freeze/fusion compiler in `apt-nn` lowers a layer list into a flat
//! step program that runs on pre-planned arena slices instead of freshly
//! allocated [`Tensor`](crate::Tensor)s. These entry points give that
//! executor single-pass conv/linear kernels with the bias add and the
//! activation folded in as an **epilogue**, plus `_into` pooling variants
//! that write straight into a caller-provided slice.
//!
//! Bit-compatibility contract: every kernel here reuses the exact compute
//! cores of the unfused ops (the same `matmul_impl::gemm`, `im2col_group`
//! staging and per-plane pooling loops), and the epilogue applies
//! bias-then-activation per element in the same order the layer path
//! applies them as separate passes. The one change of operand is the
//! linear kernel's: it reads `Wᵀ` and runs `C += A·B` where the layer runs
//! `A·Bᵀ` on `W`; each output element sees the same chain of the same
//! products (see [`linear_bias_act`]). Element-wise passes commute with
//! chunking, so fused output is bit-identical to the unfused sequence for
//! every thread count.

use crate::ops::conv::{im2col_group, with_col_scratch, Conv2dParams};
use crate::ops::matmul_impl::gemm;
use crate::{par, Result, TensorError};

/// Activation applied in-register after a fused kernel's bias add.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Epilogue {
    /// No activation: the kernel output is the affine result.
    #[default]
    None,
    /// `y = max(x, 0)` — identical arithmetic to the `Relu` layer.
    Relu,
    /// `y = clamp(x, 0, 6)` — identical arithmetic to the `Relu6` layer.
    Relu6,
}

impl Epilogue {
    /// Applies the activation to a slice in place.
    pub fn apply(self, data: &mut [f32]) {
        match self {
            Epilogue::None => {}
            Epilogue::Relu => {
                for v in data {
                    *v = v.max(0.0);
                }
            }
            Epilogue::Relu6 => {
                for v in data {
                    *v = v.clamp(0.0, 6.0);
                }
            }
        }
    }
}

/// Fused fully-connected forward: `out = act(x·Wᵀ + b)` on flat slices.
///
/// * `input` — `[m × in_f]` row-major.
/// * `weight` — `Wᵀ`, `[in_f × out_f]` row-major (k-major): the layer's
///   `[out_f × in_f]` weight transposed once, when the plan is compiled.
/// * `out` — `[m × out_f]`, fully overwritten.
///
/// Zero-fills the destination and runs the `C += A·B` core of
/// [`matmul`](crate::ops::matmul) on it at every batch size, so one vector
/// of the micro-kernel tile carries several output columns' chains; then
/// adds the bias per row and applies the epilogue.
///
/// Bit-identical to the layer path (`matmul_a_bt` on `W` → bias loop →
/// map). There each element is one j-ascending dot product started at
/// `+0.0` and added once to the zeroed C. Here the tile loads the same
/// `+0.0` from C and runs the same chain of the same products in place.
/// Under round-to-nearest a sum that starts at `+0.0` can never be `−0.0`,
/// so the layer path's final `+0.0 + s` is `s` for every partial sum `s`,
/// NaN payloads included.
///
/// # Errors
///
/// Returns [`TensorError::LengthMismatch`] when slice lengths disagree
/// with the given geometry.
#[allow(clippy::too_many_arguments)]
pub fn linear_bias_act(
    input: &[f32],
    weight: &[f32],
    out: &mut [f32],
    m: usize,
    in_f: usize,
    out_f: usize,
    bias: Option<&[f32]>,
    act: Epilogue,
) -> Result<()> {
    if input.len() != m * in_f {
        return Err(TensorError::LengthMismatch {
            expected: m * in_f,
            actual: input.len(),
        });
    }
    if weight.len() != out_f * in_f {
        return Err(TensorError::LengthMismatch {
            expected: out_f * in_f,
            actual: weight.len(),
        });
    }
    if out.len() != m * out_f {
        return Err(TensorError::LengthMismatch {
            expected: m * out_f,
            actual: out.len(),
        });
    }
    if let Some(b) = bias {
        if b.len() != out_f {
            return Err(TensorError::LengthMismatch {
                expected: out_f,
                actual: b.len(),
            });
        }
    }
    out.fill(0.0);
    gemm(input, weight, out, m, in_f, out_f);
    if let Some(b) = bias {
        for row in out.chunks_mut(out_f) {
            for (y, &bj) in row.iter_mut().zip(b) {
                *y += bj;
            }
        }
    }
    act.apply(out);
    Ok(())
}

/// Fused 2-D convolution forward: `out = act(conv(x, W) + b)` on flat
/// NCHW slices.
///
/// * `input` — `[n, c_in, h, w]` flattened.
/// * `weight` — `[c_out, c_in/groups, kh, kh]` flattened (square kernel).
/// * `out` — `[n, c_out, oh, ow]` flattened, fully overwritten.
///
/// Replicates [`conv2d`](crate::ops::conv::conv2d)'s exact decomposition
/// (same per-image parallel chunking, same `im2col_group` staging, same
/// `gemm` core), then adds the per-channel bias and applies the epilogue
/// inside each image's disjoint output slice — bit-identical to the
/// unfused conv → bias → activation sequence for every thread count.
///
/// # Errors
///
/// Returns [`TensorError`] for zero stride/groups or mismatched slice
/// lengths.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_bias_act(
    input: &[f32],
    weight: &[f32],
    out: &mut [f32],
    n: usize,
    c_in: usize,
    h: usize,
    w: usize,
    c_out: usize,
    kernel: usize,
    params: &Conv2dParams,
    bias: Option<&[f32]>,
    act: Epilogue,
) -> Result<()> {
    let g = params.groups;
    if params.stride == 0
        || g == 0
        || !c_in.is_multiple_of(g)
        || !c_out.is_multiple_of(g)
        || kernel == 0
    {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_bias_act",
            reason: format!(
                "bad geometry: stride {} groups {g} channels {c_in}->{c_out} kernel {kernel}",
                params.stride
            ),
        });
    }
    if h + 2 * params.padding < kernel || w + 2 * params.padding < kernel {
        return Err(TensorError::InvalidArgument {
            op: "conv2d_bias_act",
            reason: format!("kernel {kernel} larger than padded input {h}x{w}"),
        });
    }
    let (oh, ow) = (params.out_size(h, kernel), params.out_size(w, kernel));
    let (c_in_g, c_out_g) = (c_in / g, c_out / g);
    let col_rows = c_in_g * kernel * kernel;
    let col_w = oh * ow;
    if input.len() != n * c_in * h * w {
        return Err(TensorError::LengthMismatch {
            expected: n * c_in * h * w,
            actual: input.len(),
        });
    }
    if weight.len() != c_out * col_rows {
        return Err(TensorError::LengthMismatch {
            expected: c_out * col_rows,
            actual: weight.len(),
        });
    }
    if out.len() != n * c_out * col_w {
        return Err(TensorError::LengthMismatch {
            expected: n * c_out * col_w,
            actual: out.len(),
        });
    }
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(TensorError::LengthMismatch {
                expected: c_out,
                actual: b.len(),
            });
        }
    }
    out.fill(0.0);
    let img_len = c_out * col_w;
    if n == 0 || img_len == 0 {
        return Ok(());
    }
    let img_cost = 2 * c_out * col_rows * col_w;
    let imgs_per_chunk = par::chunk_items(n, img_cost);
    par::for_each_chunk_mut(out, imgs_per_chunk * img_len, |ci, out_chunk| {
        for (local, out_img) in out_chunk.chunks_mut(img_len).enumerate() {
            let img = ci * imgs_per_chunk + local;
            let in_img = &input[img * c_in * h * w..(img + 1) * c_in * h * w];
            with_col_scratch(col_rows * col_w, |col| {
                for grp in 0..g {
                    im2col_group(
                        in_img,
                        grp * c_in_g,
                        c_in_g,
                        h,
                        w,
                        kernel,
                        kernel,
                        params,
                        oh,
                        ow,
                        col,
                    );
                    let w_grp = &weight[grp * c_out_g * col_rows..(grp + 1) * c_out_g * col_rows];
                    let dst = &mut out_img[grp * c_out_g * col_w..(grp + 1) * c_out_g * col_w];
                    gemm(w_grp, col, dst, c_out_g, col_rows, col_w);
                }
            });
            if let Some(b) = bias {
                for (ch, plane) in out_img.chunks_mut(col_w).enumerate() {
                    let bch = b[ch];
                    for v in plane.iter_mut() {
                        *v += bch;
                    }
                }
            }
            act.apply(out_img);
        }
    });
    Ok(())
}

/// Non-overlapping max pooling into a caller-provided slice.
///
/// `planes` is `n·c`; each `[h × w]` plane pools through the window walk of
/// [`max_pool2d`](crate::ops::pool::max_pool2d) without its argmax table —
/// bit-identical output, at any `k`.
///
/// # Errors
///
/// Same geometry contract as [`max_pool2d`](crate::ops::pool::max_pool2d),
/// without its bound on `k`.
pub fn max_pool2d_into(
    input: &[f32],
    out: &mut [f32],
    planes: usize,
    h: usize,
    w: usize,
    k: usize,
) -> Result<()> {
    if k == 0 || !h.is_multiple_of(k) || !w.is_multiple_of(k) {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d_into",
            reason: format!("window {k} must be >0 and divide {h}x{w}"),
        });
    }
    if input.len() != planes * h * w {
        return Err(TensorError::LengthMismatch {
            expected: planes * h * w,
            actual: input.len(),
        });
    }
    if out.len() != planes * (h / k) * (w / k) {
        return Err(TensorError::LengthMismatch {
            expected: planes * (h / k) * (w / k),
            actual: out.len(),
        });
    }
    crate::ops::pool::max_pool_planes(input, h, w, k, out, None);
    Ok(())
}

/// Global average pooling `[planes, h·w] → [planes]` into a caller slice.
///
/// Each plane goes through the per-plane sum of
/// [`global_avg_pool`](crate::ops::pool::global_avg_pool), so output is
/// bit-identical.
///
/// # Errors
///
/// Returns [`TensorError`] for zero spatial size or length mismatches.
pub fn global_avg_pool_into(
    input: &[f32],
    out: &mut [f32],
    planes: usize,
    h: usize,
    w: usize,
) -> Result<()> {
    if h * w == 0 {
        return Err(TensorError::InvalidArgument {
            op: "global_avg_pool_into",
            reason: "zero spatial size".into(),
        });
    }
    if input.len() != planes * h * w {
        return Err(TensorError::LengthMismatch {
            expected: planes * h * w,
            actual: input.len(),
        });
    }
    if out.len() != planes {
        return Err(TensorError::LengthMismatch {
            expected: planes,
            actual: out.len(),
        });
    }
    crate::ops::pool::global_avg_pool_planes(input, h * w, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, pool};
    use crate::{rng, Tensor};

    fn assert_bits(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "[{i}] {x} vs {y}");
        }
    }

    /// Plants `−0.0`, `+inf`, `−inf` and (when `nan_col` is given) a NaN
    /// in one row. The NaN is the one this host's `inf − inf` yields: where
    /// a planted NaN meets one that `0·inf` or `inf − inf` made, both
    /// operands carry the same bits, whichever the hardware returns.
    fn plant(row: &mut [f32], nan_col: Option<usize>) {
        let cols = row.len();
        row[0] = -0.0;
        row[cols - 1] = f32::INFINITY;
        row[cols / 2] = f32::NEG_INFINITY;
        if let Some(j) = nan_col {
            row[j] = std::hint::black_box(f32::INFINITY) - f32::INFINITY;
        }
    }

    #[test]
    fn fused_linear_matches_unfused_sequence_bitwise() {
        // The plan passes `Wᵀ`; the reference is the layer path on `W`:
        // `matmul_a_bt` (its dot path below 8 rows, its packed path from 8)
        // → per-row bias loop → activation. Batch 1–3 reach the wide row
        // strip, out_f 130 and 256 its full width, in_f 200 a second KC
        // block.
        let mut r = rng::seeded(40);
        for &m in &[1usize, 2, 3, 8, 12] {
            for &out_f in &[6usize, 10, 130, 256] {
                for (in_f, x_specials, x_nan) in [
                    (16usize, false, false),
                    (16, true, false),
                    (200, true, true),
                ] {
                    let mut x = rng::normal(&[m, in_f], 1.0, &mut r);
                    let mut w = rng::normal(&[out_f, in_f], 1.0, &mut r);
                    let b = rng::normal(&[out_f], 1.0, &mut r);
                    // Output columns o ≡ 1 (mod 4) read the specials, o ≡ 2
                    // the specials and a NaN; the others stay finite.
                    for (o, row) in w.data_mut().chunks_mut(in_f).enumerate() {
                        match o % 4 {
                            1 => plant(row, None),
                            2 => plant(row, Some(5)),
                            _ => {}
                        }
                    }
                    if m > 1 {
                        // In the finite columns every product of this row
                        // is ±0.0, and the sum, started at +0.0, must come
                        // out with the same sign on both paths.
                        x.data_mut()[..in_f].fill(-0.0);
                    }
                    if x_specials {
                        plant(&mut x.data_mut()[(m - 1) * in_f..], x_nan.then_some(1));
                    }
                    let wt = ops::transpose(&w).unwrap();
                    for (bias, relu) in [(Some(b.data()), true), (None, false)] {
                        let mut want = ops::matmul_a_bt(&x, &w).unwrap();
                        if let Some(bias) = bias {
                            for row in want.data_mut().chunks_mut(out_f) {
                                for (y, &bj) in row.iter_mut().zip(bias) {
                                    *y += bj;
                                }
                            }
                        }
                        let want = if relu { want.map(|v| v.max(0.0)) } else { want };
                        let mut got = vec![f32::NAN; m * out_f];
                        let act = if relu { Epilogue::Relu } else { Epilogue::None };
                        linear_bias_act(x.data(), wt.data(), &mut got, m, in_f, out_f, bias, act)
                            .unwrap();
                        assert_bits(&got, want.data());
                    }
                }
            }
        }
    }

    #[test]
    fn fused_conv_matches_unfused_sequence_bitwise() {
        let mut r = rng::seeded(41);
        for &(groups, c_in, c_out, stride) in &[(1usize, 3usize, 4usize, 1usize), (2, 4, 6, 2)] {
            let p = Conv2dParams::new(stride, 1, groups);
            let x = rng::normal(&[2, c_in, 6, 6], 1.0, &mut r);
            let wt = rng::normal(&[c_out, c_in / groups, 3, 3], 1.0, &mut r);
            let b = rng::normal(&[c_out], 1.0, &mut r);
            let mut want = ops::conv::conv2d(&x, &wt, &p).unwrap();
            let (n, c, oh, ow) = (
                want.dims()[0],
                want.dims()[1],
                want.dims()[2],
                want.dims()[3],
            );
            let wd = want.data_mut();
            for img in 0..n {
                for ch in 0..c {
                    let bch = b.data()[ch];
                    for v in &mut wd[(img * c + ch) * oh * ow..(img * c + ch + 1) * oh * ow] {
                        *v += bch;
                    }
                }
            }
            let want = want.map(|v| v.clamp(0.0, 6.0));
            let mut got = vec![0.0f32; want.len()];
            conv2d_bias_act(
                x.data(),
                wt.data(),
                &mut got,
                2,
                c_in,
                6,
                6,
                c_out,
                3,
                &p,
                Some(b.data()),
                Epilogue::Relu6,
            )
            .unwrap();
            assert_bits(&got, want.data());
        }
    }

    #[test]
    fn fused_conv_without_bias_or_act_is_plain_conv() {
        let mut r = rng::seeded(42);
        let p = Conv2dParams::new(1, 1, 1);
        let x = rng::normal(&[1, 3, 5, 5], 1.0, &mut r);
        let wt = rng::normal(&[4, 3, 3, 3], 1.0, &mut r);
        let want = ops::conv::conv2d(&x, &wt, &p).unwrap();
        let mut got = vec![0.0f32; want.len()];
        conv2d_bias_act(
            x.data(),
            wt.data(),
            &mut got,
            1,
            3,
            5,
            5,
            4,
            3,
            &p,
            None,
            Epilogue::None,
        )
        .unwrap();
        assert_bits(&got, want.data());
    }

    #[test]
    fn pool_into_variants_match_tensor_kernels_bitwise() {
        let mut r = rng::seeded(43);
        let x = rng::normal(&[2, 3, 4, 4], 1.0, &mut r);
        let mp = pool::max_pool2d(&x, 2).unwrap().output;
        let mut got = vec![0.0f32; mp.len()];
        max_pool2d_into(x.data(), &mut got, 6, 4, 4, 2).unwrap();
        assert_bits(&got, mp.data());

        let gp = pool::global_avg_pool(&x).unwrap();
        let mut got = vec![0.0f32; gp.len()];
        global_avg_pool_into(x.data(), &mut got, 6, 4, 4).unwrap();
        assert_bits(&got, gp.data());
    }

    #[test]
    fn geometry_validation() {
        let p = Conv2dParams::new(1, 0, 1);
        let mut out = vec![0.0f32; 4];
        assert!(linear_bias_act(
            &[0.0; 4],
            &[0.0; 4],
            &mut out,
            2,
            2,
            2,
            Some(&[0.0]),
            Epilogue::None
        )
        .is_err());
        assert!(linear_bias_act(
            &[0.0; 3],
            &[0.0; 4],
            &mut out,
            2,
            2,
            2,
            None,
            Epilogue::None
        )
        .is_err());
        assert!(conv2d_bias_act(
            &[0.0; 9],
            &[0.0; 9],
            &mut out,
            1,
            1,
            3,
            3,
            1,
            5,
            &p,
            None,
            Epilogue::None
        )
        .is_err());
        assert!(conv2d_bias_act(
            &[0.0; 9],
            &[0.0; 9],
            &mut out,
            1,
            1,
            3,
            3,
            1,
            3,
            &Conv2dParams::new(0, 0, 1),
            None,
            Epilogue::None
        )
        .is_err());
        assert!(max_pool2d_into(&[0.0; 9], &mut out, 1, 3, 3, 2).is_err());
        assert!(global_avg_pool_into(&[0.0; 16], &mut out, 1, 4, 0).is_err());
        let _ = Tensor::zeros(&[1]);
    }

    #[test]
    fn fused_conv_is_thread_count_invariant() {
        let mut r = rng::seeded(44);
        let p = Conv2dParams::new(1, 1, 1);
        let x = rng::normal(&[4, 3, 6, 6], 1.0, &mut r);
        let wt = rng::normal(&[4, 3, 3, 3], 1.0, &mut r);
        let b = rng::normal(&[4], 1.0, &mut r);
        let run = |threads: usize| {
            par::with_threads(threads, || {
                let mut got = vec![0.0f32; 4 * 4 * 6 * 6];
                conv2d_bias_act(
                    x.data(),
                    wt.data(),
                    &mut got,
                    4,
                    3,
                    6,
                    6,
                    4,
                    3,
                    &p,
                    Some(b.data()),
                    Epilogue::Relu,
                )
                .unwrap();
                got
            })
        };
        assert_bits(&run(1), &run(4));
    }
}
