//! Pooling kernels (NCHW): max pooling and global average pooling, each
//! with its backward pass.
//!
//! Every pass walks the `(image, channel)` planes in order, each plane
//! writing its own output slice. Windows do not overlap, so even
//! [`max_pool2d_backward`]'s scatter stays inside the plane it came from.

use crate::{Result, Tensor, TensorError};

/// The widest max-pool window whose argmax table fits a byte: offsets
/// `di·k + dj` run to `k² − 1 = 255`.
const MAX_TABLE_K: usize = 16;

fn check4(op: &'static str, t: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if t.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 4,
            actual: t.rank(),
        });
    }
    Ok((t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]))
}

/// Result of a max-pool forward pass: the pooled tensor plus the argmax
/// table [`max_pool2d_backward`] reads.
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations `[n, c, oh, ow]`.
    pub output: Tensor,
    /// Where each output element's winner sits in its own window: the
    /// offset `di·k + dj`, one byte per output element.
    pub argmax: Vec<u8>,
}

/// The one max-pool window walk, behind training, evaluation and the frozen
/// plans alike. `out` (and `arg`, when there is one) hold whole output rows
/// of `ow = w / k` elements (planes are contiguous, so output row `r`
/// pools input rows `r·k..`).
///
/// Candidates are visited in `(di, dj)` order and taken on a strict `>`,
/// written as selects: on activations the winner of a window is a coin
/// toss, and a branch per candidate mispredicts accordingly. The running
/// maximum starts at `−∞` and the offset at 0, the window's own first
/// element, so a window with nothing above `−∞` (all NaN, all `−∞`) routes
/// its gradient to itself.
///
/// `#[inline(always)]` so a caller passing a literal `k` gets the window
/// loops unrolled and the slices' bounds hoisted — the GEMM tile's trick —
/// and one passing `None` loses the offset bookkeeping.
#[inline(always)]
fn max_pool_rows(x: &[f32], w: usize, k: usize, out: &mut [f32], mut arg: Option<&mut [u8]>) {
    let ow = w / k;
    for (r, orow) in out.chunks_exact_mut(ow).enumerate() {
        let base = r * k * w;
        let rows = &x[base..base + k * w];
        let mut arow = arg.as_deref_mut().map(|a| &mut a[r * ow..][..ow]);
        for (oj, o) in orow.iter_mut().enumerate() {
            let (mut best, mut at) = (f32::NEG_INFINITY, 0);
            for di in 0..k {
                let window_row = &rows[di * w + oj * k..][..k];
                for (dj, &v) in window_row.iter().enumerate() {
                    let take = v > best;
                    best = if take { v } else { best };
                    at = if take { di * k + dj } else { at };
                }
            }
            *o = best;
            if let Some(a) = arow.as_deref_mut() {
                // A table is only kept for `k ≤ MAX_TABLE_K`: the offset fits.
                a[oj] = at as u8;
            }
        }
    }
}

/// Pools every `[h × w]` plane of `x` into `out` — and each winner's offset
/// into `arg`, when there is one — row by row. The caller
/// has checked the geometry: `k` divides `h` and `w`, and `out` (and `arg`)
/// hold one element per window.
pub(crate) fn max_pool_planes(
    x: &[f32],
    h: usize,
    w: usize,
    k: usize,
    out: &mut [f32],
    arg: Option<&mut [u8]>,
) {
    if (h / k) * (w / k) == 0 {
        return;
    }
    // Every pool in the model zoo is 2 × 2; a literal there halves the pass
    // (63–72 µs against 131–134 for the loop with `k` a variable,
    // [32, 16, 16, 16] on the build host).
    match k {
        2 => max_pool_rows(x, w, 2, out, arg),
        _ => max_pool_rows(x, w, k, out, arg),
    }
}

/// The window [`max_pool2d`] and [`max_pool2d_backward`] accept: `k` in
/// `1..=16`, dividing both spatial sides.
fn check_table_window(op: &'static str, h: usize, w: usize, k: usize) -> Result<()> {
    if k == 0 || k > MAX_TABLE_K || !h.is_multiple_of(k) || !w.is_multiple_of(k) {
        return Err(TensorError::InvalidArgument {
            op,
            reason: format!("window {k} must be in 1..={MAX_TABLE_K} and divide {h}x{w}"),
        });
    }
    Ok(())
}

/// Max pooling with square window `k` and stride `k` (non-overlapping).
///
/// The argmax of a window is its first element (in row-major order) that
/// no other exceeds; NaN candidates never win, and a window holding
/// nothing above `−∞` yields `−∞` and its own first element (offset 0).
///
/// # Errors
///
/// Returns an error if the input is not rank 4, or `k` is 0, does not
/// divide the spatial dimensions, or is above 16 — the window offset must
/// fit its byte (every pool in the model zoo is 2 × 2).
pub fn max_pool2d(input: &Tensor, k: usize) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check4("max_pool2d", input)?;
    check_table_window("max_pool2d", h, w, k)?;
    let mut output = Tensor::zeros(&[n, c, h / k, w / k]);
    let mut argmax = vec![0u8; output.len()];
    let table = Some(argmax.as_mut_slice());
    max_pool_planes(input.data(), h, w, k, output.data_mut(), table);
    Ok(MaxPoolOutput { output, argmax })
}

/// Backward pass of [`max_pool2d`]: adds each output gradient to the input
/// element its window offset names, plane by plane.
///
/// # Errors
///
/// [`TensorError::RankMismatch`] unless `input_dims` is `[n, c, h, w]`;
/// [`TensorError::InvalidArgument`] for a window [`max_pool2d`] refuses;
/// [`TensorError::LengthMismatch`] unless `grad_output` and `argmax` hold
/// one element per window; [`TensorError::IndexOutOfBounds`] for an offset
/// of `k²` or more.
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    argmax: &[u8],
    input_dims: &[usize],
    k: usize,
) -> Result<Tensor> {
    let &[n, c, h, w] = input_dims else {
        return Err(TensorError::RankMismatch {
            op: "max_pool2d_backward",
            expected: 4,
            actual: input_dims.len(),
        });
    };
    check_table_window("max_pool2d_backward", h, w, k)?;
    let (oh, ow) = (h / k, w / k);
    let windows = n * c * oh * ow;
    for len in [argmax.len(), grad_output.len()] {
        if len != windows {
            return Err(TensorError::LengthMismatch {
                expected: windows,
                actual: len,
            });
        }
    }
    // One vectorised pass over the bytes rather than a check per scatter.
    let kk = k * k;
    if let Some(top) = argmax
        .iter()
        .copied()
        .max()
        .filter(|&o| usize::from(o) >= kk)
    {
        return Err(TensorError::IndexOutOfBounds {
            index: top.into(),
            bound: kk,
        });
    }
    let mut grad_in = Tensor::zeros(input_dims);
    if windows > 0 {
        let (gi, go) = (grad_in.data_mut(), grad_output.data());
        // With the literal 2 the offset splits as a shift and a mask.
        match k {
            2 => scatter_rows(gi, go, argmax, w, 2),
            _ => scatter_rows(gi, go, argmax, w, k),
        }
    }
    Ok(grad_in)
}

/// Adds the gradients of whole output rows `go` onto `gi` — the `k` input
/// rows of each — at the window offsets `arg` names.
#[inline(always)]
fn scatter_rows(gi: &mut [f32], go: &[f32], arg: &[u8], w: usize, k: usize) {
    let ow = w / k;
    let rows = gi
        .chunks_exact_mut(k * w)
        .zip(go.chunks_exact(ow).zip(arg.chunks_exact(ow)));
    for (block, (go_row, arg_row)) in rows {
        for (oj, (&g, &at)) in go_row.iter().zip(arg_row).enumerate() {
            let (di, dj) = (usize::from(at) / k, usize::from(at) % k);
            block[di * w + oj * k + dj] += g;
        }
    }
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
///
/// # Errors
///
/// Returns an error unless the input is rank 4 with non-zero spatial size.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let (n, c, h, w) = check4("global_avg_pool", input)?;
    if h * w == 0 {
        return Err(TensorError::InvalidArgument {
            op: "global_avg_pool",
            reason: "zero spatial size".into(),
        });
    }
    let mut out = Tensor::zeros(&[n, c]);
    global_avg_pool_planes(input.data(), h * w, out.data_mut());
    Ok(out)
}

/// Averages every `hw`-element plane of `x` into its element of `out` —
/// one serial sum per plane, behind training,
/// evaluation and the frozen plans alike. The caller has checked that `x`
/// holds `out.len()` planes and that `hw` is not zero.
pub(crate) fn global_avg_pool_planes(x: &[f32], hw: usize, out: &mut [f32]) {
    let inv = 1.0 / hw as f32;
    for (o, plane) in out.iter_mut().zip(x.chunks_exact(hw)) {
        let s: f32 = plane.iter().sum();
        *o = s * inv;
    }
}

/// Backward pass of [`global_avg_pool`].
///
/// # Errors
///
/// Returns an error on shape mismatch between `grad_output` (`[n, c]`) and
/// `input_dims`.
pub fn global_avg_pool_backward(grad_output: &Tensor, input_dims: &[usize]) -> Result<Tensor> {
    if grad_output.rank() != 2 || input_dims.len() != 4 {
        return Err(TensorError::ShapeMismatch {
            op: "global_avg_pool_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: input_dims.to_vec(),
        });
    }
    let (n, c, h, w) = (input_dims[0], input_dims[1], input_dims[2], input_dims[3]);
    if grad_output.dims() != [n, c] {
        return Err(TensorError::ShapeMismatch {
            op: "global_avg_pool_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: vec![n, c],
        });
    }
    let inv = 1.0 / (h * w) as f32;
    let mut grad_in = Tensor::zeros(input_dims);
    let go = grad_output.data();
    let plane = h * w;
    if plane > 0 {
        for (gp, &g) in grad_in.data_mut().chunks_exact_mut(plane).zip(go) {
            gp.fill(g * inv);
        }
    }
    Ok(grad_in)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_maximum_and_routes_gradient() {
        let x = Tensor::from_vec(
            vec![
                1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let MaxPoolOutput { output, argmax } = max_pool2d(&x, 2).unwrap();
        assert_eq!(output.data(), &[6., 8., 14., 16.]);
        assert_eq!(argmax, [3, 3, 3, 3], "each window's last element");
        let go = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]).unwrap();
        let gi = max_pool2d_backward(&go, &argmax, x.dims(), 2).unwrap();
        let expected = [
            0., 0., 0., 0., 0., 1., 0., 2., 0., 0., 0., 0., 0., 3., 0., 4.,
        ];
        assert_eq!(gi.data(), &expected);
    }

    /// The loop [`max_pool_rows`] replaced: a branch per candidate and a
    /// *flat* index seed of 0, kept as its reference. Returns the pooled
    /// tensor and each window's flat argmax.
    fn max_pool_branchy(
        x: &[f32],
        planes: usize,
        h: usize,
        w: usize,
        k: usize,
    ) -> (Tensor, Vec<usize>) {
        let (oh, ow) = (h / k, w / k);
        let mut out = vec![0.0f32; planes * oh * ow];
        let mut argmax = vec![0usize; planes * oh * ow];
        for p in 0..planes {
            let base = p * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for di in 0..k {
                        for dj in 0..k {
                            let idx = base + (oi * k + di) * w + oj * k + dj;
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out[(p * oh + oi) * ow + oj] = best;
                    argmax[(p * oh + oi) * ow + oj] = best_idx;
                }
            }
        }
        let out = Tensor::from_vec(out, &[1, planes, oh, ow]).unwrap();
        (out, argmax)
    }

    #[test]
    fn select_loop_matches_the_branchy_loop_bit_for_bit() {
        // Values drawn from a small set so windows are full of ties, signed
        // zeros, NaN and −∞; every special value visits every window
        // position many times over 12 planes.
        const POOL: [f32; 8] = [
            0.0,
            -0.0,
            1.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
        ];
        for k in 1..=4usize {
            let (planes, h, w) = (12, 3 * k, 5 * k);
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ k as u64;
            let mut x: Vec<f32> = (0..planes * h * w)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    POOL[(state >> 61) as usize]
                })
                .collect();
            // The first plane is plain data with distinct values, the next
            // two have nothing above −∞ anywhere.
            for (i, v) in x[..h * w].iter_mut().enumerate() {
                *v = ((i * 7919) % 101) as f32 - 50.0;
            }
            x[h * w..2 * h * w].fill(f32::NAN);
            x[2 * h * w..3 * h * w].fill(f32::NEG_INFINITY);
            let input = Tensor::from_vec(x.clone(), &[1, planes, h, w]).unwrap();
            let (want, want_argmax) = max_pool_branchy(&x, planes, h, w, k);
            // (window position, special value) pairs met in windows that have a
            // winner.
            let mut seen = std::collections::BTreeSet::new();
            let got = max_pool2d(&input, k).unwrap();
            assert_eq!(got.output.dims(), want.dims());
            let (ow, per_plane) = (w / k, (h / k) * (w / k));
            for (t, (g, r)) in got.output.data().iter().zip(want.data()).enumerate() {
                assert_eq!(g.to_bits(), r.to_bits(), "k={k} output {t}");
                let (p, oi, oj) = (t / per_plane, (t % per_plane) / ow, t % ow);
                let first = p * h * w + oi * k * w + oj * k;
                let at = usize::from(got.argmax[t]);
                let flat = first + at / k * w + at % k;
                let window = (0..k * k).map(|c| x[first + (c / k) * w + c % k]);
                if window.clone().any(|v| v > f32::NEG_INFINITY) {
                    seen.extend(window.enumerate().filter_map(|(c, v)| {
                        let special = [f32::NAN, f32::NEG_INFINITY, -0.0, 0.0]
                            .iter()
                            .position(|s| s.to_bits() == v.to_bits())?;
                        Some((c, special))
                    }));
                    assert_eq!(flat, want_argmax[t], "k={k} argmax {t}");
                } else {
                    // The seed the bugfix moved: the reference says 0.
                    assert_eq!(g.to_bits(), f32::NEG_INFINITY.to_bits());
                    assert_eq!((flat, want_argmax[t]), (first, 0), "k={k} {t}");
                }
            }
            // (A one-element window holding NaN or −∞ has no winner.)
            let specials = if k == 1 { 2 } else { 4 };
            assert_eq!(
                seen.len(),
                specials * k * k,
                "k={k}: a special missed a position"
            );
        }
    }

    #[test]
    fn a_window_with_nothing_above_neg_infinity_keeps_its_gradient() {
        // Regression: the index seed was the flat index 0, so an all-NaN
        // window in image 1 / channel 2 sent its gradient to element 0 of
        // the whole tensor.
        let mut x = Tensor::ones(&[2, 3, 4, 4]);
        let late = ((3 + 2) * 4 + 2) * 4 + 2; // image 1, channel 2, row 2, col 2
        for off in [0, 1, 4, 5] {
            x.data_mut()[late + off] = f32::NAN;
        }
        let MaxPoolOutput { output, argmax } = max_pool2d(&x, 2).unwrap();
        let t = ((3 + 2) * 2 + 1) * 2 + 1; // that window's output element
        assert_eq!(output.data()[t], f32::NEG_INFINITY);
        assert_eq!(argmax[t], 0, "the window's own first element");
        let mut go = Tensor::zeros(output.dims());
        go.data_mut()[t] = 5.0;
        let gi = max_pool2d_backward(&go, &argmax, x.dims(), 2).unwrap();
        assert_eq!(gi.data()[0], 0.0, "element 0 is another image's pixel");
        assert_eq!(gi.data()[late], 5.0);
        assert_eq!(gi.data().iter().sum::<f32>(), 5.0);
    }

    #[test]
    fn every_table_width_round_trips_and_a_wider_window_is_refused() {
        for k in [1usize, 2, 3, 16] {
            let (planes, h, w) = (3, 2 * k, 3 * k);
            // Distinct values (7919 is a unit mod the prime 10007), and the
            // first window's last element above them all: offset k² − 1.
            let mut x: Vec<f32> = (0..planes * h * w)
                .map(|i| ((i * 7919) % 10007) as f32)
                .collect();
            x[(k - 1) * w + k - 1] = 1e6;
            let input = Tensor::from_vec(x.clone(), &[1, planes, h, w]).unwrap();
            let (oh, ow) = (h / k, w / k);
            let out = max_pool2d(&input, k).unwrap();
            let go: Vec<f32> = (1..=out.argmax.len()).map(|v| v as f32).collect();
            let go = Tensor::from_vec(go, out.output.dims()).unwrap();
            let gi = max_pool2d_backward(&go, &out.argmax, input.dims(), k).unwrap();
            assert_eq!(usize::from(out.argmax[0]), k * k - 1, "k={k}");
            for (t, (&y, &at)) in out.output.data().iter().zip(&out.argmax).enumerate() {
                let (p, oi, oj) = (t / (oh * ow), t % (oh * ow) / ow, t % ow);
                let first = p * h * w + oi * k * w + oj * k;
                let at = usize::from(at);
                let winner = first + at / k * w + at % k;
                let best = (0..k * k)
                    .map(|c| x[first + c / k * w + c % k])
                    .fold(f32::NEG_INFINITY, f32::max);
                assert!(
                    at < k * k && x[winner] == y && y == best,
                    "k={k} window {t}"
                );
                assert_eq!(gi.data()[winner], (t + 1) as f32, "k={k} window {t}");
            }
            let routed = gi.data().iter().filter(|&&g| g != 0.0).count();
            assert_eq!(routed, out.argmax.len(), "k={k}: a gradient went astray");
        }
        let x = Tensor::zeros(&[1, 1, 17, 17]);
        assert!(matches!(
            max_pool2d(&x, 17),
            Err(TensorError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn backward_refuses_a_table_its_geometry_cannot_hold() {
        let go = Tensor::ones(&[1, 1, 2, 2]);
        let dims = [1, 1, 4, 4];
        assert!(max_pool2d_backward(&go, &[0, 1, 2, 3], &dims, 2).is_ok());
        let err = |argmax: &[u8], dims: &[usize], k: usize| {
            max_pool2d_backward(&go, argmax, dims, k).unwrap_err()
        };
        assert_eq!(
            err(&[0, 1, 4, 3], &dims, 2),
            TensorError::IndexOutOfBounds { index: 4, bound: 4 }
        );
        assert!(matches!(
            err(&[0; 4], &[1, 1, 5, 5], 2),
            TensorError::InvalidArgument { .. }
        ));
        assert!(matches!(
            err(&[0; 4], &dims, 0),
            TensorError::InvalidArgument { .. }
        ));
        assert_eq!(
            err(&[0; 3], &dims, 2),
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert!(matches!(
            err(&[0; 4], &[1, 4, 4], 2),
            TensorError::RankMismatch { .. }
        ));
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = global_avg_pool(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let go = Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap();
        let gi = global_avg_pool_backward(&go, x.dims()).unwrap();
        assert!(gi.data()[..4].iter().all(|&v| v == 1.0));
        assert!(gi.data()[4..].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn invalid_windows_rejected() {
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        assert!(max_pool2d(&x, 2).is_err());
        assert!(max_pool2d(&x, 0).is_err());
        let x3 = Tensor::zeros(&[5, 5]);
        assert!(max_pool2d(&x3, 1).is_err());
        assert!(global_avg_pool(&x3).is_err());
    }

    #[test]
    fn backward_shape_validation() {
        let go2 = Tensor::zeros(&[1, 2]);
        assert!(global_avg_pool_backward(&go2, &[1, 3, 2, 2]).is_err());
    }
}
