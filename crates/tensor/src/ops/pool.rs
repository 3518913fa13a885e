//! Pooling kernels (NCHW): max pooling, average pooling and global average
//! pooling, each with its backward pass.
//!
//! Forward passes and the dense backward passes parallelise over
//! `(image, channel)` planes — each plane owns a disjoint output slice
//! and is computed in serial order, so results are bit-identical for
//! every thread count. [`max_pool2d_backward`] stays serial: it scatters
//! through the argmax table, and scattered writes cannot be partitioned
//! by output region.

use crate::{par, Result, Tensor, TensorError};

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
/// indices needed by [`max_pool2d_backward`].
#[derive(Debug, Clone)]
pub struct MaxPoolOutput {
    /// Pooled activations `[n, c, oh, ow]`.
    pub output: Tensor,
    /// Flat input index of the winning element for every output element.
    pub argmax: Vec<usize>,
}

/// The one max-pool loop. `out` / `arg` hold whole output rows of `ow =
/// w / k` elements, the first of them output row `row0` of the tensor
/// (planes are contiguous, so output row `r` pools input rows `r·k..`).
///
/// Candidates are visited in `(di, dj)` order and taken on a strict `>`,
/// written as selects: on activations the winner of a window is a coin
/// toss, and a branch per candidate mispredicts accordingly. The running
/// maximum starts at `−∞` and the index at the window's own first element,
/// so a window with nothing above `−∞` (all NaN, all `−∞`) routes its
/// gradient to itself.
///
/// `#[inline(always)]` so a caller passing a literal `k` gets the window
/// loops unrolled and the slices' bounds hoisted — the GEMM tile's trick.
#[inline(always)]
fn max_pool_rows(x: &[f32], w: usize, k: usize, row0: usize, out: &mut [f32], arg: &mut [usize]) {
    let ow = w / k;
    for (r, (orow, arow)) in out
        .chunks_exact_mut(ow)
        .zip(arg.chunks_exact_mut(ow))
        .enumerate()
    {
        let base = (row0 + r) * k * w;
        let rows = &x[base..base + k * w];
        for (oj, (o, a)) in orow.iter_mut().zip(arow.iter_mut()).enumerate() {
            let first = base + oj * k;
            let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
            for di in 0..k {
                let window_row = &rows[di * w + oj * k..][..k];
                for (dj, &v) in window_row.iter().enumerate() {
                    let take = v > best;
                    best = if take { v } else { best };
                    best_idx = if take { first + di * w + dj } else { best_idx };
                }
            }
            *o = best;
            *a = best_idx;
        }
    }
}

/// Max pooling with square window `k` and stride `k` (non-overlapping).
///
/// The argmax of a window is its first element (in row-major order) that
/// no other exceeds; NaN candidates never win, and a window holding
/// nothing above `−∞` yields `−∞` and its own first element.
///
/// # Errors
///
/// Returns an error if the input is not rank 4, `k == 0`, or `k` does not
/// divide the spatial dimensions.
pub fn max_pool2d(input: &Tensor, k: usize) -> Result<MaxPoolOutput> {
    let (n, c, h, w) = check4("max_pool2d", input)?;
    if k == 0 || h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidArgument {
            op: "max_pool2d",
            reason: format!("window {k} must be >0 and divide {h}x{w}"),
        });
    }
    let (oh, ow) = (h / k, w / k);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let x = input.data();
    let plane = oh * ow;
    if plane > 0 {
        let planes_per_chunk = par::chunk_items(n * c, h * w);
        par::for_each_chunk_mut2(
            out.data_mut(),
            planes_per_chunk * plane,
            &mut argmax,
            planes_per_chunk * plane,
            |ci, out_planes, arg_planes| {
                let row0 = ci * planes_per_chunk * oh;
                // Every pool in the model zoo is 2 × 2; a literal there
                // halves the pass (63–72 µs against 131–134 for the loop
                // with `k` a variable, [32, 16, 16, 16] on the build host).
                match k {
                    2 => max_pool_rows(x, w, 2, row0, out_planes, arg_planes),
                    _ => max_pool_rows(x, w, k, row0, out_planes, arg_planes),
                }
            },
        );
    }
    Ok(MaxPoolOutput {
        output: out,
        argmax,
    })
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the
/// winning input element.
///
/// # Errors
///
/// Returns an error if `grad_output` volume does not match `argmax` length.
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_dims: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: grad_output.len(),
        });
    }
    let mut grad_in = Tensor::zeros(input_dims);
    let gd = grad_in.data_mut();
    // Serial on purpose: this is a scatter through `argmax`, and nothing
    // bounds which input element a given output gradient lands on.
    for (&src, &g) in argmax.iter().zip(grad_output.data()) {
        if src >= gd.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: src,
                bound: gd.len(),
            });
        }
        gd[src] += g;
    }
    Ok(grad_in)
}

/// Average pooling with square window `k` and stride `k`.
///
/// # Errors
///
/// Same contract as [`max_pool2d`].
pub fn avg_pool2d(input: &Tensor, k: usize) -> Result<Tensor> {
    let (n, c, h, w) = check4("avg_pool2d", input)?;
    if k == 0 || h % k != 0 || w % k != 0 {
        return Err(TensorError::InvalidArgument {
            op: "avg_pool2d",
            reason: format!("window {k} must be >0 and divide {h}x{w}"),
        });
    }
    let (oh, ow) = (h / k, w / k);
    let inv = 1.0 / (k * k) as f32;
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let x = input.data();
    let plane = oh * ow;
    if plane > 0 {
        let planes_per_chunk = par::chunk_items(n * c, h * w);
        par::for_each_chunk_mut(
            out.data_mut(),
            planes_per_chunk * plane,
            |ci, out_planes| {
                let p0 = ci * planes_per_chunk;
                for (local, op) in out_planes.chunks_mut(plane).enumerate() {
                    let base = (p0 + local) * h * w;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let mut acc = 0.0;
                            for di in 0..k {
                                for dj in 0..k {
                                    acc += x[base + (oi * k + di) * w + oj * k + dj];
                                }
                            }
                            op[oi * ow + oj] = acc * inv;
                        }
                    }
                }
            },
        );
    }
    Ok(out)
}

/// Backward pass of [`avg_pool2d`]: spreads each output gradient uniformly
/// over its window.
///
/// # Errors
///
/// Returns an error on rank/shape mismatch.
pub fn avg_pool2d_backward(grad_output: &Tensor, input_dims: &[usize], k: usize) -> Result<Tensor> {
    let (n, c, oh, ow) = check4("avg_pool2d_backward", grad_output)?;
    if input_dims.len() != 4 || input_dims[2] != oh * k || input_dims[3] != ow * k {
        return Err(TensorError::ShapeMismatch {
            op: "avg_pool2d_backward",
            lhs: grad_output.dims().to_vec(),
            rhs: input_dims.to_vec(),
        });
    }
    let (h, w) = (input_dims[2], input_dims[3]);
    let inv = 1.0 / (k * k) as f32;
    let mut grad_in = Tensor::zeros(input_dims);
    let go = grad_output.data();
    let plane = h * w;
    if plane > 0 && n * c > 0 {
        let planes_per_chunk = par::chunk_items(n * c, h * w);
        par::for_each_chunk_mut(
            grad_in.data_mut(),
            planes_per_chunk * plane,
            |ci, gi_planes| {
                let p0 = ci * planes_per_chunk;
                for (local, gp) in gi_planes.chunks_mut(plane).enumerate() {
                    let obase = (p0 + local) * oh * ow;
                    for oi in 0..oh {
                        for oj in 0..ow {
                            let g = go[obase + oi * ow + oj] * inv;
                            for di in 0..k {
                                for dj in 0..k {
                                    gp[(oi * k + di) * w + oj * k + dj] += g;
                                }
                            }
                        }
                    }
                }
            },
        );
    }
    Ok(grad_in)
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
    let inv = 1.0 / (h * w) as f32;
    let mut out = Tensor::zeros(&[n, c]);
    let x = input.data();
    let planes_per_chunk = par::chunk_items(n * c, h * w);
    par::for_each_chunk_mut(out.data_mut(), planes_per_chunk, |ci, planes| {
        let p0 = ci * planes_per_chunk;
        for (local, o) in planes.iter_mut().enumerate() {
            let base = (p0 + local) * h * w;
            let s: f32 = x[base..base + h * w].iter().sum();
            *o = s * inv;
        }
    });
    Ok(out)
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
    if plane > 0 && n * c > 0 {
        let planes_per_chunk = par::chunk_items(n * c, plane);
        par::for_each_chunk_mut(
            grad_in.data_mut(),
            planes_per_chunk * plane,
            |ci, gi_planes| {
                let p0 = ci * planes_per_chunk;
                for (local, gp) in gi_planes.chunks_mut(plane).enumerate() {
                    gp.fill(go[p0 + local] * inv);
                }
            },
        );
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
        let go = Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]).unwrap();
        let gi = max_pool2d_backward(&go, &argmax, x.dims()).unwrap();
        assert_eq!(gi.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(gi.at(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(gi.at(&[0, 0, 3, 1]).unwrap(), 3.0);
        assert_eq!(gi.at(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(gi.sum(), 10.0);
    }

    /// The loop [`max_pool_rows`] replaced: a branch per candidate and a
    /// *flat* index seed of 0, kept as its reference.
    fn max_pool_branchy(x: &[f32], planes: usize, h: usize, w: usize, k: usize) -> MaxPoolOutput {
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
        MaxPoolOutput {
            output: Tensor::from_vec(out, &[1, planes, oh, ow]).unwrap(),
            argmax,
        }
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
            let want = max_pool_branchy(&x, planes, h, w, k);
            // (window position, special value) pairs met in windows that have a
            // winner.
            let mut seen = std::collections::BTreeSet::new();
            for threads in [1, 3] {
                let got = par::with_threads(threads, || max_pool2d(&input, k).unwrap());
                assert_eq!(got.output.dims(), want.output.dims());
                let (ow, per_plane) = (w / k, (h / k) * (w / k));
                for (t, (g, r)) in got.output.data().iter().zip(want.output.data()).enumerate() {
                    assert_eq!(g.to_bits(), r.to_bits(), "k={k} output {t}");
                    let (p, oi, oj) = (t / per_plane, (t % per_plane) / ow, t % ow);
                    let first = p * h * w + oi * k * w + oj * k;
                    let window = (0..k * k).map(|c| x[first + (c / k) * w + c % k]);
                    if window.clone().any(|v| v > f32::NEG_INFINITY) {
                        seen.extend(window.enumerate().filter_map(|(c, v)| {
                            let special = [f32::NAN, f32::NEG_INFINITY, -0.0, 0.0]
                                .iter()
                                .position(|s| s.to_bits() == v.to_bits())?;
                            Some((c, special))
                        }));
                        assert_eq!(got.argmax[t], want.argmax[t], "k={k} argmax {t}");
                    } else {
                        // The seed the bugfix moved: the reference says 0.
                        assert_eq!(g.to_bits(), f32::NEG_INFINITY.to_bits());
                        assert_eq!((got.argmax[t], want.argmax[t]), (first, 0), "k={k} {t}");
                    }
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
        let t = argmax
            .iter()
            .position(|&a| a == late)
            .expect("argmax inside the window");
        assert_eq!(output.data()[t], f32::NEG_INFINITY);
        let mut go = Tensor::zeros(output.dims());
        go.data_mut()[t] = 5.0;
        let gi = max_pool2d_backward(&go, &argmax, x.dims()).unwrap();
        assert_eq!(gi.data()[0], 0.0, "element 0 is another image's pixel");
        assert_eq!(gi.data()[late], 5.0);
        assert_eq!(gi.sum(), 5.0);
    }

    #[test]
    fn avg_pool_and_backward_conserve_mass() {
        let x = Tensor::ones(&[2, 3, 4, 4]);
        let y = avg_pool2d(&x, 2).unwrap();
        assert_eq!(y.dims(), &[2, 3, 2, 2]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        let go = Tensor::ones(&[2, 3, 2, 2]);
        let gi = avg_pool2d_backward(&go, x.dims(), 2).unwrap();
        // each input cell receives 1/4 of one output gradient
        assert!(gi.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
        assert!((gi.sum() - go.sum()).abs() < 1e-4);
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
        assert!(avg_pool2d(&x, 3).is_err());
        let x3 = Tensor::zeros(&[5, 5]);
        assert!(max_pool2d(&x3, 1).is_err());
        assert!(global_avg_pool(&x3).is_err());
    }

    #[test]
    fn backward_shape_validation() {
        let go = Tensor::zeros(&[1, 1, 2, 2]);
        assert!(avg_pool2d_backward(&go, &[1, 1, 5, 5], 2).is_err());
        let go2 = Tensor::zeros(&[1, 2]);
        assert!(global_avg_pool_backward(&go2, &[1, 3, 2, 2]).is_err());
        assert!(max_pool2d_backward(&go, &[0, 1, 2], &[1, 1, 4, 4]).is_err());
    }
}
