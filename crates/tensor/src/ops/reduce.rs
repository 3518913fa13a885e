//! Reductions: axis sums and means, argmax, and the row/column reductions
//! used by linear-layer backward passes.
//!
//! A floating-point sum is a chain: one add per element, each waiting out
//! the latency of the one before. [`channel_mean_var`] is defined as one
//! partial sum per image folded in image order, so the partials of
//! different images are independent chains; it runs [`CHAINS`] of them
//! **side by side** and folds them in the order it always did. Chains are
//! interleaved, never reassociated — no element changes the chain it is
//! added to or its place in it, so the bits are the serial loop's (kept in
//! the test module as the reference).

use crate::{Result, Tensor, TensorError};

/// Sum over axis 0 of a rank-2 tensor: `[m, n] → [n]`.
///
/// Used for bias gradients (`db = Σ_rows dY`).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 2.
pub fn sum_rows(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "sum_rows",
            expected: 2,
            actual: a.rank(),
        });
    }
    let n = a.dims()[1];
    let mut out = Tensor::zeros(&[n]);
    if n > 0 {
        for row in a.data().chunks_exact(n) {
            for (o, &v) in out.data_mut().iter_mut().zip(row) {
                *o += v;
            }
        }
    }
    Ok(out)
}

/// Per-channel sum of an NCHW tensor: `[n, c, h, w] → [c]`.
///
/// Used for conv bias gradients and batch-norm statistics.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 4.
pub fn sum_channels(a: &Tensor) -> Result<Tensor> {
    if a.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "sum_channels",
            expected: 4,
            actual: a.rank(),
        });
    }
    let (n, c, h, w) = (a.dims()[0], a.dims()[1], a.dims()[2], a.dims()[3]);
    let mut out = Tensor::zeros(&[c]);
    let x = a.data();
    for (ch, o) in out.data_mut().iter_mut().enumerate() {
        for img in 0..n {
            let base = (img * c + ch) * h * w;
            *o += x[base..base + h * w].iter().sum::<f32>();
        }
    }
    Ok(out)
}

/// Row-wise argmax of a rank-2 tensor: `[m, n] → Vec<usize>` of length `m`.
///
/// Ties resolve to the lowest index. Used to compute classification
/// accuracy from logits.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless the input is rank 2 and
/// [`TensorError::InvalidArgument`] if `n == 0`.
pub fn argmax_rows(a: &Tensor) -> Result<Vec<usize>> {
    if a.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op: "argmax_rows",
            expected: 2,
            actual: a.rank(),
        });
    }
    let n = a.dims()[1];
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op: "argmax_rows",
            reason: "zero columns".into(),
        });
    }
    let argmax = |row: &[f32]| {
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    };
    Ok(a.data().chunks(n).map(argmax).collect())
}

/// Per-channel mean and (biased) variance of an NCHW tensor, as used by
/// batch normalisation: returns `(mean[c], var[c])`.
///
/// # Errors
///
/// Returns errors for rank ≠ 4 or empty per-channel slices.
pub fn channel_mean_var(a: &Tensor) -> Result<(Tensor, Tensor)> {
    if a.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "channel_mean_var",
            expected: 4,
            actual: a.rank(),
        });
    }
    let (n, c, h, w) = (a.dims()[0], a.dims()[1], a.dims()[2], a.dims()[3]);
    let count = n * h * w;
    if count == 0 {
        return Err(TensorError::InvalidArgument {
            op: "channel_mean_var",
            reason: "empty channel slices".into(),
        });
    }
    let mut mean = Tensor::zeros(&[c]);
    let mut var = Tensor::zeros(&[c]);
    let x = a.data();
    let outs = mean.data_mut().iter_mut().zip(var.data_mut());
    for (ch, (mu_out, var_out)) in outs.enumerate() {
        let plane = |img: usize| &x[(img * c + ch) * h * w..][..h * w];
        let mu = sum_over_images(n, plane, |v| v as f64) / count as f64;
        let sq = sum_over_images(n, plane, |v| {
            let d = v as f64 - mu;
            d * d
        });
        *mu_out = mu as f32;
        *var_out = (sq / count as f64) as f32;
    }
    Ok((mean, var))
}

/// Partial sums that run side by side: enough independent adds in flight
/// to cover the latency of one (3–4 cycles, one add issued per cycle).
const CHAINS: usize = 4;

/// `Σ f(v)` over each of `L` equally long planes, every plane its own
/// chain in element order from the `−0.0` that `Iterator::sum` starts at.
#[inline(always)]
fn plane_sums<const L: usize>(planes: [&[f32]; L], f: impl Fn(f32) -> f64) -> [f64; L] {
    let len = planes[0].len();
    let planes = planes.map(|p| &p[..len]);
    let mut acc = [-0.0f64; L];
    for t in 0..len {
        for (s, p) in acc.iter_mut().zip(planes) {
            *s += f(p[t]);
        }
    }
    acc
}

/// `Σ_img Σ_plane f(v)`: one partial per image (`plane(img)`), the partials
/// added in image order — [`CHAINS`] images at a time, then one by one.
#[inline(always)]
fn sum_over_images<'a>(
    n: usize,
    plane: impl Fn(usize) -> &'a [f32],
    f: impl Fn(f32) -> f64,
) -> f64 {
    let mut s = 0.0f64;
    let mut img = 0;
    while img + CHAINS <= n {
        for partial in plane_sums::<CHAINS>(std::array::from_fn(|l| plane(img + l)), &f) {
            s += partial;
        }
        img += CHAINS;
    }
    while img < n {
        s += plane_sums([plane(img)], &f)[0];
        img += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_rows_basic() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]).unwrap();
        assert_eq!(sum_rows(&a).unwrap().data(), &[5., 7., 9.]);
        assert!(sum_rows(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn sum_channels_basic() {
        let a = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[2, 2, 2, 2]).unwrap();
        let s = sum_channels(&a).unwrap();
        // channel 0: 0+1+2+3 + 8+9+10+11 = 44; channel 1: 4..7 + 12..15 = 76
        assert_eq!(s.data(), &[44.0, 76.0]);
        assert!(sum_channels(&Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn argmax_rows_with_ties() {
        let a = Tensor::from_vec(vec![1., 3., 2., 5., 5., 0.], &[2, 3]).unwrap();
        assert_eq!(argmax_rows(&a).unwrap(), vec![1, 0]);
        assert!(argmax_rows(&Tensor::zeros(&[3])).is_err());
        assert!(argmax_rows(&Tensor::zeros(&[2, 0])).is_err());
    }

    #[test]
    fn channel_mean_var_matches_manual() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 10., 10., 10., 10.], &[1, 2, 2, 2]).unwrap();
        let (m, v) = channel_mean_var(&a).unwrap();
        assert_eq!(m.data(), &[2.5, 10.0]);
        assert!((v.data()[0] - 1.25).abs() < 1e-6);
        assert_eq!(v.data()[1], 0.0);
    }

    /// [`channel_mean_var`] as it was before the image partials ran side by
    /// side: one serial chain per image, folded in image order.
    fn channel_mean_var_serial(a: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, hw) = (a.dims()[0], a.dims()[1], a.dims()[2] * a.dims()[3]);
        let (x, count) = (a.data(), n * hw);
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ch in 0..c {
            let mut s = 0.0f64;
            for img in 0..n {
                let base = (img * c + ch) * hw;
                s += x[base..base + hw].iter().map(|&v| v as f64).sum::<f64>();
            }
            let mu = s / count as f64;
            let mut sq = 0.0f64;
            for img in 0..n {
                let base = (img * c + ch) * hw;
                sq += x[base..base + hw]
                    .iter()
                    .map(|&v| {
                        let d = v as f64 - mu;
                        d * d
                    })
                    .sum::<f64>();
            }
            mean[ch] = mu as f32;
            var[ch] = (sq / count as f64) as f32;
        }
        (mean, var)
    }

    #[test]
    fn side_by_side_chains_match_the_serial_chain_bit_for_bit() {
        let same = |a: &[f32], b: &[f32]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        let mut rng = crate::rng::seeded(31);
        for n in [1, 3, 4, 5, 32] {
            for c in [1, 3, 4, 6, 16] {
                for (h, w) in [(1, 1), (3, 3), (8, 8)] {
                    let plain = crate::rng::normal(&[n, c, h, w], 3.0, &mut rng);
                    // Channel 0 all −0.0 (the sum's sign), then one special
                    // value planted in the first and in the last image.
                    let mut zeros = plain.clone();
                    for img in 0..n {
                        zeros.data_mut()[img * c * h * w..][..h * w].fill(-0.0);
                    }
                    let mut cases = vec![plain.clone(), zeros];
                    for special in [0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                        let mut t = plain.clone();
                        t.data_mut()[0] = special;
                        let last = t.len() - 1;
                        t.data_mut()[last] = special;
                        cases.push(t);
                    }
                    for a in &cases {
                        let (want_mean, want_var) = channel_mean_var_serial(a);
                        let (mean, var) = channel_mean_var(a).unwrap();
                        assert!(
                            same(mean.data(), &want_mean) && same(var.data(), &want_var),
                            "[{n}, {c}, {h}, {w}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn channel_mean_var_rejects_bad_input() {
        assert!(channel_mean_var(&Tensor::zeros(&[2, 2])).is_err());
        assert!(channel_mean_var(&Tensor::zeros(&[0, 2, 2, 2])).is_err());
    }
}
