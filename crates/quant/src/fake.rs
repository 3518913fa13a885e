//! One-shot "fake quantisation" and extreme-quantisation helpers.
//!
//! These power the Table I comparators, which — unlike APT — keep an fp32
//! master copy and only *view* the parameters through a quantised lens:
//!
//! * [`fake_quantize`] — quantise→dequantise at `k` bits (DoReFa/TTQ-style
//!   weight views, WAGE-style gradients). Nothing here quantises
//!   activations: the paper quantises weights only (§IV-A).
//! * [`ternarize`] — TWN/TernGrad-style `{−s, 0, +s}` projection.
//! * [`binarize`] — BNN-style `{−s, +s}` projection.
//!
//! These helpers work entirely in the float domain and never materialise a
//! [`crate::CodeStore`]: the baselines they model keep the fp32 master copy
//! resident, so their training memory stays 32 bits per weight. That is
//! precisely the contrast to APT's packed stores that the `memory` bench
//! measures.

use crate::{AffineQuantizer, Bitwidth};
use apt_tensor::Tensor;

/// Quantises a tensor to `bits` precision and immediately dequantises,
/// returning a float tensor whose values sit on the affine grid. The range
/// is calibrated from the tensor itself (Eq. 2), then every element is
/// mapped on its own.
///
/// # Errors
///
/// Returns [`crate::QuantError::NonFiniteRange`] for empty/non-finite input.
pub fn fake_quantize(t: &Tensor, bits: Bitwidth) -> crate::Result<Tensor> {
    let q = AffineQuantizer::calibrate(t.data(), bits)?;
    let mut out = Tensor::zeros(t.dims());
    round_trip(&q, t.data(), out.data_mut());
    Ok(out)
}

/// `dst[i] = dequantize(quantize(src[i]))`. Out of line on purpose: inlined
/// into [`fake_quantize`] the same loop compiles to a slower one (881
/// against 776 µs at `[32, 16, 16, 16]`, quietest decile of 300 calls on
/// the two-vCPU build host, with or without forced code alignment).
#[inline(never)]
fn round_trip(q: &AffineQuantizer, src: &[f32], dst: &mut [f32]) {
    for (o, &x) in dst.iter_mut().zip(src) {
        *o = q.dequantize_value(q.quantize_value(x));
    }
}

/// Projects onto `{−s, 0, +s}` with threshold `0.7·mean(|t|)` and scale `s`
/// set to the mean magnitude of the surviving weights — the TWN heuristic
/// (Li et al. \[16\]), also the projection used by TernGrad for gradients.
///
/// Returns the all-zero tensor unchanged.
pub fn ternarize(t: &Tensor) -> Tensor {
    let n = t.len();
    if n == 0 {
        return t.clone();
    }
    let mean_abs: f32 = t.data().iter().map(|x| x.abs()).sum::<f32>() / n as f32;
    let thresh = 0.7 * mean_abs;
    let (mut sum, mut count) = (0.0f64, 0usize);
    for &x in t.data() {
        if x.abs() > thresh {
            sum += x.abs() as f64;
            count += 1;
        }
    }
    let s = if count == 0 {
        0.0
    } else {
        (sum / count as f64) as f32
    };
    t.map(|x| {
        if x > thresh {
            s
        } else if x < -thresh {
            -s
        } else {
            0.0
        }
    })
}

/// Projects onto `{−s, +s}` with `s = mean(|t|)` — the BNN / BinaryConnect
/// deterministic binarisation (Hubara et al. \[9\]).
pub fn binarize(t: &Tensor) -> Tensor {
    let n = t.len();
    if n == 0 {
        return t.clone();
    }
    let s: f32 = t.data().iter().map(|x| x.abs()).sum::<f32>() / n as f32;
    t.map(|x| if x >= 0.0 { s } else { -s })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::{normal, seeded};

    #[test]
    fn fake_quantize_bounds_error_by_half_eps() {
        let t = normal(&[256], 1.0, &mut seeded(1));
        let fq = fake_quantize(&t, Bitwidth::new(8).unwrap()).unwrap();
        let q = AffineQuantizer::from_tensor(&t, Bitwidth::new(8).unwrap()).unwrap();
        for (a, b) in t.data().iter().zip(fq.data()) {
            assert!((a - b).abs() <= q.eps() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn fake_quantize_reduces_distinct_values() {
        let t = normal(&[4096], 1.0, &mut seeded(2));
        let fq = fake_quantize(&t, Bitwidth::new(3).unwrap()).unwrap();
        let mut vals: Vec<i64> = fq.data().iter().map(|&x| (x * 1e6) as i64).collect();
        vals.sort_unstable();
        vals.dedup();
        assert!(
            vals.len() <= 8,
            "3-bit grid must have ≤8 levels, got {}",
            vals.len()
        );
    }

    #[test]
    fn fake_quantize_32bit_is_near_identity() {
        let t = normal(&[64], 1.0, &mut seeded(3));
        let fq = fake_quantize(&t, Bitwidth::new(32).unwrap()).unwrap();
        for (a, b) in t.data().iter().zip(fq.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn fake_quantize_rejects_a_nan_at_any_position() {
        for at in [0, 1, 3] {
            let mut t = Tensor::from_slice(&[1.0, 0.5, -1.0, 0.25]);
            t.data_mut()[at] = f32::NAN;
            let got = fake_quantize(&t, Bitwidth::new(6).unwrap());
            assert!(
                matches!(got, Err(crate::QuantError::NonFiniteRange { .. })),
                "NaN at {at}: {got:?}"
            );
        }
    }

    #[test]
    fn ternarize_produces_three_levels() {
        let t = normal(&[1024], 1.0, &mut seeded(4));
        let tt = ternarize(&t);
        let mut levels: Vec<i64> = tt.data().iter().map(|&x| (x * 1e6) as i64).collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() <= 3, "got {} levels", levels.len());
        assert!(tt.data().contains(&0.0));
        assert!(tt.data().iter().any(|&x| x > 0.0));
        assert!(tt.data().iter().any(|&x| x < 0.0));
    }

    #[test]
    fn ternarize_zero_tensor_is_zero() {
        let t = Tensor::zeros(&[16]);
        assert_eq!(ternarize(&t).data(), t.data());
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert_eq!(ternarize(&empty).len(), 0);
    }

    #[test]
    fn binarize_produces_two_levels_preserving_sign() {
        let t = Tensor::from_slice(&[-3.0, -0.1, 0.2, 4.0]);
        let b = binarize(&t);
        let s = (3.0 + 0.1 + 0.2 + 4.0) / 4.0;
        assert_eq!(b.data(), &[-s, -s, s, s]);
        let empty = Tensor::from_vec(vec![], &[0]).unwrap();
        assert_eq!(binarize(&empty).len(), 0);
    }
}
