//! Row softmax / log-softmax and cross-entropy loss with gradient.
//!
//! Implemented with the standard max-subtraction trick so large logits do
//! not overflow, and a fused softmax-cross-entropy backward
//! (`dlogits = (softmax − one_hot)/batch`) which is both faster and more
//! numerically stable than composing the two gradients.
//!
//! [`softmax_rows`] normalises each row on its own, and [`cross_entropy`]
//! accumulates the loss in one f64 chain in row order.

use crate::ops::elementwise;
use crate::{Result, Tensor, TensorError};

fn check_logits(op: &'static str, logits: &Tensor) -> Result<(usize, usize)> {
    if logits.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: logits.rank(),
        });
    }
    let (m, n) = (logits.dims()[0], logits.dims()[1]);
    if n == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            reason: "zero classes".into(),
        });
    }
    Ok((m, n))
}

/// Row-wise softmax of a `[batch, classes]` tensor.
///
/// # Errors
///
/// Returns an error unless the input is rank 2 with ≥ 1 column.
pub fn softmax_rows(logits: &Tensor) -> Result<Tensor> {
    let (m, n) = check_logits("softmax_rows", logits)?;
    let mut out = Tensor::zeros(&[m, n]);
    for (dst, row) in out.data_mut().chunks_mut(n).zip(logits.data().chunks(n)) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for (d, &x) in dst.iter_mut().zip(row) {
            *d = (x - max).exp();
            z += *d;
        }
        for d in dst.iter_mut() {
            *d /= z;
        }
    }
    Ok(out)
}

/// Output of [`cross_entropy`]: mean loss plus the gradient w.r.t. logits.
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Mean negative log-likelihood over the batch.
    pub loss: f32,
    /// `∂loss/∂logits`, shape `[batch, classes]` (already divided by batch).
    pub grad_logits: Tensor,
    /// Row-wise softmax probabilities (exposed per C-INTERMEDIATE; callers
    /// often want them for accuracy/confidence reporting).
    pub probs: Tensor,
}

/// Softmax cross-entropy between `logits` (`[batch, classes]`) and integer
/// `labels` (`len == batch`).
///
/// # Errors
///
/// Returns an error for rank/shape mismatches or out-of-range labels.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<CrossEntropyOutput> {
    let (m, n) = check_logits("cross_entropy", logits)?;
    if labels.len() != m {
        return Err(TensorError::LengthMismatch {
            expected: m,
            actual: labels.len(),
        });
    }
    if m == 0 {
        return Err(TensorError::InvalidArgument {
            op: "cross_entropy",
            reason: "empty batch".into(),
        });
    }
    let probs = softmax_rows(logits)?;
    let mut grad = probs.clone();
    let mut loss = 0.0f64;
    let inv_m = 1.0 / m as f32;
    for (i, &label) in labels.iter().enumerate() {
        if label >= n {
            return Err(TensorError::IndexOutOfBounds {
                index: label,
                bound: n,
            });
        }
        let p = probs.data()[i * n + label].max(1e-12);
        loss -= (p as f64).ln();
        grad.data_mut()[i * n + label] -= 1.0;
    }
    elementwise::scale_in_place(&mut grad, inv_m);
    Ok(CrossEntropyOutput {
        loss: (loss / m as f64) as f32,
        grad_logits: grad,
        probs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = rng::normal(&[5, 7], 3.0, &mut rng::seeded(4));
        let s = softmax_rows(&x).unwrap();
        for i in 0..5 {
            let row_sum: f32 = s.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        assert!(s.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn softmax_is_shift_invariant_and_overflow_safe() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = a.map(|x| x + 1000.0);
        let sa = softmax_rows(&a).unwrap();
        let sb = softmax_rows(&b).unwrap();
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
            assert!(x.is_finite());
        }
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Tensor::from_vec(vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0], &[2, 3]).unwrap();
        let out = cross_entropy(&logits, &[0, 1]).unwrap();
        assert!(out.loss < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_n() {
        let logits = Tensor::zeros(&[4, 10]);
        let out = cross_entropy(&logits, &[0, 3, 5, 9]).unwrap();
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut logits = rng::normal(&[3, 4], 1.0, &mut rng::seeded(6));
        let labels = [2usize, 0, 3];
        let out = cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for k in 0..logits.len() {
            let orig = logits.data()[k];
            logits.data_mut()[k] = orig + eps;
            let lp = cross_entropy(&logits, &labels).unwrap().loss;
            logits.data_mut()[k] = orig - eps;
            let lm = cross_entropy(&logits, &labels).unwrap().loss;
            logits.data_mut()[k] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - out.grad_logits.data()[k]).abs() < 1e-3,
                "k={k} fd={fd} an={}",
                out.grad_logits.data()[k]
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = rng::normal(&[4, 6], 2.0, &mut rng::seeded(7));
        let out = cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        for i in 0..4 {
            let s: f32 = out.grad_logits.data()[i * 6..(i + 1) * 6].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn validation_errors() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 5]).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[3]), &[0]).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[2, 0]), &[0, 0]).is_err());
        assert!(cross_entropy(&Tensor::zeros(&[0, 3]), &[]).is_err());
    }
}
