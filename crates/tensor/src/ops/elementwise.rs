//! Element-wise kernels.
//!
//! These cover the arithmetic the training loop needs on same-shaped
//! operands. Broadcasting is intentionally not implemented — the layers in
//! `apt-nn` expand biases explicitly, which keeps every kernel O(n) and
//! trivially auditable.
//!
//! All kernels here are embarrassingly parallel (no cross-element
//! accumulation), so they chunk the output into fixed-size pieces and run
//! them on the [`crate::par`] pool; small tensors never leave the calling
//! thread. Results are bit-identical for every thread count.

use crate::{par, Result, Tensor, TensorError};

/// Elements per parallel chunk. Fixed (shape-independent), so chunk
/// boundaries never depend on the thread count.
const EW_CHUNK: usize = 16 * 1024;

fn check_same(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if !a.shape().same_as(b.shape()) {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    Ok(())
}

/// Parallel `out[i] = f(a[i])` into a fresh tensor shaped like `a`.
fn par_map(a: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    let ad = a.data();
    par::for_each_chunk_mut(out.data_mut(), EW_CHUNK, |ci, chunk| {
        let base = ci * EW_CHUNK;
        for (j, o) in chunk.iter_mut().enumerate() {
            *o = f(ad[base + j]);
        }
    });
    out
}

/// Parallel `out[i] = f(a[i], b[i])` into a fresh tensor shaped like `a`.
fn par_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    let (ad, bd) = (a.data(), b.data());
    par::for_each_chunk_mut(out.data_mut(), EW_CHUNK, |ci, chunk| {
        let base = ci * EW_CHUNK;
        for (j, o) in chunk.iter_mut().enumerate() {
            *o = f(ad[base + j], bd[base + j]);
        }
    });
    out
}

/// Element-wise sum `a + b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same("add", a, b)?;
    Ok(par_zip(a, b, |x, y| x + y))
}

/// Element-wise difference `a − b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same("sub", a, b)?;
    Ok(par_zip(a, b, |x, y| x - y))
}

/// Scalar multiply `s · a` returning a new tensor.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    par_map(a, |x| x * s)
}

/// Scalar multiply in place.
pub fn scale_in_place(a: &mut Tensor, s: f32) {
    par::for_each_chunk_mut(a.data_mut(), EW_CHUNK, |_, chunk| {
        for v in chunk.iter_mut() {
            *v *= s;
        }
    });
}

/// In-place accumulate `a += b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn add_in_place(a: &mut Tensor, b: &Tensor) -> Result<()> {
    check_same("add_in_place", a, b)?;
    let bd = b.data();
    par::for_each_chunk_mut(a.data_mut(), EW_CHUNK, |ci, chunk| {
        let base = ci * EW_CHUNK;
        for (j, x) in chunk.iter_mut().enumerate() {
            *x += bd[base + j];
        }
    });
    Ok(())
}

/// BLAS-style `y += alpha · x` in place.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<()> {
    check_same("axpy", y, x)?;
    let xd = x.data();
    par::for_each_chunk_mut(y.data_mut(), EW_CHUNK, |ci, chunk| {
        let base = ci * EW_CHUNK;
        for (j, yi) in chunk.iter_mut().enumerate() {
            *yi += alpha * xd[base + j];
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_sub() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, -4.0]);
        assert_eq!(add(&a, &b).unwrap().data(), &[4.0, -2.0]);
        assert_eq!(sub(&a, &b).unwrap().data(), &[-2.0, 6.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0]);
        assert!(add(&a, &b).is_err());
        assert!(sub(&a, &b).is_err());
        let mut c = a.clone();
        assert!(add_in_place(&mut c, &b).is_err());
        assert!(axpy(1.0, &b, &mut c).is_err());
    }

    #[test]
    fn scale_variants() {
        let a = t(&[1.0, -2.0]);
        assert_eq!(scale(&a, 2.0).data(), &[2.0, -4.0]);
        let mut b = a.clone();
        scale_in_place(&mut b, -1.0);
        assert_eq!(b.data(), &[-1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = t(&[1.0, 1.0]);
        let mut y = t(&[0.5, -0.5]);
        axpy(2.0, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[2.5, 1.5]);
    }
}
