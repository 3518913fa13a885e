//! Element-wise kernels.
//!
//! These cover the arithmetic the training loop needs on same-shaped
//! operands. Broadcasting is intentionally not implemented — the layers in
//! `apt-nn` expand biases explicitly, which keeps every kernel O(n) and
//! trivially auditable.

use crate::{Result, Tensor, TensorError};

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

/// `out[i] = f(a[i])` into a fresh tensor shaped like `a`.
fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    for (o, &x) in out.data_mut().iter_mut().zip(a.data()) {
        *o = f(x);
    }
    out
}

/// `out[i] = f(a[i], b[i])` into a fresh tensor shaped like `a`.
fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    let mut out = Tensor::zeros(a.dims());
    for (o, (&x, &y)) in out.data_mut().iter_mut().zip(a.data().iter().zip(b.data())) {
        *o = f(x, y);
    }
    out
}

/// Element-wise sum `a + b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_same("add", a, b)?;
    Ok(zip(a, b, |x, y| x + y))
}

/// Scalar multiply `s · a` returning a new tensor.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    map(a, |x| x * s)
}

/// Scalar multiply in place.
pub fn scale_in_place(a: &mut Tensor, s: f32) {
    for v in a.data_mut() {
        *v *= s;
    }
}

/// In-place accumulate `a += b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn add_in_place(a: &mut Tensor, b: &Tensor) -> Result<()> {
    check_same("add_in_place", a, b)?;
    for (x, &v) in a.data_mut().iter_mut().zip(b.data()) {
        *x += v;
    }
    Ok(())
}

/// BLAS-style `y += alpha · x` in place.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if shapes differ.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<()> {
    check_same("axpy", y, x)?;
    for (yi, &xi) in y.data_mut().iter_mut().zip(x.data()) {
        *yi += alpha * xi;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_adds() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, -4.0]);
        assert_eq!(add(&a, &b).unwrap().data(), &[4.0, -2.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[1.0]);
        assert!(add(&a, &b).is_err());
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
