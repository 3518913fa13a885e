use crate::{Shape, TensorError};
use std::fmt;

/// A contiguous, row-major, dynamically-shaped `f32` tensor.
///
/// `Tensor` is the single numerical container used across the APT
/// reproduction: activations, gradients, weights (in float view), images and
/// im2col buffers are all `Tensor`s. It is intentionally simple — contiguous
/// storage, no views/striding tricks — so every kernel in [`crate::ops`] can
/// be read top-to-bottom.
///
/// ```
/// use apt_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            data: self.data.clone(),
            shape: self.shape.clone(),
        }
    }

    /// Copies `source` into the buffers `self` already owns: no allocation
    /// when the element count fits and the shape is unchanged — what lets a
    /// per-step snapshot be refreshed in place.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        if self.shape != source.shape {
            self.shape = source.shape.clone();
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![0.0; shape.volume()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor {
            data: vec![value; shape.volume()],
            shape,
        }
    }

    /// Creates a rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// Identity matrix of size `n × n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a tensor from a data buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the shape volume.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> crate::Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Builds a 1-D tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            data: data.to_vec(),
            shape: Shape::new(&[data.len()]),
        }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Shorthand for `shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Shorthand for `shape().rank()`.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Slice of the `i`-th entry along the first axis — for a `[n, d]`
    /// batch, row `i`'s `d` features; for `[n, c, h, w]`, image `i`'s
    /// `c·h·w` values. This is how the serving batcher splits a batched
    /// output back into per-request responses without copying twice.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank-0 tensors and
    /// [`TensorError::IndexOutOfBounds`] when `i` exceeds the first axis.
    pub fn row(&self, i: usize) -> crate::Result<&[f32]> {
        if self.rank() == 0 {
            return Err(TensorError::RankMismatch {
                op: "row",
                expected: 1,
                actual: 0,
            });
        }
        let n = self.shape.dims()[0];
        if i >= n {
            return Err(TensorError::IndexOutOfBounds { index: i, bound: n });
        }
        let stride = self.data.len() / n;
        Ok(&self.data[i * stride..(i + 1) * stride])
    }

    /// Element access by multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::flat_index`].
    pub fn at(&self, idx: &[usize]) -> crate::Result<f32> {
        Ok(self.data[self.shape.flat_index(idx)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Propagates index errors from [`Shape::flat_index`].
    pub fn set(&mut self, idx: &[usize], value: f32) -> crate::Result<()> {
        let flat = self.shape.flat_index(idx)?;
        self.data[flat] = value;
        Ok(())
    }

    /// Returns a tensor with the same data reinterpreted under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> crate::Result<Tensor> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape,
        })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> crate::Result<Tensor> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                op: "zip",
                lhs: self.dims().to_vec(),
                rhs: other.dims().to_vec(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            data,
            shape: self.shape.clone(),
        })
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        for x in &mut self.data {
            *x = value;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements; 0.0 for empty tensors.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// `true` if any element is NaN or infinite. A branch-free OR-fold per
    /// [`SCREEN_CHUNK`] elements, so the scan is a vector compare; it leaves
    /// between chunks, not between elements.
    pub fn has_non_finite(&self) -> bool {
        self.data
            .chunks(SCREEN_CHUNK)
            .any(|c| c.iter().fold(false, |bad, x| bad | !x.is_finite()))
    }

    /// L2 norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Maximum absolute element; 0.0 for empty tensors.
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }
}

/// Elements a screening fold covers between two looks at its verdict.
const SCREEN_CHUNK: usize = 256;

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const MAX_SHOWN: usize = 8;
        for (i, x) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_slices_first_axis() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap();
        assert_eq!(t.row(0).unwrap(), &[1.0, 2.0]);
        assert_eq!(t.row(2).unwrap(), &[5.0, 6.0]);
        assert!(t.row(3).is_err());
        let img = Tensor::zeros(&[2, 3, 4, 4]);
        assert_eq!(img.row(1).unwrap().len(), 48);
        assert!(Tensor::scalar(1.0).row(0).is_err());
    }

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2], 2.5).sum(), 5.0);
        assert_eq!(Tensor::scalar(7.0).data(), &[7.0]);
        let e = Tensor::eye(3);
        assert_eq!(e.sum(), 3.0);
        assert_eq!(e.at(&[1, 1]).unwrap(), 1.0);
        assert_eq!(e.at(&[0, 1]).unwrap(), 0.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let r = t.reshape(&[2, 6]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[5]).is_err());
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.map(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0, 3.0]);
        let c = a.zip(&b, |x, y| x + y).unwrap();
        assert_eq!(c.data(), &[2.0, 0.0, 6.0]);
        let bad = Tensor::zeros(&[2]);
        assert!(a.zip(&bad, |x, _| x).is_err());
    }

    #[test]
    fn statistics() {
        let t = Tensor::from_slice(&[-1.0, 0.0, 3.0]);
        assert!((t.mean() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(t.abs_max(), 3.0);
        assert!((t.l2_norm() - 10.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(t.has_non_finite());
        t.data_mut()[0] = f32::INFINITY;
        assert!(t.has_non_finite());
    }

    #[test]
    fn chunked_non_finite_scan_agrees_with_the_early_exit_scan() {
        // The `any` scan this replaced, at every place a chunked fold could
        // lose an element: first, last and either side of each chunk edge.
        let serial = |t: &Tensor| t.data().iter().any(|x| !x.is_finite());
        let c = SCREEN_CHUNK;
        for n in [0, 1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1] {
            // Everything a finite screen must let through.
            let fill = [
                0.0,
                -0.0,
                1.5,
                f32::MAX,
                f32::MIN,
                f32::MIN_POSITIVE,
                -1e-40,
            ];
            let clean = Tensor::from_vec((0..n).map(|i| fill[i % fill.len()]).collect(), &[n]);
            let clean = clean.unwrap();
            assert!(!clean.has_non_finite() && !serial(&clean), "n={n}");
            let edges = [0, c - 1, c, c + 1, 2 * c - 1, 2 * c, n.saturating_sub(1)];
            for at in edges.into_iter().filter(|&at| at < n) {
                for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut t = clean.clone();
                    t.data_mut()[at] = bad;
                    assert!(t.has_non_finite() && serial(&t), "n={n} {bad} at {at}");
                }
            }
        }
    }

    #[test]
    fn clone_from_copies_into_the_buffer_it_has() {
        let source = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let mut kept = Tensor::zeros(&[3, 4]);
        let buffer = kept.data().as_ptr();
        kept.clone_from(&source);
        assert_eq!(kept, source);
        assert_eq!(kept.data().as_ptr(), buffer, "same length: no new buffer");
        // Another shape of the same volume, a smaller and a larger tensor.
        for dims in [&[4, 3][..], &[2], &[5, 5]] {
            let other = Tensor::full(dims, 2.5);
            kept.clone_from(&other);
            assert_eq!(kept, other);
            assert_eq!(kept.dims(), dims);
        }
    }

    #[test]
    fn set_and_at() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 0], 5.0).unwrap();
        assert_eq!(t.at(&[1, 0]).unwrap(), 5.0);
        assert!(t.set(&[2, 0], 1.0).is_err());
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[16]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(!Tensor::scalar(1.0).to_string().is_empty());
    }
}
