use crate::TensorError;
use std::fmt;

/// A dynamically-ranked tensor shape (row-major / C order).
///
/// `Shape` owns its dimension list and provides the index arithmetic used by
/// every kernel in this crate: volume computation, row-major strides, and
/// flat-index conversion.
///
/// ```
/// use apt_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.flat_index(&[1, 2, 3]).unwrap(), 23);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a slice of dimensions.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Returns the scalar shape (rank 0, volume 1).
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of dimensions; 1 for scalars).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of axis `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides for this shape.
    fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if `idx.len() != rank()` and
    /// [`TensorError::IndexOutOfBounds`] if any coordinate exceeds its axis.
    pub fn flat_index(&self, idx: &[usize]) -> crate::Result<usize> {
        if idx.len() != self.dims.len() {
            return Err(TensorError::RankMismatch {
                op: "flat_index",
                expected: self.dims.len(),
                actual: idx.len(),
            });
        }
        let mut flat = 0usize;
        let strides = self.strides();
        for (axis, (&i, &d)) in idx.iter().zip(self.dims.iter()).enumerate() {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds { index: i, bound: d });
            }
            flat += i * strides[axis];
        }
        Ok(flat)
    }

    /// Inverse of [`flat_index`](Self::flat_index): converts a flat offset
    /// into per-axis coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `flat >= volume()`.
    pub fn multi_index(&self, flat: usize) -> crate::Result<Vec<usize>> {
        if flat >= self.volume() {
            return Err(TensorError::IndexOutOfBounds {
                index: flat,
                bound: self.volume(),
            });
        }
        let mut rem = flat;
        let mut out = vec![0usize; self.dims.len()];
        for (axis, &stride) in self.strides().iter().enumerate() {
            out[axis] = rem / stride;
            rem %= stride;
        }
        Ok(out)
    }

    /// `true` if the two shapes are element-wise compatible (identical dims).
    pub fn same_as(&self, other: &Shape) -> bool {
        self.dims == other.dims
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
        assert!(s.strides().is_empty());
    }

    #[test]
    fn flat_and_multi_index_roundtrip() {
        let s = Shape::new(&[3, 5, 7]);
        for flat in 0..s.volume() {
            let multi = s.multi_index(flat).unwrap();
            assert_eq!(s.flat_index(&multi).unwrap(), flat);
        }
    }

    #[test]
    fn flat_index_bounds() {
        let s = Shape::new(&[2, 2]);
        assert!(s.flat_index(&[2, 0]).is_err());
        assert!(s.flat_index(&[0]).is_err());
        assert!(s.multi_index(4).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    #[test]
    fn zero_dim_volume_is_zero() {
        let s = Shape::new(&[2, 0, 3]);
        assert_eq!(s.volume(), 0);
    }
}
