use std::fmt;

/// A dynamically-ranked tensor shape (row-major / C order).
///
/// `Shape` owns its dimension list and provides the volume and rank every
/// kernel in this crate sizes its loops by.
///
/// ```
/// use apt_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.rank(), 3);
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
    fn volume_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
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
