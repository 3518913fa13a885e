use std::error::Error;
use std::fmt;

/// Error type for dataset construction and batching.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A configuration field was out of its documented domain.
    BadConfig {
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// Images and labels disagree in count, or an index is out of range.
    Inconsistent {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// An underlying tensor kernel failed.
    Tensor(apt_tensor::TensorError),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::BadConfig { reason } => write!(f, "bad dataset config: {reason}"),
            DataError::Inconsistent { reason } => write!(f, "inconsistent dataset: {reason}"),
            DataError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<apt_tensor::TensorError> for DataError {
    fn from(e: apt_tensor::TensorError) -> Self {
        DataError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_source() {
        assert!(!DataError::BadConfig { reason: "x".into() }
            .to_string()
            .is_empty());
        assert!(!DataError::Inconsistent { reason: "y".into() }
            .to_string()
            .is_empty());
        let e = DataError::from(apt_tensor::TensorError::IndexOutOfBounds { index: 1, bound: 0 });
        assert!(e.source().is_some());
    }
}
