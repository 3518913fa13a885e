use std::error::Error;
use std::fmt;

/// Error type for neural-network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// `backward` was called without a preceding `forward` (no cached
    /// activations).
    BackwardBeforeForward {
        /// Name of the offending layer.
        layer: String,
    },
    /// A layer received an input whose shape it cannot process.
    BadInput {
        /// Name of the offending layer.
        layer: String,
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// A model constructor was given inconsistent hyper-parameters.
    BadConfig {
        /// Explanation of the violated constraint.
        reason: String,
    },
    /// A serialised blob carries a format version this build cannot read.
    UnsupportedVersion {
        /// The version field found in the blob.
        version: u16,
    },
    /// A serialised blob failed an integrity check: truncated, bit-flipped
    /// (CRC mismatch), or structurally impossible length fields.
    Corrupt {
        /// Explanation of the failed check.
        reason: String,
    },
    /// A layer (or layer configuration) cannot be lowered into a frozen
    /// inference plan: the plan builder's geometry or grid refusals, and a
    /// layer whose [`lower`](crate::Layer::lower) declines. Serving
    /// refuses such a model at load.
    Unfreezable {
        /// Name of the layer that refused to lower.
        layer: String,
        /// Explanation of what the freeze compiler cannot express.
        reason: String,
    },
    /// An underlying tensor kernel failed.
    Tensor(apt_tensor::TensorError),
    /// An underlying quantisation operation failed.
    Quant(apt_quant::QuantError),
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::BackwardBeforeForward { layer } => {
                write!(f, "layer `{layer}`: backward called before forward")
            }
            NnError::BadInput { layer, reason } => {
                write!(f, "layer `{layer}`: bad input: {reason}")
            }
            NnError::BadConfig { reason } => write!(f, "bad model config: {reason}"),
            NnError::UnsupportedVersion { version } => {
                write!(f, "unsupported checkpoint version {version}")
            }
            NnError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            NnError::Unfreezable { layer, reason } => {
                write!(f, "layer `{layer}` cannot be frozen: {reason}")
            }
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::Quant(e) => write!(f, "quantisation error: {e}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Quant(e) => Some(e),
            _ => None,
        }
    }
}

impl From<apt_tensor::TensorError> for NnError {
    fn from(e: apt_tensor::TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<apt_quant::QuantError> for NnError {
    fn from(e: apt_quant::QuantError) -> Self {
        NnError::Quant(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = NnError::BackwardBeforeForward {
            layer: "conv1".into(),
        };
        assert!(e.to_string().contains("conv1"));
        assert!(e.source().is_none());
        let e = NnError::from(apt_quant::QuantError::InvalidBitwidth { bits: 1 });
        assert!(e.source().is_some());
        let e = NnError::from(apt_tensor::TensorError::IndexOutOfBounds { index: 0, bound: 0 });
        assert!(e.source().is_some());
        assert!(!NnError::BadConfig { reason: "x".into() }
            .to_string()
            .is_empty());
        let e = NnError::Unfreezable {
            layer: "gap".into(),
            reason: "unsupported".into(),
        };
        assert!(e.to_string().contains("gap") && e.to_string().contains("frozen"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NnError>();
    }
}
