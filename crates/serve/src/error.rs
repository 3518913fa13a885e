use std::error::Error;
use std::fmt;

/// Error type for the serving runtime.
///
/// The first three variants form the **backpressure ladder** a client can
/// act on: `Overloaded` (queue full — retry with backoff), `ShuttingDown`
/// (drain in progress — resubmit elsewhere), `BadRequest` (client bug —
/// don't retry). The rest are transport and internal failures.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue is full; the request was shed, not queued.
    Overloaded {
        /// Configured queue capacity that was exhausted.
        queue_depth: usize,
    },
    /// The runtime is draining; no new requests are accepted.
    ShuttingDown,
    /// The request's deadline expired before inference ran; the work was
    /// shed from the queue, never executed.
    DeadlineExceeded {
        /// How long the request sat in the queue before expiring, in µs.
        waited_us: u64,
    },
    /// The request itself is malformed (wrong sample length, bad op).
    BadRequest {
        /// Explanation of the violated expectation.
        reason: String,
    },
    /// The named model is not resident: never published, evicted under the
    /// resident-bytes budget, or rejected at ingestion. Retrying the same
    /// instance without re-publishing the model will fail the same way.
    ModelUnavailable {
        /// The model id the request named.
        model: String,
        /// Why it cannot serve (unknown, evicted, rejected).
        reason: String,
    },
    /// The server answered with a status byte this client build does not
    /// know — a newer server speaking a newer ladder. The request's fate is
    /// known (the server answered), so this is **not** retried.
    UnrecognizedStatus {
        /// The unknown status byte from the wire.
        status: u8,
        /// The response body (servers put the rendered error there).
        reason: String,
    },
    /// A wire-protocol violation (bad magic, oversized frame, truncation).
    Protocol {
        /// Explanation of the framing failure.
        reason: String,
    },
    /// An I/O failure on the socket or checkpoint file.
    Io(std::io::Error),
    /// A model-level failure (shape mismatch, corrupt checkpoint).
    Nn(apt_nn::NnError),
    /// An invariant violation inside the runtime itself.
    Internal {
        /// Explanation of the broken invariant.
        reason: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "overloaded: admission queue (depth {queue_depth}) is full"
                )
            }
            ServeError::ShuttingDown => write!(f, "shutting down: request not accepted"),
            ServeError::DeadlineExceeded { waited_us } => {
                write!(
                    f,
                    "deadline exceeded: request expired after {waited_us}µs queued, \
                     shed before inference"
                )
            }
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::ModelUnavailable { model, reason } => {
                write!(f, "model `{model}` unavailable: {reason}")
            }
            ServeError::UnrecognizedStatus { status, reason } => {
                write!(f, "unrecognized response status {status}: {reason}")
            }
            ServeError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Nn(e) => write!(f, "model error: {e}"),
            ServeError::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<apt_nn::NnError> for ServeError {
    fn from(e: apt_nn::NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<apt_tensor::TensorError> for ServeError {
    fn from(e: apt_tensor::TensorError) -> Self {
        ServeError::Nn(apt_nn::NnError::from(e))
    }
}

impl ServeError {
    /// Clones the error for fan-out to every request in a failed batch.
    ///
    /// `std::io::Error` is not `Clone`, so I/O errors degrade to an
    /// `Internal` carrying the rendered message — the per-request waiters
    /// only ever turn the error into a wire status and a string anyway.
    pub fn duplicate(&self) -> ServeError {
        match self {
            ServeError::Overloaded { queue_depth } => ServeError::Overloaded {
                queue_depth: *queue_depth,
            },
            ServeError::ShuttingDown => ServeError::ShuttingDown,
            ServeError::DeadlineExceeded { waited_us } => ServeError::DeadlineExceeded {
                waited_us: *waited_us,
            },
            ServeError::BadRequest { reason } => ServeError::BadRequest {
                reason: reason.clone(),
            },
            ServeError::ModelUnavailable { model, reason } => ServeError::ModelUnavailable {
                model: model.clone(),
                reason: reason.clone(),
            },
            ServeError::UnrecognizedStatus { status, reason } => ServeError::UnrecognizedStatus {
                status: *status,
                reason: reason.clone(),
            },
            ServeError::Protocol { reason } => ServeError::Protocol {
                reason: reason.clone(),
            },
            ServeError::Io(e) => ServeError::Internal {
                reason: format!("i/o: {e}"),
            },
            ServeError::Nn(e) => ServeError::Nn(e.clone()),
            ServeError::Internal { reason } => ServeError::Internal {
                reason: reason.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let errs = vec![
            ServeError::Overloaded { queue_depth: 4 },
            ServeError::ShuttingDown,
            ServeError::DeadlineExceeded { waited_us: 100 },
            ServeError::BadRequest { reason: "x".into() },
            ServeError::ModelUnavailable {
                model: "m".into(),
                reason: "evicted".into(),
            },
            ServeError::UnrecognizedStatus {
                status: 250,
                reason: "future ladder".into(),
            },
            ServeError::Protocol { reason: "y".into() },
            ServeError::Io(std::io::Error::other("z")),
            ServeError::Internal { reason: "w".into() },
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
            let _ = e.source();
            assert!(!format!("{:?}", e.duplicate()).is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
