//! # apt-metrics
//!
//! Lightweight experiment metrics for the APT reproduction: classification
//! accuracy, exponential moving averages (the smoothing Algorithm 2 applies
//! to Gavg), and an aligned-text/CSV table writer used by every
//! `fig*`/`table1` binary.
//!
//! ```
//! use apt_metrics::{accuracy, Ema, Table};
//! assert_eq!(accuracy(&[1, 2, 0], &[1, 2, 2]), 2.0 / 3.0);
//!
//! let mut ema = Ema::new(0.5);
//! ema.update(1.0);
//! ema.update(3.0);
//! assert_eq!(ema.value(), Some(2.0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod ema;
mod table;

pub use ema::Ema;
pub use table::Table;

/// Top-1 accuracy of `predictions` against `labels` (0.0 for empty input
/// or mismatched lengths — callers validate upstream).
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    if predictions.is_empty() || predictions.len() != labels.len() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1], &[0, 1]), 1.0);
        assert_eq!(accuracy(&[0, 1], &[1, 0]), 0.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0], &[0, 1]), 0.0);
        assert!((accuracy(&[1, 1, 1, 0], &[1, 1, 0, 0]) - 0.75).abs() < 1e-12);
    }
}
