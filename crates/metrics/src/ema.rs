/// Exponential moving average: `v ← (1 − α)·v + α·x`.
///
/// Algorithm 2 of the paper applies a "moving average on Gavg" between the
/// in-epoch samples and the per-epoch policy decision; this is that
/// smoother. The first update seeds the average with the raw value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ema {
    value: Option<f64>,
    alpha: f64,
}

impl Ema {
    /// Creates an EMA with smoothing factor `alpha ∈ (0, 1]` (1.0 = no
    /// smoothing). Out-of-range values are clamped into `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Ema {
            value: None,
            alpha: alpha.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }

    /// Folds a new observation in and returns the updated average.
    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => (1.0 - self.alpha) * v + self.alpha * x,
        };
        self.value = Some(v);
        v
    }

    /// The current average, `None` before the first update.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_with_first_value() {
        let mut e = Ema::new(0.1);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(5.0), 5.0);
        assert_eq!(e.value(), Some(5.0));
    }

    #[test]
    fn smooths_subsequent_values() {
        let mut e = Ema::new(0.5);
        e.update(0.0);
        assert_eq!(e.update(4.0), 2.0);
        assert_eq!(e.update(2.0), 2.0);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut e = Ema::new(1.0);
        e.update(3.0);
        assert_eq!(e.update(7.0), 7.0);
    }

    #[test]
    fn clamps_bad_alpha() {
        assert_eq!(Ema::new(5.0).alpha, 1.0);
        assert!(Ema::new(-1.0).alpha > 0.0);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ema::new(0.2);
        for _ in 0..200 {
            e.update(1.5);
        }
        assert!((e.value().unwrap() - 1.5).abs() < 1e-9);
    }
}
