use rand::rngs::StdRng;
use rand::Rng;

/// How a real-valued number of quantisation steps is committed to the
/// integer grid during a parameter update.
///
/// The paper's Eq. 3 uses magnitude truncation (`⌊|lr·g|/ε⌋` applied with
/// the gradient's sign), which is what makes updates smaller than `ε`
/// vanish — the *quantisation underflow* APT monitors via Gavg. The other
/// modes exist for the ablation studies:
///
/// * [`RoundingMode::Nearest`] halves the underflow threshold to `ε/2`.
/// * [`RoundingMode::Stochastic`] (Gupta et al. \[3\], the paper's stated
///   inspiration) commits `ε` with probability proportional to the residual,
///   making updates unbiased in expectation — at the cost of gradient noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// Truncate toward zero — the paper's Eq. 3 semantics (default).
    #[default]
    Truncate,
    /// Round to nearest integer step (ties away from zero).
    Nearest,
    /// Stochastic rounding: `floor(x)` with probability `1 − frac(x)`, else
    /// `floor(x) + 1` (applied to the magnitude).
    Stochastic,
}

impl RoundingMode {
    /// Rounds a signed step count `x` (in units of ε) to an integer number
    /// of steps according to the mode.
    pub fn round_steps(self, x: f64, rng: &mut StdRng) -> i64 {
        match self {
            // A float-to-int cast truncates toward zero (and saturates,
            // NaN → 0) — `x.trunc() as i64` without the libm call.
            RoundingMode::Truncate => x as i64,
            RoundingMode::Nearest => x.round() as i64,
            RoundingMode::Stochastic => {
                let sign = if x < 0.0 { -1.0 } else { 1.0 };
                let mag = x.abs();
                let base = mag.floor();
                let frac = mag - base;
                let up = rng.gen::<f64>() < frac;
                (sign * (base + if up { 1.0 } else { 0.0 })) as i64
            }
        }
    }
}

impl RoundingMode {
    /// [`round_steps`](Self::round_steps) of the quotient `a / eps` — the
    /// step count of Eq. 3 with `a = lr·g` — for a finite `eps > 0`.
    ///
    /// Under [`RoundingMode::Truncate`] the underflow case is decided
    /// without dividing, and exactly: `|a| < eps` between two doubles means
    /// `|a| ≤ eps·(1 − 2⁻⁵³)`, so the real quotient is at most `1 − 2⁻⁵³`,
    /// which is itself a double; correct rounding is monotone, so the
    /// computed quotient cannot reach 1 and truncates to 0. On a layer that
    /// underflows — the state Gavg exists to detect — that is nearly every
    /// element, and the division was most of the update's cost. A NaN `a`
    /// fails the comparison and takes the division like any other value.
    #[inline]
    pub fn round_quotient(self, a: f64, eps: f64, rng: &mut StdRng) -> i64 {
        if self == RoundingMode::Truncate && a.abs() < eps {
            return 0;
        }
        self.round_steps(a / eps, rng)
    }
}

impl std::fmt::Display for RoundingMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RoundingMode::Truncate => "truncate",
            RoundingMode::Nearest => "nearest",
            RoundingMode::Stochastic => "stochastic",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_tensor::rng::seeded;

    #[test]
    fn truncate_kills_sub_step_updates() {
        let mut r = seeded(0);
        assert_eq!(RoundingMode::Truncate.round_steps(0.99, &mut r), 0);
        assert_eq!(RoundingMode::Truncate.round_steps(-0.99, &mut r), 0);
        assert_eq!(RoundingMode::Truncate.round_steps(1.7, &mut r), 1);
        assert_eq!(RoundingMode::Truncate.round_steps(-2.3, &mut r), -2);
    }

    #[test]
    fn nearest_halves_threshold() {
        let mut r = seeded(0);
        assert_eq!(RoundingMode::Nearest.round_steps(0.4, &mut r), 0);
        assert_eq!(RoundingMode::Nearest.round_steps(0.6, &mut r), 1);
        assert_eq!(RoundingMode::Nearest.round_steps(-0.6, &mut r), -1);
    }

    #[test]
    fn stochastic_is_unbiased_in_expectation() {
        let mut r = seeded(42);
        let x = 0.3f64;
        let n = 20_000;
        let sum: i64 = (0..n)
            .map(|_| RoundingMode::Stochastic.round_steps(x, &mut r))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - x).abs() < 0.02, "mean={mean}");
        // negative values too
        let sum: i64 = (0..n)
            .map(|_| RoundingMode::Stochastic.round_steps(-x, &mut r))
            .sum();
        let mean = sum as f64 / n as f64;
        assert!((mean + x).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn stochastic_exact_integers_stay_exact() {
        let mut r = seeded(1);
        for _ in 0..100 {
            assert_eq!(RoundingMode::Stochastic.round_steps(3.0, &mut r), 3);
            assert_eq!(RoundingMode::Stochastic.round_steps(-2.0, &mut r), -2);
        }
    }

    /// `round_quotient` against the division it skips.
    fn assert_same_as_dividing(a: f64, eps: f64) {
        for mode in [RoundingMode::Truncate, RoundingMode::Nearest] {
            let mut r = seeded(0);
            assert_eq!(
                mode.round_quotient(a, eps, &mut r),
                mode.round_steps(a / eps, &mut r),
                "{mode} a={a:e} eps={eps:e}"
            );
        }
        if a.abs() < eps {
            assert_eq!((a / eps).trunc(), 0.0, "a={a:e} eps={eps:e}");
        }
    }

    #[test]
    fn underflow_test_is_exact_on_adversarial_pairs() {
        let min_scale = f64::from(crate::quantizer::MIN_SCALE);
        let scales = [
            min_scale,
            f64::from(f32::MIN_POSITIVE),
            f64::MIN_POSITIVE,
            5e-324, // the smallest subnormal
            1.0,
            1.0f64.next_up(),
            1.0f64.next_down(),
            f64::from(2.0f32 / 63.0),
            f64::from(f32::MAX),
        ];
        for eps in scales {
            let just_under = eps.next_down();
            let numerators = [
                0.0,
                just_under,
                just_under.next_down(),
                eps,
                eps.next_up(),
                eps * 0.5,
                eps * 2.0,
                5e-324,
                f64::MIN_POSITIVE,
                f64::MIN_POSITIVE.next_down(), // largest subnormal
                f64::from(f32::MIN_POSITIVE) * 0.5,
                f64::MAX,
                f64::INFINITY,
            ];
            for a in numerators {
                assert_same_as_dividing(a, eps);
                assert_same_as_dividing(-a, eps);
            }
            // The closest call there is: the largest double below ε.
            assert!(just_under / eps < 1.0, "eps={eps:e}");
        }
        // NaN fails the comparison and takes the division, as before.
        let mut r = seeded(0);
        assert_eq!(
            RoundingMode::Truncate.round_quotient(f64::NAN, 1.0, &mut r),
            0
        );
    }

    #[test]
    fn underflow_test_is_exact_on_a_seeded_sweep() {
        // Eq. 3's operands: a = lr·g widened from f32 factors, ε an f32
        // scale, drawn across many binades with a bias toward |a| ≈ ε.
        let mut r = seeded(77);
        for _ in 0..200_000 {
            let eps = f64::from(f32::from_bits(r.gen_range(0x0080_0000u32..0x7F00_0000)));
            let a = match r.gen_range(0..4) {
                0 => eps * f64::from(r.gen_range(0.999_999f32..1.000_001)),
                1 => f64::from_bits(eps.to_bits() - r.gen_range(0..4u64)),
                _ => {
                    let lr = f64::from(f32::from_bits(r.gen_range(0x3000_0000u32..0x4000_0000)));
                    lr * f64::from(f32::from_bits(r.gen::<u32>() & 0x7FFF_FFFF)).min(1e30)
                }
            };
            let a = if r.gen::<bool>() { a } else { -a };
            if a.is_finite() {
                assert_same_as_dividing(a, eps);
            }
        }
    }

    #[test]
    fn stochastic_quotient_draws_once_per_call() {
        // The shortcut is truncation's alone: the other modes consume the
        // rounding stream exactly as `round_steps` does, sub-ε or not.
        let (mut a, mut b) = (seeded(9), seeded(9));
        for x in [0.25, -0.5, 3.75, 0.0] {
            assert_eq!(
                RoundingMode::Stochastic.round_quotient(x * 0.5, 0.5, &mut a),
                RoundingMode::Stochastic.round_steps(x, &mut b)
            );
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn display_names() {
        assert_eq!(RoundingMode::Truncate.to_string(), "truncate");
        assert_eq!(RoundingMode::Nearest.to_string(), "nearest");
        assert_eq!(RoundingMode::Stochastic.to_string(), "stochastic");
        assert_eq!(RoundingMode::default(), RoundingMode::Truncate);
    }
}
