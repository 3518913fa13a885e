//! Property-based tests of the paper's core: the Gavg metric (Eq. 4) and
//! the Algorithm 1 policy.

use apt_core::{adjust_bitwidth, PolicyConfig};
use apt_quant::{Bitwidth, QuantizedTensor};
use apt_tensor::{rng, Tensor};
use proptest::prelude::*;

/// Eq. 4 as the trainer computes it: `grad`'s Gavg on the per-tensor
/// `bits`-bit grid of `weights`, and that grid's `ε`.
fn gavg(weights: &Tensor, bits: u32, grad: &Tensor) -> (f64, f64) {
    let q = QuantizedTensor::from_tensor(weights, Bitwidth::new(bits).unwrap()).unwrap();
    (q.gavg(grad).unwrap(), f64::from(q.eps()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gavg_is_the_mean_gradient_over_eps(
        vals in prop::collection::vec(-10.0f32..10.0, 1..128),
        seed in 0u64..1000,
        bits in 2u32..=16,
    ) {
        let grad = Tensor::from_slice(&vals);
        let weights = rng::normal(&[vals.len()], 1.0, &mut rng::seeded(seed));
        let (g, eps) = gavg(&weights, bits, &grad);
        let want = vals.iter().map(|&v| f64::from(v).abs() / eps).sum::<f64>() / vals.len() as f64;
        prop_assert!(g.is_finite() && g >= 0.0);
        prop_assert!((g - want).abs() <= want * 1e-12, "{g} vs {want}");
    }

    #[test]
    fn a_bit_more_precision_roughly_doubles_gavg(seed in 0u64..1000, bits in 2u32..16) {
        // Same gradients, one more bit (ε about halved) ⇒ Gavg about
        // doubled: the lever Algorithm 1 pulls.
        let weights = rng::normal(&[64], 1.0, &mut rng::seeded(seed));
        let grad = rng::normal(&[64], 0.1, &mut rng::seeded(seed ^ 1));
        let (coarse, _) = gavg(&weights, bits, &grad);
        let (fine, _) = gavg(&weights, bits + 1, &grad);
        prop_assert!(fine > 1.9 * coarse && fine < 2.4 * coarse, "{coarse} -> {fine}");
    }

    #[test]
    fn gavg_joint_scale_invariance(seed in 0u64..1000, c in 0.1f32..10.0) {
        // Gavg(c·g, c·ε) == Gavg(g, ε): Eq. 4 is a pure ratio, and scaling
        // the weights by c scales their grid's ε by c.
        let weights = rng::normal(&[64], 1.0, &mut rng::seeded(seed));
        let grad = rng::normal(&[64], 0.1, &mut rng::seeded(seed ^ 1));
        let (a, _) = gavg(&weights, 6, &grad);
        let (b, _) = gavg(&weights.map(|x| x * c), 6, &grad.map(|x| x * c));
        prop_assume!(a > 1e-9);
        prop_assert!((a - b).abs() / a < 1e-3);
    }

    #[test]
    fn policy_output_always_in_bounds(gavg in 0.0f64..1e6, k in 2u32..=32) {
        let cfg = PolicyConfig::new(6.0, 100.0).unwrap();
        let out = adjust_bitwidth(gavg, Bitwidth::new(k).unwrap(), &cfg);
        prop_assert!((2..=32).contains(&out.get()));
    }

    #[test]
    fn policy_moves_at_most_one_bit(
        gavg in 0.0f64..1e6,
        k in 2u32..=32,
        t_min in 0.0f64..100.0,
        extra in 0.0f64..1000.0,
    ) {
        let cfg = PolicyConfig::new(t_min, t_min + extra).unwrap();
        let out = adjust_bitwidth(gavg, Bitwidth::new(k).unwrap(), &cfg);
        prop_assert!(out.get().abs_diff(k) <= 1);
    }

    #[test]
    fn policy_direction_matches_thresholds(
        gavg in 0.0f64..1e6,
        k in 3u32..=31,
        t_min in 0.1f64..100.0,
    ) {
        let cfg = PolicyConfig::new(t_min, t_min * 10.0).unwrap();
        let out = adjust_bitwidth(gavg, Bitwidth::new(k).unwrap(), &cfg);
        if gavg < cfg.t_min {
            prop_assert_eq!(out.get(), k + 1, "starving layers gain a bit");
        } else if gavg > cfg.t_max {
            prop_assert_eq!(out.get(), k - 1, "wasteful layers shed a bit");
        } else {
            prop_assert_eq!(out.get(), k, "satisfied layers hold");
        }
    }

    #[test]
    fn policy_is_idempotent_inside_band(k in 2u32..=32, t_min in 0.1f64..10.0) {
        // A Gavg inside [t_min, t_max] is a fixed point.
        let cfg = PolicyConfig::new(t_min, t_min * 4.0).unwrap();
        let gavg = t_min * 2.0;
        let kb = Bitwidth::new(k).unwrap();
        let once = adjust_bitwidth(gavg, kb, &cfg);
        prop_assert_eq!(once, kb);
    }

    #[test]
    fn repeated_starvation_converges_to_max_bits(t_min in 0.5f64..50.0) {
        // If a layer's Gavg stays below T_min forever, Algorithm 1 walks it
        // to 32 bits and stops — no oscillation, no overflow.
        let cfg = PolicyConfig::new(t_min, f64::INFINITY).unwrap();
        let mut k = Bitwidth::MIN;
        for _ in 0..64 {
            k = adjust_bitwidth(0.0, k, &cfg);
        }
        prop_assert_eq!(k.get(), 32);
    }
}
