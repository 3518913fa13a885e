//! Property-based tests of the paper's core: the Gavg metric (Eq. 4) and
//! the Algorithm 1 policy.

use apt_core::{adjust_bitwidth, gavg_of, PolicyConfig};
use apt_quant::Bitwidth;
use apt_tensor::{rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gavg_is_nonnegative_and_finite(
        vals in prop::collection::vec(-10.0f32..10.0, 1..128),
        eps in 1e-6f32..1.0,
    ) {
        let g = gavg_of(&Tensor::from_slice(&vals), eps);
        prop_assert!(g.is_finite());
        prop_assert!(g >= 0.0);
    }

    #[test]
    fn gavg_scales_inversely_with_eps(seed in 0u64..1000, factor in 1.5f32..50.0) {
        let grad = rng::normal(&[64], 0.1, &mut rng::seeded(seed));
        let base = gavg_of(&grad, 0.01);
        let finer = gavg_of(&grad, 0.01 / factor);
        prop_assume!(base > 1e-9);
        prop_assert!(((finer / base - factor as f64).abs() / (factor as f64)) < 1e-4);
    }

    #[test]
    fn gavg_joint_scale_invariance(seed in 0u64..1000, c in 0.1f32..10.0) {
        // Gavg(c·g, c·ε) == Gavg(g, ε): Eq. 4 is a pure ratio.
        let grad = rng::normal(&[64], 0.1, &mut rng::seeded(seed));
        let scaled = grad.map(|x| x * c);
        let a = gavg_of(&grad, 0.01);
        let b = gavg_of(&scaled, 0.01 * c);
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
