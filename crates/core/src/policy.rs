//! Algorithm 1 — the precision adjustment policy.
//!
//! Per layer and per epoch:
//!
//! ```text
//! if Gavg_i < T_min && k_i < 32 { k_i += 1 }   // starving: add precision
//! if Gavg_i > T_max && k_i > 2  { k_i -= 1 }   // wasteful: shed precision
//! ```
//!
//! `(T_min, T_max)` is the paper's *application-specific hyper-parameter*:
//! raising `T_min` buys accuracy with energy/memory, lowering it buys
//! savings with accuracy (Figure 5). The paper's headline experiments use
//! `(6.0, ∞)`; the Figure 1 demo uses `(1.0, ∞)`.

use crate::CoreError;
use apt_nn::{Network, ParamStore};
use apt_quant::Bitwidth;

/// The `(T_min, T_max)` thresholds of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Below this Gavg a layer gains one bit per epoch.
    pub t_min: f64,
    /// Above this Gavg a layer sheds one bit per epoch (`f64::INFINITY`
    /// disables reductions, as in the paper's headline setting).
    pub t_max: f64,
}

impl PolicyConfig {
    /// Creates a policy configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] unless `0 ≤ t_min ≤ t_max` and
    /// `t_min` is finite.
    pub fn new(t_min: f64, t_max: f64) -> crate::Result<Self> {
        if !(t_min.is_finite() && t_min >= 0.0 && t_max >= t_min) {
            return Err(CoreError::BadConfig {
                reason: format!("invalid thresholds (t_min={t_min}, t_max={t_max})"),
            });
        }
        Ok(PolicyConfig { t_min, t_max })
    }

    /// The paper's headline setting, `(6.0, ∞)` (§IV).
    pub fn paper_default() -> Self {
        PolicyConfig {
            t_min: 6.0,
            t_max: f64::INFINITY,
        }
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig::paper_default()
    }
}

/// One layer's precision transition decided by the policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionChange {
    /// Weight-parameter (layer) name.
    pub layer: String,
    /// Precision before the adjustment.
    pub from: Bitwidth,
    /// Precision after the adjustment.
    pub to: Bitwidth,
    /// The smoothed Gavg that triggered the change.
    pub gavg: f64,
}

/// The pure per-layer decision of Algorithm 1: one step up, one step down,
/// or unchanged, clamped to `[2, 32]`.
pub fn adjust_bitwidth(gavg: f64, k: Bitwidth, cfg: &PolicyConfig) -> Bitwidth {
    if gavg < cfg.t_min && !k.is_max() {
        k.increment()
    } else if gavg > cfg.t_max && !k.is_min() {
        k.decrement()
    } else {
        k
    }
}

/// Applies Algorithm 1 to every quantised tensor of `net` using the
/// smoothed `profile` (from [`crate::GavgProfiler::profile`]). Tensors
/// missing from the profile are left untouched. Returns the changes made.
///
/// Under the paper's default scheme only weights are quantised, so only
/// weights adapt; under a fully-quantised scheme the policy also drives
/// bias and batch-norm precision (§III-B).
///
/// # Errors
///
/// Propagates re-quantisation errors from the parameter stores.
pub fn apply_policy(
    net: &mut Network,
    profile: &[(String, f64)],
    cfg: &PolicyConfig,
) -> crate::Result<Vec<PrecisionChange>> {
    let lookup: std::collections::HashMap<&str, f64> =
        profile.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let mut changes = Vec::new();
    let mut first_err: Option<CoreError> = None;
    net.visit_params(&mut |p| {
        if first_err.is_some() {
            return;
        }
        // Policy only drives integer-codes storage; master-copy baselines
        // keep their configured view precision.
        if !matches!(p.store(), ParamStore::Quantized(_)) {
            return;
        }
        let Some(&gavg) = lookup.get(p.name()) else {
            return;
        };
        let from = p.bits().expect("quantized param has bits");
        let to = adjust_bitwidth(gavg, from, cfg);
        if to != from {
            if let Err(e) = p.set_bits(to) {
                first_err = Some(e.into());
                return;
            }
            changes.push(PrecisionChange {
                layer: p.name().to_string(),
                from,
                to,
                gavg,
            });
        }
    });
    match first_err {
        Some(e) => Err(e),
        None => Ok(changes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::{models, Mode, ParamKind, QuantScheme};
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::Tensor;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    #[test]
    fn starving_layer_gains_a_bit() {
        let cfg = PolicyConfig::new(6.0, f64::INFINITY).unwrap();
        assert_eq!(adjust_bitwidth(0.5, b(6), &cfg), b(7));
        assert_eq!(adjust_bitwidth(5.99, b(6), &cfg), b(7));
    }

    #[test]
    fn satisfied_layer_is_unchanged() {
        let cfg = PolicyConfig::new(6.0, f64::INFINITY).unwrap();
        assert_eq!(adjust_bitwidth(6.0, b(6), &cfg), b(6));
        assert_eq!(adjust_bitwidth(1e9, b(6), &cfg), b(6)); // t_max = ∞
    }

    #[test]
    fn wasteful_layer_sheds_a_bit_with_finite_tmax() {
        let cfg = PolicyConfig::new(1.0, 100.0).unwrap();
        assert_eq!(adjust_bitwidth(101.0, b(8), &cfg), b(7));
        assert_eq!(adjust_bitwidth(50.0, b(8), &cfg), b(8));
    }

    #[test]
    fn clamped_at_bounds() {
        let cfg = PolicyConfig::new(6.0, 10.0).unwrap();
        assert_eq!(adjust_bitwidth(0.0, Bitwidth::MAX, &cfg), Bitwidth::MAX);
        assert_eq!(adjust_bitwidth(1e9, Bitwidth::MIN, &cfg), Bitwidth::MIN);
    }

    #[test]
    fn moves_at_most_one_step() {
        let cfg = PolicyConfig::new(6.0, 100.0).unwrap();
        for g in [0.0, 0.1, 5.0, 6.0, 50.0, 1000.0] {
            for k in 2..=32u32 {
                let out = adjust_bitwidth(g, b(k), &cfg);
                assert!(out.get().abs_diff(k) <= 1, "gavg={g} k={k} out={out}");
            }
        }
    }

    #[test]
    fn config_validation_and_presets() {
        assert!(PolicyConfig::new(-1.0, 2.0).is_err());
        assert!(PolicyConfig::new(5.0, 2.0).is_err());
        assert!(PolicyConfig::new(f64::NAN, 2.0).is_err());
        assert!(PolicyConfig::new(0.0, f64::INFINITY).is_ok());
        assert_eq!(PolicyConfig::paper_default().t_min, 6.0);
        assert_eq!(PolicyConfig::default(), PolicyConfig::paper_default());
    }

    #[test]
    fn apply_policy_raises_starving_layers_network_wide() {
        let mut net =
            models::mlp("m", &[4, 8, 2], &QuantScheme::paper_apt(), &mut seeded(1)).unwrap();
        // Tiny gradients ⇒ Gavg ≈ 0 ⇒ both layers gain a bit.
        let x = normal(&[2, 4], 1.0, &mut seeded(2));
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::full(y.dims(), 1e-9)).unwrap();
        let mut prof = crate::GavgProfiler::new(1.0);
        prof.sample(&net);
        let changes =
            apply_policy(&mut net, &prof.profile(), &PolicyConfig::paper_default()).unwrap();
        assert_eq!(changes.len(), 2);
        for c in &changes {
            assert_eq!(c.to.get(), c.from.get() + 1);
        }
        net.visit_params_ref(&mut |p| {
            if p.kind() == ParamKind::Weight {
                assert_eq!(p.bits().unwrap().get(), 7);
            }
        });
    }

    #[test]
    fn fully_quantized_scheme_adapts_biases_too() {
        // §III-B: Gavg applies to any learnable parameter; under a
        // fully-quantised scheme the policy drives bias precision as well.
        let scheme = QuantScheme::fully_quantized(b(6));
        let mut net = models::mlp("m", &[4, 8, 2], &scheme, &mut seeded(8)).unwrap();
        // Give the biases a real range first (a zero-init bias tensor has
        // degenerate ε), then apply tiny gradients so everything starves.
        net.visit_params(&mut |p| {
            if p.kind() == ParamKind::Bias {
                let g = normal(p.dims(), 1.0, &mut seeded(9));
                p.apply_update(&g, 1.0, apt_quant::RoundingMode::Nearest, &mut seeded(0))
                    .unwrap();
            }
        });
        let x = normal(&[2, 4], 1.0, &mut seeded(10));
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::full(y.dims(), 1e-9)).unwrap();
        let mut prof = crate::GavgProfiler::new(1.0);
        assert_eq!(prof.sample(&net), 4, "2 weights + 2 biases profiled");
        let changes =
            apply_policy(&mut net, &prof.profile(), &PolicyConfig::paper_default()).unwrap();
        assert!(
            changes.iter().any(|c| c.layer.ends_with(".bias")),
            "a bias should adapt: {changes:?}"
        );
    }

    #[test]
    fn apply_policy_skips_unprofiled_and_fp32() {
        let mut net =
            models::mlp("m", &[4, 8, 2], &QuantScheme::float32(), &mut seeded(3)).unwrap();
        let changes = apply_policy(
            &mut net,
            &[("fc0.weight".into(), 0.0)],
            &PolicyConfig::default(),
        )
        .unwrap();
        assert!(changes.is_empty());
        // Quantised net, but empty profile ⇒ no changes.
        let mut qnet =
            models::mlp("m", &[4, 8, 2], &QuantScheme::paper_apt(), &mut seeded(4)).unwrap();
        let changes = apply_policy(&mut qnet, &[], &PolicyConfig::default()).unwrap();
        assert!(changes.is_empty());
    }
}
