use crate::OptimError;
use apt_nn::{Network, Param};
use apt_quant::RoundingMode;
use apt_tensor::rng as trng;
use rand::rngs::StdRng;

/// SGD hyper-parameters (paper §IV: momentum 0.9, weight decay 1e-4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Momentum coefficient µ (0 disables the velocity buffer).
    pub momentum: f32,
    /// L2 weight decay λ, applied to [`apt_nn::ParamKind::Weight`] tensors only
    /// (the usual convention — BN affine and biases are not decayed).
    pub weight_decay: f32,
    /// Rounding mode for quantised parameter updates (paper: truncation,
    /// Eq. 3).
    pub rounding: RoundingMode,
    /// Per-tensor gradient-norm clipping threshold (`None` disables).
    /// Clipping rescales a gradient whose L2 norm exceeds the threshold —
    /// the usual guard against the loss spikes small-batch edge training
    /// is prone to. Applied *before* weight decay and momentum.
    pub clip_grad_norm: Option<f32>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            momentum: 0.9,
            weight_decay: 1e-4,
            rounding: RoundingMode::Truncate,
            clip_grad_norm: None,
        }
    }
}

/// Aggregate statistics of one optimisation step across all parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepStats {
    /// Quantised elements whose update underflowed (Eq. 3 quantised to 0).
    pub underflowed: usize,
    /// Quantised elements that triggered range expansion.
    pub expanded: usize,
    /// Quantised elements left on a grid rail after the step (integer
    /// saturation; see [`apt_quant::UpdateStats::saturated`]).
    pub saturated: usize,
    /// Total quantised elements updated.
    pub quantized_total: usize,
    /// Parameters (tensors) visited.
    pub params: usize,
}

/// Stochastic gradient descent with momentum and weight decay, aware of
/// quantised parameter stores.
///
/// The velocity buffer `v ← µ·v + (g + λ·w)` is kept in fp32 on every
/// store kind — it is optimiser state, not model state, and the paper's
/// memory figure (Fig. 5) counts the *model* representation. Once momentum
/// allocates velocity, those `4·N` bytes show up in
/// [`Param::resident_bytes`] / `Network::resident_bytes`.
///
/// A parameter's step ([`Param::sgd_step`]) is two passes over its
/// elements, and in steady state neither allocates. **Pass A** builds the
/// velocity in place: per element, the clipped gradient plus `λ` times the
/// weight dequantised straight from the code tier — no copy of the
/// gradient, no fp32 view of the weights, no copy of the velocity. After
/// the finiteness check, **pass B** is Eq. 3 on the tier itself
/// ([`apt_quant::CodeStore::rewrite_blocks`]): `q ← q − round(lr·v/ε)`, with
/// the rail count folded into the same sweep, so velocity cannot smuggle
/// sub-ε changes into the weights and no i64 shadow of the codes exists.
///
/// Under the paper's truncation, pass B decides underflow without
/// dividing ([`RoundingMode::round_quotient`]): for doubles `|lr·v| < ε`
/// implies the correctly rounded quotient is at most `1 − 2⁻⁵³`, which
/// truncates to zero — exactly what the division would have produced, and
/// on an under-resolved layer (the condition Gavg watches for) it is nine
/// elements in ten. That test runs over a block of 64 elements at a time
/// without a branch and leaves a mask of the elements that may move; only
/// those enter the per-element body, so the sweep's unpredictable branch
/// per element is gone. Stochastic rounding still draws once per element,
/// in element order.
#[derive(Debug)]
pub struct Sgd {
    cfg: SgdConfig,
    seed: u64,
    steps: u64,
    /// Transient rounding-stream salt, XORed into the seed (see
    /// [`Sgd::reroll_rounding`]). Deliberately **not** part of [`SgdState`]:
    /// it exists only as a recovery measure within a live process, and a
    /// resumed run restarts it at 0 so checkpoint payloads stay stable.
    salt: u64,
}

/// Serialisable SGD progress. Velocity buffers live on the network's
/// parameters (checkpointed alongside them); the only state owned by the
/// optimiser itself is the step counter, from which the per-step stochastic
/// rounding stream is re-derived — so restoring the counter restores the
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SgdState {
    /// Number of completed optimisation steps.
    pub steps: u64,
}

impl Sgd {
    /// Creates an SGD optimiser; `seed` drives stochastic rounding (unused
    /// by the default truncation mode, but kept so runs are reproducible
    /// under every [`RoundingMode`]).
    pub fn new(cfg: SgdConfig, seed: u64) -> Self {
        Sgd {
            cfg,
            seed,
            steps: 0,
            salt: 0,
        }
    }

    /// Re-randomises the stochastic-rounding stream by folding `salt` into
    /// the seed for every subsequent step.
    ///
    /// This is the middle rung of the trainer's self-healing ladder: when a
    /// step keeps tripping the integrity guard, drawing a fresh rounding
    /// stream breaks any unlucky interaction between the corruption pattern
    /// and the quantised update before the heavier full-rollback rung. The
    /// salt is transient — it is not serialised into [`SgdState`], and a
    /// checkpoint-resumed run starts back at salt 0.
    pub fn reroll_rounding(&mut self, salt: u64) {
        self.salt = salt;
    }

    /// The serialisable progress state.
    pub fn state(&self) -> SgdState {
        SgdState { steps: self.steps }
    }

    /// Restores progress previously captured by [`state`](Sgd::state).
    pub fn restore(&mut self, state: SgdState) {
        self.steps = state.steps;
    }

    /// The rounding stream for one step: a pure function of (seed, step),
    /// so a resumed run draws the exact bits the interrupted run would
    /// have.
    fn step_rng(seed: u64, step: u64) -> StdRng {
        trng::substream(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15), 0x56D)
    }

    /// Applies one step to every parameter of `net` at learning rate `lr`,
    /// consuming the accumulated gradients (which are left untouched — call
    /// [`Network::zero_grads`] before the next accumulation).
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::BadConfig`] for a non-finite/negative `lr` and
    /// propagates parameter-store errors (e.g. NaN gradients).
    pub fn step(&mut self, net: &mut Network, lr: f32) -> crate::Result<StepStats> {
        if !lr.is_finite() || lr < 0.0 {
            return Err(OptimError::BadConfig {
                reason: format!("invalid lr {lr}"),
            });
        }
        let mut stats = StepStats::default();
        let mut first_err: Option<OptimError> = None;
        let cfg = self.cfg;
        let mut rng = Self::step_rng(self.seed ^ self.salt, self.steps);
        net.visit_params(&mut |p: &mut Param| {
            if first_err.is_some() {
                return;
            }
            if let Err(e) = Self::step_param(p, lr, &cfg, &mut rng, &mut stats) {
                first_err = Some(e);
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => {
                self.steps += 1;
                Ok(stats)
            }
        }
    }

    fn step_param(
        p: &mut Param,
        lr: f32,
        cfg: &SgdConfig,
        rng: &mut StdRng,
        stats: &mut StepStats,
    ) -> crate::Result<()> {
        stats.params += 1;
        if let Some(max_norm) = cfg.clip_grad_norm {
            if !(max_norm.is_finite() && max_norm > 0.0) {
                return Err(OptimError::BadConfig {
                    reason: format!("invalid clip_grad_norm {max_norm}"),
                });
            }
        }
        let update = p.sgd_step(
            lr,
            cfg.momentum,
            cfg.weight_decay,
            cfg.clip_grad_norm,
            cfg.rounding,
            rng,
        )?;
        if let Some(us) = update {
            stats.underflowed += us.underflowed;
            stats.expanded += us.expanded;
            stats.saturated += us.saturated;
            stats.quantized_total += us.total;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::{models, Mode, ParamKind, ParamPrecision, ParamStore, Projection, QuantScheme};
    use apt_quant::Bitwidth;
    use apt_tensor::ops::softmax::cross_entropy;
    use apt_tensor::rng::{normal, seeded};
    use apt_tensor::{ops, Tensor};

    /// The multi-pass step [`Param::sgd_step`] replaced, kept as the
    /// reference the fused one must match bit for bit: clone the gradient,
    /// clip it, `axpy` a materialised fp32 view of the weights into it,
    /// scale and add into the velocity, clone that, update.
    fn step_param_reference(
        p: &mut Param,
        lr: f32,
        cfg: &SgdConfig,
        rng: &mut StdRng,
        stats: &mut StepStats,
    ) -> crate::Result<()> {
        stats.params += 1;
        let mut g = p.grad().clone();
        if let Some(max_norm) = cfg.clip_grad_norm {
            let norm = g.l2_norm();
            if norm > max_norm {
                ops::scale_in_place(&mut g, max_norm / norm);
            }
        }
        if cfg.weight_decay != 0.0 && p.kind() == ParamKind::Weight {
            let w = p.value();
            ops::axpy(cfg.weight_decay, &w, &mut g).map_err(apt_nn::NnError::from)?;
        }
        let effective: Tensor = if cfg.momentum != 0.0 {
            let v = p.velocity_mut();
            ops::scale_in_place(v, cfg.momentum);
            ops::add_in_place(v, &g).map_err(apt_nn::NnError::from)?;
            v.clone()
        } else {
            g
        };
        if let Some(us) = p.apply_update(&effective, lr, cfg.rounding, rng)? {
            stats.underflowed += us.underflowed;
            stats.expanded += us.expanded;
            stats.saturated += us.saturated;
            stats.quantized_total += us.total;
        }
        Ok(())
    }

    fn bits_of(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// A 7 × 11 weight (odd length, so every tier ends mid-word) under
    /// `precision`.
    fn weight(precision: ParamPrecision) -> Param {
        let init = normal(&[7, 11], 0.5, &mut seeded(21));
        Param::new("w", ParamKind::Weight, init, precision).unwrap()
    }

    /// Gradients spanning every branch of Eq. 3 at the parameter's ε:
    /// exact zeros, sub-ε values of both signs, values of a few ε, and a
    /// handful large enough to leave the grid (range expansion).
    fn mixed_grad(p: &Param, seed: u64) -> Tensor {
        let eps = match p.store() {
            ParamStore::Quantized(q) => q.eps(),
            _ => 0.02,
        };
        let mut g = normal(p.dims(), eps * 12.0, &mut seeded(seed));
        for (i, x) in g.data_mut().iter_mut().enumerate() {
            match i % 7 {
                0 => *x = 0.0,
                1 | 2 => *x *= 0.01,
                3 => *x *= 40.0,
                _ => {}
            }
        }
        g
    }

    #[test]
    fn fused_step_matches_the_multi_pass_reference_bit_for_bit() {
        let b = |k| Bitwidth::new(k).unwrap();
        let precisions = [
            ParamPrecision::Float32,
            ParamPrecision::Quantized(b(6)),
            ParamPrecision::Quantized(b(12)),
            ParamPrecision::Quantized(b(20)),
            ParamPrecision::MasterCopy(b(8)),
            ParamPrecision::Projected(Projection::Ternary),
            ParamPrecision::PerChannel(b(6)),
        ];
        let modes = [
            RoundingMode::Truncate,
            RoundingMode::Nearest,
            RoundingMode::Stochastic,
        ];
        let (mut spilled, mut underflowed, mut clipped) = (0, 0, 0);
        for precision in precisions {
            for rounding in modes {
                for momentum in [0.0, 0.9] {
                    for weight_decay in [0.0, 1e-4] {
                        for clip_grad_norm in [None, Some(0.05)] {
                            let cfg = SgdConfig {
                                momentum,
                                weight_decay,
                                rounding,
                                clip_grad_norm,
                            };
                            let what = format!("{precision:?} {cfg:?}");
                            let (mut fused, mut reference) = (weight(precision), weight(precision));
                            let (mut rf, mut rr) = (seeded(5), seeded(5));
                            // Several steps, so the velocity both sides
                            // build on is itself a product of the step.
                            for step in 0..4 {
                                let g = mixed_grad(&reference, 30 + step);
                                clipped += usize::from(g.l2_norm() > 0.05);
                                for p in [&mut fused, &mut reference] {
                                    p.zero_grad();
                                    p.accumulate_grad(&g).unwrap();
                                }
                                let (mut sf, mut sr) = (StepStats::default(), StepStats::default());
                                Sgd::step_param(&mut fused, 0.5, &cfg, &mut rf, &mut sf).unwrap();
                                step_param_reference(&mut reference, 0.5, &cfg, &mut rr, &mut sr)
                                    .unwrap();
                                assert_eq!(sf, sr, "stats, step {step}: {what}");
                                assert_eq!(
                                    fused.integrity_digest(),
                                    reference.integrity_digest(),
                                    "store or velocity, step {step}: {what}"
                                );
                                assert_eq!(bits_of(&fused.value()), bits_of(&reference.value()));
                                assert_eq!(fused.bits(), reference.bits());
                                assert_eq!(
                                    fused.velocity().map(bits_of),
                                    reference.velocity().map(bits_of),
                                    "velocity, step {step}: {what}"
                                );
                                assert_eq!(
                                    bits_of(fused.grad()),
                                    bits_of(&g),
                                    "gradient untouched"
                                );
                                spilled += sf.expanded;
                                underflowed += sf.underflowed;
                            }
                            // The two rounding streams were drawn in step.
                            use rand::Rng;
                            assert_eq!(rf.gen::<u64>(), rr.gen::<u64>(), "rng position: {what}");
                        }
                    }
                }
            }
        }
        // The sweep is only worth its name if it reached every branch.
        assert!(spilled > 0 && underflowed > 0 && clipped > 0);
    }

    #[test]
    fn nan_gradient_is_a_typed_error_and_writes_no_code() {
        let b6 = Bitwidth::new(6).unwrap();
        for precision in [
            ParamPrecision::Quantized(b6),
            ParamPrecision::PerChannel(b6),
        ] {
            for momentum in [0.0, 0.9] {
                for weight_decay in [0.0, 1e-4] {
                    let cfg = SgdConfig {
                        momentum,
                        weight_decay,
                        ..SgdConfig::default()
                    };
                    let mut p = weight(precision);
                    let before = bits_of(&p.value());
                    let mut g = mixed_grad(&p, 3);
                    g.data_mut()[40] = f32::NAN;
                    p.accumulate_grad(&g).unwrap();
                    let err = Sgd::step_param(
                        &mut p,
                        0.5,
                        &cfg,
                        &mut seeded(1),
                        &mut StepStats::default(),
                    );
                    assert!(
                        matches!(
                            err,
                            Err(OptimError::Nn(apt_nn::NnError::Quant(
                                apt_quant::QuantError::NonFiniteOperand { .. }
                            )))
                        ),
                        "{err:?}"
                    );
                    assert_eq!(bits_of(&p.value()), before, "{precision:?} {cfg:?}");
                }
            }
        }
    }

    fn loss_of(net: &mut Network, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = net.forward(x, Mode::Eval).unwrap();
        cross_entropy(&logits, labels).unwrap().loss
    }

    #[test]
    fn sgd_reduces_loss_on_float_mlp() {
        let mut net =
            models::mlp("m", &[4, 16, 3], &QuantScheme::float32(), &mut seeded(0)).unwrap();
        let x = normal(&[8, 4], 1.0, &mut seeded(1));
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let mut sgd = Sgd::new(
            SgdConfig {
                momentum: 0.9,
                weight_decay: 0.0,
                rounding: RoundingMode::Truncate,
                clip_grad_norm: None,
            },
            0,
        );
        let before = loss_of(&mut net, &x, &labels);
        for _ in 0..50 {
            net.zero_grads();
            let logits = net.forward(&x, Mode::Train).unwrap();
            let ce = cross_entropy(&logits, &labels).unwrap();
            net.backward(&ce.grad_logits).unwrap();
            sgd.step(&mut net, 0.1).unwrap();
        }
        let after = loss_of(&mut net, &x, &labels);
        assert!(after < before * 0.5, "before={before} after={after}");
    }

    #[test]
    fn momentum_step_grows_resident_bytes_by_velocity_only() {
        // Eq. 3 runs in the packed domain: after the first momentum step
        // the only new resident memory is the fp32 velocity buffers (4·N
        // bytes per parameter) — the code stores themselves do not grow.
        let mut net =
            models::mlp("m", &[4, 16, 3], &QuantScheme::paper_apt(), &mut seeded(7)).unwrap();
        let before = net.resident_bytes();
        let x = normal(&[8, 4], 1.0, &mut seeded(8));
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let mut sgd = Sgd::new(
            SgdConfig {
                momentum: 0.9,
                ..SgdConfig::default()
            },
            0,
        );
        net.zero_grads();
        let logits = net.forward(&x, Mode::Train).unwrap();
        let ce = cross_entropy(&logits, &labels).unwrap();
        net.backward(&ce.grad_logits).unwrap();
        sgd.step(&mut net, 0.05).unwrap();
        let velocity_bytes = 4 * net.num_params() as u64;
        assert_eq!(
            net.resident_bytes(),
            before + velocity_bytes,
            "first momentum step must add exactly the velocity buffers"
        );
        // Further steps allocate nothing new.
        net.zero_grads();
        let logits = net.forward(&x, Mode::Train).unwrap();
        let ce = cross_entropy(&logits, &labels).unwrap();
        net.backward(&ce.grad_logits).unwrap();
        sgd.step(&mut net, 0.05).unwrap();
        assert_eq!(net.resident_bytes(), before + velocity_bytes);
    }

    #[test]
    fn sgd_trains_quantized_mlp_and_reports_underflow() {
        let mut net =
            models::mlp("m", &[4, 16, 3], &QuantScheme::paper_apt(), &mut seeded(2)).unwrap();
        let x = normal(&[8, 4], 1.0, &mut seeded(3));
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let mut sgd = Sgd::new(SgdConfig::default(), 0);
        let mut total_underflow = 0usize;
        let before = loss_of(&mut net, &x, &labels);
        for _ in 0..60 {
            net.zero_grads();
            let logits = net.forward(&x, Mode::Train).unwrap();
            let ce = cross_entropy(&logits, &labels).unwrap();
            net.backward(&ce.grad_logits).unwrap();
            let stats = sgd.step(&mut net, 0.1).unwrap();
            assert!(stats.quantized_total > 0);
            total_underflow += stats.underflowed;
        }
        let after = loss_of(&mut net, &x, &labels);
        assert!(after < before, "before={before} after={after}");
        assert!(
            total_underflow > 0,
            "6-bit weights should underflow sometimes"
        );
    }

    #[test]
    fn momentum_accelerates_on_quadratic() {
        // One fp32 weight, constant gradient: with momentum the effective
        // step grows ⇒ larger total displacement after k steps.
        let run = |momentum: f32| -> f32 {
            let mut net =
                models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(4)).unwrap();
            let mut sgd = Sgd::new(
                SgdConfig {
                    momentum,
                    weight_decay: 0.0,
                    rounding: RoundingMode::Truncate,
                    clip_grad_norm: None,
                },
                0,
            );
            let mut first = Tensor::default();
            net.visit_params_ref(&mut |p| {
                if p.kind() == ParamKind::Weight {
                    first = p.value();
                }
            });
            for _ in 0..10 {
                net.zero_grads();
                net.visit_params(&mut |p| {
                    let ones = Tensor::ones(p.dims());
                    p.accumulate_grad(&ones).unwrap();
                });
                sgd.step(&mut net, 0.01).unwrap();
            }
            let mut moved = 0.0;
            net.visit_params_ref(&mut |p| {
                if p.kind() == ParamKind::Weight {
                    moved += ops::sub(&p.value(), &first).unwrap().l2_norm();
                }
            });
            moved
        };
        assert!(run(0.9) > run(0.0) * 2.0);
    }

    #[test]
    fn weight_decay_shrinks_weights_not_biases() {
        let mut net = models::mlp("m", &[3, 3], &QuantScheme::float32(), &mut seeded(5)).unwrap();
        let mut sgd = Sgd::new(
            SgdConfig {
                momentum: 0.0,
                weight_decay: 0.1,
                rounding: RoundingMode::Truncate,
                clip_grad_norm: None,
            },
            0,
        );
        // give the bias a non-zero value first
        net.visit_params(&mut |p| {
            if p.kind() == ParamKind::Bias {
                let g = Tensor::full(p.dims(), -1.0);
                p.apply_update(&g, 1.0, RoundingMode::Truncate, &mut seeded(0))
                    .unwrap();
            }
        });
        let mut w_before = 0.0;
        let mut b_before = 0.0;
        net.visit_params_ref(&mut |p| match p.kind() {
            ParamKind::Weight => w_before += p.value().l2_norm(),
            ParamKind::Bias => b_before += p.value().l2_norm(),
            _ => {}
        });
        for _ in 0..20 {
            net.zero_grads();
            sgd.step(&mut net, 0.1).unwrap(); // zero gradients, decay only
        }
        let mut w_after = 0.0;
        let mut b_after = 0.0;
        net.visit_params_ref(&mut |p| match p.kind() {
            ParamKind::Weight => w_after += p.value().l2_norm(),
            ParamKind::Bias => b_after += p.value().l2_norm(),
            _ => {}
        });
        assert!(w_after < w_before * 0.9, "weights should decay");
        assert!((b_after - b_before).abs() < 1e-6, "biases must not decay");
    }

    #[test]
    fn invalid_lr_rejected() {
        let mut net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(6)).unwrap();
        let mut sgd = Sgd::new(SgdConfig::default(), 0);
        assert!(sgd.step(&mut net, f32::NAN).is_err());
        assert!(sgd.step(&mut net, -0.1).is_err());
    }

    #[test]
    fn reroll_changes_stochastic_stream_only() {
        let run = |salt: Option<u64>, mode: RoundingMode| -> Vec<f32> {
            let mut net =
                models::mlp("m", &[4, 32, 3], &QuantScheme::paper_apt(), &mut seeded(8)).unwrap();
            let mut sgd = Sgd::new(
                SgdConfig {
                    momentum: 0.0,
                    weight_decay: 0.0,
                    rounding: mode,
                    clip_grad_norm: None,
                },
                42,
            );
            if let Some(s) = salt {
                sgd.reroll_rounding(s);
            }
            for _ in 0..4 {
                net.zero_grads();
                net.visit_params(&mut |p| {
                    if p.kind() == ParamKind::Weight {
                        let ParamStore::Quantized(q) = p.store() else {
                            unreachable!("every weight is quantised")
                        };
                        let g = Tensor::full(p.dims(), q.eps() * 0.5);
                        p.accumulate_grad(&g).unwrap();
                    }
                });
                sgd.step(&mut net, 1.0).unwrap();
            }
            let mut out = Vec::new();
            net.visit_params_ref(&mut |p| out.extend_from_slice(p.value().data()));
            out
        };
        // Salt 0 is the identity; a non-zero salt redraws the stochastic
        // stream; truncation ignores the rng entirely.
        assert_eq!(
            run(None, RoundingMode::Stochastic),
            run(Some(0), RoundingMode::Stochastic)
        );
        assert_ne!(
            run(None, RoundingMode::Stochastic),
            run(Some(0xDEAD_BEEF), RoundingMode::Stochastic)
        );
        assert_eq!(
            run(None, RoundingMode::Truncate),
            run(Some(0xDEAD_BEEF), RoundingMode::Truncate)
        );
    }

    #[test]
    fn step_stats_report_saturation() {
        let mut net =
            models::mlp("m", &[4, 16, 3], &QuantScheme::paper_apt(), &mut seeded(9)).unwrap();
        let mut sgd = Sgd::new(SgdConfig::default(), 0);
        let stats = sgd.step(&mut net, 0.1).unwrap();
        // Calibration keeps each tensor's extremes near the rails, so a
        // healthy step reports a small but non-zero saturated count.
        assert!(stats.saturated > 0);
        assert!(stats.saturated < stats.quantized_total / 4);
    }

    #[test]
    fn nan_gradient_surfaces_as_error() {
        let mut net = models::mlp("m", &[2, 2], &QuantScheme::paper_apt(), &mut seeded(7)).unwrap();
        net.visit_params(&mut |p| {
            if p.kind() == ParamKind::Weight {
                p.grad_mut().data_mut()[0] = f32::NAN;
            }
        });
        let mut sgd = Sgd::new(
            SgdConfig {
                momentum: 0.0,
                weight_decay: 0.0,
                rounding: RoundingMode::Truncate,
                clip_grad_norm: None,
            },
            0,
        );
        assert!(sgd.step(&mut net, 0.1).is_err());
    }
}

#[cfg(test)]
mod clip_tests {
    use super::*;
    use apt_nn::{models, QuantScheme};
    use apt_tensor::ops;
    use apt_tensor::rng::seeded;

    fn net_with_big_grads() -> Network {
        let mut net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(1)).unwrap();
        net.visit_params(&mut |p| {
            p.grad_mut().fill(100.0);
        });
        net
    }

    #[test]
    fn clipping_bounds_the_applied_step() {
        let before = |net: &Network| {
            let mut v = Vec::new();
            net.visit_params_ref(&mut |p| v.push(p.value()));
            v
        };
        // Unclipped: weights move by lr·100 per element.
        let mut free = net_with_big_grads();
        let w0 = before(&free);
        let mut sgd = Sgd::new(
            SgdConfig {
                momentum: 0.0,
                weight_decay: 0.0,
                ..Default::default()
            },
            0,
        );
        sgd.step(&mut free, 0.01).unwrap();
        // Clipped to norm 1: the whole tensor's step has L2 norm ≤ lr.
        let mut clipped = net_with_big_grads();
        let c0 = before(&clipped);
        let mut sgd_c = Sgd::new(
            SgdConfig {
                momentum: 0.0,
                weight_decay: 0.0,
                clip_grad_norm: Some(1.0),
                ..Default::default()
            },
            0,
        );
        sgd_c.step(&mut clipped, 0.01).unwrap();

        let moved = |net: &Network, base: &[apt_tensor::Tensor]| -> f32 {
            let mut i = 0;
            let mut total = 0.0;
            net.visit_params_ref(&mut |p| {
                total += ops::sub(&p.value(), &base[i]).unwrap().l2_norm();
                i += 1;
            });
            total
        };
        let free_move = moved(&free, &w0);
        let clip_move = moved(&clipped, &c0);
        assert!(
            clip_move < free_move / 50.0,
            "clipped={clip_move} free={free_move}"
        );
        // Per-tensor step norm ≤ lr·max_norm (+ float slack).
        assert!(clip_move <= 0.01 * 1.0 * 3.0 + 1e-5);
    }

    #[test]
    fn small_gradients_pass_through_unclipped() {
        let run = |clip: Option<f32>| -> Vec<f32> {
            let mut net =
                models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(2)).unwrap();
            net.visit_params(&mut |p| p.grad_mut().fill(1e-3));
            let mut sgd = Sgd::new(
                SgdConfig {
                    momentum: 0.0,
                    weight_decay: 0.0,
                    clip_grad_norm: clip,
                    ..Default::default()
                },
                0,
            );
            sgd.step(&mut net, 0.1).unwrap();
            let mut out = Vec::new();
            net.visit_params_ref(&mut |p| out.extend_from_slice(p.value().data()));
            out
        };
        assert_eq!(run(None), run(Some(10.0)));
    }

    #[test]
    fn invalid_clip_threshold_rejected() {
        let mut net = net_with_big_grads();
        let mut sgd = Sgd::new(
            SgdConfig {
                clip_grad_norm: Some(-1.0),
                ..Default::default()
            },
            0,
        );
        assert!(sgd.step(&mut net, 0.1).is_err());
        let mut sgd = Sgd::new(
            SgdConfig {
                clip_grad_norm: Some(f32::NAN),
                ..Default::default()
            },
            0,
        );
        assert!(sgd.step(&mut net, 0.1).is_err());
    }
}
