//! Adam (Kingma & Ba) — the optimiser most of the paper's Table I
//! comparators train with, provided here so those baselines can be run
//! with their original recipe and so APT's claim that Gavg composes with
//! "sophisticated optimisers" (§III-B) is testable.
//!
//! The first/second-moment buffers are fp32 optimiser state (keyed by
//! parameter name, stored inside the optimiser — like the SGD velocity,
//! they are not model state and do not count toward the paper's memory
//! figure). The *applied* update still goes through each parameter store's
//! own rule, so quantised weights take the Eq. 3 underflow-prone step.

use crate::OptimError;
use crate::StepStats;
use apt_nn::{Network, Param, ParamKind};
use apt_quant::RoundingMode;
use apt_tensor::{ops, rng as trng, Tensor};
use rand::rngs::StdRng;
use std::collections::HashMap;

/// Adam hyper-parameters (defaults from the original paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator fuzz ε.
    pub eps: f32,
    /// L2 weight decay, applied to [`ParamKind::Weight`] tensors only.
    pub weight_decay: f32,
    /// Rounding mode for quantised parameter updates.
    pub rounding: RoundingMode,
    /// Per-tensor gradient-norm clipping threshold (`None` disables).
    pub clip_grad_norm: Option<f32>,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            rounding: RoundingMode::Truncate,
            clip_grad_norm: None,
        }
    }
}

/// The Adam optimiser, quantisation-store aware (see module docs).
#[derive(Debug)]
pub struct Adam {
    cfg: AdamConfig,
    seed: u64,
    t: u64,
    moments: HashMap<String, (Tensor, Tensor)>,
}

/// Serialisable Adam state: the step counter (bias correction + rounding
/// stream) and the first/second-moment buffers, sorted by parameter name
/// so the encoding is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// Number of completed optimisation steps (drives bias correction).
    pub t: u64,
    /// Per-parameter `(name, first moment, second moment)`.
    pub moments: Vec<(String, Tensor, Tensor)>,
}

impl Adam {
    /// Creates an Adam optimiser; `seed` drives stochastic rounding.
    pub fn new(cfg: AdamConfig, seed: u64) -> Self {
        Adam {
            cfg,
            seed,
            t: 0,
            moments: HashMap::new(),
        }
    }

    /// The serialisable optimiser state.
    pub fn state(&self) -> AdamState {
        let mut moments: Vec<(String, Tensor, Tensor)> = self
            .moments
            .iter()
            .map(|(k, (m, v))| (k.clone(), m.clone(), v.clone()))
            .collect();
        moments.sort_by(|a, b| a.0.cmp(&b.0));
        AdamState { t: self.t, moments }
    }

    /// Restores state previously captured by [`state`](Adam::state).
    pub fn restore(&mut self, state: AdamState) {
        self.t = state.t;
        self.moments = state
            .moments
            .into_iter()
            .map(|(k, m, v)| (k, (m, v)))
            .collect();
    }

    /// The rounding stream for one step: a pure function of (seed, step),
    /// so a resumed run draws the exact bits the interrupted run would
    /// have.
    fn step_rng(seed: u64, step: u64) -> StdRng {
        trng::substream(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15), 0xADA)
    }

    /// Applies one Adam step to every parameter of `net` at learning rate
    /// `lr`, consuming the accumulated gradients.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::BadConfig`] for invalid `lr`/β/clip values and
    /// propagates parameter-store errors.
    pub fn step(&mut self, net: &mut Network, lr: f32) -> crate::Result<StepStats> {
        if !lr.is_finite() || lr < 0.0 {
            return Err(OptimError::BadConfig {
                reason: format!("invalid lr {lr}"),
            });
        }
        if !(0.0..1.0).contains(&self.cfg.beta1) || !(0.0..1.0).contains(&self.cfg.beta2) {
            return Err(OptimError::BadConfig {
                reason: format!(
                    "betas must be in [0, 1): ({}, {})",
                    self.cfg.beta1, self.cfg.beta2
                ),
            });
        }
        self.t += 1;
        let bias1 = 1.0 - self.cfg.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.cfg.beta2.powi(self.t as i32);
        let mut stats = StepStats::default();
        let mut first_err: Option<OptimError> = None;
        let cfg = self.cfg;
        let mut rng = Self::step_rng(self.seed, self.t);
        let moments = &mut self.moments;
        net.visit_params(&mut |p: &mut Param| {
            if first_err.is_some() {
                return;
            }
            if let Err(e) =
                Self::step_param(p, lr, &cfg, bias1, bias2, moments, &mut rng, &mut stats)
            {
                first_err = Some(e);
            }
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step_param(
        p: &mut Param,
        lr: f32,
        cfg: &AdamConfig,
        bias1: f32,
        bias2: f32,
        moments: &mut HashMap<String, (Tensor, Tensor)>,
        rng: &mut StdRng,
        stats: &mut StepStats,
    ) -> crate::Result<()> {
        stats.params += 1;
        let mut g = p.grad().clone();
        if let Some(max_norm) = cfg.clip_grad_norm {
            if !(max_norm.is_finite() && max_norm > 0.0) {
                return Err(OptimError::BadConfig {
                    reason: format!("invalid clip_grad_norm {max_norm}"),
                });
            }
            let norm = g.l2_norm();
            if norm > max_norm {
                ops::scale_in_place(&mut g, max_norm / norm);
            }
        }
        if cfg.weight_decay != 0.0 && p.kind() == ParamKind::Weight {
            let w = p.value();
            ops::axpy(cfg.weight_decay, &w, &mut g).map_err(apt_nn::NnError::from)?;
        }
        let (m, v) = moments
            .entry(p.name().to_string())
            .or_insert_with(|| (Tensor::zeros(g.dims()), Tensor::zeros(g.dims())));
        if m.dims() != g.dims() {
            return Err(OptimError::BadConfig {
                reason: format!("moment shape mismatch for `{}`", p.name()),
            });
        }
        // m ← β₁m + (1−β₁)g; v ← β₂v + (1−β₂)g²
        for ((mi, vi), &gi) in m
            .data_mut()
            .iter_mut()
            .zip(v.data_mut().iter_mut())
            .zip(g.data())
        {
            *mi = cfg.beta1 * *mi + (1.0 - cfg.beta1) * gi;
            *vi = cfg.beta2 * *vi + (1.0 - cfg.beta2) * gi * gi;
        }
        // effective = m̂ / (√v̂ + ε)
        let mut effective = Tensor::zeros(g.dims());
        for (e, (&mi, &vi)) in effective
            .data_mut()
            .iter_mut()
            .zip(m.data().iter().zip(v.data()))
        {
            let mhat = mi / bias1;
            let vhat = vi / bias2;
            *e = mhat / (vhat.sqrt() + cfg.eps);
        }
        if let Some(us) = p.apply_update(&effective, lr, cfg.rounding, rng)? {
            stats.underflowed += us.underflowed;
            stats.expanded += us.expanded;
            stats.quantized_total += us.total;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::{models, Mode, QuantScheme};
    use apt_tensor::ops::softmax::cross_entropy;
    use apt_tensor::rng::{normal, seeded};

    fn loss_of(net: &mut Network, x: &Tensor, labels: &[usize]) -> f32 {
        let logits = net.forward(x, Mode::Eval).unwrap();
        cross_entropy(&logits, labels).unwrap().loss
    }

    #[test]
    fn adam_reduces_loss_on_float_mlp() {
        let mut net =
            models::mlp("m", &[4, 16, 3], &QuantScheme::float32(), &mut seeded(0)).unwrap();
        let x = normal(&[8, 4], 1.0, &mut seeded(1));
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let mut adam = Adam::new(AdamConfig::default(), 0);
        let before = loss_of(&mut net, &x, &labels);
        for _ in 0..40 {
            net.zero_grads();
            let logits = net.forward(&x, Mode::Train).unwrap();
            let ce = cross_entropy(&logits, &labels).unwrap();
            net.backward(&ce.grad_logits).unwrap();
            adam.step(&mut net, 0.01).unwrap();
        }
        let after = loss_of(&mut net, &x, &labels);
        assert!(after < before * 0.5, "before={before} after={after}");
    }

    #[test]
    fn adam_trains_quantized_params_through_eq3() {
        let mut net =
            models::mlp("m", &[4, 16, 3], &QuantScheme::paper_apt(), &mut seeded(2)).unwrap();
        let x = normal(&[8, 4], 1.0, &mut seeded(3));
        let labels = vec![0, 1, 2, 0, 1, 2, 0, 1];
        let mut adam = Adam::new(AdamConfig::default(), 0);
        let mut quantized_total = 0;
        for _ in 0..20 {
            net.zero_grads();
            let logits = net.forward(&x, Mode::Train).unwrap();
            let ce = cross_entropy(&logits, &labels).unwrap();
            net.backward(&ce.grad_logits).unwrap();
            let stats = adam.step(&mut net, 0.01).unwrap();
            quantized_total += stats.quantized_total;
        }
        assert!(
            quantized_total > 0,
            "quantised stores must take Eq. 3 steps"
        );
    }

    #[test]
    fn first_step_is_approximately_signed_lr() {
        // With zero moments, Adam's bias-corrected first step has magnitude
        // ≈ lr·sign(g) regardless of gradient scale.
        let mut net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(4)).unwrap();
        let before: Vec<f32> = {
            let mut v = Vec::new();
            net.visit_params_ref(&mut |p| v.extend_from_slice(p.value().data()));
            v
        };
        net.visit_params(&mut |p| p.grad_mut().fill(1234.0));
        let mut adam = Adam::new(AdamConfig::default(), 0);
        adam.step(&mut net, 0.01).unwrap();
        let mut after = Vec::new();
        net.visit_params_ref(&mut |p| after.extend_from_slice(p.value().data()));
        for (b, a) in before.iter().zip(&after) {
            assert!(
                ((b - a) - 0.01).abs() < 1e-4,
                "step should be ≈ lr: {}",
                b - a
            );
        }
    }

    #[test]
    fn config_validation() {
        let mut net = models::mlp("m", &[2, 2], &QuantScheme::float32(), &mut seeded(5)).unwrap();
        let mut bad = Adam::new(
            AdamConfig {
                beta1: 1.5,
                ..Default::default()
            },
            0,
        );
        assert!(bad.step(&mut net, 0.01).is_err());
        let mut adam = Adam::new(AdamConfig::default(), 0);
        assert!(adam.step(&mut net, f32::NAN).is_err());
    }

    #[test]
    fn adam_outpaces_sgd_on_ill_scaled_gradients() {
        // A layer whose gradients differ by 100× in scale: Adam's
        // per-element normalisation adapts, plain SGD crawls on the small
        // direction. Check displacement along the small-gradient column.
        let run_adam = |steps: usize| -> f32 {
            let mut net =
                models::mlp("m", &[2, 1], &QuantScheme::float32(), &mut seeded(6)).unwrap();
            let mut adam = Adam::new(AdamConfig::default(), 0);
            for _ in 0..steps {
                net.zero_grads();
                net.visit_params(&mut |p| {
                    if p.kind() == ParamKind::Weight {
                        let g = Tensor::from_slice(&[100.0, 0.01]);
                        *p.grad_mut() = g.reshape(p.dims()).unwrap();
                    }
                });
                adam.step(&mut net, 0.01).unwrap();
            }
            let mut moved = 0.0;
            net.visit_params_ref(&mut |p| {
                if p.kind() == ParamKind::Weight {
                    moved = p.value().data()[1];
                }
            });
            moved
        };
        let run_sgd = |steps: usize| -> f32 {
            let mut net =
                models::mlp("m", &[2, 1], &QuantScheme::float32(), &mut seeded(6)).unwrap();
            let mut sgd = crate::Sgd::new(
                crate::SgdConfig {
                    momentum: 0.0,
                    weight_decay: 0.0,
                    ..Default::default()
                },
                0,
            );
            for _ in 0..steps {
                net.zero_grads();
                net.visit_params(&mut |p| {
                    if p.kind() == ParamKind::Weight {
                        let g = Tensor::from_slice(&[100.0, 0.01]);
                        *p.grad_mut() = g.reshape(p.dims()).unwrap();
                    }
                });
                sgd.step(&mut net, 0.01).unwrap();
            }
            let mut moved = 0.0;
            net.visit_params_ref(&mut |p| {
                if p.kind() == ParamKind::Weight {
                    moved = p.value().data()[1];
                }
            });
            moved
        };
        let w0 = {
            let net = models::mlp("m", &[2, 1], &QuantScheme::float32(), &mut seeded(6)).unwrap();
            let mut v = 0.0;
            net.visit_params_ref(&mut |p| {
                if p.kind() == ParamKind::Weight {
                    v = p.value().data()[1];
                }
            });
            v
        };
        let adam_move = (run_adam(20) - w0).abs();
        let sgd_move = (run_sgd(20) - w0).abs();
        // Adam's step on the small-gradient column is lr per iteration
        // (0.2 after 20 steps); SGD's is lr·0.01 (0.002) — two orders of
        // magnitude apart.
        assert!(
            adam_move > sgd_move * 50.0,
            "adam={adam_move} sgd={sgd_move}"
        );
    }
}
