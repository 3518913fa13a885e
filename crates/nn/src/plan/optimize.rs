//! Declutter passes over the lowered step program.
//!
//! All passes are *local* rewrites on the flat step list, gated on a
//! single-use condition so shared values (residual branch points) are
//! never folded away. Each pass preserves evaluation-mode semantics:
//!
//! * **BN fold** is exact affine algebra per output channel — the only
//!   float effect is reassociation (`(x·w)·s` vs `x·(w·s)`), which the
//!   differential tests bound.
//! * **Activation fusion** moves a bit-identical element-wise map into
//!   the producing kernel's epilogue.

use super::step::{Step, StepKind, ValueId};
use apt_tensor::ops::fused::Epilogue;

/// What the pipeline rewrote, for the plan report.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Counters {
    pub(crate) bn_folds: usize,
    pub(crate) act_fusions: usize,
}

/// Number of steps reading `v` (plus the final output, which is read by
/// the caller and must never be folded away).
fn use_count(steps: &[Step], v: ValueId, output: ValueId) -> usize {
    let mut n = usize::from(v == output);
    for s in steps {
        if s.src == v {
            n += 1;
        }
        if let StepKind::Add { rhs, .. } = s.kind {
            if rhs == v {
                n += 1;
            }
        }
    }
    n
}

/// Runs all passes in order; returns rewrite counters.
pub(crate) fn run(steps: &mut Vec<Step>, output: ValueId) -> Counters {
    let bn_folds = fold_bn(steps, output);
    let act_fusions = fuse_acts(steps, output);
    Counters {
        bn_folds,
        act_fusions,
    }
}

/// Folds `conv → bn` pairs: with `s_r = γ_r·inv_std_r`, the composition
/// `bn(conv(x))` equals a conv with `W'_r = W_r·s_r` and
/// `b'_r = β_r + (b_r - μ_r)·s_r`, per output channel `r`. Grouped and
/// depthwise convolutions fold identically because panel rows *are*
/// output channels.
fn fold_bn(steps: &mut Vec<Step>, output: ValueId) -> usize {
    let mut folds = 0;
    let mut i = 0;
    while i + 1 < steps.len() {
        let fusable = {
            let (a, b) = (&steps[i], &steps[i + 1]);
            matches!(
                &a.kind,
                StepKind::Conv {
                    act: Epilogue::None,
                    ..
                }
            ) && matches!(&b.kind, StepKind::Bn { .. })
                && b.src == a.dst
                && use_count(steps, a.dst, output) == 1
        };
        if !fusable {
            i += 1;
            continue;
        }
        let bn = steps.remove(i + 1);
        let StepKind::Bn {
            mean,
            inv_std,
            gamma,
            beta,
            channels,
            ..
        } = bn.kind
        else {
            unreachable!("matched Bn above");
        };
        let conv = &mut steps[i];
        let StepKind::Conv {
            weight,
            bias,
            c_out,
            ..
        } = &mut conv.kind
        else {
            unreachable!("matched Conv above");
        };
        debug_assert_eq!(*c_out, channels);
        let row = weight.len() / *c_out;
        let mut new_bias = vec![0.0f32; *c_out];
        for r in 0..*c_out {
            let s = gamma[r] * inv_std[r];
            for w in &mut weight[r * row..(r + 1) * row] {
                *w *= s;
            }
            let b0 = bias.as_ref().map_or(0.0, |b| b[r]);
            new_bias[r] = beta[r] + (b0 - mean[r]) * s;
        }
        *bias = Some(new_bias);
        conv.dst = bn.dst;
        folds += 1;
        // Re-examine the same position: the step after the folded Bn may
        // be an Act that a later pass fuses, or another foldable pair.
    }
    folds
}

/// Fuses a standalone activation into the epilogue of the conv/linear
/// step that feeds it.
fn fuse_acts(steps: &mut Vec<Step>, output: ValueId) -> usize {
    let mut fusions = 0;
    let mut i = 0;
    while i + 1 < steps.len() {
        let fusable = {
            let (a, b) = (&steps[i], &steps[i + 1]);
            let producer_open = matches!(
                &a.kind,
                StepKind::Conv {
                    act: Epilogue::None,
                    ..
                } | StepKind::Linear {
                    act: Epilogue::None,
                    ..
                }
            );
            producer_open
                && matches!(&b.kind, StepKind::Act(_))
                && b.src == a.dst
                && use_count(steps, a.dst, output) == 1
        };
        if !fusable {
            i += 1;
            continue;
        }
        let act_step = steps.remove(i + 1);
        let StepKind::Act(ep) = act_step.kind else {
            unreachable!("matched Act above");
        };
        let producer = &mut steps[i];
        match &mut producer.kind {
            StepKind::Conv { act, .. } | StepKind::Linear { act, .. } => *act = ep,
            _ => unreachable!("matched producer above"),
        }
        producer.dst = act_step.dst;
        fusions += 1;
    }
    fusions
}
