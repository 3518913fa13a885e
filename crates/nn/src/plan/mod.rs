//! The freeze/fusion compiler: lowers a trained [`Network`](crate::Network)
//! into an immutable, fused, arena-planned [`FrozenPlan`] for serving.
//!
//! The training path replays the mutable `Layer` list; every request pays
//! BatchNorm as a separate pass, each activation as another, and per-layer
//! tensor allocation. Freezing compiles that list once at load time:
//!
//! 1. **Lowering** — each layer appends typed steps to a [`PlanBuilder`]
//!    via [`Layer::lower`](crate::Layer::lower); composites (residual
//!    blocks, inverted residuals) lower their children plus explicit
//!    branch/merge steps.
//! 2. **Decluttering** ([`optimize`]) — BatchNorm running statistics fold
//!    into the preceding convolution's weights+bias (exact per-channel
//!    affine algebra) and activations fuse into conv/linear epilogues.
//! 3. **Arena planning** ([`arena`]) — every intermediate value gets a
//!    liveness interval and a first-fit offset into one flat scratch
//!    arena, with element-wise steps aliased in place. Steady-state
//!    execution therefore makes **zero heap allocations per request**.
//!
//! Training forward/backward never touches this module; the plan is a
//! read-only compilation artifact validated differentially against
//! `forward(Mode::Eval)`.

mod arena;
mod builder;
mod exec;
mod optimize;
mod step;

pub use builder::PlanBuilder;
pub use exec::FrozenPlan;

pub use step::ValueId;

use std::fmt;

/// Compile-time summary of what the freeze pipeline did to a network —
/// printed by `apt freeze` and exposed through serving stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// Steps produced by lowering, before any optimisation.
    pub lowered_steps: usize,
    /// Steps remaining after folding/fusion.
    pub steps: usize,
    /// BatchNorm layers folded into a preceding convolution.
    pub bn_folds: usize,
    /// Activations fused into a conv/linear kernel epilogue.
    pub act_fusions: usize,
    /// Scratch arena size, in f32 elements per sample.
    pub arena_floats_per_sample: usize,
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "steps: {} lowered -> {} after optimisation",
            self.lowered_steps, self.steps
        )?;
        writeln!(f, "bn folds: {}", self.bn_folds)?;
        writeln!(f, "act fusions: {}", self.act_fusions)?;
        write!(
            f,
            "arena: {} floats ({} bytes) per sample",
            self.arena_floats_per_sample,
            self.arena_floats_per_sample * 4
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_mentions_every_counter() {
        let r = PlanReport {
            lowered_steps: 12,
            steps: 7,
            bn_folds: 3,
            act_fusions: 2,
            arena_floats_per_sample: 4096,
        };
        let s = r.to_string();
        for needle in ["12", "7", "bn folds: 3", "act fusions: 2", "4096"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
