//! The gradient-reduction seam: how data-parallel ranks plug into the
//! single-process training loop.
//!
//! [`Trainer`](crate::Trainer) knows nothing about ranks, wires or
//! quantised exchange. It exposes exactly one hook: after the backward
//! pass (and the integrity gradient screen), before Gavg profiling and the
//! optimiser step, an optional [`GradReducer`] may replace every
//! parameter's local gradient with a globally reduced one. Everything
//! downstream — profiling, Algorithm 1 policy, Eq. 3 updates, checkpoint
//! bytes — then sees identical values on every rank, which is what keeps
//! replicas bit-identical step after step.
//!
//! The hook sits **before** [`GavgProfiler`](crate::GavgProfiler)
//! sampling deliberately: the paper's precision policy must make the same
//! decision on every rank, so the EMAs have to be fed the *reduced*
//! gradient, not the shard-local one.
//!
//! The in-tree implementation lives in the `apt-dist` crate; this trait is
//! the entire contract between the crates.

use crate::faults::StepInfo;
use apt_nn::Network;

/// Replaces local gradients with globally reduced gradients, once per
/// optimiser step.
pub trait GradReducer {
    /// Reduces the gradients of **every** parameter in `net` (weights,
    /// biases, BN affine — replicas only stay bit-identical if nothing is
    /// skipped), in place, and returns the exchange bytes to charge to
    /// this rank's energy account via
    /// [`apt_energy::EnergyMeter::record_comm`]. The returned count must
    /// be **identical on every rank** (e.g. an equal share of the total
    /// fabric traffic): the energy breakdown is part of the replicated,
    /// checkpointed state, so a rank-dependent charge would silently
    /// diverge the replicas' checkpoints.
    ///
    /// Must be deterministic: the same `(info, gradients)` on every rank
    /// must produce the same reduced gradients regardless of thread
    /// scheduling or rank arrival order.
    ///
    /// # Errors
    ///
    /// A reducer error aborts the step and propagates out of
    /// [`Trainer::run`](crate::Trainer::run)
    /// — in the distributed harness, a peer's death surfaces here as a
    /// disconnected channel, which the coordinator turns into a fleet
    /// rollback to the last lockstep checkpoint.
    fn reduce(&mut self, info: &StepInfo, net: &mut Network) -> crate::Result<u64>;
}
