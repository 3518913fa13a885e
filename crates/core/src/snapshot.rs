//! The in-memory copy a rollback returns to: the last clean step.
//!
//! One copy of every parameter store and momentum buffer, refreshed in
//! place once per clean step. With the integrity guard armed, the guard's
//! per-parameter baselines *are* this copy ([`ParamCopy`] inside each
//! baseline); otherwise the trainer's [`Snapshot`] holds it. The trainer
//! always holds the rest: the batch-norm running statistics and the scalar
//! state (loop cursor and accumulators, optimiser, Gavg profile, energy
//! account) as a [`TrainState`] whose velocities and network blob stay
//! empty — the same value a due checkpoint encodes, with the live
//! network's momentum and blob supplied beside it.

use crate::state::TrainState;
use crate::CoreError;
use apt_nn::{Network, Param, ParamStore};
use apt_tensor::Tensor;

/// One parameter's last clean store and momentum.
#[derive(Debug, Clone)]
pub(crate) struct ParamCopy {
    pub(crate) name: String,
    store: ParamStore,
    velocity: Option<Tensor>,
    /// The store and momentum a rollback restores when they are no longer
    /// the ones above: set when the copy [`follow`](ParamCopy::follow)s a
    /// legitimate change made since the last clean step (a saturation
    /// raise, an escalated rollback), cleared by the next
    /// [`commit`](ParamCopy::commit).
    clean: Option<Box<(ParamStore, Option<Tensor>)>>,
}

impl ParamCopy {
    pub(crate) fn of(p: &Param) -> Self {
        ParamCopy {
            name: p.name().to_string(),
            store: p.store().clone(),
            velocity: p.velocity().cloned(),
            clean: None,
        }
    }

    /// Copies `p` in, into the buffers already held: this is now the clean
    /// step a rollback returns to.
    pub(crate) fn commit(&mut self, p: &Param) {
        self.clean = None;
        self.copy_in(p);
    }

    /// Copies `p` in as the state to heal to, keeping the clean step a
    /// rollback returns to where it was.
    pub(crate) fn follow(&mut self, p: &Param) {
        if self.clean.is_none() {
            self.clean = Some(Box::new((self.store.clone(), self.velocity.clone())));
        }
        self.copy_in(p);
    }

    fn copy_in(&mut self, p: &Param) {
        self.store.clone_from(p.store());
        match (&mut self.velocity, p.velocity()) {
            (Some(to), Some(from)) => to.clone_from(from),
            (to, from) => *to = from.cloned(),
        }
    }

    /// Puts the copied store and momentum back into `p`.
    pub(crate) fn heal(&self, p: &mut Param) -> apt_nn::Result<()> {
        p.set_store(self.store.clone())?;
        p.set_velocity(self.velocity.clone())
    }

    /// Puts the clean step's store and momentum back into `p`.
    fn roll_back(&self, p: &mut Param) -> apt_nn::Result<()> {
        match self.clean.as_deref() {
            Some((store, velocity)) => {
                p.set_store(store.clone())?;
                p.set_velocity(velocity.clone())
            }
            None => self.heal(p),
        }
    }
}

/// Restores every parameter of `net` to its clean step from `held`, each
/// found through `copy` by name (where the last capture put it, or
/// anywhere).
pub(crate) fn roll_back_params<T>(
    net: &mut Network,
    held: &[T],
    copy: impl Fn(&T) -> &ParamCopy,
) -> crate::Result<()> {
    let mut first_err: Option<CoreError> = None;
    let mut at = 0;
    net.visit_params(&mut |p| {
        let found = match held.get(at).map(&copy) {
            Some(c) if c.name == p.name() => Some(c),
            _ => held.iter().map(&copy).find(|c| c.name == p.name()),
        };
        at += 1;
        if first_err.is_some() {
            return;
        }
        first_err = match found {
            Some(c) => c.roll_back(p).err().map(Into::into),
            None => Some(CoreError::BadConfig {
                reason: format!("no rollback copy of parameter `{}`", p.name()),
            }),
        };
    });
    first_err.map_or(Ok(()), Err)
}

/// The trainer's part of the rollback copy.
#[derive(Debug)]
pub(crate) struct Snapshot {
    /// The scalar state at the clean step; its velocities and network blob
    /// stay empty.
    pub(crate) state: TrainState,
    /// Every store and momentum buffer, when no guard holds them.
    params: Vec<ParamCopy>,
    /// The batch-norm running statistics, in visiting order.
    buffers: Vec<Tensor>,
}

impl Snapshot {
    pub(crate) fn new(state: TrainState) -> Self {
        Snapshot {
            state,
            params: Vec::new(),
            buffers: Vec::new(),
        }
    }

    /// Copies `net`'s buffers in — and its stores and momentum too, unless
    /// `guarded` (the guard's baselines hold those) — into the buffers
    /// already held.
    pub(crate) fn capture_model(&mut self, net: &mut Network, guarded: bool) {
        if !guarded {
            let params = &mut self.params;
            let (mut at, mut same) = (0, true);
            net.visit_params_ref(&mut |p| {
                match params.get_mut(at) {
                    Some(c) if same && c.name == p.name() => c.commit(p),
                    _ => same = false,
                }
                at += 1;
            });
            if !same || at != params.len() {
                params.clear();
                net.visit_params_ref(&mut |p| params.push(ParamCopy::of(p)));
            }
        }
        let buffers = &mut self.buffers;
        let mut at = 0;
        net.visit_buffers(&mut |_, t| {
            match buffers.get_mut(at) {
                Some(held) => held.clone_from(t),
                None => buffers.push(t.clone()),
            }
            at += 1;
        });
        buffers.truncate(at);
    }

    /// Restores `net`'s stores and momentum — from `guard`'s baselines
    /// when one holds them — and its buffers to the clean step.
    pub(crate) fn restore_model(
        &self,
        net: &mut Network,
        guard: Option<&crate::StepGuard>,
    ) -> crate::Result<()> {
        match guard {
            Some(g) => g.roll_back(net)?,
            None => roll_back_params(net, &self.params, |c| c)?,
        }
        let mut at = 0;
        net.visit_buffers(&mut |_, t| {
            if let Some(held) = self.buffers.get(at) {
                t.clone_from(held);
            }
            at += 1;
        });
        Ok(())
    }
}
