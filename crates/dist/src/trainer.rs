//! The fleet coordinator: N in-process ranks, lockstep checkpoints,
//! fleet-rollback crash recovery.
//!
//! ## Shape of a run
//!
//! Each rank owns a full replica (built by the caller's network factory,
//! same seed everywhere), a disjoint equal-sized shard of the training
//! split ([`Dataset::shard`]), and a [`TreeReducer`](crate::TreeReducer)
//! endpoint into the flat-tree fabric. Ranks run the ordinary
//! [`Trainer`] loop; the only cross-rank coupling is the per-step gradient
//! exchange, which doubles as a step barrier. Every downstream decision —
//! Gavg profiling, Algorithm 1 precision moves, evaluation, early stop —
//! consumes reduced gradients or replicated state (batch-norm running
//! statistics included: the exchange averages them), so the replicas stay
//! bit-identical and `world = 1` degenerates to exactly the single-process
//! trainer (the reducer is skipped entirely, not run with one rank).
//!
//! ## Crash recovery: fleet rollback
//!
//! A rank that dies mid-step tears its channels down; every peer's next
//! `recv` fails with [`CoreError::PeerLost`] before it applies anything
//! for the in-flight step. Per-rank APTS checkpoints are written on a
//! cadence that is a pure function of the *global* step counter, so all
//! ranks hold checkpoints for the same step set. The coordinator answers
//! a death by relaunching the **whole fleet** from those checkpoints (a
//! victim-only rejoin is impossible: the survivors' exchange state for the
//! aborted step cannot be replayed), and the error-feedback residuals are
//! flushed on the same cadence, so the recovered run is bit-identical to
//! one that never crashed.

use crate::fabric::fabric;
use crate::{ExchangeStats, TreeReducer};
use apt_core::{
    latest_valid, CoreError, GradReducer, NoFaults, PowerCut, StepHook, TrainConfig, TrainReport,
    Trainer,
};
use apt_data::Dataset;
use apt_nn::{checkpoint, Network};
use apt_quant::{Bitwidth, GradCodec};
use std::thread;

/// Configuration of a data-parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// Number of in-process worker ranks (≥ 1; 1 is the exact
    /// single-process path).
    pub world: usize,
    /// Bitwidth of the gradient exchange codes.
    pub grad_bits: Bitwidth,
    /// The per-rank training configuration. [`TrainConfig::checkpoint`]'s
    /// directory is treated as a **root**: rank `r` persists under
    /// `dir/rank{r}`. Sentinel and integrity guard must be off for
    /// `world > 1` (rank-local rollbacks would diverge the replicas).
    pub train: TrainConfig,
    /// Fleet rollbacks attempted before giving up on a crashing run.
    pub max_recovery_rounds: usize,
}

impl DistConfig {
    /// A config for `world` ranks exchanging at `grad_bits`, with default
    /// training hyper-parameters and up to 3 recovery rounds.
    pub fn new(world: usize, grad_bits: Bitwidth) -> Self {
        DistConfig {
            world,
            grad_bits,
            train: TrainConfig::default(),
            max_recovery_rounds: 3,
        }
    }
}

/// A simulated mid-run rank death: rank `rank` power-cuts when its global
/// step counter reaches `at_step` (first round only — the relaunched
/// fleet runs clean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistFault {
    /// The rank to kill.
    pub rank: usize,
    /// Completed optimiser steps after which it dies.
    pub at_step: u64,
}

/// The outcome of a data-parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistReport {
    /// Per-rank training reports, rank order. Model-state fields
    /// (accuracies, bitwidths, Gavg, memory, energy) are identical across
    /// ranks; `train_loss` is genuinely shard-local.
    pub reports: Vec<TrainReport>,
    /// Per-rank exchange statistics for the final (successful) round —
    /// identical on every rank by construction (analytic accounting).
    pub per_rank_exchange: Vec<ExchangeStats>,
    /// Fleet rollbacks performed before the run completed.
    pub recovery_rounds: usize,
    /// The trained model: rank 0's [`apt_nn::checkpoint::save_full`] blob,
    /// serialised once, after its last step. Every replica holds the same
    /// bytes: the parameters because each step applies one reduced gradient
    /// (the per-step digest gate checks it), the state buffers — batch-norm
    /// running statistics, which each rank updates from its own shard —
    /// because the same exchange replaces them with the fleet's mean.
    pub model: Vec<u8>,
}

impl DistReport {
    /// The canonical report (rank 0's).
    pub fn report(&self) -> &TrainReport {
        &self.reports[0]
    }

    /// Fabric-wide exchange statistics (rank 0's copy; all ranks agree).
    pub fn exchange(&self) -> ExchangeStats {
        self.per_rank_exchange.first().copied().unwrap_or_default()
    }

    /// `true` when every rank reports identical replicated state: final
    /// and best accuracy, per-epoch accuracy/bitwidths/Gavg/memory and
    /// energy. (`train_loss` is shard-local and excluded.)
    pub fn replicas_in_lockstep(&self) -> bool {
        let Some(first) = self.reports.first() else {
            return true;
        };
        self.reports.iter().all(|r| {
            r.final_accuracy == first.final_accuracy
                && r.best_accuracy == first.best_accuracy
                && r.total_energy_pj == first.total_energy_pj
                && r.peak_memory_bits == first.peak_memory_bits
                && r.epochs.len() == first.epochs.len()
                && r.epochs.iter().zip(&first.epochs).all(|(a, b)| {
                    a.test_accuracy == b.test_accuracy
                        && a.layer_bits == b.layer_bits
                        && a.gavg == b.gavg
                        && a.memory_bits == b.memory_bits
                        && a.cumulative_energy_pj == b.cumulative_energy_pj
                })
        })
    }
}

/// What one rank hands back: its report, its exchange statistics, and —
/// from rank 0 only — the serialised model.
type RankOutcome = (TrainReport, ExchangeStats, Vec<u8>);

/// Data-parallel trainer over `world` in-process ranks.
///
/// `net_fn` builds one replica; it is called once per rank per round (all
/// ranks must get bit-identical networks — same seed, same architecture).
#[derive(Debug)]
pub struct DistTrainer<F> {
    cfg: DistConfig,
    net_fn: F,
}

impl<F> DistTrainer<F>
where
    F: Fn() -> apt_core::Result<Network> + Sync,
{
    /// Validates `cfg` and wraps the replica factory.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a zero world, for a multi-rank config
    /// with the sentinel or integrity guard armed, or when
    /// `grad_bits + ⌈log₂world⌉` overflows the 32-bit code limit.
    pub fn new(cfg: DistConfig, net_fn: F) -> apt_core::Result<Self> {
        if cfg.world == 0 {
            return Err(CoreError::BadConfig {
                reason: "world must be ≥ 1".into(),
            });
        }
        if cfg.world > 1 && (cfg.train.sentinel.is_some() || cfg.train.integrity.is_some()) {
            return Err(CoreError::BadConfig {
                reason: "distributed training cannot arm the sentinel or integrity guard \
                         (rank-local rollbacks would diverge the replicas)"
                    .into(),
            });
        }
        GradCodec::new(cfg.grad_bits).sum_bits(cfg.world)?;
        Ok(DistTrainer { cfg, net_fn })
    }

    /// Trains to completion, sharding `train` across the ranks.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] when the split is too small to give every
    /// rank at least one sample; otherwise any error of the underlying
    /// [`Trainer`] runs.
    pub fn train(&self, train: &Dataset, test: &Dataset) -> apt_core::Result<DistReport> {
        self.train_with_fault(train, test, None)
    }

    /// [`train`](DistTrainer::train) with an injected rank death — the
    /// crash-recovery campaign entry point. The fault fires in the first
    /// round only; the fleet then rolls back to the last lockstep
    /// checkpoints and reruns clean, up to
    /// [`DistConfig::max_recovery_rounds`] times.
    ///
    /// # Errors
    ///
    /// As [`train`](DistTrainer::train), plus [`CoreError::BadConfig`]
    /// for a fault naming a rank outside the world, and the terminal
    /// [`CoreError::Interrupted`] / [`CoreError::PeerLost`] when the
    /// recovery budget is exhausted.
    pub fn train_with_fault(
        &self,
        train: &Dataset,
        test: &Dataset,
        fault: Option<DistFault>,
    ) -> apt_core::Result<DistReport> {
        if let Some(f) = fault {
            if f.rank >= self.cfg.world {
                return Err(CoreError::BadConfig {
                    reason: format!("fault rank {} outside world {}", f.rank, self.cfg.world),
                });
            }
        }
        let shards = (0..self.cfg.world)
            .map(|r| train.shard(r, self.cfg.world))
            .collect::<Result<Vec<_>, _>>()?;
        let mut rounds = 0usize;
        loop {
            let inject = if rounds == 0 { fault } else { None };
            match self.round(&shards, test, inject) {
                Ok(report) => {
                    return Ok(DistReport {
                        recovery_rounds: rounds,
                        ..report
                    })
                }
                Err(e) if recoverable(&e) && rounds < self.cfg.max_recovery_rounds => {
                    rounds += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Rank `rank`'s training config: the shared base with the checkpoint
    /// directory moved under its private `rank{r}` subdirectory.
    fn rank_cfg(&self, rank: usize) -> TrainConfig {
        let mut cfg = self.cfg.train.clone();
        if let Some(ck) = &mut cfg.checkpoint {
            ck.dir = ck.dir.join(format!("rank{rank}"));
        }
        cfg
    }

    /// One attempt at running the fleet to completion (the report's
    /// `recovery_rounds` is the caller's to fill in).
    fn round(
        &self,
        shards: &[Dataset],
        test: &Dataset,
        fault: Option<DistFault>,
    ) -> apt_core::Result<DistReport> {
        let world = self.cfg.world;
        let results: Vec<apt_core::Result<RankOutcome>> = if world == 1 {
            // No fabric, the caller's thread: the single-process trainer.
            vec![self.worker(0, None, &shards[0], test, fault)]
        } else {
            let mut links = fabric(world);
            thread::scope(|s| {
                let handles: Vec<_> = links
                    .drain(..)
                    .enumerate()
                    .map(|(rank, l)| {
                        s.spawn(move || self.worker(rank, Some(l), &shards[rank], test, fault))
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(rank, h)| {
                        h.join().unwrap_or_else(|_| {
                            Err(CoreError::Corrupt {
                                reason: format!("worker rank {rank} panicked"),
                            })
                        })
                    })
                    .collect()
            })
        };
        let mut out = DistReport {
            reports: Vec::with_capacity(world),
            per_rank_exchange: Vec::with_capacity(world),
            recovery_rounds: 0,
            model: Vec::new(),
        };
        // Surface the root cause, not a symptom: the injected power cut
        // (recoverable) outranks the peers' secondary `PeerLost`, and a
        // genuine failure on one rank outranks the disconnects it caused.
        let mut peer_lost: Option<CoreError> = None;
        let mut other: Option<CoreError> = None;
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok((report, stats, model)) => {
                    out.reports.push(report);
                    out.per_rank_exchange.push(stats);
                    if rank == 0 {
                        out.model = model;
                    }
                }
                Err(e @ CoreError::Interrupted { .. }) => return Err(e),
                Err(e @ CoreError::PeerLost { .. }) => peer_lost = peer_lost.or(Some(e)),
                Err(e) => other = other.or(Some(e)),
            }
        }
        if let Some(e) = other {
            return Err(e);
        }
        if let Some(e) = peer_lost {
            return Err(e);
        }
        Ok(out)
    }

    /// One rank's life inside a round: build the replica, re-join from the
    /// newest per-rank checkpoint if one exists, train through the reducer
    /// (or plainly, for a world of one).
    fn worker(
        &self,
        rank: usize,
        links: Option<crate::fabric::Links>,
        shard: &Dataset,
        test: &Dataset,
        fault: Option<DistFault>,
    ) -> apt_core::Result<RankOutcome> {
        let cfg = self.rank_cfg(rank);
        let state = match &cfg.checkpoint {
            Some(ck) => latest_valid(&ck.dir)?.map(|(_, s)| s),
            None => None,
        };
        let mut trainer = Trainer::new((self.net_fn)()?, cfg.clone())?;
        let mut cut;
        let mut clean = NoFaults;
        let hooks: &mut dyn StepHook = match fault {
            Some(f) if f.rank == rank => {
                cut = PowerCut::after(f.at_step);
                &mut cut
            }
            _ => &mut clean,
        };
        let reset = cfg.checkpoint.as_ref().map_or(0, |c| c.every as u64);
        let mut reducer = match links {
            Some(l) => Some(TreeReducer::new(l, self.cfg.grad_bits, reset)?),
            None => None,
        };
        let report = trainer.run(
            shard,
            test,
            state,
            hooks,
            reducer.as_mut().map(|r| r as &mut dyn GradReducer),
        )?;
        // The exchange keeps parameters (digest-gated) and buffers (averaged)
        // identical on every rank, so rank 0's bytes are the fleet's model.
        let model = if rank == 0 {
            checkpoint::save_full(trainer.network_mut())
        } else {
            Vec::new()
        };
        let stats = reducer.map_or_else(ExchangeStats::default, |r| r.stats());
        Ok((report, stats, model))
    }
}

/// Errors the fleet-rollback protocol can absorb: a simulated power cut on
/// one rank, or the peer-loss disconnects it causes everywhere else.
fn recoverable(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::Interrupted { .. } | CoreError::PeerLost { .. }
    )
}
