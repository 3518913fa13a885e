//! # apt-dist
//!
//! Deterministic data-parallel training with `k`-bit gradient exchange.
//!
//! `N` in-process worker ranks each own a bit-identical replica, train on
//! disjoint equal-sized shards ([`apt_data::Dataset::shard`]), and swap
//! gradients once per step through an in-tree flat-tree all-reduce built
//! on `std::sync::mpsc` channels — no external runtime, no sockets. The
//! exchange ships symmetric `k`-bit codes ([`apt_quant::GradCodec`]) and
//! reduces them as **exact integer sums** (DQT-style), so the result is a
//! pure function of the rank set: `N`-worker runs are bit-reproducible
//! run-to-run, and a 1-worker run is bit-identical to the single-process
//! [`apt_core::Trainer`] because the reducer is skipped outright.
//!
//! The pieces:
//!
//! * [`TreeReducer`] — the per-rank endpoint of the quantised all-reduce,
//!   plugged into the trainer's [`apt_core::GradReducer`] seam. Two-phase:
//!   an order-independent `max` fold fixes one scale per parameter, then
//!   the integer-domain sum at `k + ⌈log₂N⌉` bits comes back down the
//!   tree, streamed: no copy of the gradients, one persistent `i32` sum,
//!   wire words decoded where they are consumed. Carries EF-SGD
//!   error-feedback residuals, the per-step replica-divergence digest gate
//!   and the mean of the replicas' state buffers (batch-norm statistics).
//! * [`DistTrainer`] — the coordinator: sharding, rank threads, per-rank
//!   APTS checkpoints on a lockstep cadence, and fleet-rollback crash
//!   recovery (a killed rank's peers observe
//!   [`apt_core::CoreError::PeerLost`]; the fleet relaunches from the last
//!   common checkpoints and the recovered run stays bit-identical to an
//!   uninterrupted one).
//! * [`ExchangeStats`] — bytes-on-wire accounting against the fp32
//!   baseline; at `k = 4`, `N = 4` the fabric moves under 0.2× the fp32
//!   payload.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod fabric;
mod reducer;
mod trainer;

pub use reducer::TreeReducer;
pub use trainer::{DistConfig, DistFault, DistReport, DistTrainer};

/// Wire accounting for one rank's view of the exchange.
///
/// All byte counts are **analytic fabric totals** — computed from the
/// parameter inventory and bitwidths, asserted against the frames actually
/// moved — so every rank reports identical numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeStats {
    /// Optimiser steps that performed an exchange.
    pub steps: u64,
    /// Replica-divergence digest comparisons performed (one per step).
    pub digest_checks: u64,
    /// Total bytes the whole fabric moved (headers + packed payloads).
    pub bytes_on_wire: u64,
    /// Bytes the same flat-tree exchange would move at fp32 (4 bytes per
    /// element, up and down every link).
    pub fp32_bytes: u64,
}

impl ExchangeStats {
    /// Quantised-to-fp32 wire ratio (0 when nothing was exchanged).
    pub fn wire_ratio(&self) -> f64 {
        if self.fp32_bytes == 0 {
            0.0
        } else {
            self.bytes_on_wire as f64 / self.fp32_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ratio_handles_the_empty_exchange() {
        assert_eq!(ExchangeStats::default().wire_ratio(), 0.0);
        let s = ExchangeStats {
            steps: 1,
            digest_checks: 1,
            bytes_on_wire: 25,
            fp32_bytes: 100,
        };
        assert_eq!(s.wire_ratio(), 0.25);
    }
}
