//! The deterministic k-bit all-reduce behind the trainer's
//! [`GradReducer`] seam.
//!
//! ## Why this is bit-exact, in any world size, run after run
//!
//! The only floating-point reductions in the protocol are **max** folds
//! (order-independent), and the root consumes uplinks in fixed rank order
//! anyway. The value reduction itself — the part where order could matter —
//! happens in the **integer domain**: each rank ships symmetric `k`-bit
//! codes, the root accumulates exact `i64` sums (codes are bounded by
//! `m = 2^(k−1)−1`, so `N` of them fit `k + ⌈log₂N⌉` bits with no
//! overflow), and every rank applies the identical `sum · s / N` in f32.
//! Integer addition is associative and commutative, so the reduced
//! gradient is a pure function of the rank set, not of arrival order or
//! thread scheduling.
//!
//! ## Error feedback and the checkpoint cadence
//!
//! What the quantiser drops each step is banked in a per-parameter
//! residual and re-injected next step (EF-SGD style). Residuals are
//! rank-local and are **not** part of the APTS checkpoint, so they are
//! flushed on the checkpoint cadence (`global_step % every == 0`): at any
//! step a fleet might resume from, the residual state is exactly what a
//! fresh resume would reconstruct — zeros — which is what makes a
//! post-crash run bit-identical to the uninterrupted one.
//!
//! ## Divergence gate
//!
//! Replicas are supposed to be bit-identical at every step boundary. Each
//! reduce starts by folding the replica's parameter integrity digests into
//! one word and comparing them at the root; any mismatch aborts the fleet
//! with an `IntegrityViolation` rather than silently averaging diverged
//! models.

use crate::fabric::{Frame, Links};
use crate::ExchangeStats;
use apt_core::{CoreError, GradReducer, StepInfo};
use apt_nn::Network;
use apt_quant::{Bitwidth, GradCodec, PackedCodes};

/// Flat-tree quantised all-reduce over an in-process channel fabric.
///
/// Built by the coordinator, one per rank, around that rank's
/// [`Links`]; plugged into [`Trainer::run`](apt_core::Trainer::run).
#[derive(Debug)]
pub struct TreeReducer {
    links: Links,
    codec: GradCodec,
    sum_bits: Bitwidth,
    /// Flush residuals when `global_step % reset_every == 0` (0 = never):
    /// the checkpoint cadence, so rank-local residual state never outlives
    /// what a checkpoint captures.
    reset_every: u64,
    residuals: Vec<Vec<f32>>,
    stats: ExchangeStats,
}

impl TreeReducer {
    /// A reducer for `links.rank` of a `links.world`-rank fleet,
    /// exchanging gradients at `grad_bits`, flushing error-feedback
    /// residuals every `reset_every` steps (pass the checkpoint cadence,
    /// or 0 when checkpointing is off).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] for a world of fewer than two ranks (a
    /// single rank has nobody to exchange with — the coordinator skips the
    /// reducer entirely); [`CoreError::Quant`] when
    /// `grad_bits + ⌈log₂world⌉` exceeds the 32-bit code limit.
    pub(crate) fn new(
        links: Links,
        grad_bits: Bitwidth,
        reset_every: u64,
    ) -> apt_core::Result<Self> {
        if links.world < 2 {
            return Err(CoreError::BadConfig {
                reason: "TreeReducer needs world ≥ 2 (a single rank reduces nothing)".into(),
            });
        }
        let codec = GradCodec::new(grad_bits);
        let sum_bits = codec.sum_bits(links.world)?;
        Ok(TreeReducer {
            links,
            codec,
            sum_bits,
            reset_every,
            residuals: Vec::new(),
            stats: ExchangeStats::default(),
        })
    }

    /// Exchange statistics accumulated so far.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    fn corrupt(&self, what: &str) -> CoreError {
        CoreError::Corrupt {
            reason: format!(
                "rank {}: gradient-exchange protocol violation: {what}",
                self.links.rank
            ),
        }
    }
}

/// Folds per-parameter integrity digests into one comparable word. Fixed
/// iteration order (layer order) makes the fold deterministic.
fn fold_digest(digests: &[(String, u64)]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for (name, d) in digests {
        for b in name.bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc = (acc ^ d).wrapping_mul(0x0000_0100_0000_01b3);
    }
    acc
}

impl GradReducer for TreeReducer {
    fn reduce(&mut self, info: &StepInfo, net: &mut Network) -> apt_core::Result<u64> {
        let world = self.links.world;
        let rank = self.links.rank;
        let k = u64::from(self.codec.bits().get());
        let ks = u64::from(self.sum_bits.get());

        // Residual flush on the checkpoint cadence — see the module doc.
        if self.reset_every > 0 && info.global_step.is_multiple_of(self.reset_every) {
            for r in &mut self.residuals {
                r.iter_mut().for_each(|x| *x = 0.0);
            }
        }

        // Snapshot the shard-local gradients, in layer order.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        net.visit_params(&mut |p| grads.push(p.grad().data().to_vec()));
        if self.residuals.len() != grads.len() {
            self.residuals = grads.iter().map(|g| vec![0.0f32; g.len()]).collect();
        }

        // ---- Phase 1: divergence gate + order-independent max fold ----
        let digest = fold_digest(&net.integrity_digests());
        let amax: Vec<f32> = grads
            .iter()
            .zip(&self.residuals)
            .map(|(g, r)| {
                g.iter()
                    .zip(r)
                    .map(|(a, b)| (a + b).abs())
                    .fold(0.0f32, f32::max)
            })
            .collect();
        let mut observed = 0u64;
        let gmax: Vec<f32> = if rank == 0 {
            let mut acc = amax;
            let mut ok = true;
            // Fixed rank order 1..world — determinism by construction.
            for slot in 0..world - 1 {
                let (frame, bytes) = self.links.recv(slot)?;
                observed += bytes;
                let Frame::Begin { digest: d, amax: a } = frame else {
                    return Err(self.corrupt("expected Begin uplink"));
                };
                if a.len() != acc.len() {
                    return Err(self.corrupt("parameter count mismatch across replicas"));
                }
                ok &= d == digest;
                for (g, x) in acc.iter_mut().zip(&a) {
                    *g = g.max(*x);
                }
            }
            for slot in 0..world - 1 {
                observed += self.links.send(
                    slot,
                    Frame::Scales {
                        ok,
                        gmax: acc.clone(),
                    },
                )?;
            }
            if !ok {
                return Err(CoreError::IntegrityViolation {
                    epoch: info.epoch,
                    iteration: info.iter,
                    kind: "replica-divergence".into(),
                    incidents: 1,
                });
            }
            acc
        } else {
            observed += self.links.send(0, Frame::Begin { digest, amax })?;
            let (frame, bytes) = self.links.recv(0)?;
            observed += bytes;
            let Frame::Scales { ok, gmax } = frame else {
                return Err(self.corrupt("expected Scales downlink"));
            };
            if !ok {
                return Err(CoreError::IntegrityViolation {
                    epoch: info.epoch,
                    iteration: info.iter,
                    kind: "replica-divergence".into(),
                    incidents: 1,
                });
            }
            gmax
        };
        self.stats.digest_checks += 1;

        // ---- Phase 2: k-bit encode, exact integer sum, broadcast ----
        let scales: Vec<f32> = gmax.iter().map(|&g| self.codec.scale(g)).collect();
        let mut stores = Vec::with_capacity(grads.len());
        let mut up_words = Vec::new();
        for (i, g) in grads.iter().enumerate() {
            let store = self.codec.encode(g, &mut self.residuals[i], scales[i]);
            up_words.extend_from_slice(&self.codec.to_wire(&store));
            stores.push(store);
        }
        let lens: Vec<usize> = grads.iter().map(Vec::len).collect();
        let split = |words: &[u64], bits: u64| -> apt_core::Result<Vec<Vec<u64>>> {
            let mut parts = Vec::with_capacity(lens.len());
            let mut at = 0usize;
            for &n in &lens {
                let w = (n as u64 * bits).div_ceil(64) as usize;
                let Some(part) = words.get(at..at + w) else {
                    return Err(CoreError::Corrupt {
                        reason: "rank payload shorter than the replica's parameter inventory"
                            .into(),
                    });
                };
                parts.push(part.to_vec());
                at += w;
            }
            if at != words.len() {
                return Err(CoreError::Corrupt {
                    reason: "rank payload longer than the replica's parameter inventory".into(),
                });
            }
            Ok(parts)
        };

        let sums: Vec<Vec<i64>> = if rank == 0 {
            let mut acc: Vec<Vec<i64>> =
                stores.iter().map(|s| self.codec.signed_codes(s)).collect();
            for slot in 0..world - 1 {
                let (frame, bytes) = self.links.recv(slot)?;
                observed += bytes;
                let Frame::Codes(words) = frame else {
                    return Err(self.corrupt("expected Codes uplink"));
                };
                for (i, part) in split(&words, k)?.into_iter().enumerate() {
                    let codes = self.codec.from_wire(part, lens[i])?;
                    for (s, c) in acc[i].iter_mut().zip(&codes) {
                        *s += c;
                    }
                }
            }
            let mut down_words = Vec::new();
            for part in &acc {
                let packed = PackedCodes::from_signed(part, self.sum_bits)?;
                down_words.extend_from_slice(packed.data_words());
            }
            for slot in 0..world - 1 {
                observed += self.links.send(slot, Frame::Sums(down_words.clone()))?;
            }
            acc
        } else {
            observed += self.links.send(0, Frame::Codes(up_words))?;
            let (frame, bytes) = self.links.recv(0)?;
            observed += bytes;
            let Frame::Sums(words) = frame else {
                return Err(self.corrupt("expected Sums downlink"));
            };
            let mut out = Vec::with_capacity(lens.len());
            for (i, part) in split(&words, ks)?.into_iter().enumerate() {
                out.push(
                    PackedCodes::from_data_words(part, lens[i], self.sum_bits)
                        .map_err(CoreError::Quant)?
                        .to_signed_vec(),
                );
            }
            out
        };

        // Identical f32 expression on every rank: mean of the exact sums
        // on the shared scale.
        let inv = 1.0f32 / world as f32;
        let mut idx = 0usize;
        net.visit_params(&mut |p| {
            let s = scales[idx];
            for (g, &q) in p.grad_mut().data_mut().iter_mut().zip(&sums[idx]) {
                *g = q as f32 * s * inv;
            }
            idx += 1;
        });

        // ---- Accounting: analytic fabric totals, identical on all ranks ----
        let params = lens.len() as u64;
        let elems: u64 = lens.iter().map(|&n| n as u64).sum();
        let codes_bytes: u64 = lens.iter().map(|&n| 8 * (n as u64 * k).div_ceil(64)).sum();
        let sums_bytes: u64 = lens.iter().map(|&n| 8 * (n as u64 * ks).div_ceil(64)).sum();
        let per_link = (8 + 4 * params) + (1 + 4 * params) + codes_bytes + sums_bytes;
        let fabric_total = (world as u64 - 1) * per_link;
        // The root terminates every link, so it must have observed the
        // whole fabric; peers observe exactly their own link.
        debug_assert_eq!(
            observed,
            if rank == 0 { fabric_total } else { per_link },
            "analytic byte accounting drifted from the frames actually moved"
        );
        self.stats.steps += 1;
        self.stats.bytes_on_wire += fabric_total;
        self.stats.fp32_bytes += (world as u64 - 1) * 2 * 4 * elems;
        // Each rank charges an equal share: the energy account is part of
        // the replicated state, so the charge must be rank-independent.
        Ok(fabric_total / world as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::fabric;
    use apt_core::StepInfo;
    use apt_nn::{models, Mode, QuantScheme};
    use apt_tensor::rng::{normal, seeded};
    use std::thread;

    fn net_with_grads(seed_net: u64, seed_batch: u64) -> Network {
        let mut net = models::mlp(
            "m",
            &[6, 5, 3],
            &QuantScheme::float32(),
            &mut seeded(seed_net),
        )
        .unwrap();
        let x = normal(&[2, 6], 1.0, &mut seeded(seed_batch));
        let _ = net.forward(&x, Mode::Train).unwrap();
        net.backward(&normal(&[2, 3], 1.0, &mut seeded(seed_batch + 9)))
            .unwrap();
        net
    }

    fn grads_of(net: &mut Network) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| out.push(p.grad().data().to_vec()));
        out
    }

    fn exchange(world: usize, bits: u32, batch_seeds: &[u64]) -> (Vec<Vec<Vec<f32>>>, Vec<u64>) {
        let info = StepInfo {
            epoch: 0,
            iter: 0,
            global_step: 1,
        };
        let links = fabric(world);
        let mut handles = Vec::new();
        for (rank, l) in links.into_iter().enumerate() {
            let seed_batch = batch_seeds[rank];
            handles.push(thread::spawn(move || {
                // Same net seed on every rank (replicas), different batch.
                let mut net = net_with_grads(7, seed_batch);
                let mut red = TreeReducer::new(l, Bitwidth::new(bits).unwrap(), 0).unwrap();
                let bytes = red.reduce(&info, &mut net).unwrap();
                (grads_of(&mut net), bytes)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let bytes = results.iter().map(|(_, b)| *b).collect();
        (results.into_iter().map(|(g, _)| g).collect(), bytes)
    }

    #[test]
    fn all_ranks_apply_the_same_reduced_gradient() {
        let (grads, bytes) = exchange(3, 6, &[11, 22, 33]);
        assert_eq!(grads[0], grads[1]);
        assert_eq!(grads[0], grads[2]);
        // Equal-share accounting is rank-independent by construction.
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[0], bytes[2]);
        assert!(bytes[0] > 0);
    }

    #[test]
    fn reduction_is_reproducible_run_to_run() {
        let (a, _) = exchange(4, 4, &[1, 2, 3, 4]);
        let (b, _) = exchange(4, 4, &[1, 2, 3, 4]);
        assert_eq!(a, b, "same inputs ⇒ bit-identical reduction");
    }

    #[test]
    fn wide_codes_recover_the_exact_mean_gradient() {
        // At high precision with error feedback off to one side, the
        // reduced gradient must approach the true mean closely.
        let seeds = [5u64, 6];
        let (grads, _) = exchange(2, 16, &seeds);
        let mut nets: Vec<_> = seeds.iter().map(|&s| net_with_grads(7, s)).collect();
        let locals: Vec<_> = nets.iter_mut().map(grads_of).collect();
        for (pi, reduced) in grads[0].iter().enumerate() {
            for (j, &g) in reduced.iter().enumerate() {
                let mean = (locals[0][pi][j] + locals[1][pi][j]) / 2.0;
                assert!(
                    (g - mean).abs() <= 1e-3 * mean.abs().max(1e-3),
                    "param {pi}[{j}]: reduced {g} vs mean {mean}"
                );
            }
        }
    }

    #[test]
    fn diverged_replica_is_caught_by_the_digest_gate() {
        let info = StepInfo {
            epoch: 2,
            iter: 5,
            global_step: 40,
        };
        let links = fabric(2);
        let mut handles = Vec::new();
        for (rank, l) in links.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                // Different net seeds: replicas diverged before the step.
                let mut net = net_with_grads(7 + rank as u64, 1);
                let mut red = TreeReducer::new(l, Bitwidth::new(4).unwrap(), 0).unwrap();
                red.reduce(&info, &mut net)
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            match err {
                CoreError::IntegrityViolation { kind, epoch, .. } => {
                    assert_eq!(kind, "replica-divergence");
                    assert_eq!(epoch, 2);
                }
                other => panic!("expected divergence abort, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_rank_world_is_rejected() {
        let mut links = fabric(1);
        let err = TreeReducer::new(links.pop().unwrap(), Bitwidth::new(4).unwrap(), 0).unwrap_err();
        assert!(matches!(err, CoreError::BadConfig { .. }));
    }
}
