//! The deterministic k-bit all-reduce behind the trainer's
//! [`GradReducer`] seam.
//!
//! ## Why this is bit-exact, in any world size, run after run
//!
//! The only floating-point reductions in the protocol are **max** folds
//! (order-independent) and the buffer mean, and the root consumes uplinks
//! in fixed rank order anyway. The value reduction itself — the part where
//! order could matter — happens in the **integer domain**: each rank ships
//! symmetric `k`-bit codes, the root accumulates exact `i32` sums, and
//! every rank applies the identical `sum · s / N` in f32. Integer addition
//! is associative and commutative, so the reduced gradient is a pure
//! function of the rank set, not of arrival order or thread scheduling.
//!
//! An `i32` cannot overflow here. The sum width is `ks = k + ⌈log₂N⌉ ≤ 32`
//! ([`GradCodec::sum_bits`] refuses anything wider), a rank's own codes
//! are bounded by `m = 2^(k−1) − 1`, and even a hostile uplink can hold
//! nothing below the `k`-bit pattern `−2^(k−1)`: `N` such terms stay
//! inside `±2^(k−1) · 2^⌈log₂N⌉ = ±2^(ks−1) ≤ ±2^31`. Honest sums satisfy
//! the tighter `N·m < 2^(ks−1)`, which is checked before they are packed.
//!
//! ## One exchange, streamed
//!
//! Nothing is copied that can be read where it lives. Each rank folds
//! `max |g + r|` straight off its gradients, then encodes them into one
//! `i32` per element held by the reducer across steps. A peer packs that
//! buffer into its `Codes` frame; the root decodes each uplink from the
//! borrowed frame words, one parameter part at a time, adding in place,
//! packs the sums into the `Sums` words (the last peer takes the buffer by
//! move), and a peer decodes those words directly into its gradients. The
//! frame checks are made once, on the borrowed words: total word count
//! against the replica's inventory, zero padding bits per part, summed
//! codes inside the `ks`-bit range. A failed check aborts the step and
//! with it the run, so the parts already decoded — sums, or a peer's first
//! gradients — are never applied.
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
//! ## What is replicated, and by what
//!
//! Parameters are kept bit-identical by construction and *checked*: each
//! reduce starts by folding the replica's parameter integrity digests into
//! one word and comparing them at the root; any mismatch aborts the fleet
//! with an `IntegrityViolation` rather than silently averaging diverged
//! models. State buffers (batch-norm running statistics) are updated from
//! each rank's own shard, so they are *made* identical instead: `Begin`
//! carries them up, the root averages them in rank order 0, 1, …, N−1
//! (`sum · 1/N` in f32 — a fixed order, so deterministic) and every rank
//! overwrites its own with the mean that `Scales` brings back, every step.
//! Training-mode batch norm never reads them, so no gradient changes.

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
    /// One per parameter, layer order; their lengths are the replica's
    /// parameter inventory every frame is checked against.
    residuals: Vec<Vec<f32>>,
    /// One `i32` per gradient element, layer order, kept across steps:
    /// this rank's codes once encoded and, on the root, the exact sums
    /// once every uplink is added (see the module doc for the range).
    codes: Vec<i32>,
    stats: ExchangeStats,
}

/// Canonical words `n` codes of `bits` occupy on the wire.
fn words_for(n: usize, bits: Bitwidth) -> usize {
    (n * bits.get() as usize).div_ceil(64)
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
            codes: Vec::new(),
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

    /// Element count of every parameter, layer order.
    fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.residuals.iter().map(Vec::len)
    }

    /// Words a whole `Codes` / `Sums` payload at `bits` must have.
    fn payload_words(&self, bits: Bitwidth) -> usize {
        self.lens().map(|n| words_for(n, bits)).sum()
    }

    /// Holds a received payload to the replica's parameter inventory.
    fn check_payload(&self, words: &[u64], bits: Bitwidth) -> apt_core::Result<()> {
        let reason = match words.len().cmp(&self.payload_words(bits)) {
            std::cmp::Ordering::Less => {
                "rank payload shorter than the replica's parameter inventory"
            }
            std::cmp::Ordering::Greater => {
                "rank payload longer than the replica's parameter inventory"
            }
            std::cmp::Ordering::Equal => return Ok(()),
        };
        Err(CoreError::Corrupt {
            reason: reason.into(),
        })
    }

    /// The per-parameter parts of this rank's `codes`, packed at `bits`
    /// into one frame payload (range-checked as they are packed).
    fn pack_codes(&self, bits: Bitwidth) -> apt_core::Result<Vec<u64>> {
        let mut words = Vec::with_capacity(self.payload_words(bits));
        let mut rest = &self.codes[..];
        for n in self.lens() {
            let (part, tail) = rest.split_at(n);
            PackedCodes::append_words(part, bits, &mut words)?;
            rest = tail;
        }
        Ok(words)
    }
}

/// Folds every parameter's name and integrity digest into one comparable
/// word, in layer order (FNV-1a over the name bytes, then the digest as
/// one more symbol) — the word the divergence gate compares.
fn replica_digest(net: &Network) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    net.visit_params_ref(&mut |p| {
        for b in p.name().bytes() {
            acc = (acc ^ u64::from(b)).wrapping_mul(PRIME);
        }
        acc = (acc ^ p.integrity_digest()).wrapping_mul(PRIME);
    });
    acc
}

fn divergence(info: &StepInfo) -> CoreError {
    CoreError::IntegrityViolation {
        epoch: info.epoch,
        iteration: info.iter,
        kind: "replica-divergence".into(),
        incidents: 1,
    }
}

impl GradReducer for TreeReducer {
    fn reduce(&mut self, info: &StepInfo, net: &mut Network) -> apt_core::Result<u64> {
        let world = self.links.world;
        let rank = self.links.rank;
        let (k, ks) = (self.codec.bits(), self.sum_bits);

        // Residual flush on the checkpoint cadence — see the module doc.
        if self.reset_every > 0 && info.global_step.is_multiple_of(self.reset_every) {
            for r in &mut self.residuals {
                r.iter_mut().for_each(|x| *x = 0.0);
            }
        }

        // ---- Phase 1: divergence gate, order-independent max fold, ----
        // ---- buffer mean                                            ----
        let digest = replica_digest(net);
        let residuals = &mut self.residuals;
        let mut amax = Vec::with_capacity(residuals.len());
        net.visit_params_ref(&mut |p| {
            let g = p.grad().data();
            if amax.len() == residuals.len() {
                residuals.push(vec![0.0f32; g.len()]);
            }
            let sums = g.iter().zip(&residuals[amax.len()]);
            amax.push(sums.map(|(a, b)| (a + b).abs()).fold(0.0f32, f32::max));
        });
        let mut buffers = Vec::new();
        net.visit_buffers(&mut |_, t| buffers.extend_from_slice(t.data()));
        let (params, buffer_elems) = (amax.len(), buffers.len());

        let mut observed = 0u64;
        let (gmax, mean) = if rank == 0 {
            let (mut gmax, mut mean, mut ok) = (amax, buffers, true);
            // Fixed rank order 1..world — determinism by construction.
            for slot in 0..world - 1 {
                let (frame, bytes) = self.links.recv(slot)?;
                observed += bytes;
                let Frame::Begin {
                    digest: d,
                    amax: a,
                    buffers: b,
                } = frame
                else {
                    return Err(self.corrupt("expected Begin uplink"));
                };
                if a.len() != params {
                    return Err(self.corrupt("parameter count mismatch across replicas"));
                }
                if b.len() != buffer_elems {
                    return Err(self.corrupt("buffer size mismatch across replicas"));
                }
                ok &= d == digest;
                for (g, x) in gmax.iter_mut().zip(&a) {
                    *g = g.max(*x);
                }
                for (m, x) in mean.iter_mut().zip(&b) {
                    *m += x;
                }
            }
            let inv = 1.0f32 / world as f32;
            mean.iter_mut().for_each(|m| *m *= inv);
            for slot in 0..world - 1 {
                observed += self.links.send(
                    slot,
                    Frame::Scales {
                        ok,
                        gmax: gmax.clone(),
                        buffers: mean.clone(),
                    },
                )?;
            }
            if !ok {
                return Err(divergence(info));
            }
            (gmax, mean)
        } else {
            observed += self.links.send(
                0,
                Frame::Begin {
                    digest,
                    amax,
                    buffers,
                },
            )?;
            let (frame, bytes) = self.links.recv(0)?;
            observed += bytes;
            let Frame::Scales { ok, gmax, buffers } = frame else {
                return Err(self.corrupt("expected Scales downlink"));
            };
            if !ok {
                return Err(divergence(info));
            }
            if gmax.len() != params {
                return Err(self.corrupt("parameter count mismatch across replicas"));
            }
            if buffers.len() != buffer_elems {
                return Err(self.corrupt("buffer size mismatch across replicas"));
            }
            (gmax, buffers)
        };
        self.stats.digest_checks += 1;
        let mut rest = &mean[..];
        net.visit_buffers(&mut |_, t| {
            let (part, tail) = rest.split_at(t.len());
            t.data_mut().copy_from_slice(part);
            rest = tail;
        });

        // ---- Phase 2: k-bit encode, exact integer sum, broadcast ----
        let scales: Vec<f32> = gmax.iter().map(|&g| self.codec.scale(g)).collect();
        let elems: usize = self.lens().sum();
        self.codes.resize(elems, 0);
        let (codec, residuals) = (self.codec, &mut self.residuals);
        let mut rest = &mut self.codes[..];
        let mut idx = 0usize;
        net.visit_params_ref(&mut |p| {
            let g = p.grad().data();
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(g.len());
            let codes = codec.codes(g, &mut residuals[idx], scales[idx]);
            for (slot, c) in part.iter_mut().zip(codes) {
                *slot = c;
            }
            rest = tail;
            idx += 1;
        });

        // Identical f32 expression on every rank: mean of the exact sums
        // on the shared scale.
        let inv = 1.0f32 / world as f32;
        if rank == 0 {
            for slot in 0..world - 1 {
                let (frame, bytes) = self.links.recv(slot)?;
                observed += bytes;
                let Frame::Codes(words) = frame else {
                    return Err(self.corrupt("expected Codes uplink"));
                };
                self.check_payload(&words, k)?;
                let (mut words, mut sums) = (&words[..], &mut self.codes[..]);
                for n in self.residuals.iter().map(Vec::len) {
                    let (part, tail) = words.split_at(words_for(n, k));
                    let (acc, rest) = std::mem::take(&mut sums).split_at_mut(n);
                    PackedCodes::read_words(part, n, k, |i, c| acc[i] += c)?;
                    (words, sums) = (tail, rest);
                }
            }
            let down = self.pack_codes(ks)?;
            for slot in 0..world - 2 {
                observed += self.links.send(slot, Frame::Sums(down.clone()))?;
            }
            // The last peer takes the buffer itself.
            observed += self.links.send(world - 2, Frame::Sums(down))?;
            let mut sums = &self.codes[..];
            let mut idx = 0usize;
            net.visit_params(&mut |p| {
                let g = p.grad_mut().data_mut();
                let (part, tail) = sums.split_at(g.len());
                let s = scales[idx];
                for (g, &q) in g.iter_mut().zip(part) {
                    *g = q as f32 * s * inv;
                }
                sums = tail;
                idx += 1;
            });
        } else {
            observed += self.links.send(0, Frame::Codes(self.pack_codes(k)?))?;
            let (frame, bytes) = self.links.recv(0)?;
            observed += bytes;
            let Frame::Sums(words) = frame else {
                return Err(self.corrupt("expected Sums downlink"));
            };
            self.check_payload(&words, ks)?;
            let mut words = &words[..];
            let mut idx = 0usize;
            let mut read = Ok(());
            net.visit_params(&mut |p| {
                if read.is_err() {
                    return;
                }
                let g = p.grad_mut().data_mut();
                let (part, tail) = words.split_at(words_for(g.len(), ks));
                let s = scales[idx];
                read = PackedCodes::read_words(part, g.len(), ks, |i, q| {
                    g[i] = q as f32 * s * inv;
                });
                words = tail;
                idx += 1;
            });
            read?;
        }

        // ---- Accounting: analytic fabric totals, identical on all ranks ----
        let header = 4 * (params + buffer_elems) as u64;
        let payload = 8 * (self.payload_words(k) + self.payload_words(ks)) as u64;
        let per_link = (8 + header) + (1 + header) + payload;
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
        // At fp32 the gradients and the buffers would both cross every
        // link twice, four bytes an element.
        self.stats.fp32_bytes += (world as u64 - 1) * 2 * 4 * (elems + buffer_elems) as u64;
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
    use apt_quant::QuantError;
    use apt_tensor::rng::{normal, seeded};
    use rand::Rng;
    use std::thread;

    fn b(k: u32) -> Bitwidth {
        Bitwidth::new(k).unwrap()
    }

    fn step(global_step: u64) -> StepInfo {
        StepInfo {
            epoch: 0,
            iter: 0,
            global_step,
        }
    }

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
        let info = step(1);
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

    // ---- The oracle: the exchange as it was before it streamed ----

    /// One gradient per parameter, layer order.
    type Grads = Vec<Vec<f32>>;

    fn bits_of(grads: &Grads) -> Vec<Vec<u32>> {
        let bits = |g: &Vec<f32>| g.iter().map(|x| x.to_bits()).collect();
        grads.iter().map(bits).collect()
    }

    /// A whole fleet's exchange on one thread, written from public pieces
    /// only, every code through a `Vec<i64>` and every payload through an
    /// owning `PackedCodes` — the algorithm `TreeReducer` must stay
    /// bit-equal to, byte accounting included (no buffers: an MLP's frames
    /// are the size they always were).
    struct Reference {
        codec: GradCodec,
        world: usize,
        reset_every: u64,
        /// Per rank, per parameter.
        residuals: Vec<Grads>,
        stats: ExchangeStats,
    }

    impl Reference {
        fn new(world: usize, bits: u32, reset_every: u64, lens: &[usize]) -> Self {
            let zeros: Grads = lens.iter().map(|&n| vec![0.0; n]).collect();
            Reference {
                codec: GradCodec::new(b(bits)),
                world,
                reset_every,
                residuals: vec![zeros; world],
                stats: ExchangeStats::default(),
            }
        }

        /// `(the gradient every rank ends with, each rank's byte share)`.
        fn reduce(&mut self, global_step: u64, grads: &[Grads]) -> (Grads, u64) {
            let (k, ks) = (self.codec.bits(), self.codec.sum_bits(self.world).unwrap());
            if self.reset_every > 0 && global_step.is_multiple_of(self.reset_every) {
                for r in self.residuals.iter_mut().flatten() {
                    r.iter_mut().for_each(|x| *x = 0.0);
                }
            }
            let wire_trip = |codes: &[i64], bits: Bitwidth| {
                let narrow: Vec<i32> = codes.iter().map(|&c| c as i32).collect();
                let mut words = Vec::new();
                PackedCodes::append_words(&narrow, bits, &mut words).unwrap();
                let sent = 8 * words.len() as u64;
                let got = PackedCodes::from_data_words(words, codes.len(), bits).unwrap();
                (got.to_signed_vec(), sent)
            };
            let inv = 1.0f32 / self.world as f32;
            let (mut reduced, mut payload) = (Vec::new(), 0u64);
            for p in 0..grads[0].len() {
                let mut gmax = 0.0f32;
                for (g, r) in grads.iter().zip(&self.residuals) {
                    let sum = g[p].iter().zip(&r[p]).map(|(a, b)| (a + b).abs());
                    gmax = gmax.max(sum.fold(0.0f32, f32::max));
                }
                let scale = self.codec.scale(gmax);
                let half = 1i64 << (k.get() - 1);
                let mut sums = vec![0i64; grads[0][p].len()];
                for (rank, (g, r)) in grads.iter().zip(&mut self.residuals).enumerate() {
                    let store = self.codec.encode(&g[p], &mut r[p], scale);
                    let mut codes = vec![0i64; store.len()];
                    store.for_each(0..store.len(), |i, q| codes[i] = q - half);
                    if rank > 0 {
                        let (arrived, bytes) = wire_trip(&codes, k);
                        (codes, payload) = (arrived, payload + bytes);
                    }
                    sums.iter_mut().zip(&codes).for_each(|(s, c)| *s += c);
                }
                let (arrived, bytes) = wire_trip(&sums, ks);
                payload += (self.world as u64 - 1) * bytes;
                reduced.push(arrived.iter().map(|&q| q as f32 * scale * inv).collect());
            }
            let (links, params) = (self.world as u64 - 1, grads[0].len() as u64);
            let elems: u64 = grads[0].iter().map(|g| g.len() as u64).sum();
            let fabric_total = links * ((8 + 4 * params) + (1 + 4 * params)) + payload;
            self.stats.steps += 1;
            self.stats.digest_checks += 1;
            self.stats.bytes_on_wire += fabric_total;
            self.stats.fp32_bytes += links * 2 * 4 * elems;
            (reduced, fabric_total / self.world as u64)
        }
    }

    /// `[16, 4, 1]`: parameters of 64, 4, 4 and 1 elements, so at the swept
    /// widths parts end on a word boundary (64·k always, 4·16) and off it,
    /// and the last part is a single code.
    fn oracle_net() -> Network {
        models::mlp("o", &[16, 4, 1], &QuantScheme::float32(), &mut seeded(7)).unwrap()
    }

    /// Every rank's gradients for one step. Parameter 1 is zero on every
    /// rank at every step (a zero `gmax`); step 2 carries an infinite and
    /// a NaN element, which the flush at step 3 clears out of the
    /// residuals again.
    fn fleet_grads(world: usize, global_step: u64, lens: &[usize]) -> Vec<Grads> {
        let mut r = seeded(1000 * world as u64 + global_step);
        let mut fleet: Vec<Grads> = (0..world)
            .map(|_| {
                let draw = |&n: &usize| (0..n).map(|_| r.gen_range(-0.5f32..0.5)).collect();
                lens.iter().map(draw).collect()
            })
            .collect();
        for grads in &mut fleet {
            grads[1].iter_mut().for_each(|x| *x = 0.0);
        }
        if global_step == 2 {
            fleet[0][2][0] = f32::INFINITY;
            fleet[1][0][3] = f32::NAN;
        }
        fleet
    }

    #[test]
    fn streaming_exchange_is_bit_equal_to_the_reference() {
        const STEPS: u64 = 4;
        const RESET_EVERY: u64 = 3;
        let mut lens = Vec::new();
        oracle_net().visit_params_ref(&mut |p| lens.push(p.len()));
        assert_eq!(lens, [64, 4, 4, 1]);
        for world in [2usize, 3, 4, 5] {
            for bits in [2u32, 4, 7, 8, 16] {
                let inputs: Vec<Vec<Grads>> =
                    (1..=STEPS).map(|s| fleet_grads(world, s, &lens)).collect();
                let handles: Vec<_> = fabric(world)
                    .into_iter()
                    .enumerate()
                    .map(|(rank, links)| {
                        let mine: Vec<Grads> = inputs.iter().map(|f| f[rank].clone()).collect();
                        thread::spawn(move || {
                            let mut net = oracle_net();
                            let mut red = TreeReducer::new(links, b(bits), RESET_EVERY).unwrap();
                            let mut per_step = Vec::new();
                            for (s, grads) in (1..=STEPS).zip(&mine) {
                                let mut at = 0;
                                net.visit_params(&mut |p| {
                                    p.grad_mut().data_mut().copy_from_slice(&grads[at]);
                                    at += 1;
                                });
                                let bytes = red.reduce(&step(s), &mut net).unwrap();
                                per_step.push((grads_of(&mut net), red.residuals.clone(), bytes));
                            }
                            (per_step, red.stats())
                        })
                    })
                    .collect();
                let ranks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

                let mut reference = Reference::new(world, bits, RESET_EVERY, &lens);
                for (i, fleet) in inputs.iter().enumerate() {
                    let (reduced, share) = reference.reduce(i as u64 + 1, fleet);
                    for (rank, (per_step, _)) in ranks.iter().enumerate() {
                        let at = format!("world={world} k={bits} step={} rank={rank}", i + 1);
                        let (grads, residuals, bytes) = &per_step[i];
                        assert_eq!(bits_of(grads), bits_of(&reduced), "{at}");
                        assert_eq!(
                            bits_of(residuals),
                            bits_of(&reference.residuals[rank]),
                            "{at}"
                        );
                        assert_eq!(*bytes, share, "{at}");
                    }
                }
                for (_, stats) in &ranks {
                    assert_eq!(*stats, reference.stats, "world={world} k={bits}");
                }
            }
        }
    }

    // ---- Malformed frames: a typed error each, never a panic ----

    /// Runs rank `rank` of a two-rank fleet against a scripted other side:
    /// `frames` are queued on its link before it starts, and whatever it
    /// sends is left unread.
    fn reduce_against(rank: usize, frames: Vec<Frame>) -> CoreError {
        let mut links = fabric(2);
        let other = links.remove(1 - rank);
        for frame in frames {
            other.send(0, frame).unwrap();
        }
        let mut net = net_with_grads(7, 1);
        let mut red = TreeReducer::new(links.remove(0), b(4), 0).unwrap();
        red.reduce(&step(1), &mut net).unwrap_err()
    }

    /// What an honest peer opens with, for the replica `reduce_against`
    /// builds (four parameters: 30, 5, 15 and 3 elements).
    fn begin() -> Frame {
        Frame::Begin {
            digest: replica_digest(&net_with_grads(7, 1)),
            amax: vec![0.5; 4],
            buffers: Vec::new(),
        }
    }

    fn scales(params: usize) -> Frame {
        Frame::Scales {
            ok: true,
            gmax: vec![0.5; params],
            buffers: Vec::new(),
        }
    }

    /// All-zero codes for that replica: 5 words at k = 4 (parts of 2, 1, 1
    /// and 1), 7 at the two-rank sum width 5 (3, 1, 2 and 1) — each part
    /// but none ending on a word boundary.
    const CODE_WORDS: usize = 5;
    const SUM_WORDS: usize = 7;

    #[test]
    fn malformed_payloads_are_typed_errors() {
        let with_bit = |len: usize, word: usize, bit: u32| {
            let mut words = vec![0u64; len];
            words[word] |= 1 << bit;
            words
        };
        // (rank under test, payload it receives, what it must answer)
        let short = "shorter than the replica's parameter inventory";
        let long = "longer than the replica's parameter inventory";
        let cases: Vec<(usize, Frame, Result<&str, ()>)> = vec![
            (0, Frame::Codes(vec![0; CODE_WORDS - 1]), Ok(short)),
            (0, Frame::Codes(vec![0; CODE_WORDS + 1]), Ok(long)),
            (1, Frame::Sums(vec![0; SUM_WORDS - 1]), Ok(short)),
            (1, Frame::Sums(vec![0; SUM_WORDS + 1]), Ok(long)),
            // A set padding bit in a middle part (the 5-element bias:
            // 20 / 25 bits used) and in the last (12 / 15 used).
            (0, Frame::Codes(with_bit(CODE_WORDS, 2, 20)), Err(())),
            (0, Frame::Codes(with_bit(CODE_WORDS, 4, 63)), Err(())),
            (1, Frame::Sums(with_bit(SUM_WORDS, 3, 25)), Err(())),
            (1, Frame::Sums(with_bit(SUM_WORDS, 6, 63)), Err(())),
            (
                0,
                Frame::Sums(vec![0; CODE_WORDS]),
                Ok("expected Codes uplink"),
            ),
            (
                1,
                Frame::Codes(vec![0; SUM_WORDS]),
                Ok("expected Sums downlink"),
            ),
        ];
        for (rank, payload, expect) in cases {
            let what = format!("rank {rank} given {payload:?}");
            let opening = if rank == 0 { begin() } else { scales(4) };
            match (reduce_against(rank, vec![opening, payload]), expect) {
                (CoreError::Corrupt { reason }, Ok(needle)) => {
                    assert!(reason.contains(needle), "{what}: {reason}")
                }
                (CoreError::Quant(QuantError::CorruptStore { .. }), Err(())) => {}
                (other, _) => panic!("{what}: {other:?}"),
            }
        }
        // The honest payloads those were cut from do pass the checks: the
        // only thing left to fail is the scripted side hanging up.
        for (rank, frames) in [
            (0, vec![begin(), Frame::Codes(vec![0; CODE_WORDS])]),
            (1, vec![scales(4), Frame::Sums(vec![0; SUM_WORDS])]),
        ] {
            let mut links = fabric(2);
            let other = links.remove(1 - rank);
            frames.into_iter().for_each(|f| drop(other.send(0, f)));
            let mut red = TreeReducer::new(links.remove(0), b(4), 0).unwrap();
            red.reduce(&step(1), &mut net_with_grads(7, 1)).unwrap();
        }
    }

    #[test]
    fn short_scales_frame_is_a_typed_error_not_a_panicked_rank() {
        for params in [0, 3, 5] {
            match reduce_against(1, vec![scales(params)]) {
                CoreError::Corrupt { reason } => {
                    assert!(reason.contains("parameter count mismatch"), "{reason}")
                }
                other => panic!("gmax of {params}: {other:?}"),
            }
        }
        match reduce_against(
            0,
            vec![Frame::Begin {
                digest: 0,
                amax: vec![0.5; 4],
                buffers: vec![1.0],
            }],
        ) {
            CoreError::Corrupt { reason } => {
                assert!(reason.contains("buffer size mismatch"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
    }

    // ---- Buffers: made identical by the exchange ----

    fn buffers_of(net: &mut Network) -> Vec<f32> {
        let mut out = Vec::new();
        net.visit_buffers(&mut |_, t| out.extend_from_slice(t.data()));
        out
    }

    #[test]
    fn every_rank_leaves_with_the_rank_ordered_mean_of_the_buffers() {
        const WORLD: usize = 3;
        let handles: Vec<_> = fabric(WORLD)
            .into_iter()
            .enumerate()
            .map(|(rank, links)| {
                thread::spawn(move || {
                    // One replica, three shards: batch norm's running
                    // statistics leave the forward pass different.
                    let scheme = QuantScheme::float32();
                    let mut net = models::cifarnet(4, 8, 0.25, &scheme, &mut seeded(7)).unwrap();
                    let x = normal(&[2, 3, 8, 8], 1.0, &mut seeded(20 + rank as u64));
                    let _ = net.forward(&x, Mode::Train).unwrap();
                    net.backward(&normal(&[2, 4], 1.0, &mut seeded(30)))
                        .unwrap();
                    let before = buffers_of(&mut net);
                    let mut red = TreeReducer::new(links, b(4), 0).unwrap();
                    let bytes = red.reduce(&step(1), &mut net).unwrap();
                    (
                        before,
                        buffers_of(&mut net),
                        bytes,
                        red.stats(),
                        net.num_params(),
                    )
                })
            })
            .collect();
        let ranks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let (b0, b1, b2) = (&ranks[0].0, &ranks[1].0, &ranks[2].0);
        assert!(!b0.is_empty() && b0 != b1 && b1 != b2, "shards must differ");
        let inv = 1.0f32 / WORLD as f32;
        let mean: Vec<f32> = (0..b0.len())
            .map(|i| (b0[i] + b1[i] + b2[i]) * inv)
            .collect();
        for (rank, (_, after, bytes, stats, elems)) in ranks.iter().enumerate() {
            assert_eq!(after, &mean, "rank {rank}");
            // The buffers are on the bill: up and down every link, and in
            // the fp32 figure they would cross the same way.
            assert_eq!((*bytes, *stats), (ranks[0].2, ranks[0].3));
            let extra = 2 * (WORLD as u64 - 1) * 4 * mean.len() as u64;
            assert_eq!(
                stats.fp32_bytes,
                2 * (WORLD as u64 - 1) * 4 * *elems as u64 + extra
            );
            assert!(stats.bytes_on_wire > extra);
        }
    }

    // ---- The divergence digest ----

    /// The fold as it was written over `Network::integrity_digests`.
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

    #[test]
    fn digest_fold_without_the_strings_is_the_same_word() {
        let apt = QuantScheme::paper_apt();
        let nets = [
            net_with_grads(7, 1),
            models::mlp("q", &[9, 4, 2], &apt, &mut seeded(3)).unwrap(),
            models::cifarnet(4, 8, 0.25, &apt, &mut seeded(5)).unwrap(),
        ];
        for net in &nets {
            assert_eq!(replica_digest(net), fold_digest(&net.integrity_digests()));
        }
        assert_ne!(replica_digest(&nets[0]), replica_digest(&nets[1]));
    }
}
