//! Serialisable training state — the unit of crash-safe checkpointing.
//!
//! A [`TrainState`] captures *everything* Algorithm 2 needs to continue a
//! run as if it had never stopped: the network parameters and buffers
//! (embedded as an [`apt_nn::checkpoint`] blob), the optimiser state (SGD
//! step counter + per-parameter velocities, or Adam moments), the Gavg
//! profiler's moving averages, the energy account, the report accumulated
//! so far, the divergence-sentinel state, and the loop cursor itself.
//!
//! The blob is framed, written and read through the network checkpoint's
//! codec ([`apt_nn::checkpoint`]: one frame, one [`Sink`] writer interface,
//! one bounds-checked [`Reader`]):
//!
//! ```text
//! magic "APTS" | version u16 = 3 | payload_len u32 | crc32 u32 | payload
//! ```
//!
//! (little-endian throughout). Only the current version is read. The CRC
//! covers the payload, so any single flipped or missing byte is detected
//! on load; the checkpoint directory logic in [`crate::checkpoint`] then
//! falls back to the previous good file. Every length field is
//! bounds-checked against the remaining bytes before any allocation, so
//! truncated or garbage input yields a typed [`CoreError::Corrupt`], never
//! a panic.

use crate::trainer::EpochRecord;
use crate::{CoreError, PrecisionChange};
use apt_energy::EnergyBreakdown;
use apt_nn::checkpoint::{crc32_update, frame, frame_head, unframe, Reader, Sink, HEADER};
use apt_nn::NnError;
use apt_optim::{AdamState, SgdState};
use apt_quant::Bitwidth;
use apt_tensor::Tensor;
use std::io::{Seek, SeekFrom, Write};

/// File magic for training-state blobs (`APTS` = APT State).
pub const STATE_MAGIC: &[u8; 4] = b"APTS";
/// Current training-state format version. v3 added the physically-resident
/// memory accounting (`resident_bytes` per epoch, `peak_resident_bytes`).
pub const STATE_VERSION: u16 = 3;

/// Optimiser state embedded in a [`TrainState`], tagged by kind so a
/// resume under the wrong [`crate::OptimizerKind`] fails loudly instead of
/// silently resetting momentum.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerState {
    /// SGD: the per-step RNG counter (velocities live on the params and are
    /// captured separately in [`TrainState::velocities`]).
    Sgd(SgdState),
    /// Adam: step counter plus first/second moments per parameter.
    Adam(AdamState),
}

/// Complete snapshot of a training run between two optimiser steps.
///
/// Produced by the trainer every `checkpoint.every` steps (and after every
/// clean step when the divergence sentinel is armed); consumed by
/// [`crate::Trainer::run`] and by the sentinel's rollback path.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Master seed of the run (sanity-checked against the config on
    /// resume — data order and RNG streams derive from it).
    pub seed: u64,
    /// Total epochs the run was configured for (sanity-checked likewise).
    pub total_epochs: u64,
    /// Epoch of the **next** step to execute.
    pub epoch: u64,
    /// Within-epoch index of the next step (may equal the batch count, in
    /// which case resume goes straight to end-of-epoch processing).
    pub iter: u64,
    /// Optimiser steps completed so far across the whole run.
    pub global_step: u64,
    /// Sum of per-batch losses accumulated in the current epoch.
    pub loss_sum: f64,
    /// Number of batches folded into `loss_sum`.
    pub loss_count: u64,
    /// Quantised updates that underflowed in the current epoch.
    pub underflowed: u64,
    /// Total quantised updates attempted in the current epoch.
    pub quantized_total: u64,
    /// Most recent test accuracy (carried into [`EpochRecord`]s between
    /// evaluations).
    pub last_acc: f64,
    /// Best test accuracy seen so far (−∞ before the first evaluation).
    pub best_seen: f64,
    /// Evaluations since `best_seen` improved (early-stop counter).
    pub evals_since_best: u64,
    /// Divergence-sentinel learning-rate multiplier (1.0 = untouched).
    pub lr_scale: f64,
    /// Divergence-sentinel loss EMA (`None` before the first clean step).
    pub loss_ema: Option<f64>,
    /// Peak training-memory footprint so far, bits.
    pub peak_memory_bits: u64,
    /// Peak physically-resident model state so far, bytes.
    pub peak_resident_bytes: u64,
    /// Per-epoch records completed so far.
    pub epochs: Vec<EpochRecord>,
    /// Energy account at the snapshot point.
    pub energy: EnergyBreakdown,
    /// Gavg profiler export ([`crate::GavgProfiler::export`]).
    pub profiler: Vec<(String, f64)>,
    /// Optimiser state, tagged by kind.
    pub optimizer: OptimizerState,
    /// Per-parameter momentum velocities, by parameter name (only params
    /// whose velocity has been materialised appear).
    pub velocities: Vec<(String, Tensor)>,
    /// Network parameters + buffers as an [`apt_nn::checkpoint::save_full`]
    /// blob (itself CRC-framed).
    pub net_blob: Vec<u8>,
}

fn corrupt(reason: impl Into<String>) -> NnError {
    NnError::Corrupt {
        reason: reason.into(),
    }
}

/// The one boundary where an on-flash decode error becomes this crate's:
/// structural damage and a foreign version are both a corrupt state file.
fn corrupt_state(e: NnError) -> CoreError {
    match e {
        NnError::Corrupt { reason } => CoreError::Corrupt { reason },
        NnError::UnsupportedVersion { version } => CoreError::Corrupt {
            reason: format!(
                "unsupported training-state version {version} (expected {STATE_VERSION})"
            ),
        },
        other => other.into(),
    }
}

// ---------------------------------------------------------------- encode

/// Bytes a [`Stream`] gathers before it checksums and writes them.
const STREAM_CHUNK: usize = 64 * 1024;

/// A [`Sink`] that writes to `out` in [`STREAM_CHUNK`]s, counting and
/// checksumming what passes; the first write error is kept and the rest of
/// the payload dropped.
struct Stream<'a, W> {
    out: &'a mut W,
    chunk: Vec<u8>,
    len: usize,
    crc: u32,
    err: Option<std::io::Error>,
}

impl<W: Write> Stream<'_, W> {
    fn emit(&mut self, bytes: &[u8]) {
        self.len += bytes.len();
        self.crc = crc32_update(self.crc, bytes);
        if self.err.is_none() {
            self.err = self.out.write_all(bytes).err();
        }
    }

    fn flush(&mut self) {
        let mut chunk = std::mem::take(&mut self.chunk);
        self.emit(&chunk);
        chunk.clear();
        self.chunk = chunk;
    }
}

impl<W: Write> Sink for Stream<'_, W> {
    fn put(&mut self, bytes: &[u8]) {
        if self.chunk.len() + bytes.len() > STREAM_CHUNK {
            self.flush();
        }
        if bytes.len() > STREAM_CHUNK {
            self.emit(bytes);
        } else {
            self.chunk.extend_from_slice(bytes);
        }
    }
    fn put_f32s(&mut self, vals: &[f32]) {
        for part in vals.chunks(STREAM_CHUNK / 4) {
            if self.chunk.len() + 4 * part.len() > STREAM_CHUNK {
                self.flush();
            }
            self.chunk.put_f32s(part);
        }
    }
}

/// Calls its argument once per `(parameter name, velocity)`, in order.
pub(crate) type Velocities<'a> = &'a dyn Fn(&mut dyn FnMut(&str, &Tensor));

impl TrainState {
    /// Serialises this state into the CRC-framed `APTS` binary format,
    /// allocated at exactly the framed size, the payload checksummed where
    /// it was written.
    pub fn encode(&self) -> Vec<u8> {
        let velocities = |f: &mut dyn FnMut(&str, &Tensor)| {
            for (name, v) in &self.velocities {
                f(name, v);
            }
        };
        frame(STATE_MAGIC, STATE_VERSION, |w| {
            write_payload(w, self, &velocities, &self.net_blob)
        })
    }

    /// [`encode`](TrainState::encode) streamed to `out` (a file, in the
    /// trainer) through a small buffer, with the velocities and the network
    /// blob supplied by the caller in place of `self.velocities` and
    /// `self.net_blob`: the live network's momentum buffers go out without
    /// a copy of the state being made first. The header is written last,
    /// once the payload's length and CRC are known. Same bytes as `encode`.
    ///
    /// # Errors
    ///
    /// The first error `out` returned.
    pub(crate) fn encode_to<W: Write + Seek>(
        &self,
        out: &mut W,
        velocities: Velocities<'_>,
        net_blob: &[u8],
    ) -> std::io::Result<()> {
        let start = out.stream_position()?;
        out.write_all(&[0; HEADER])?;
        let mut stream = Stream {
            out: &mut *out,
            chunk: Vec::with_capacity(STREAM_CHUNK),
            len: 0,
            crc: 0,
            err: None,
        };
        write_payload(&mut stream, self, velocities, net_blob);
        stream.flush();
        let (len, crc) = (stream.len, stream.crc);
        if let Some(e) = stream.err {
            return Err(e);
        }
        out.seek(SeekFrom::Start(start))?;
        out.write_all(&frame_head(STATE_MAGIC, STATE_VERSION, len, crc))?;
        out.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// Parses a blob produced by [`encode`](TrainState::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Corrupt`] on bad magic, an unsupported version,
    /// a length/CRC mismatch, or any structural inconsistency in the
    /// payload. Never panics, for any input.
    pub fn decode(blob: &[u8]) -> crate::Result<TrainState> {
        unframe(blob, STATE_MAGIC, STATE_VERSION)
            .and_then(Self::decode_payload)
            .map_err(corrupt_state)
    }

    fn decode_payload(payload: &[u8]) -> apt_nn::Result<TrainState> {
        let mut r = Reader::new(payload);
        let seed = r.u64()?;
        let total_epochs = r.u64()?;
        let epoch = r.u64()?;
        let iter = r.u64()?;
        let global_step = r.u64()?;
        let loss_sum = r.f64()?;
        let loss_count = r.u64()?;
        let underflowed = r.u64()?;
        let quantized_total = r.u64()?;
        let last_acc = r.f64()?;
        let best_seen = r.f64()?;
        let evals_since_best = r.u64()?;
        let lr_scale = r.f64()?;
        let loss_ema = match r.u8()? {
            0 => None,
            1 => Some(r.f64()?),
            tag => return Err(corrupt(format!("bad Option tag {tag}"))),
        };
        let peak_memory_bits = r.u64()?;
        let peak_resident_bytes = r.u64()?;

        // One EpochRecord is at least: epoch 8 + lr 4 + three f64 24 +
        // memory 8 + resident 8 + three counts 12 + underflow 8 = 72 bytes.
        let n_epochs = r.count(72)?;
        let mut epochs = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            let e_epoch = r.u64()? as usize;
            let lr = r.f32()?;
            let train_loss = r.f64()?;
            let test_accuracy = r.f64()?;
            let cumulative_energy_pj = r.f64()?;
            let memory_bits = r.u64()?;
            let resident_bytes = r.u64()?;
            let n_bits = r.count(8)?;
            let mut layer_bits = Vec::with_capacity(n_bits);
            for _ in 0..n_bits {
                let name = r.str()?.to_string();
                layer_bits.push((name, r.u32()?));
            }
            let n_gavg = r.count(12)?;
            let mut gavg = Vec::with_capacity(n_gavg);
            for _ in 0..n_gavg {
                let name = r.str()?.to_string();
                gavg.push((name, r.f64()?));
            }
            let underflow_rate = r.f64()?;
            let n_changes = r.count(20)?;
            let mut changes = Vec::with_capacity(n_changes);
            for _ in 0..n_changes {
                let layer = r.str()?.to_string();
                let from = read_bitwidth(&mut r)?;
                let to = read_bitwidth(&mut r)?;
                changes.push(PrecisionChange {
                    layer,
                    from,
                    to,
                    gavg: r.f64()?,
                });
            }
            epochs.push(EpochRecord {
                epoch: e_epoch,
                lr,
                train_loss,
                test_accuracy,
                cumulative_energy_pj,
                memory_bits,
                resident_bytes,
                layer_bits,
                gavg,
                underflow_rate,
                changes,
            });
        }

        let energy = EnergyBreakdown {
            compute_pj: r.f64()?,
            memory_pj: r.f64()?,
            iterations: r.u64()?,
        };
        let n_prof = r.count(12)?;
        let mut profiler = Vec::with_capacity(n_prof);
        for _ in 0..n_prof {
            let name = r.str()?.to_string();
            profiler.push((name, r.f64()?));
        }
        let optimizer = match r.u8()? {
            0 => OptimizerState::Sgd(SgdState { steps: r.u64()? }),
            1 => {
                let t = r.u64()?;
                let n = r.count(12)?;
                let mut moments = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?.to_string();
                    let m = r.tensor()?;
                    moments.push((name, m, r.tensor()?));
                }
                OptimizerState::Adam(AdamState { t, moments })
            }
            tag => return Err(corrupt(format!("bad optimizer tag {tag}"))),
        };
        let n_vel = r.count(8)?;
        let mut velocities = Vec::with_capacity(n_vel);
        for _ in 0..n_vel {
            let name = r.str()?.to_string();
            velocities.push((name, r.tensor()?));
        }
        let n = r.count(1)?;
        let net_blob = r.take(n)?.to_vec();
        if r.remaining() != 0 {
            return Err(corrupt(format!(
                "{} trailing bytes after training state",
                r.remaining()
            )));
        }
        Ok(TrainState {
            seed,
            total_epochs,
            epoch,
            iter,
            global_step,
            loss_sum,
            loss_count,
            underflowed,
            quantized_total,
            last_acc,
            best_seen,
            evals_since_best,
            lr_scale,
            loss_ema,
            peak_memory_bits,
            peak_resident_bytes,
            epochs,
            energy,
            profiler,
            optimizer,
            velocities,
            net_blob,
        })
    }
}

/// The `APTS` payload: `s`'s fields in format order, with the velocities
/// and the network blob taken from the arguments.
fn write_payload(w: &mut dyn Sink, s: &TrainState, velocities: Velocities<'_>, net_blob: &[u8]) {
    w.u64(s.seed);
    w.u64(s.total_epochs);
    w.u64(s.epoch);
    w.u64(s.iter);
    w.u64(s.global_step);
    w.f64(s.loss_sum);
    w.u64(s.loss_count);
    w.u64(s.underflowed);
    w.u64(s.quantized_total);
    w.f64(s.last_acc);
    w.f64(s.best_seen);
    w.u64(s.evals_since_best);
    w.f64(s.lr_scale);
    match s.loss_ema {
        Some(x) => {
            w.u8(1);
            w.f64(x);
        }
        None => w.u8(0),
    }
    w.u64(s.peak_memory_bits);
    w.u64(s.peak_resident_bytes);
    w.u32(s.epochs.len() as u32);
    for e in &s.epochs {
        w.u64(e.epoch as u64);
        w.f32(e.lr);
        w.f64(e.train_loss);
        w.f64(e.test_accuracy);
        w.f64(e.cumulative_energy_pj);
        w.u64(e.memory_bits);
        w.u64(e.resident_bytes);
        w.u32(e.layer_bits.len() as u32);
        for (name, bits) in &e.layer_bits {
            w.str(name);
            w.u32(*bits);
        }
        w.u32(e.gavg.len() as u32);
        for (name, g) in &e.gavg {
            w.str(name);
            w.f64(*g);
        }
        w.f64(e.underflow_rate);
        w.u32(e.changes.len() as u32);
        for c in &e.changes {
            w.str(&c.layer);
            w.u32(c.from.get());
            w.u32(c.to.get());
            w.f64(c.gavg);
        }
    }
    w.f64(s.energy.compute_pj);
    w.f64(s.energy.memory_pj);
    w.u64(s.energy.iterations);
    w.u32(s.profiler.len() as u32);
    for (name, v) in &s.profiler {
        w.str(name);
        w.f64(*v);
    }
    match &s.optimizer {
        OptimizerState::Sgd(s) => {
            w.u8(0);
            w.u64(s.steps);
        }
        OptimizerState::Adam(a) => {
            w.u8(1);
            w.u64(a.t);
            w.u32(a.moments.len() as u32);
            for (name, m, v) in &a.moments {
                w.str(name);
                w.tensor(m);
                w.tensor(v);
            }
        }
    }
    let mut n = 0u32;
    velocities(&mut |_, _| n += 1);
    w.u32(n);
    velocities(&mut |name, v| {
        w.str(name);
        w.tensor(v);
    });
    w.u32(net_blob.len() as u32);
    w.put(net_blob);
}

fn read_bitwidth(r: &mut Reader<'_>) -> apt_nn::Result<Bitwidth> {
    let raw = r.u32()?;
    Bitwidth::new(raw).map_err(|_| corrupt(format!("bitwidth {raw} outside [2, 32]")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_nn::checkpoint::crc32;
    use apt_tensor::rng;

    fn sample_state() -> TrainState {
        TrainState {
            seed: 42,
            total_epochs: 7,
            epoch: 2,
            iter: 3,
            global_step: 19,
            loss_sum: 4.25,
            loss_count: 3,
            underflowed: 11,
            quantized_total: 640,
            last_acc: 0.75,
            best_seen: 0.8,
            evals_since_best: 1,
            lr_scale: 0.5,
            loss_ema: Some(1.375),
            peak_memory_bits: 12_345,
            peak_resident_bytes: 2_048,
            epochs: vec![EpochRecord {
                epoch: 0,
                lr: 0.1,
                train_loss: 1.5,
                test_accuracy: 0.6,
                cumulative_energy_pj: 321.5,
                memory_bits: 9_000,
                resident_bytes: 1_125,
                layer_bits: vec![("fc0.weight".into(), 6)],
                gavg: vec![("fc0.weight".into(), 3.5)],
                underflow_rate: 0.25,
                changes: vec![PrecisionChange {
                    layer: "fc0.weight".into(),
                    from: Bitwidth::new(6).unwrap(),
                    to: Bitwidth::new(7).unwrap(),
                    gavg: 2.0,
                }],
            }],
            energy: EnergyBreakdown {
                compute_pj: 100.0,
                memory_pj: 221.5,
                iterations: 19,
            },
            profiler: vec![("fc0.weight".into(), 3.5)],
            optimizer: OptimizerState::Sgd(SgdState { steps: 19 }),
            velocities: vec![(
                "fc0.weight".into(),
                Tensor::from_vec(vec![0.5, -0.25, 0.0, 1.0], &[2, 2]).unwrap(),
            )],
            net_blob: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let s = sample_state();
        assert_eq!(TrainState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn adam_state_roundtrips() {
        let mut s = sample_state();
        s.optimizer = OptimizerState::Adam(AdamState {
            t: 5,
            moments: vec![(
                "fc0.weight".into(),
                Tensor::from_vec(vec![0.1, 0.2], &[2]).unwrap(),
                Tensor::from_vec(vec![0.3, 0.4], &[2]).unwrap(),
            )],
        });
        s.loss_ema = None;
        assert_eq!(TrainState::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn streamed_and_exact_size_encodes_are_the_bytes_of_encode() {
        let mut s = sample_state();
        // Long enough to cross several stream chunks, in a tensor and in
        // the blob.
        let long = Tensor::from_vec((0..40_000).map(|i| i as f32 * 0.5).collect(), &[200, 200]);
        s.velocities.push(("big".into(), long.unwrap()));
        s.net_blob = (0..150_000u32).map(|i| (i % 251) as u8).collect();
        let blob = s.encode();
        assert_eq!(blob.capacity(), blob.len(), "allocated at the framed size");

        let velocities = |f: &mut dyn FnMut(&str, &Tensor)| {
            for (name, v) in &s.velocities {
                f(name, v);
            }
        };
        // After a prefix, as a file opened for append would have.
        let mut file = std::io::Cursor::new(vec![9u8; 5]);
        file.seek(SeekFrom::End(0)).unwrap();
        s.encode_to(&mut file, &velocities, &s.net_blob).unwrap();
        assert_eq!(file.position() as usize, 5 + blob.len());
        assert_eq!(&file.get_ref()[5..], &blob[..]);
    }

    #[test]
    fn every_byte_flip_is_rejected() {
        let blob = sample_state().encode();
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(
                TrainState::decode(&bad).is_err(),
                "flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let blob = sample_state().encode();
        for n in 0..blob.len() {
            assert!(
                TrainState::decode(&blob[..n]).is_err(),
                "truncation to {n} bytes was accepted"
            );
        }
    }

    #[test]
    fn garbage_and_wrong_version_yield_typed_errors() {
        assert!(matches!(
            TrainState::decode(b"nonsense-bytes"),
            Err(CoreError::Corrupt { .. })
        ));
        let mut blob = sample_state().encode();
        blob[4] = 9; // version 9
        match TrainState::decode(&blob) {
            Err(CoreError::Corrupt { reason }) => {
                assert!(reason.contains("version"), "reason: {reason}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate_or_panic() {
        // A payload claiming u32::MAX epochs must be rejected by the
        // count-vs-remaining check (after deliberately fixing up the CRC so
        // the integrity layer passes and the structural layer is exercised).
        let s = sample_state();
        let framed = s.encode();
        let payload = framed[super::HEADER..].to_vec();
        // Corrupt every u32-aligned site with u32::MAX — whichever one is a
        // count field must be caught by the count-vs-remaining check.
        for i in (0..payload.len().saturating_sub(4)).step_by(4) {
            let mut bad_payload = payload.clone();
            bad_payload[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut blob = Vec::new();
            blob.extend_from_slice(STATE_MAGIC);
            blob.extend_from_slice(&STATE_VERSION.to_le_bytes());
            blob.extend_from_slice(&(bad_payload.len() as u32).to_le_bytes());
            blob.extend_from_slice(&crc32(&bad_payload).to_le_bytes());
            blob.extend_from_slice(&bad_payload);
            // Must not panic; may error or (rarely) still parse if the site
            // was an f64 fragment.
            let _ = TrainState::decode(&blob);
        }
    }

    /// A [`Sink`] that keeps the bytes and where each `u8` / `u32` field —
    /// every count, string length, tag and bitwidth — lies.
    #[derive(Default)]
    struct Fields {
        bytes: Vec<u8>,
        sites: Vec<(usize, usize)>,
    }

    impl Sink for Fields {
        fn put(&mut self, bytes: &[u8]) {
            self.bytes.put(bytes);
        }
        fn put_f32s(&mut self, vals: &[f32]) {
            self.bytes.put_f32s(vals);
        }
        fn u8(&mut self, v: u8) {
            self.sites.push((self.bytes.len(), 1));
            self.bytes.u8(v);
        }
        fn u32(&mut self, v: u32) {
            self.sites.push((self.bytes.len(), 4));
            self.bytes.u32(v);
        }
    }

    #[test]
    fn structured_mutations_past_the_crc_end_typed() {
        // Each case rewrites one or two count, length, tag or bitwidth
        // fields of a real state's payload as a hostile writer would, and
        // frames the result with a correct CRC: it reaches the payload
        // parser, which the flip and truncation sweeps (stopped by the CRC)
        // never do. Every case decodes or is refused as `Corrupt`, never
        // panics, and a state that decodes carries a network blob that
        // loads or is refused typed.
        use rand::Rng;
        let scheme = apt_nn::QuantScheme::paper_apt();
        let mut net = apt_nn::models::mlp("m", &[4, 3, 2], &scheme, &mut rng::seeded(1)).unwrap();
        let mut sgd = sample_state();
        sgd.net_blob = apt_nn::checkpoint::save_full(&mut net);
        let mut adam = sgd.clone();
        let moment = Tensor::from_vec(vec![0.1, 0.2], &[2]).unwrap();
        adam.optimizer = OptimizerState::Adam(AdamState {
            t: 5,
            moments: vec![("fc0.weight".into(), moment.clone(), moment)],
        });
        let mut r = rng::seeded(36);
        let (mut refused, mut decoded) = (0, 0);
        for s in [sgd, adam] {
            let velocities = |f: &mut dyn FnMut(&str, &Tensor)| {
                for (name, v) in &s.velocities {
                    f(name, v);
                }
            };
            let mut fields = Fields::default();
            write_payload(&mut fields, &s, &velocities, &s.net_blob);
            assert_eq!(fields.bytes, s.encode()[HEADER..]);
            for _ in 0..1000 {
                let mut payload = fields.bytes.clone();
                for _ in 0..r.gen_range(1..=2) {
                    let (at, width) = fields.sites[r.gen_range(0..fields.sites.len())];
                    let mut old = [0u8; 4];
                    old[..width].copy_from_slice(&payload[at..at + width]);
                    let old = u32::from_le_bytes(old);
                    let new = match r.gen_range(0..7) {
                        0 => 0,
                        1 => 1,
                        2 => old.wrapping_add(1),
                        3 => old.wrapping_sub(1),
                        4 => old.wrapping_mul(2),
                        5 => u32::MAX,
                        _ => r.gen(),
                    };
                    payload[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
                }
                let head = frame_head(STATE_MAGIC, STATE_VERSION, payload.len(), crc32(&payload));
                match TrainState::decode(&[&head[..], &payload].concat()) {
                    Ok(state) => {
                        let _ = apt_nn::checkpoint::load(&mut net, &state.net_blob);
                        decoded += 1;
                    }
                    Err(CoreError::Corrupt { reason }) => {
                        assert!(!reason.contains("CRC"), "{reason}");
                        refused += 1;
                    }
                    Err(other) => panic!("refused untyped: {other:?}"),
                }
            }
        }
        assert!(
            refused > 1000 && decoded > 0,
            "{refused} refused, {decoded} decoded"
        );
    }
}
