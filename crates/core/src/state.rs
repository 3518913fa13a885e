//! Serialisable training state — the unit of crash-safe checkpointing.
//!
//! A [`TrainState`] captures *everything* Algorithm 2 needs to continue a
//! run as if it had never stopped: the network parameters and buffers
//! (embedded as an [`apt_nn::checkpoint`] blob), the optimiser state (SGD
//! step counter + per-parameter velocities, or Adam moments), the Gavg
//! profiler's moving averages, the energy account, the report accumulated
//! so far, the divergence-sentinel state, and the loop cursor itself.
//!
//! The binary framing mirrors the network checkpoint's v2 format:
//!
//! ```text
//! magic "APTS" | version u16 | payload_len u32 | crc32 u32 | payload
//! ```
//!
//! (little-endian throughout). The CRC covers the payload, so any single
//! flipped or missing byte is detected on load; the checkpoint directory
//! logic in [`crate::checkpoint`] then falls back to the previous good
//! file. All decode paths are hardened: length fields are bounds-checked
//! against the remaining bytes before any allocation, so truncated or
//! garbage input yields a typed [`CoreError::Corrupt`], never a panic.

use crate::trainer::EpochRecord;
use crate::{CoreError, PrecisionChange};
use apt_energy::EnergyBreakdown;
use apt_nn::checkpoint::{crc32, crc32_update, write_f32s};
use apt_optim::{AdamState, SgdState};
use apt_quant::Bitwidth;
use apt_tensor::Tensor;
use std::io::{Seek, SeekFrom, Write};

/// File magic for training-state blobs (`APTS` = APT State).
pub const STATE_MAGIC: &[u8; 4] = b"APTS";
/// Current training-state format version. v3 added the physically-resident
/// memory accounting (`resident_bytes` per epoch, `peak_resident_bytes`).
pub const STATE_VERSION: u16 = 3;
/// Fixed header size: magic + version + payload_len + crc32.
const HEADER: usize = 4 + 2 + 4 + 4;
/// Dimension-count sanity cap for serialised tensors.
const MAX_RANK: usize = 8;

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
    /// blob (itself CRC-framed and version-dispatched).
    pub net_blob: Vec<u8>,
}

fn corrupt(reason: impl Into<String>) -> CoreError {
    CoreError::Corrupt {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------- encode

/// The frame header of a payload of `len` bytes with CRC-32 `crc`.
fn header(len: usize, crc: u32) -> [u8; HEADER] {
    let mut h = [0u8; HEADER];
    h[..4].copy_from_slice(STATE_MAGIC);
    h[4..6].copy_from_slice(&STATE_VERSION.to_le_bytes());
    h[6..10].copy_from_slice(&(len as u32).to_le_bytes());
    h[10..14].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Where [`write_payload`] puts what it writes: the bytes themselves, a
/// stream, or only their count — the sizing pass that lets a frame be
/// allocated once, at its final size.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
    fn put_f32s(&mut self, vals: &[f32]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.put(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.put(s.as_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
    fn tensor(&mut self, t: &Tensor) {
        self.u32(t.dims().len() as u32);
        for &d in t.dims() {
            self.u32(d as u32);
        }
        self.put_f32s(t.data());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.put(b);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn put_f32s(&mut self, vals: &[f32]) {
        write_f32s(self, vals);
    }
}

/// A [`Sink`] that only counts.
struct Count(usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
    fn put_f32s(&mut self, vals: &[f32]) {
        self.0 += 4 * vals.len();
    }
}

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
            write_f32s(&mut self.chunk, part);
        }
    }
}

/// Calls its argument once per `(parameter name, velocity)`, in order.
pub(crate) type Velocities<'a> = &'a dyn Fn(&mut dyn FnMut(&str, &Tensor));

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(corrupt(format!(
                "need {n} bytes at offset {}, only {} left",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> crate::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> crate::Result<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn f32(&mut self) -> crate::Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f64(&mut self) -> crate::Result<f64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(f64::from_le_bytes(a))
    }
    /// Reads an element count and bounds-checks it against the remaining
    /// bytes, assuming each element occupies at least `min_elem` bytes.
    /// Rejects absurd counts before any allocation happens.
    fn count(&mut self, min_elem: usize) -> crate::Result<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(corrupt(format!(
                "count {n} cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }
    fn str(&mut self) -> crate::Result<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string field is not UTF-8"))
    }
    fn opt_f64(&mut self) -> crate::Result<Option<f64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            tag => Err(corrupt(format!("bad Option tag {tag}"))),
        }
    }
    fn tensor(&mut self) -> crate::Result<Tensor> {
        let rank = self.count(4)?;
        if rank > MAX_RANK {
            return Err(corrupt(format!("tensor rank {rank} exceeds {MAX_RANK}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.u32()? as usize);
        }
        let len = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| corrupt("tensor volume overflows"))?;
        let byte_len = len
            .checked_mul(4)
            .ok_or_else(|| corrupt("tensor byte length overflows"))?;
        if byte_len > self.remaining() {
            return Err(corrupt(format!(
                "tensor of {len} elements cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(self.f32()?);
        }
        Tensor::from_vec(data, &dims).map_err(CoreError::from)
    }
    fn bytes(&mut self) -> crate::Result<Vec<u8>> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }
}

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
        let mut len = Count(0);
        write_payload(&mut len, self, &velocities, &self.net_blob);
        let mut out = Vec::with_capacity(HEADER + len.0);
        out.extend_from_slice(&header(0, 0));
        write_payload(&mut out, self, &velocities, &self.net_blob);
        debug_assert_eq!(out.len(), HEADER + len.0, "the frame was sized exactly");
        let (head, payload) = out.split_at_mut(HEADER);
        head.copy_from_slice(&header(payload.len(), crc32(payload)));
        out
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
        out.write_all(&header(0, 0))?;
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
        out.write_all(&header(len, crc))?;
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
        if blob.len() < HEADER {
            return Err(corrupt(format!(
                "blob of {} bytes is shorter than the {HEADER}-byte header",
                blob.len()
            )));
        }
        if &blob[..4] != STATE_MAGIC {
            return Err(corrupt("bad magic (not an APTS training state)"));
        }
        let version = u16::from_le_bytes([blob[4], blob[5]]);
        if version != STATE_VERSION {
            return Err(corrupt(format!(
                "unsupported training-state version {version} (expected {STATE_VERSION})"
            )));
        }
        let len = u32::from_le_bytes([blob[6], blob[7], blob[8], blob[9]]) as usize;
        let crc = u32::from_le_bytes([blob[10], blob[11], blob[12], blob[13]]);
        let payload = &blob[HEADER..];
        if payload.len() != len {
            return Err(corrupt(format!(
                "payload length mismatch: header says {len}, blob carries {}",
                payload.len()
            )));
        }
        let actual = crc32(payload);
        if actual != crc {
            return Err(corrupt(format!(
                "CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"
            )));
        }
        Self::decode_payload(payload)
    }

    fn decode_payload(payload: &[u8]) -> crate::Result<TrainState> {
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
        let loss_ema = r.opt_f64()?;
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
                let name = r.str()?;
                layer_bits.push((name, r.u32()?));
            }
            let n_gavg = r.count(12)?;
            let mut gavg = Vec::with_capacity(n_gavg);
            for _ in 0..n_gavg {
                let name = r.str()?;
                gavg.push((name, r.f64()?));
            }
            let underflow_rate = r.f64()?;
            let n_changes = r.count(20)?;
            let mut changes = Vec::with_capacity(n_changes);
            for _ in 0..n_changes {
                let layer = r.str()?;
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
            let name = r.str()?;
            profiler.push((name, r.f64()?));
        }
        let optimizer = match r.u8()? {
            0 => OptimizerState::Sgd(SgdState { steps: r.u64()? }),
            1 => {
                let t = r.u64()?;
                let n = r.count(12)?;
                let mut moments = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?;
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
            let name = r.str()?;
            velocities.push((name, r.tensor()?));
        }
        let net_blob = r.bytes()?;
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
fn write_payload(w: &mut impl Sink, s: &TrainState, velocities: Velocities<'_>, net_blob: &[u8]) {
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
    w.opt_f64(s.loss_ema);
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
    w.bytes(net_blob);
}

fn read_bitwidth(r: &mut Reader<'_>) -> crate::Result<Bitwidth> {
    let raw = r.u32()?;
    Bitwidth::new(raw).map_err(|_| corrupt(format!("bitwidth {raw} outside [2, 32]")))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
