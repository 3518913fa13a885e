//! What every workload shares: the recorder its timed phase writes into,
//! the reference kernel, and the trait the runner drives.

use crate::stats::{self, Blocks};
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// One named measurement with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the untraced timed phase of one workload records.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Wall time of each fixed-work block, seconds, by kind of block.
    pub blocks: Blocks,
    /// Reference-kernel timings interleaved with the blocks, µs.
    pub ref_us: Vec<f64>,
    /// Operations (optimiser steps, requests) issued and found wrong.
    pub attempted: u64,
    pub failed: u64,
    /// First few verification failures, for the human-readable report.
    pub errors: Vec<String>,
    /// Highest live heap of the process seen inside a slice, bytes.
    pub heap_peak: u64,
    /// Allocation calls per operation, one sample per slice.
    pub allocs_per_op: Vec<f64>,
}

impl Recorder {
    /// The reference kernel's quietest decile in µs, and its mean over that:
    /// how far the host strayed from its best during the run.
    pub fn reference(&self) -> (f64, f64) {
        let quiet = stats::quiet(&self.ref_us);
        let mean = self.ref_us.iter().sum::<f64>() / self.ref_us.len() as f64;
        (quiet, mean / quiet)
    }

    /// Counts `ops` operations as failed and keeps the reason.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

/// The fixed work a block carries, which turns a block time into the two
/// time-based end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct BlockShape {
    /// Work units finished per block by all callers together: training
    /// samples over all ranks, or served requests over all clients.
    pub units: f64,
    /// Operations one caller waits for, one after the other, per block:
    /// optimiser steps, or request round trips.
    pub ops: f64,
}

/// One workload, set up and ready to be timed.
pub trait Workload {
    fn shape(&self) -> BlockShape;

    /// A little of the timed work, untimed, between set-up and the first
    /// block: caches fill, lazy statics initialise, threads settle.
    fn warm_up(&mut self);

    /// Runs one slice of the untraced timed phase: at least eight
    /// fixed-work blocks, each verified, all recorded.
    fn run_slice(&mut self, rec: &mut Recorder);

    /// Accounted model memory, bytes; exact.
    fn resident_bytes(&self) -> u64;

    /// The traced pass: about `seconds` of work with spans around every
    /// call into a layer, plus the single-call probes, returning the
    /// per-layer metrics this workload's path touches.
    fn trace(&mut self, seconds: f64, tracer: &mut Tracer, rec: &mut Recorder) -> Vec<Metric>;
}

/// Runs untraced slices of `w` for `seconds`, and at least one.
pub fn run_for(w: &mut (impl Workload + ?Sized), rec: &mut Recorder, seconds: f64) {
    let start = Instant::now();
    while rec.blocks.is_empty() || start.elapsed().as_secs_f64() < seconds {
        w.run_slice(rec);
    }
}

/// A fixed kernel owned by the benchmark: one chain of dependent loads
/// walking a 256 KiB table, so its time moves when the host takes the core
/// *or the cache* away, and for no other reason. Returns its wall time in
/// µs. The table is built on first use; the runner calls this once before
/// any set-up so the table is never part of a measured heap or block.
pub fn ref_kernel() -> f64 {
    const SLOTS: usize = 1 << 16;
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // One cycle through every slot (a full-period LCG), so the walk
        // never settles into a short, cache-resident loop.
        (0..SLOTS as u32)
            .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % SLOTS as u32)
            .collect()
    });
    let t = Instant::now();
    let mut at = black_box(0usize);
    for _ in 0..100_000 {
        at = table[at] as usize;
    }
    black_box(at);
    t.elapsed().as_secs_f64() * 1e6
}

/// Quietest decile of `reps` timings of `f`, µs — the single-call probe behind the
/// per-layer `_us` metrics that no span of the traced loop isolates.
pub fn probe_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::quiet(&samples)
}
