//! memory — physical resident-memory benchmark and CI gate.
//!
//! The point of bit-packed code storage is that APT's memory saving is
//! *physically real*: a 6-bit model must occupy a fraction of the bytes an
//! fp32 model does (the baseline Fig. 5 normalises to), as measured by the
//! process allocator — not just by an idealised `k·N` bit count.
//!
//! This binary builds the same CifarNet in fp32 and fully quantised at
//! every swept bitwidth and records, per cell:
//!
//! * the *accounted* resident bytes (`Network::resident_bytes`, summing the
//!   physical code-store tiers plus any momentum buffers),
//! * the *measured* live heap delta of constructing the network, tracked by
//!   a counting global allocator (alloc **and** dealloc, so transient
//!   buffers cancel out), plus the build's peak,
//! * the serialized checkpoint size (v3 word-packed payloads),
//! * a per-parameter breakdown (logical k, physical storage width, bytes).
//!
//! Outputs: `results/memory.csv` (one row per parameter plus a `net` total
//! row per cell) and `BENCH_memory.json` (cell summaries, and the training
//! step of gate 5 under `training_step`); a `--smoke` run writes
//! `results/memory_smoke.{csv,json}` and leaves the record alone.
//!
//! ```text
//! cargo run --release -p apt-bench --bin memory             # full sweep
//! cargo run --release -p apt-bench --bin memory -- --smoke  # CI gate
//! ```
//!
//! `--smoke` runs the same sweep, then gates:
//!
//! 1. accounted resident bytes of the tiered code store at k = 6 are
//!    ≤ 0.30× the fp32 cell (the i8 tier is 1/4 in theory),
//! 2. the *measured* live heap delta at k = 6 shrinks accordingly
//!    (≤ 0.70×; fp32 gradient buffers are identical in both cells and
//!    dilute the ratio),
//! 3. the k = 6 checkpoint is ≤ 0.30× the fp32 checkpoint of the same
//!    architecture (6-bit packed words vs 32-bit floats ≈ 0.19 + framing),
//! 4. *building* a quantised net at any k ≤ 16 peaks no higher than building
//!    the fp32 one: the codes are quantised straight into the `i8`/`i16`
//!    tier, so no transient outweighs the fp32 tensors it replaces,
//! 5. a training step gives back the heap it takes: one cifarnet(10, 16,
//!    0.5) `paper_apt` forward and `Network::backward` at batch 32, logits
//!    and gradient dropped, ends within 4 KiB of the live heap before its
//!    `forward` — each layer's stash goes with the backward that reads it
//!    — and peaks at most 1.1× as far above that level as it did when the
//!    gate was set.

use apt_bench::{json_doc, row, schema, smoke_flag, table, write_output, CountingAlloc, Gates};
use apt_metrics::Table;
use apt_nn::{checkpoint, models, Mode, Network, ParamStore, QuantScheme};
use apt_quant::Bitwidth;
use apt_tensor::rng;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// One measurement: the fp32 reference or one quantised bitwidth.
struct Cell {
    /// `"float"` (fp32 stores) or `"tiered"` (quantised code stores).
    backend: &'static str,
    bits: u32,
    params: usize,
    resident_bytes: u64,
    memory_bits: u64,
    measured_live_bytes: usize,
    peak_live_bytes: usize,
    checkpoint_bytes: usize,
}

/// Columns of `results/memory.csv`: one row per parameter (logical k,
/// physical storage width, bytes), then a `net` total row per cell.
const BREAKDOWN: &str = "backend,bits,scope,len,logical_bits,physical_bits_per_code,\
     resident_bytes,measured_live_bytes,peak_live_bytes,checkpoint_bytes";

/// The fixed architecture every cell builds: CifarNet with two conv/bn
/// stages and two linear layers (~14k parameters — large enough that
/// per-tensor packing overhead is amortised, small enough to sweep fast).
fn build_net(scheme: &QuantScheme) -> Network {
    models::cifarnet(10, 8, 0.5, scheme, &mut rng::seeded(7)).expect("cifarnet builds")
}

/// Builds the net, measuring the live-heap delta of the construction
/// itself, then the accounted footprint and checkpoint size; appends the
/// net's rows to `breakdown`.
fn measure(backend: &'static str, scheme: &QuantScheme, bits: u32, breakdown: &mut Table) -> Cell {
    let live0 = ALLOC.live();
    ALLOC.reset_peak();
    let mut net = build_net(scheme);
    let c = Cell {
        backend,
        bits,
        params: net.num_params(),
        resident_bytes: net.resident_bytes(),
        memory_bits: net.memory_bits(),
        measured_live_bytes: ALLOC.live().saturating_sub(live0),
        peak_live_bytes: ALLOC.peak().saturating_sub(live0),
        checkpoint_bytes: checkpoint::save_full(&mut net).len(),
    };
    net.visit_params_ref(&mut |p| {
        let (logical, physical) = match p.store() {
            ParamStore::Float(_) => (32, 32),
            ParamStore::MasterCopy { bits, .. } => (bits.get(), 32),
            ParamStore::Projected { projection, .. } => (projection.view_bits(), 32),
            ParamStore::Quantized(q) => (q.bits().get(), q.store().resident_bits_per_code()),
        };
        let (name, len, resident) = (p.name(), p.len(), p.resident_bytes());
        breakdown.push_row(row![
            backend, bits, name, len, logical, physical, resident, 0, 0, 0
        ]);
    });
    breakdown.push_row(row![
        backend,
        bits,
        "net",
        c.params,
        0,
        0,
        c.resident_bytes,
        c.measured_live_bytes,
        c.peak_live_bytes,
        c.checkpoint_bytes
    ]);
    c
}

const SWEEP_BITS: [u32; 9] = [2, 4, 6, 8, 12, 16, 20, 24, 32];

fn find<'a>(cells: &'a [Cell], backend: &str, bits: u32) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.backend == backend && c.bits == bits)
        .expect("cell present in sweep")
}

/// Gate 5's batch, `[n, c, h, w]`: what `benchmark/`'s `train-conv` feeds
/// cifarnet.
const STEP_BATCH: [usize; 4] = [32, 3, 16, 16];

/// Gate 5's step peak above its starting level, as measured when the gate
/// was set; a step may peak a tenth higher.
const STEP_PEAK_BYTES: usize = 1_805_064;

/// One training step's heap, from the live level just before `forward`.
struct StepCell {
    /// How far above that level the step peaked.
    peak_above: usize,
    /// Where the step ended, against that level.
    retained: isize,
}

/// Gate 5's measurement. The first step sizes the thread's im2col scratch,
/// which stays; the second is the one read.
fn training_step() -> StepCell {
    let scheme = QuantScheme::paper_apt();
    let mut net = models::cifarnet(10, STEP_BATCH[2], 0.5, &scheme, &mut rng::seeded(7))
        .expect("cifarnet builds");
    let x = rng::normal(&STEP_BATCH, 1.0, &mut rng::seeded(8));
    let mut step = || {
        let logits = net.forward(&x, Mode::Train).expect("a training forward");
        let grad = rng::normal(logits.dims(), 1.0, &mut rng::seeded(9));
        net.backward(&grad).expect("a backward behind its forward");
    };
    step();
    let before = ALLOC.live();
    ALLOC.reset_peak();
    step();
    StepCell {
        peak_above: ALLOC.peak() - before,
        retained: ALLOC.live() as isize - before as isize,
    }
}

fn smoke(cells: &[Cell], step: &StepCell) -> ExitCode {
    let mut gates = Gates::stdout();
    let f32_cell = find(cells, "float", 32);
    let tiered_6 = find(cells, "tiered", 6);

    // Gate 1: accounted resident bytes — the packed tiers must deliver the
    // physical saving the paper's Fig. 5 memory curve claims.
    let r1 = tiered_6.resident_bytes as f64 / f32_cell.resident_bytes as f64;
    gates.open(format_args!(
        "k=6 / fp32 accounted resident: {}/{} = {r1:.3} (need <= 0.30)",
        tiered_6.resident_bytes, f32_cell.resident_bytes
    ));
    gates.check(
        r1 <= 0.30,
        "packed resident bytes not <= 0.30x the fp32 baseline at k=6",
    );

    // Gate 2: the allocator agrees — live heap delta of building the net
    // shrinks too. Gradient buffers (fp32, identical in both cells) dilute
    // the ratio, hence the looser bound.
    let r2 = tiered_6.measured_live_bytes as f64 / f32_cell.measured_live_bytes as f64;
    gates.open(format_args!(
        "k=6 / fp32 measured live heap: {}/{} = {r2:.3} (need <= 0.70)",
        tiered_6.measured_live_bytes, f32_cell.measured_live_bytes
    ));
    gates.check(
        r2 <= 0.70,
        "measured live heap does not reflect the packed saving at k=6",
    );

    // Gate 3: checkpoint shrinkage — v3 word-packed payloads must carry the
    // saving to disk (6-bit codes vs fp32 ≈ 0.19 plus framing).
    let r3 = tiered_6.checkpoint_bytes as f64 / f32_cell.checkpoint_bytes as f64;
    gates.open(format_args!(
        "k=6 / fp32 checkpoint bytes: {}/{} = {r3:.3} (need <= 0.30)",
        tiered_6.checkpoint_bytes, f32_cell.checkpoint_bytes
    ));
    gates.check(
        r3 <= 0.30,
        "k=6 checkpoint not <= 0.30x the fp32 checkpoint",
    );

    // Gate 4: the saving holds while the model is being built, not only
    // once it stands — a constrained device has to survive construction.
    let worst = cells
        .iter()
        .filter(|c| c.backend == "tiered" && c.bits <= 16)
        .max_by_key(|c| c.peak_live_bytes)
        .expect("the sweep has cells at k <= 16");
    gates.open(format_args!(
        "peak live heap of a k<=16 build, worst (k={}): {} (need <= fp32's {})",
        worst.bits, worst.peak_live_bytes, f32_cell.peak_live_bytes
    ));
    gates.check(
        worst.peak_live_bytes <= f32_cell.peak_live_bytes,
        "building a k<=16 net peaks above building the fp32 net",
    );

    // Gate 5: a training step gives back what it took — each stash goes
    // with the backward that reads it — and peaks no higher than when the
    // stashes were cut to what backward reads.
    let bound = STEP_PEAK_BYTES + STEP_PEAK_BYTES / 10;
    gates.open(format_args!(
        "training step, cifarnet 16x16 w0.5 batch 32: peak {} B above its start \
         (need <= {bound}), {} B retained (need |.| <= 4096)",
        step.peak_above, step.retained
    ));
    gates.check(
        step.retained.unsigned_abs() <= 4096,
        "a stash outlived the backward that read it",
    );
    gates.check(
        step.peak_above <= bound,
        "a training step peaks above 1.1x its recorded peak",
    );
    gates.finish()
}

fn main() -> ExitCode {
    let smoke_mode = smoke_flag();
    println!("# memory: resident-bytes sweep, fp32 + bitwidths (CifarNet 10-class, 8x8, w0.5)");
    let mut breakdown = table(BREAKDOWN);
    // fp32 reference arm — the baseline Fig. 5 normalises to.
    let mut cells = vec![measure(
        "float",
        &QuantScheme::float32(),
        32,
        &mut breakdown,
    )];
    for &k in &SWEEP_BITS {
        let scheme = QuantScheme::fully_quantized(Bitwidth::new(k).expect("valid bitwidth"));
        cells.push(measure("tiered", &scheme, k, &mut breakdown));
    }
    let mut summary = table(schema::MEMORY);
    for c in &cells {
        summary.push_row(row![
            c.backend,
            c.bits,
            c.params,
            c.resident_bytes,
            c.memory_bits,
            c.measured_live_bytes,
            c.peak_live_bytes,
            c.checkpoint_bytes
        ]);
    }
    println!("{summary}");
    let step = training_step();
    let mut steps = table(schema::MEMORY_STEP);
    steps.push_row(row![
        "cifarnet",
        STEP_BATCH[0],
        step.peak_above,
        step.retained
    ]);
    println!("{steps}");
    write_output(smoke_mode, "results/memory.csv", &breakdown.to_csv());
    let record = json_doc(&[], &[("cells", &summary), ("training_step", &steps)]);
    write_output(smoke_mode, "BENCH_memory.json", &record);
    if smoke_mode {
        smoke(&cells, &step)
    } else {
        ExitCode::SUCCESS
    }
}
