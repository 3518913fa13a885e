//! Parity cells, gate 9: the same k=4 checkpoint served twice at batch8 on
//! one thread — once from its dequant-cache plan (f32 GEMM on weights
//! dequantised at compile time) and once from its int-gemm plan (packed
//! integer panels, fused rescale). The integer plan must achieve its lane
//! with zero corrupted or lost responses and hold
//! [`PARITY_INT_FLOOR_RPS`]. Its ratio to the dequant-cache plan is
//! printed and not gated: the f32 GEMM is register-tiled and
//! AVX2-dispatched while the integer kernel is neither, so at batch 8 the
//! integer plan trails (0.6–1.2×, median 0.81× — DESIGN.md §14, ROADMAP
//! item 4).

use crate::{push_row, throughput, Gates, BATCH8};
use apt_metrics::Table;
use apt_serve::KernelLane;

/// Floor on the int-gemm parity cell's throughput, req/s: ~40 % of the
/// worst rate observed over 41 smoke runs on a disturbed 2-vCPU host
/// (13,420; the middle 80 % read 18.7–25.0k, and the parent commit's
/// cell 20–24k) — the way the kernels bench sets its quantize/dequantize
/// and i8-GEMM floors. An absolute rate, not a ratio to the dequant-cache
/// plan: that plan's f32 GEMM moves with every f32 kernel change, and a
/// gate on the integer lane should not.
const PARITY_INT_FLOOR_RPS: f64 = 5_000.0;

pub(crate) fn run(gates: &mut Gates, rows: &mut Table, per_client: usize) {
    gates.open(format_args!(
        "parity — k=4 int-gemm plan ≥ {PARITY_INT_FLOOR_RPS:.0} req/s at batch8, 1 thread, lane \
         achieved, zero corrupted/lost (ratio to the dequant-cache plan printed)"
    ));
    let (cache_cell, cache) =
        throughput::cell("parity", 4, 1, BATCH8, per_client, KernelLane::DequantCache);
    push_row(rows, &cache_cell, &cache);
    let (int_cell, int) = throughput::cell("parity", 4, 1, BATCH8, per_client, KernelLane::IntGemm);
    push_row(rows, &int_cell, &int);

    gates.check(
        int_cell.lane == KernelLane::IntGemm.as_str(),
        format_args!(
            "parity plan achieved lane {}, wanted int-gemm",
            int_cell.lane
        ),
    );
    for (c, s) in [(&cache_cell, &cache), (&int_cell, &int)] {
        gates.check(
            s.clean(),
            format_args!(
                "parity lane {} completed {}/{} with {} corrupted, {} lost",
                c.lane, s.tally.ok, s.requests, s.tally.corrupted, s.tally.lost
            ),
        );
    }
    println!(
        "info: int-gemm / dequant-cache = {:.2}× ({:.0} vs {:.0} req/s), not gated",
        int.rps() / cache.rps().max(1e-9),
        int.rps(),
        cache.rps()
    );
    gates.check(
        int.rps() >= PARITY_INT_FLOOR_RPS,
        format_args!(
            "int-gemm plan {:.0} req/s below its floor of {PARITY_INT_FLOOR_RPS:.0} req/s",
            int.rps()
        ),
    );
    gates.pass(format_args!(
        "int-gemm {:.0} req/s ≥ floor {PARITY_INT_FLOOR_RPS:.0} req/s, every response bit-exact",
        int.rps()
    ));
}
