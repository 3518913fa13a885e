//! Zero-allocation cell, gate 11: the frozen plan's headline mechanical
//! claim — once warm, `infer_into` on a frozen session performs **zero heap
//! allocations per request**. Staging and output live in caller buffers,
//! scratch is recycled through the session arena, and every intermediate
//! sits at a compile-time offset inside that one scratch block. Runs on
//! one thread (pool dispatch allocates job state by design) and counts
//! allocator *calls* around a steady-state loop.

use crate::{build_session, Gates, ALLOC, DIMS};
use apt_serve::KernelLane;
use apt_tensor::{par, rng};
use std::time::Instant;

pub(crate) fn run(gates: &mut Gates) {
    gates.open("zero heap allocations per request on the frozen path");
    par::set_global_threads(1);
    let session = build_session(8, KernelLane::default());
    let batch = 8usize;
    let mut r = rng::substream(2003, 0);
    let input = rng::normal(&[batch * DIMS[0]], 1.0, &mut r).into_vec();
    let mut output = vec![0.0f32; batch * DIMS[DIMS.len() - 1]];

    // Warm-up arms the arena's scratch capacity; the steady state must
    // then be allocation-free.
    for _ in 0..4 {
        session
            .infer_into(&input, batch, &mut output)
            .expect("frozen forward");
    }
    const ITERS: usize = 1000;
    let calls_before = ALLOC.calls();
    let t = Instant::now();
    for _ in 0..ITERS {
        session
            .infer_into(&input, batch, &mut output)
            .expect("frozen forward");
    }
    let wall = t.elapsed();
    let delta = ALLOC.calls() - calls_before;
    std::hint::black_box(&output);
    let per_req_us = wall.as_secs_f64() * 1e6 / ITERS as f64;
    gates.check(
        delta == 0,
        format_args!(
            "frozen steady state performed {delta} heap allocations over {ITERS} requests \
             (must be 0)"
        ),
    );
    gates.pass(format_args!(
        "{ITERS} frozen batch-{batch} requests, 0 heap allocations ({per_req_us:.1}µs/request, \
         1 thread)"
    ));
}
