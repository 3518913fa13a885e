//! Verifies that the conv kernels reuse their thread-local im2col/col2im
//! scratch buffers instead of reallocating per call: after a warm-up call
//! has grown the scratch, steady-state conv calls may only allocate their
//! output tensors — never another column buffer.
//!
//! A single `#[test]` drives everything (integration tests in one binary
//! share the process allocator, so parallel tests would pollute the
//! counters).

use apt_bench::CountingAlloc;
use apt_tensor::ops::conv::{conv2d, conv2d_backward_input, conv2d_backward_weight, Conv2dParams};
use apt_tensor::rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn conv_scratch_is_reused_across_calls() {
    // Geometry chosen so the im2col buffer (col_rows × col_w floats,
    // 16·3·3 × 16·16 = 147 KiB/image) dwarfs the outputs (c_out × col_w,
    // 16 KiB/image): a per-call scratch reallocation is unmissable.
    let (n, c_in, c_out, hw, k) = (2usize, 16usize, 4usize, 16usize, 3usize);
    let p = Conv2dParams::new(1, 1, 1);
    let col_bytes = (c_in * k * k) * (hw * hw) * std::mem::size_of::<f32>();

    let mut r = rng::seeded(11);
    let x = rng::normal(&[n, c_in, hw, hw], 1.0, &mut r);
    let w = rng::normal(&[c_out, c_in, k, k], 1.0, &mut r);
    let y = conv2d(&x, &w, &p).unwrap();
    let go = rng::normal(y.dims(), 1.0, &mut r);
    let step = || {
        conv2d(&x, &w, &p).unwrap();
        conv2d_backward_input(&go, &w, x.dims(), &p).unwrap();
        conv2d_backward_weight(&x, &go, w.dims(), &p).unwrap();
    };

    // Warm up: grows the thread-local scratch to its steady-state size.
    step();

    const CALLS: usize = 10;
    ALLOC.reset_peak();
    let (live, calls) = (ALLOC.live(), ALLOC.calls());
    for _ in 0..CALLS {
        step();
    }
    let calls_per_step = (ALLOC.calls() - calls) / CALLS;
    let peak_growth = ALLOC.peak() - live;

    // Each step legitimately allocates its three output tensors (a
    // data and a shape buffer each), the largest 32 KiB here, and
    // frees them before the next. One fresh col buffer per call would
    // hold ≥ col_bytes (147 KiB) live at once.
    assert!(
        calls_per_step <= 3 * 2,
        "a conv step makes {calls_per_step} allocation calls — more than its \
         three output tensors"
    );
    assert!(
        peak_growth < col_bytes,
        "conv peaks {peak_growth} B above its start — scratch is not being reused \
         (col buffer alone is {col_bytes} B)"
    );
}
