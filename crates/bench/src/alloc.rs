//! The counting global allocator the `memory`, `serving` and `distributed`
//! gates measure with — the crate's one `unsafe` item.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Forwards to [`System`] and counts, process-wide: live bytes (alloc −
/// dealloc, so transient buffers cancel out), the peak of that figure, and
/// allocation calls. Install it in a binary with
/// `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc::new();`
/// and read the counters off the static.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    calls: AtomicUsize,
}

impl CountingAlloc {
    /// An allocator with every counter at zero.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            calls: AtomicUsize::new(0),
        }
    }

    /// Heap bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Relaxed)
    }

    /// The highest [`live`](Self::live) figure since the process started or
    /// [`reset_peak`](Self::reset_peak) was last called.
    pub fn peak(&self) -> usize {
        self.peak.load(Relaxed)
    }

    /// Successful allocation calls so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Relaxed)
    }

    /// Restarts the peak from the current live figure, so a caller can
    /// measure the peak of one region of code.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Relaxed);
    }
}

// SAFETY: both methods hand the caller's pointer and layout to `System`
// unchanged and return its answer unchanged, so `System`'s own `GlobalAlloc`
// guarantees carry over; the counters are statistics that no allocation
// decision reads. `realloc` and `alloc_zeroed` default to these two.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Relaxed) + layout.size();
            self.peak.fetch_max(live, Relaxed);
            self.calls.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}
