//! Counting global allocator: live bytes, their high-water mark, and the
//! number of allocation calls, across every thread of the process.
//!
//! `heap_peak_bytes`, `core.allocs_per_step` and `serve.allocs_per_request`
//! come from here. The counters are statistics that publish no other data,
//! so every access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Relaxed) + by as u64;
    PEAK.fetch_max(live, Relaxed);
    CALLS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
pub fn calls() -> u64 {
    CALLS.load(Relaxed)
}

/// Restarts the high-water mark at the current live heap.
pub fn mark() {
    PEAK.store(live(), Relaxed);
}

/// Highest live heap since the last [`mark`], bytes.
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
