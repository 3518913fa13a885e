//! The compute stack's threading contract: every kernel runs on the
//! calling thread.
//!
//! A kernel that splits its output into chunks walks them in index order
//! on the thread that called it, so the chunk order is the determinism
//! contract: the same shape visits the same memory in the same order on
//! every run. A process that wants more cores runs more ranks
//! (`apt train --workers N`), each single-threaded.

/// Accepts the one thread count the compute stack has.
///
/// Kept for callers that still name a thread count; a value of 1 changes
/// nothing.
///
/// # Panics
///
/// On any `threads` but 1: the compute stack runs on the calling thread;
/// scale with ranks (`--workers`).
pub fn set_global_threads(threads: usize) {
    assert_eq!(
        threads, 1,
        "the compute stack runs on the calling thread; scale with ranks (`--workers`)"
    );
}
