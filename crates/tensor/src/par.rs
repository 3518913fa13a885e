//! Deterministic in-tree thread pool and chunked-parallelism helpers.
//!
//! Every parallel kernel in this workspace partitions its **output** into
//! chunks whose boundaries depend only on the problem shape (never on the
//! thread count), and every chunk is computed with exactly the same
//! per-element accumulation order as the serial reference. Threads race
//! only for *which chunk to run next*, never for how a chunk is computed,
//! so results are bit-identical for every thread count — including one.
//! That property is what lets the PR 1/PR 2 resume- and integrity-digest
//! guarantees survive parallel execution unchanged.
//!
//! The pool is intentionally tiny: N−1 persistent workers fed over
//! `mpsc` channels, with the calling thread participating as the Nth
//! worker. There is no work stealing, no scoped-thread machinery and no
//! third-party dependency — chunk claiming is a single shared atomic
//! counter, and job completion is acknowledged over a per-job channel.
//!
//! Nested parallelism (e.g. conv parallelised over images calling matmul
//! internally) is handled with a thread-local re-entrancy flag: inside a
//! parallel region, further parallel calls run serially inline, which is
//! both deadlock-free and — by the determinism contract above —
//! observationally identical.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

/// Target number of scalar operations per chunk. Chunk boundaries derive
/// from this constant and the problem shape only — **never** from the
/// thread count — which is the heart of the determinism contract.
const CHUNK_COST: usize = 16 * 1024;

/// Ops cheaper than this in total run inline without touching the pool.
const SERIAL_CUTOFF: usize = 32 * 1024;

thread_local! {
    /// True on pool workers (always) and on the caller while it
    /// participates in a parallel region; forces nested calls serial.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Stack of scoped pool overrides installed by [`with_pool`].
    static POOL_OVERRIDE: RefCell<Vec<Arc<ThreadPool>>> = const { RefCell::new(Vec::new()) };
}

/// Shared state of one in-flight parallel job, allocated on the caller's
/// stack and handed to workers as a raw pointer (the caller blocks until
/// every worker has acknowledged, so the borrow never dangles).
struct JobShared {
    /// The chunk body, lifetime-erased. Safety: see [`ThreadPool::run`].
    body: &'static (dyn Fn(usize) + Sync),
    /// Next unclaimed chunk index; `fetch_add` hands out each index once.
    next: AtomicUsize,
    n_chunks: usize,
    panicked: AtomicBool,
}

/// Raw pointer to a [`JobShared`], made sendable so it can cross the
/// channel into workers. Validity is enforced by the ack protocol.
struct JobPtr(*const JobShared);
// SAFETY: the pointee is only dereferenced between job receipt and ack
// send, and the caller keeps the pointee alive (blocked on the ack
// channel) for exactly that window. JobShared's fields are Sync.
#[allow(unsafe_code)]
unsafe impl Send for JobPtr {}

struct Job {
    shared: JobPtr,
    /// Dropped (not sent on) after the worker's final access to `shared`;
    /// the channel hangup is the completion signal and provides the
    /// happens-before edge back to the caller.
    _ack: mpsc::Sender<()>,
}

/// A fixed-size pool of persistent worker threads.
///
/// `ThreadPool::new(n)` spawns `n - 1` workers; the thread that submits a
/// job always participates as the `n`-th executor, so `new(1)` is a pure
/// serial pool with no threads at all.
pub struct ThreadPool {
    injectors: Vec<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Create a pool that executes jobs on `threads` threads (clamped to
    /// at least 1). Worker threads are spawned eagerly and live until the
    /// pool is dropped.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut injectors = Vec::with_capacity(threads - 1);
        let mut workers = Vec::with_capacity(threads - 1);
        for idx in 0..threads - 1 {
            let (tx, rx) = mpsc::channel::<Job>();
            let handle = thread::Builder::new()
                .name(format!("apt-par-{idx}"))
                .spawn(move || worker_loop(rx))
                .expect("apt-tensor: failed to spawn pool worker");
            injectors.push(tx);
            workers.push(handle);
        }
        Self {
            injectors,
            workers,
            threads,
        }
    }

    /// Number of threads (including the caller) this pool executes on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body(chunk_index)` for every index in `0..n_chunks`, spread
    /// across the pool. Chunk indices are claimed dynamically but each is
    /// executed exactly once; `body` must therefore write only to state
    /// owned by its chunk. Returns after every chunk has finished.
    ///
    /// Runs serially inline when the pool has one thread, when there is
    /// only one chunk, or when already inside a parallel region.
    pub fn run(&self, n_chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        if n_chunks == 0 {
            return;
        }
        if self.injectors.is_empty() || n_chunks == 1 || IN_PARALLEL.with(Cell::get) {
            for i in 0..n_chunks {
                body(i);
            }
            return;
        }

        // SAFETY: we erase `body`'s lifetime to store it in JobShared.
        // The reference is only used by workers that hold a live Job, and
        // this function does not return until every such Job has been
        // dropped (observed via ack-channel hangup below), so the erased
        // reference never outlives the real borrow.
        #[allow(unsafe_code)]
        let body_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let shared = JobShared {
            body: body_static,
            next: AtomicUsize::new(0),
            n_chunks,
            panicked: AtomicBool::new(false),
        };

        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        let mut dispatched = 0usize;
        for tx in &self.injectors {
            let job = Job {
                shared: JobPtr(&shared),
                _ack: ack_tx.clone(),
            };
            if tx.send(job).is_ok() {
                dispatched += 1;
            }
        }
        drop(ack_tx);

        // Participate as the Nth worker, with nested calls forced serial.
        IN_PARALLEL.with(|f| f.set(true));
        execute_chunks(&shared);
        IN_PARALLEL.with(|f| f.set(false));

        if dispatched > 0 {
            // Block until every worker has dropped its Job (and with it
            // the last reference to `shared`): the recv errors out only
            // once all ack senders are gone.
            while ack_rx.recv().is_ok() {}
        }

        if shared.panicked.load(Ordering::Acquire) {
            panic!("apt-tensor: a parallel kernel chunk panicked in a worker thread");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Hang up the injectors so workers fall out of their recv loop,
        // then join them to guarantee no worker outlives the pool.
        self.injectors.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: mpsc::Receiver<Job>) {
    // Workers only ever run inside a parallel region.
    IN_PARALLEL.with(|f| f.set(true));
    while let Ok(job) = rx.recv() {
        // SAFETY: the caller that sent this Job is blocked until we drop
        // it, so the JobShared behind the pointer is alive right now.
        #[allow(unsafe_code)]
        let shared: &JobShared = unsafe { &*job.shared.0 };
        execute_chunks(shared);
        drop(job); // last access to `shared`; hangup signals completion
    }
}

/// Claim and run chunks until none remain. Never unwinds: chunk panics
/// are caught and recorded so the pool survives and the caller re-raises.
fn execute_chunks(shared: &JobShared) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= shared.n_chunks {
            break;
        }
        let body = shared.body;
        if catch_unwind(AssertUnwindSafe(|| body(i))).is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool + scoped overrides
// ---------------------------------------------------------------------------

static GLOBAL_POOL: OnceLock<Mutex<Arc<ThreadPool>>> = OnceLock::new();

fn global_cell() -> &'static Mutex<Arc<ThreadPool>> {
    GLOBAL_POOL.get_or_init(|| Mutex::new(Arc::new(ThreadPool::new(default_threads()))))
}

/// Thread count used when nothing is configured: `APT_THREADS` if set to
/// a positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("APT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Replace the global pool with one of `threads` threads (no-op when the
/// size already matches). Called from `--threads` CLI plumbing and the
/// trainer's `threads` config knob.
pub fn set_global_threads(threads: usize) {
    let cell = global_cell();
    let mut pool = cell.lock().unwrap_or_else(|e| e.into_inner());
    if pool.threads() != threads.max(1) {
        *pool = Arc::new(ThreadPool::new(threads));
    }
}

/// The pool the current thread's kernels will execute on: the innermost
/// [`with_pool`] override if one is active, else the global pool.
pub fn current_pool() -> Arc<ThreadPool> {
    if let Some(p) = POOL_OVERRIDE.with(|o| o.borrow().last().cloned()) {
        return p;
    }
    global_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Run `f` with `pool` installed as this thread's pool (scoped, nestable,
/// panic-safe). Used by determinism tests to compare thread counts.
pub fn with_pool<R>(pool: Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            POOL_OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    POOL_OVERRIDE.with(|o| o.borrow_mut().push(pool));
    let _guard = Guard;
    f()
}

/// Run `f` on a fresh scoped pool of `threads` threads.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    with_pool(Arc::new(ThreadPool::new(threads)), f)
}

// ---------------------------------------------------------------------------
// Chunking helpers
// ---------------------------------------------------------------------------

/// Items per chunk for `n_items` work items costing `cost_per_item`
/// scalar ops each. Depends only on the shape — never the thread count.
pub fn chunk_items(n_items: usize, cost_per_item: usize) -> usize {
    (CHUNK_COST / cost_per_item.max(1)).clamp(1, n_items.max(1))
}

/// Whether a kernel of `total_cost` scalar ops is worth parallelising at
/// all; below the cutoff the pool dispatch overhead dominates.
pub fn worth_parallelising(total_cost: usize) -> bool {
    total_cost >= SERIAL_CUTOFF
}

/// Mutable raw pointer wrapper that may cross threads. Safety rests on
/// the chunk helpers handing each chunk a disjoint range.
struct SendMutPtr<T>(*mut T);
// SAFETY: every use in this module derives disjoint subslices from the
// pointer (one per chunk index), and the underlying allocation outlives
// the parallel region because `ThreadPool::run` blocks until completion.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendMutPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendMutPtr<T> {}

impl<T> SendMutPtr<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the bare `!Sync` pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Split `out` into consecutive chunks of `chunk` elements (last chunk
/// ragged) and run `f(chunk_index, chunk_slice)` for each, in parallel on
/// the current pool. Chunk boundaries depend only on `out.len()` and
/// `chunk`, so any thread count produces identical writes.
pub fn for_each_chunk_mut<T, F>(out: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = out.len();
    if len == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    if n_chunks == 1 {
        f(0, out);
        return;
    }
    let base = SendMutPtr(out.as_mut_ptr());
    current_pool().run(n_chunks, &|i| {
        let start = i * chunk;
        let end = (start + chunk).min(len);
        // SAFETY: chunk index `i` is claimed exactly once, so this range
        // [start, end) is written by exactly one thread; ranges of
        // distinct indices are disjoint; `out` outlives `run`.
        #[allow(unsafe_code)]
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, slice);
    });
}

/// Two-output variant of [`for_each_chunk_mut`] for kernels that fill a
/// pair of parallel arrays (e.g. max-pool output + argmax). `a` and `b`
/// must chunk into the same number of pieces.
pub fn for_each_chunk_mut2<A, B, F>(a: &mut [A], chunk_a: usize, b: &mut [B], chunk_b: usize, f: F)
where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    let (la, lb) = (a.len(), b.len());
    if la == 0 && lb == 0 {
        return;
    }
    let chunk_a = chunk_a.max(1);
    let chunk_b = chunk_b.max(1);
    let n_chunks = la.div_ceil(chunk_a);
    assert_eq!(
        n_chunks,
        lb.div_ceil(chunk_b),
        "for_each_chunk_mut2: outputs disagree on chunk count"
    );
    if n_chunks == 1 {
        f(0, a, b);
        return;
    }
    let pa = SendMutPtr(a.as_mut_ptr());
    let pb = SendMutPtr(b.as_mut_ptr());
    current_pool().run(n_chunks, &|i| {
        let (sa, ea) = (i * chunk_a, ((i + 1) * chunk_a).min(la));
        let (sb, eb) = (i * chunk_b, ((i + 1) * chunk_b).min(lb));
        // SAFETY: as in `for_each_chunk_mut` — one claim per index, and
        // distinct indices map to disjoint ranges of both arrays.
        #[allow(unsafe_code)]
        let (slice_a, slice_b) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(sa), ea - sa),
                std::slice::from_raw_parts_mut(pb.get().add(sb), eb - sb),
            )
        };
        f(i, slice_a, slice_b);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_chunk_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU32> = (0..97).map(|_| AtomicU32::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunked_writes_cover_output() {
        for threads in [1, 2, 3, 7] {
            with_threads(threads, || {
                let mut out = vec![0u32; 1000];
                for_each_chunk_mut(&mut out, 13, |ci, chunk| {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (ci * 13 + j) as u32;
                    }
                });
                assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32));
            });
        }
    }

    #[test]
    fn two_output_chunks_stay_aligned() {
        let mut a = vec![0u32; 60];
        let mut b = vec![0u64; 20];
        with_threads(3, || {
            for_each_chunk_mut2(&mut a, 6, &mut b, 2, |ci, ca, cb| {
                ca.fill(ci as u32);
                cb.fill(ci as u64);
            });
        });
        for i in 0..10 {
            assert!(a[i * 6..(i + 1) * 6].iter().all(|&v| v == i as u32));
            assert!(b[i * 2..(i + 1) * 2].iter().all(|&v| v == i as u64));
        }
    }

    #[test]
    fn nested_parallel_calls_run_inline() {
        with_threads(4, || {
            let mut outer = vec![0u32; 64];
            for_each_chunk_mut(&mut outer, 8, |_, chunk| {
                let mut inner = vec![0u32; 32];
                for_each_chunk_mut(&mut inner, 4, |ci, c| c.fill(ci as u32));
                chunk.fill(inner.iter().sum());
            });
            let expected: u32 = (0..8).map(|c| c * 4).sum();
            assert!(outer.iter().all(|&v| v == expected));
        });
    }

    #[test]
    fn worker_panic_is_reraised_and_pool_survives() {
        let pool = ThreadPool::new(3);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|i| {
                if i == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool must still work after a panicked job.
        let hits: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        pool.run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_items_is_shape_only() {
        assert_eq!(chunk_items(10, usize::MAX), 1);
        assert_eq!(chunk_items(10, 1), 10); // clamped to n_items
        assert_eq!(chunk_items(0, 1), 1);
        let a = chunk_items(1_000_000, 64);
        // Same shape, same answer — no thread-count input exists at all.
        assert_eq!(a, chunk_items(1_000_000, 64));
    }
}
