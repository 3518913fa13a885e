//! `apt-serve` — the quantized inference serving runtime.
//!
//! Turns a trained `.aptc` checkpoint into a servable model in three
//! layers, each usable on its own:
//!
//! 1. **[`InferenceSession`]** — loads a checkpoint into an immutable,
//!    `Arc`-shared network and compiles it into a frozen plan (BatchNorm
//!    folded, activations fused, one pre-planned arena). Packed quantized
//!    weights stay resident at their physical width, and request samples
//!    are staged through a recycled [`ScratchArena`] so the steady-state
//!    hot path does not grow the heap. The plan dequantises each weight
//!    once at load and keeps outputs within BN-fold rounding of the
//!    trainer's `Mode::Eval` forward (bit-identical without BatchNorm).
//! 2. **[`MicroBatcher`]** — an in-process dynamic micro-batcher that
//!    coalesces single-sample requests from a bounded MPSC queue under a
//!    [`BatchPolicy`] (`max_batch` / `queue_depth`), executes them as one
//!    batched forward on its worker thread, and applies
//!    admission control: the queue sheds excess load with a typed
//!    [`ServeError::Overloaded`] instead of building an unbounded backlog.
//!    A batch is whatever is already queued when the worker frees, up to
//!    `max_batch`; it is never held open for requests still to come.
//!    Coalescing is lossless: batch-invariant kernels mean a
//!    coalesced batch answers every request bit-identically to running it
//!    alone. The server below does not use it.
//! 3. **[`Server`]** — a std-only TCP front-end built on a nonblocking
//!    readiness-driven reactor: one thread sleeps in `ppoll(2)` over every
//!    connection and drives them through incremental per-connection frame
//!    state machines, so slow or hostile peers cost a table slot, not a
//!    thread, and an idle server costs no wake-ups. The reactor runs every
//!    infer request itself, with no queue and no other thread: the
//!    requests one tick admits (at most `queue_depth`) are split by plan
//!    and run in batches of at most `max_batch`, with no allocation. After a tick
//!    that served something, with two or more connections open, the
//!    reactor rests until every reading connection has sent or a short
//!    period passes, so concurrent requests meet in one tick and one peer
//!    cannot drive the tick rate — a lone connection has no one to meet
//!    and is answered at wake-up speed. Unix only in earnest:
//!    elsewhere the wait degrades to a short sleep.
//!    Overload protection is typed
//!    end-to-end ([`ConnLimits`]): connection caps refuse at accept, idle
//!    and mid-frame deadlines reap slowloris peers, request deadlines
//!    are checked before each plan run so expired work is shed *before*
//!    inference, and per-connection pipelining bounds plus a round-robin
//!    scan keep healthy clients fair under attack. Lock-free serving
//!    metrics ([`ServeStats`]) expose the full shed taxonomy
//!    (refused-at-accept, deadline-expired, idle-reaped, slow-reaped)
//!    alongside p50/p90/p99 latency and batch histograms. [`ServeClient`]
//!    is the matching blocking client, with optional socket timeouts
//!    ([`ClientConfig`]) and bounded exponential-backoff retry
//!    ([`RetryPolicy`]).
//!
//! Above the session sits the **[`ModelRegistry`]** — a crash-safe
//! multi-tenant fleet keyed by model id. Checkpoints pass a validation
//! ladder (structural verify → full decode + probe forward → digest
//! stability) before they can serve; rejected files are quarantined with a
//! `.reason` sidecar. Publishing is an atomic `Arc` swap: new requests run
//! the new plan instantly while in-flight requests finish on the old one.
//! A resident-bytes budget evicts least-recently-used models, and missing
//! or evicted models answer a typed [`ServeError::ModelUnavailable`]
//! (`STATUS_MODEL_UNAVAILABLE` on the wire) — degradation, never OOM.
//!
//! The CLI front-end is `apt serve`; the measurement harness is the
//! `serving` bench binary.

#![deny(unsafe_code)]
#![deny(missing_docs)]

mod batcher;
mod client;
mod error;
#[allow(unsafe_code)]
mod poll;
mod registry;
mod server;
mod session;
mod stats;

pub mod protocol;

pub use batcher::{BatchPolicy, BatcherHandle, MicroBatcher};
pub use client::{ClientConfig, RetryPolicy, ServeClient};
pub use error::ServeError;
pub use registry::{ModelInfo, ModelRegistry, PublishOutcome, RegistryConfig, RescanReport};
pub use server::{ConnLimits, Server, ServerConfig};
pub use session::{InferenceSession, ModelArch, ModelSpec, ScratchArena};
pub use stats::{ServeStats, StatsSnapshot};
