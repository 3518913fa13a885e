//! The std-only, readiness-driven TCP serving front-end.
//!
//! One **reactor thread** owns every connection: the listener and all
//! accepted sockets run in nonblocking mode, and the reactor sleeps in one
//! blocking readiness wait ([`crate::poll`]: `ppoll(2)` over the listener,
//! every connection that currently wants reading or writing, and a wake
//! channel written by reload threads and [`Server::shutdown`]). The wait's
//! timeout is the next deadline the reactor would act on, so an idle server
//! with idle connections does not wake at all. A wake-up is one **tick**:
//! deliver finished reloads, accept, read whatever bytes the kernel has for
//! each ready connection, feed them to its incremental
//! [`protocol::FrameDecoder`], dispatch complete frames, then run the
//! inference the tick admitted. No thread is ever parked on a single peer,
//! so a slow or hostile client costs one connection-table slot, not a
//! thread.
//!
//! **Where inference runs.** On the reactor, always: at the end of a tick
//! the infer requests it admitted are split by plan (the `Arc` identity of
//! the frozen plan each was pinned to at admission) and cut into chunks of
//! at most [`BatchPolicy::max_batch`]. Each chunk takes the oldest request
//! left and the later ones on its plan, in admission order; its samples are
//! staged side by side in a reactor-owned buffer, the frozen plan runs once
//! into reactor-owned rows, and each row is encoded straight into its
//! connection's write buffer — no queue, no other thread, no allocation. A
//! lone request is the batch of one, run straight from the buffer it was
//! decoded into. Responses are written strictly in request order.
//!
//! Running inference on the reactor is safe for the ladder below because
//! the stall it causes is bounded: a tick admits at most
//! [`BatchPolicy::queue_depth`] infer requests (admission sheds the rest
//! with a typed [`ServeError::Overloaded`]), and a tick whose `n` requests
//! are pinned to one plan costs at most ⌈n / `max_batch`⌉ plan runs — one
//! such count per plan the tick saw. What arrives during those runs waits
//! in the kernel's socket buffers and is seen in the next tick. Every check
//! applies request by request: the registry resolve at admission (the
//! hot-swap read point), the sample-length check at admission, and, per
//! chunk, drain and the request deadline; a plan error fails every request
//! of its chunk.
//!
//! **Tick moderation.** A tick that served something — dispatched a frame
//! or delivered a completion — while two or more connections are open is
//! followed by a rest: the reactor flushes what it owes, then waits until
//! every connection registered for reading has bytes (or has hung up),
//! the wake channel fires, or `TICK_PERIOD` has passed since the rest
//! began. The next tick then finds everything that arrived during the
//! rest: requests from different connections are admitted in one tick and
//! run as one batch — this rest, not a timer, is what makes concurrent
//! requests share a batch. A rest ends early only when every reading
//! connection has something for the next tick, so the poll-set rebuild
//! every tick pays (O(connections)) stays O(1) a served request; with an
//! idle connection open the rest runs its full period, so one peer's
//! turnaround cannot drive the tick rate. Both jobs need a second
//! connection. With one open there is no other request to meet and the
//! poll set is O(1), so the reactor does not rest, and a lone closed-loop
//! client is answered at wake-up speed (about 27 µs a round trip on a
//! two-vCPU host). A tick that only accepted, timed out or found nothing
//! never rests, so an idle server still never wakes. `reactor_rests` in
//! the stats counts the rests taken, `reactor_rests_early` those that
//! ended before their period.
//!
//! Overload protection is layered and typed:
//!
//! * **Connection limit** — accepts beyond [`ConnLimits::max_connections`]
//!   are answered with a `STATUS_OVERLOADED` refusal frame and closed
//!   (counted as `refused_accept`).
//! * **Idle deadline** — connections with no traffic for
//!   [`ConnLimits::idle_timeout`] are reaped (`idle_reaped`).
//! * **Read/write deadline** — a connection stuck mid-frame (slowloris) or
//!   not draining its responses for [`ConnLimits::read_timeout`] is reaped
//!   (`slow_reaped`).
//! * **Tick bound** — a tick admits at most [`BatchPolicy::queue_depth`]
//!   infer requests; the rest are shed with [`ServeError::Overloaded`]
//!   (counted as `shed`).
//! * **Request deadline** — every infer request carries
//!   `now + request_timeout`; work still waiting at its deadline is shed
//!   with [`ServeError::DeadlineExceeded`] *before* inference runs.
//! * **Pipelining bound + fairness** — at most
//!   [`ConnLimits::max_pipeline`] in-flight requests per connection, one
//!   bounded read per connection per tick, and a rotating round-robin scan
//!   so no peer can monopolise the loop.
//!
//! Readiness is level-triggered, so a connection is registered only for
//! what the reactor will service: not for reading while its reads are
//! paused (pipelining bound, write backlog, half-closed peer, drain), and
//! for writing only while bytes are pending.

use crate::batcher::micros;
use crate::poll::{self, PollFd, WakeRx, Waker};
use crate::protocol::{
    self, FrameDecoder, OP_HEALTH, OP_INFER, OP_INFER_MODEL, OP_RELOAD, OP_STATS, STATUS_OK,
    STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use crate::{
    BatchPolicy, InferenceSession, ModelRegistry, RegistryConfig, ServeError, ServeStats,
    StatsSnapshot,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Connection-plane limits: how much concurrency the front door admits and
/// how patient it is with slow peers. All deadlines are wall-clock.
#[derive(Debug, Clone)]
pub struct ConnLimits {
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// refused with a typed `Overloaded` frame.
    pub max_connections: usize,
    /// A connection with no traffic for this long is closed (`idle_reaped`).
    pub idle_timeout: Duration,
    /// A connection stalled mid-frame, or not draining its responses, for
    /// this long is closed (`slow_reaped`) — the slowloris defence.
    pub read_timeout: Duration,
    /// Deadline attached to every infer request; work older than this is
    /// shed before inference ([`ServeError::DeadlineExceeded`]).
    /// Zero disables request deadlines.
    pub request_timeout: Duration,
    /// Most in-flight infer requests one connection may pipeline; further
    /// frames wait in the socket until responses drain.
    pub max_pipeline: usize,
}

impl Default for ConnLimits {
    fn default() -> Self {
        ConnLimits {
            max_connections: 1024,
            idle_timeout: Duration::from_secs(60),
            read_timeout: Duration::from_secs(10),
            request_timeout: Duration::from_secs(5),
            max_pipeline: 32,
        }
    }
}

impl ConnLimits {
    /// Validates the limits.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for zero `max_connections` or
    /// `max_pipeline`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_connections == 0 || self.max_pipeline == 0 {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "connection limits need max_connections ≥ 1 and max_pipeline ≥ 1, got {self:?}"
                ),
            });
        }
        Ok(())
    }
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` (`:0` picks a free port).
    pub addr: String,
    /// How many infer requests one plan run takes, and one tick admits.
    pub policy: BatchPolicy,
    /// Human-readable model identity reported by the health op.
    pub model_name: String,
    /// Connection-plane limits (connection cap, deadlines, pipelining).
    pub limits: ConnLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            policy: BatchPolicy::default(),
            model_name: "unnamed".to_string(),
            limits: ConnLimits::default(),
        }
    }
}

/// Per-read budget: one bounded read per connection per tick keeps a
/// fire-hose peer from starving the rest of the scan.
const READ_CHUNK: usize = 16 * 1024;
/// Frames dispatched per connection per tick (fairness for op floods).
const FRAMES_PER_TICK: usize = 64;
/// Pending-write backlog past which reads pause (per-connection flow
/// control; responses must drain before more work is admitted).
const OUT_SOFT_CAP: usize = 1024 * 1024;
/// Accepts processed per tick.
const ACCEPTS_PER_TICK: usize = 128;
/// How long a draining server waits for in-flight responses to flush.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(3);
/// Longest rest after a tick that served something while two or more
/// connections are open (tick moderation, see the module doc), counted
/// from the start of the rest. The kernel's timer slack stretches a rest
/// that runs its full length — by up to 50 µs on a default Linux thread.
const TICK_PERIOD: Duration = Duration::from_micros(60);

/// A running server. Dropping (or calling [`shutdown`](Server::shutdown))
/// stops accepting, drains in-flight requests, and joins the reactor.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    registry: Arc<ModelRegistry>,
    reactor_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Single-model convenience: wraps `session` in a fresh unbounded
    /// [`ModelRegistry`] published under [`ServerConfig::model_name`] and
    /// starts the fleet server on it.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and policy/limit validation errors.
    pub fn start(session: InferenceSession, config: ServerConfig) -> Result<Server, ServeError> {
        let registry = Arc::new(ModelRegistry::new(RegistryConfig::default()));
        registry.publish(&config.model_name, session)?;
        Server::start_with_registry(registry, config)
    }

    /// Binds the listener, spawns the reactor thread — the one thread that
    /// serves every connection and runs every infer request — over an
    /// existing model fleet, and returns immediately.
    /// [`ServerConfig::model_name`] names the **default model** — the plan
    /// `OP_INFER` requests (which carry no model id) resolve to; it must be
    /// resident at start. Publishing to the registry while the server runs
    /// hot-swaps plans under live traffic.
    ///
    /// # Errors
    ///
    /// Propagates bind failures, policy/limit validation errors, and a
    /// missing default model.
    pub fn start_with_registry(
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        config.policy.validate()?;
        config.limits.validate()?;
        registry.get(&config.model_name)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = poll::wake_pair()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor_thread = {
            let ctx = ConnCtx {
                registry: Arc::clone(&registry),
                default_model: config.model_name.clone(),
                stats: registry.stats_handle(),
                queue_depth: config.policy.queue_depth,
                reload_busy: Arc::new(AtomicBool::new(false)),
            };
            let stop = Arc::clone(&stop);
            let waker = waker.clone();
            thread::spawn(move || Reactor::new(listener, ctx, &config, stop, waker, wake_rx).run())
        };
        Ok(Server {
            addr,
            stop,
            waker,
            registry,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.registry.stats()
    }

    /// Graceful shutdown: stop accepting, flush responses for everything
    /// already in flight, close every connection, and join the reactor.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything request dispatch needs, owned by the reactor.
#[derive(Debug)]
struct ConnCtx {
    registry: Arc<ModelRegistry>,
    /// The model `OP_INFER` (no model id on the wire) resolves to.
    default_model: String,
    stats: Arc<ServeStats>,
    /// Most infer requests one tick admits ([`BatchPolicy::queue_depth`]).
    queue_depth: usize,
    /// At most one directory rescan runs at a time; concurrent `OP_RELOAD`
    /// requests are refused typed rather than queued.
    reload_busy: Arc<AtomicBool>,
}

/// What one complete request frame asks of the reactor.
enum Request {
    /// An admitted infer request: the plan is pinned and the sample has the
    /// plan's length. It runs at the end of the tick.
    Infer {
        session: InferenceSession,
        sample: Vec<f32>,
        deadline: Option<Instant>,
    },
    /// An admitted directory rescan (the busy flag is already taken).
    Reload,
    /// Answered now: stats, health, or a typed refusal.
    Reply(Result<Vec<u8>, ServeError>),
}

/// An admitted infer request waiting for the end of its tick.
struct Pending {
    /// Token of the connection that sent it.
    conn: u64,
    seq: u64,
    session: InferenceSession,
    sample: Vec<f32>,
    admitted: Instant,
    deadline: Option<Instant>,
}

impl Pending {
    /// `true` once the request's deadline has passed.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// The reactor's free list of decoded-sample buffers. Admission takes one
/// per request; the run or a refusal gives it back. At most `cap` (one
/// tick's worth) are kept.
struct SampleBufs {
    free: Vec<Vec<f32>>,
    cap: usize,
}

impl SampleBufs {
    fn new(cap: usize) -> SampleBufs {
        SampleBufs {
            free: Vec::with_capacity(cap),
            cap,
        }
    }

    fn take(&mut self) -> Vec<f32> {
        self.free.pop().unwrap_or_default()
    }

    /// Keeps `buf` for a later request, unless it holds nothing worth
    /// keeping or the list is full.
    fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 && self.free.len() < self.cap {
            self.free.push(buf);
        }
    }
}

impl ConnCtx {
    /// Turns one request frame into what the reactor must do about it.
    /// Nothing here touches the connection, so `payload` may borrow its
    /// decoder.
    /// `pending` counts the infer requests this tick has admitted so far.
    fn parse(
        &self,
        op: u8,
        payload: &[u8],
        samples: &mut SampleBufs,
        now: Instant,
        limits: &ConnLimits,
        pending: usize,
    ) -> Request {
        match op {
            OP_INFER => self.admit(&self.default_model, payload, samples, now, limits, pending),
            OP_INFER_MODEL => match protocol::split_model_infer(payload) {
                Ok((model, floats)) => self.admit(model, floats, samples, now, limits, pending),
                Err(e) => Request::Reply(Err(e)),
            },
            OP_RELOAD => {
                if self.registry.config().model_dir.is_none() {
                    Request::Reply(Err(ServeError::BadRequest {
                        reason: "server has no model directory to rescan".to_string(),
                    }))
                } else if self.reload_busy.swap(true, Ordering::SeqCst) {
                    Request::Reply(Err(ServeError::Overloaded { queue_depth: 1 }))
                } else {
                    Request::Reload
                }
            }
            OP_STATS => Request::Reply(Ok(self.stats.snapshot().to_json().into_bytes())),
            OP_HEALTH => {
                let resident = self.stats.snapshot().models_resident;
                let body = match self.registry.peek(&self.default_model) {
                    Some(s) => format!(
                        "{{\"status\":\"ok\",\"model\":\"{}\",\"sample_len\":{},\
                         \"num_outputs\":{},\"models_resident\":{resident}}}",
                        self.default_model,
                        s.sample_len(),
                        s.num_outputs()
                    ),
                    // The default model was evicted or never came back: the
                    // process is alive but degraded; say so instead of lying.
                    None => format!(
                        "{{\"status\":\"degraded\",\"model\":\"{}\",\"sample_len\":0,\
                         \"num_outputs\":0,\"models_resident\":{resident}}}",
                        self.default_model
                    ),
                };
                Request::Reply(Ok(body.into_bytes()))
            }
            unknown => Request::Reply(Err(ServeError::BadRequest {
                reason: format!("unknown op {unknown}"),
            })),
        }
    }

    /// Sheds the request if the tick already holds `queue_depth` infer
    /// requests; otherwise decodes the sample into a buffer from the
    /// reactor's free list, resolves `model` against the fleet and checks
    /// the geometry. On refusal the buffer goes back to the list.
    fn admit(
        &self,
        model: &str,
        floats: &[u8],
        samples: &mut SampleBufs,
        now: Instant,
        limits: &ConnLimits,
        pending: usize,
    ) -> Request {
        if pending >= self.queue_depth {
            self.stats.record_shed();
            return Request::Reply(Err(ServeError::Overloaded {
                queue_depth: self.queue_depth,
            }));
        }
        let mut sample = samples.take();
        let admitted = protocol::decode_f32s_into(floats, &mut sample).and_then(|()| {
            // The hot-swap read point: the plan is pinned here, so this
            // request finishes on it even if a new version is published a
            // microsecond later.
            let session = self.registry.get(model)?;
            // Geometry is checked against the pinned plan before admission,
            // so a wrong-length sample can never reach (and fail) a batch
            // that also carries other connections' requests.
            if sample.len() != session.sample_len() {
                return Err(ServeError::BadRequest {
                    reason: format!(
                        "model `{model}` expects {} input values, got {}",
                        session.sample_len(),
                        sample.len()
                    ),
                });
            }
            Ok(session)
        });
        match admitted {
            Ok(session) => Request::Infer {
                session,
                sample,
                deadline: (!limits.request_timeout.is_zero()).then(|| now + limits.request_timeout),
            },
            Err(e) => {
                samples.give(sample);
                Request::Reply(Err(e))
            }
        }
    }

    /// Rescans validate checkpoints (probe forwards included), which is far
    /// too slow for the reactor thread: run it on a one-shot thread and
    /// deliver the report as a normal sequenced completion: queued on `tx`,
    /// then announced through `waker`.
    fn spawn_reload(&self, conn: u64, seq: u64, tx: mpsc::Sender<Completion>, waker: Waker) {
        let registry = Arc::clone(&self.registry);
        let busy = Arc::clone(&self.reload_busy);
        thread::spawn(move || {
            let result = registry.rescan().map(|r| r.to_json().into_bytes());
            busy.store(false, Ordering::SeqCst);
            // A reactor that has already gone is not an error; the report
            // is dropped with it.
            let _ = tx.send(Completion { conn, seq, result });
            waker.wake();
        });
    }
}

/// A finished reload, routed back to the reactor: the report (or a typed
/// failure) for request `seq` of connection `conn`.
#[derive(Debug)]
struct Completion {
    conn: u64,
    seq: u64,
    result: Result<Vec<u8>, ServeError>,
}

/// Why a connection is being closed (drives the shed taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CloseReason {
    /// Peer closed / I/O error / protocol violation / normal teardown.
    Plain,
    /// Idle deadline expired.
    Idle,
    /// Stalled mid-frame or mid-write past the read deadline.
    Slow,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    /// Assigned at accept, never reused; completions are routed by it.
    token: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Pending outgoing bytes (encoded frames) and the flush cursor.
    out: Vec<u8>,
    out_pos: usize,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to append to `out` (strict response order).
    next_write: u64,
    /// Responses that are ready but waiting for earlier sequence numbers.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Requests admitted and not yet answered.
    inflight: usize,
    /// Last time bytes arrived or a write made progress.
    last_activity: Instant,
    /// Last time a pending write advanced (write-stall detection).
    last_write_progress: Instant,
    /// When the currently-buffered partial frame started arriving.
    partial_since: Option<Instant>,
    /// Dispatch stopped at a bound with bytes still buffered: they may
    /// hold whole frames, and no readiness event will announce them.
    backlog: bool,
    /// Peer sent EOF; dispatch what is buffered, serve out what's in
    /// flight, then close.
    peer_closed: bool,
    /// Close after the out buffer flushes (protocol violation).
    closing: bool,
    /// Shutdown notice has been queued (drain mode).
    notice_sent: bool,
    /// Remove this connection before the next wait.
    dead: Option<CloseReason>,
}

impl Conn {
    fn new(token: u64, stream: TcpStream, now: Instant) -> Conn {
        Conn {
            token,
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            last_activity: now,
            last_write_progress: now,
            partial_since: None,
            backlog: false,
            peer_closed: false,
            closing: false,
            notice_sent: false,
            dead: None,
        }
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Everything answered and flushed — nothing owed to the peer.
    fn drained(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty() && self.out_pending() == 0
    }

    /// Whether the reactor takes another request from this connection
    /// right now, from the socket or from frames its decoder holds.
    fn admits(&self, limits: &ConnLimits) -> bool {
        !self.closing && self.inflight < limits.max_pipeline && self.out_pending() <= OUT_SOFT_CAP
    }

    /// Whether the reactor will read from this connection right now. A
    /// connection for which this is `false` must not be registered for
    /// readability, or the level-triggered wait spins.
    fn wants_read(&self, limits: &ConnLimits) -> bool {
        !self.peer_closed && self.admits(limits)
    }

    /// The instant past which the deadline sweep closes this connection,
    /// and why; `None` while no deadline is running against it.
    fn expiry(&self, limits: &ConnLimits) -> Option<(Instant, CloseReason)> {
        // Write stall: responses pending, peer not draining them.
        let stalled = (self.out_pending() > 0).then_some(self.last_write_progress);
        // Slowloris: a frame started arriving but never completes.
        // (Connections paused by the pipelining bound are exempt — the
        // stall is ours, not the peer's.)
        let torn = self
            .partial_since
            .filter(|_| self.inflight < limits.max_pipeline);
        if let Some(since) = stalled.into_iter().chain(torn).min() {
            return Some((since.checked_add(limits.read_timeout)?, CloseReason::Slow));
        }
        // Idle: nothing owed either way for the whole idle window.
        if self.drained() && !self.decoder.mid_frame() {
            let at = self.last_activity.checked_add(limits.idle_timeout)?;
            return Some((at, CloseReason::Idle));
        }
        None
    }

    /// Queues the response for `seq`: a `tag` frame whose payload `fill`
    /// appends. In request order — the common case — the frame is built in
    /// place at the tail of the out buffer, followed by every response
    /// that was waiting on it; out of order it waits in `ready`.
    fn respond(&mut self, seq: u64, tag: u8, fill: impl FnOnce(&mut Vec<u8>), now: Instant) {
        let encode = |out: &mut Vec<u8>| {
            let mark = protocol::begin_frame(out, tag);
            fill(out);
            protocol::end_frame(out, mark);
        };
        if seq != self.next_write {
            let mut frame = Vec::new();
            encode(&mut frame);
            self.ready.insert(seq, frame);
            return;
        }
        if self.out_pending() == 0 {
            self.last_write_progress = now;
        }
        encode(&mut self.out);
        self.next_write += 1;
        while let Some(frame) = self.ready.remove(&self.next_write) {
            self.out.extend_from_slice(&frame);
            self.next_write += 1;
        }
    }

    /// [`respond`](Self::respond) with an `OK` body or a typed error.
    fn respond_result(&mut self, seq: u64, result: Result<&[u8], &ServeError>, now: Instant) {
        match result {
            Ok(body) => self.respond(seq, STATUS_OK, |out| out.extend_from_slice(body), now),
            Err(e) => self.respond(
                seq,
                protocol::status_for(e),
                // Writing into a `Vec` cannot fail.
                |out| write!(out, "{e}").unwrap_or(()),
                now,
            ),
        }
    }

    /// Flushes as much of the out buffer as the socket accepts.
    fn flush(&mut self, now: Instant) {
        while self.out_pending() > 0 {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => {
                    self.dead = Some(CloseReason::Plain);
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    self.last_write_progress = now;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = Some(CloseReason::Plain);
                    break;
                }
            }
        }
        if self.out_pending() == 0 && !self.out.is_empty() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Close-after-flush: a connection that has been answered in full is
    /// closed once a protocol violation ended it, or once the peer is gone
    /// and no frame it sent is left in the decoder — or, when the server
    /// drains, once it has been told so.
    fn settle(&mut self, draining: bool, now: Instant) {
        if draining {
            if self.drained() && !self.notice_sent {
                // Outside the sequence stream: nothing is owed any more.
                let notice = protocol::encode_frame(STATUS_SHUTTING_DOWN, b"server stopping");
                self.out.extend_from_slice(&notice);
                self.last_write_progress = now;
                self.notice_sent = true;
                self.flush(now);
            }
            if self.notice_sent && self.out_pending() == 0 {
                self.dead = Some(CloseReason::Plain);
            }
        } else if (self.closing || (self.peer_closed && !self.backlog)) && self.drained() {
            self.dead = Some(CloseReason::Plain);
        }
    }
}

/// The connection `token` names, if it is still open. Tokens are handed
/// out in increasing order and `conns` keeps accept order.
fn conn_mut(conns: &mut [Conn], token: u64) -> Option<&mut Conn> {
    let at = conns.binary_search_by_key(&token, |c| c.token).ok()?;
    Some(&mut conns[at])
}

/// Index of the wake channel's entry in the poll set, and in a rest's.
const WAKE_FD: usize = 0;
/// Index of the listener's entry ([`PollFd::NONE`] once draining).
const LISTENER_FD: usize = 1;
/// Index of the first connection's entry; entry `CONN_FDS + i` belongs to
/// `conns[i]`.
const CONN_FDS: usize = 2;

/// The single-threaded readiness loop driving every connection.
struct Reactor {
    listener: Option<TcpListener>,
    ctx: ConnCtx,
    limits: ConnLimits,
    /// Open connections in accept order, which is token order.
    conns: Vec<Conn>,
    /// The poll set of the current wait, rebuilt before each one.
    fds: Vec<PollFd>,
    /// The poll set of a rest: the wake channel and every connection of
    /// `fds` registered for reading not yet found ready.
    rest_fds: Vec<PollFd>,
    /// Where the read scan starts; rotates every tick.
    rr: usize,
    next_token: u64,
    completions_rx: mpsc::Receiver<Completion>,
    completions_tx: mpsc::Sender<Completion>,
    /// Wakes the reactor's own wait; reload threads get a clone.
    waker: Waker,
    wake_rx: WakeRx,
    /// Infer requests admitted this tick and not yet run, in admission
    /// order.
    jobs: Vec<Pending>,
    /// The requests of the plan run in progress, taken from `jobs`.
    chunk: Vec<Pending>,
    /// Most jobs one plan run takes ([`BatchPolicy::max_batch`]).
    max_batch: usize,
    /// The buffers samples decode into.
    samples: SampleBufs,
    /// The chunk's samples, concatenated.
    staging: Vec<f32>,
    /// The chunk's output rows, `n × num_outputs`.
    rows: Vec<f32>,
    /// The one read buffer every connection's bounded read goes through.
    read_buf: [u8; READ_CHUNK],
    /// The current tick dispatched a frame or delivered a completion: with
    /// another connection open, the reactor rests before the next wait.
    served: bool,
    stop: Arc<AtomicBool>,
    stopping: Option<Instant>,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        ctx: ConnCtx,
        config: &ServerConfig,
        stop: Arc<AtomicBool>,
        waker: Waker,
        wake_rx: WakeRx,
    ) -> Reactor {
        let BatchPolicy {
            max_batch,
            queue_depth,
        } = config.policy;
        let (completions_tx, completions_rx) = mpsc::channel();
        Reactor {
            listener: Some(listener),
            ctx,
            limits: config.limits.clone(),
            conns: Vec::new(),
            fds: Vec::new(),
            rest_fds: Vec::new(),
            rr: 0,
            next_token: 0,
            completions_rx,
            completions_tx,
            waker,
            wake_rx,
            jobs: Vec::new(),
            chunk: Vec::new(),
            max_batch,
            samples: SampleBufs::new(queue_depth),
            staging: Vec::new(),
            rows: Vec::new(),
            read_buf: [0; READ_CHUNK],
            served: false,
            stop,
            stopping: None,
        }
    }

    fn run(mut self) {
        loop {
            if self.stop.load(Ordering::SeqCst) && self.stopping.is_none() {
                // Drain mode: the listener closes (new connects are refused
                // by the OS), reads stop, and each connection is held open
                // just long enough to flush what it is owed.
                self.stopping = Some(Instant::now());
                self.listener = None;
            }
            let timeout = self.prepare(Instant::now());
            if let Some(since) = self.stopping {
                if self.conns.is_empty() || since.elapsed() > SHUTDOWN_GRACE {
                    return;
                }
            }
            // Rest only while another connection is open (counted after
            // `prepare` dropped the dead): with one, there is no request
            // to meet in the next tick and the poll set is O(1).
            if std::mem::take(&mut self.served) && self.conns.len() >= 2 {
                self.rest();
            }
            if poll::wait(&mut self.fds, timeout).is_err() {
                // Nothing was reported ready; do not spin on a failing wait.
                thread::sleep(Duration::from_millis(1));
            }
            self.ctx.stats.record_reactor_wakeup();
            self.tick();
        }
    }

    /// Waits, after a serving tick, until every connection registered for
    /// reading has bytes or has hung up, the wake channel fires, or
    /// [`TICK_PERIOD`] has passed since the rest began. A connection found
    /// ready leaves the rest's poll set, so the wait does not return at once
    /// again for it; nothing is read, and the wait that follows reports
    /// the same readiness to the tick.
    fn rest(&mut self) {
        let until = Instant::now() + TICK_PERIOD;
        let rest = &mut self.rest_fds;
        rest.clear();
        rest.push(self.wake_rx.pollfd());
        rest.extend(self.fds[CONN_FDS..].iter().filter_map(PollFd::for_reading));
        self.ctx.stats.record_reactor_rest();
        loop {
            if rest[WAKE_FD].readable() {
                return;
            }
            rest.retain(|fd| !fd.readable() && !fd.hung_up());
            if rest.len() == 1 {
                self.ctx.stats.record_reactor_rest_early();
                return;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() || poll::wait(rest, Some(left)).is_err() {
                return;
            }
        }
    }

    /// Settles every connection and builds the poll set for the next wait:
    /// flush what is pending, close what is finished, apply the deadlines,
    /// drop the dead, and register each survivor for exactly what the next
    /// tick will service. Returns how long the wait may last — until the
    /// earliest deadline still running, or not at all when buffered frames
    /// are waiting.
    fn prepare(&mut self, now: Instant) -> Option<Duration> {
        let Reactor {
            conns,
            fds,
            limits,
            ctx,
            listener,
            wake_rx,
            stopping,
            ..
        } = self;
        let draining = stopping.is_some();
        fds.clear();
        fds.push(wake_rx.pollfd());
        fds.push(match listener {
            Some(l) => PollFd::new(l, true, false),
            None => PollFd::NONE,
        });
        let mut wake_at = stopping.map(|since| since + SHUTDOWN_GRACE);
        let mut backlog = false;
        conns.retain_mut(|conn| {
            if conn.dead.is_none() && conn.out_pending() > 0 {
                conn.flush(now);
            }
            if conn.dead.is_none() {
                conn.settle(draining, now);
            }
            if conn.dead.is_none() && !draining {
                match conn.expiry(limits) {
                    Some((at, why)) if now > at => conn.dead = Some(why),
                    Some((at, _)) => wake_at = Some(wake_at.map_or(at, |w| w.min(at))),
                    None => {}
                }
            }
            if let Some(reason) = conn.dead {
                match reason {
                    CloseReason::Idle => ctx.stats.record_idle_reaped(),
                    CloseReason::Slow => ctx.stats.record_slow_reaped(),
                    CloseReason::Plain => {}
                }
                ctx.stats.record_conn_close();
                return false;
            }
            backlog |= !draining && conn.backlog && conn.admits(limits);
            let read = !draining && conn.wants_read(limits);
            fds.push(PollFd::new(&conn.stream, read, conn.out_pending() > 0));
            true
        });
        if backlog {
            return Some(Duration::ZERO);
        }
        wake_at.map(|at| at.saturating_duration_since(now))
    }

    /// One wake-up's work: deliver finished reloads, accept, read and
    /// dispatch every ready connection, then run the inference that found.
    fn tick(&mut self) {
        // The wake bytes go before the completions they announce: a
        // completion sent after this drain writes a fresh byte, so none is
        // ever left waiting behind a swallowed wake-up.
        if self.fds[WAKE_FD].readable() {
            self.wake_rx.drain();
        }
        while let Ok(c) = self.completions_rx.try_recv() {
            self.route_completion(c);
        }
        if self.fds[LISTENER_FD].readable() {
            self.accept_new();
        }
        // Connections accepted just now have no entry in this wait's poll
        // set; the next wait reports them.
        let registered = self.fds.len() - CONN_FDS;
        if registered > 0 {
            // The start index rotates so no connection is always served
            // (and admitted within the tick's bound) first.
            self.rr = (self.rr + 1) % registered;
            for i in 0..registered {
                self.service((self.rr + i) % registered);
            }
        }
        self.execute_jobs();
    }

    fn route_completion(&mut self, c: Completion) {
        self.served = true;
        // A completion for a connection that died in the meantime is
        // dropped, like a hung-up blocking requester.
        if let Some(conn) = conn_mut(&mut self.conns, c.conn) {
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.respond_result(c.seq, c.result.as_deref(), Instant::now());
        }
    }

    /// Accepts waiting connections, refusing typed past the limit.
    fn accept_new(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        for _ in 0..ACCEPTS_PER_TICK {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.limits.max_connections {
                        // Count before writing the frame: a client that
                        // has read the typed refusal must already see it
                        // in the stats.
                        self.ctx.stats.record_refused_accept();
                        refuse(stream, self.limits.max_connections);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.push(Conn::new(token, stream, Instant::now()));
                    self.ctx.stats.record_conn_open();
                }
                // `WouldBlock`, or a transient accept error (e.g. an
                // aborted handshake).
                Err(_) => break,
            }
        }
    }

    /// Services `conns[at]` after a wait: reads and dispatches if the
    /// reactor admits work from it and there is something to read or a
    /// backlog to dispatch, and closes it if the wait found it broken while
    /// it admits none — nothing more can be delivered either way.
    fn service(&mut self, at: usize) {
        let fd = self.fds[CONN_FDS + at];
        let conn = &self.conns[at];
        if conn.dead.is_some() {
            return;
        }
        // Admitting, not reading: frames a half-closed peer sent before its
        // EOF are dispatched from the decoder (re-reading its socket just
        // finds the EOF again).
        let admits = self.stopping.is_none() && conn.admits(&self.limits);
        if admits && (fd.readable() || fd.hung_up() || conn.backlog) {
            self.read_and_dispatch(at);
        } else if fd.hung_up() {
            self.conns[at].dead = Some(CloseReason::Plain);
        }
    }

    /// Reads one bounded chunk from the socket, advances the frame
    /// decoder, and dispatches every complete frame: infer requests are
    /// admitted into `jobs` (or shed past the tick's bound), reloads start
    /// their thread, everything else is answered on the spot.
    fn read_and_dispatch(&mut self, at: usize) {
        let Reactor {
            conns,
            ctx,
            limits,
            jobs,
            samples,
            read_buf,
            completions_tx,
            waker,
            served,
            ..
        } = self;
        let conn = &mut conns[at];
        let now = Instant::now();
        match conn.stream.read(read_buf) {
            Ok(0) => conn.peer_closed = true,
            Ok(n) => {
                conn.decoder.feed(&read_buf[..n]);
                conn.last_activity = now;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = Some(CloseReason::Plain);
                return;
            }
        }

        let mut frames = 0usize;
        conn.backlog = false;
        while !conn.closing {
            if frames == FRAMES_PER_TICK || conn.inflight >= limits.max_pipeline {
                conn.backlog = conn.decoder.mid_frame();
                break;
            }
            let request = match conn.decoder.try_frame_ref() {
                Ok(Some((op, payload))) => {
                    Ok(ctx.parse(op, payload, samples, now, limits, jobs.len()))
                }
                Ok(None) => break,
                Err(e) => Err(e),
            };
            frames += 1;
            *served = true;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            match request {
                Ok(Request::Infer {
                    session,
                    sample,
                    deadline,
                }) => {
                    conn.inflight += 1;
                    jobs.push(Pending {
                        conn: conn.token,
                        seq,
                        session,
                        sample,
                        admitted: now,
                        deadline,
                    });
                }
                Ok(Request::Reload) => {
                    conn.inflight += 1;
                    ctx.spawn_reload(conn.token, seq, completions_tx.clone(), waker.clone());
                }
                Ok(Request::Reply(result)) => conn.respond_result(seq, result.as_deref(), now),
                Err(e) => {
                    // Framing violation: answer once, close after flush —
                    // the stream offset can no longer be trusted.
                    conn.respond_result(seq, Err(&e), now);
                    conn.closing = true;
                }
            }
        }
        // Track when the currently-buffered partial frame started arriving
        // (the clock a slowloris read-deadline runs against).
        if conn.decoder.mid_frame() {
            if frames > 0 || conn.partial_since.is_none() {
                conn.partial_since = Some(now);
            }
        } else {
            conn.partial_since = None;
        }
    }

    /// Runs every infer request the tick admitted, here, one plan run per
    /// chunk: a chunk is the oldest job left and the later ones pinned to
    /// its plan, in admission order, up to `max_batch` of them. A plan that
    /// `n` of the tick's jobs share runs ⌈n / `max_batch`⌉ times.
    fn execute_jobs(&mut self) {
        while let Some(first) = self.jobs.first() {
            let key = Arc::as_ptr(first.session.plan());
            let mut room = self.max_batch;
            let on_plan = |job: &mut Pending| {
                let take = room > 0 && Arc::as_ptr(job.session.plan()) == key;
                room -= usize::from(take);
                take
            };
            self.chunk.extend(self.jobs.extract_if(.., on_plan));
            self.run_chunk();
        }
    }

    /// Runs `chunk` as one batch, with the checks of the request path, job
    /// by job: drain (a shutdown asked for since the tick began answers
    /// the chunk `ShuttingDown`), deadline, then the plan. The samples that
    /// pass run through the plan once, into `rows`, and each job is
    /// answered in admission order — each connection's request order —
    /// straight from its row.
    fn run_chunk(&mut self) {
        let Reactor {
            ctx,
            conns,
            chunk,
            samples,
            staging,
            rows,
            stop,
            ..
        } = self;
        let stats = &ctx.stats;
        let now = Instant::now();
        let draining = stop.load(Ordering::SeqCst);
        let runs = |job: &Pending| !draining && !job.expired(now);
        let n = chunk.iter().filter(|job| runs(job)).count();
        let session = &chunk[0].session;
        let width = session.num_outputs();
        rows.resize(n * width, 0.0);
        let ran = if n == 0 {
            Ok(())
        } else {
            stats.record_batch(n);
            // A lone request runs from its own buffer; a batch is staged.
            let input = if let [job] = chunk.as_slice() {
                &job.sample
            } else {
                staging.clear();
                for job in chunk.iter().filter(|job| runs(job)) {
                    staging.extend_from_slice(&job.sample);
                }
                &*staging
            };
            session.infer_into(input, n, rows)
        };
        let mut row = rows.chunks_exact(width);
        for job in chunk.drain(..) {
            stats.record_inline();
            let outcome = if draining {
                Err(ServeError::ShuttingDown)
            } else if job.expired(now) {
                stats.record_deadline_expired();
                Err(ServeError::DeadlineExceeded {
                    waited_us: micros(now.duration_since(job.admitted)),
                })
            } else {
                match &ran {
                    Ok(()) => {
                        stats.record_completed(micros(job.admitted.elapsed()));
                        Ok(row.next().expect("one output row per request that ran"))
                    }
                    Err(e) => {
                        stats.record_error();
                        Err(e.duplicate())
                    }
                }
            };
            if let Some(conn) = conn_mut(conns, job.conn) {
                conn.inflight = conn.inflight.saturating_sub(1);
                match outcome {
                    Ok(row) => {
                        conn.respond(job.seq, STATUS_OK, |out| protocol::put_f32s(out, row), now)
                    }
                    Err(e) => conn.respond_result(job.seq, Err(&e), now),
                }
            }
            samples.give(job.sample);
        }
    }
}

/// Best-effort typed refusal for an over-limit accept: one `Overloaded`
/// frame, then close.
fn refuse(stream: TcpStream, limit: usize) {
    if stream.set_nonblocking(true).is_ok() {
        let msg = format!("overloaded: connection limit ({limit}) reached");
        let frame = protocol::encode_frame(STATUS_OVERLOADED, msg.as_bytes());
        let mut s = &stream;
        let _ = s.write(&frame);
    }
}
