//! The std-only, readiness-driven TCP serving front-end.
//!
//! One **reactor thread** owns every connection: the listener and all
//! accepted sockets run in nonblocking mode, and the reactor sleeps in one
//! blocking readiness wait ([`crate::poll`]: `poll(2)` over the listener,
//! every connection that currently wants reading or writing, and a wake
//! channel written by batch completions, reload threads and
//! [`Server::shutdown`]). The wait's timeout is the next deadline the
//! reactor would act on, so an idle server with idle connections does not
//! wake at all. A wake-up is one **tick**: deliver completions, accept,
//! read whatever bytes the kernel has for each ready connection, feed them
//! to its incremental [`protocol::FrameDecoder`], dispatch complete
//! frames, then execute what the tick found. No thread is ever parked on a
//! single peer, so a slow or hostile client costs one connection-table
//! slot, not a thread.
//!
//! **Where inference runs.** A tick that decoded exactly one infer request
//! while nothing is queued or in flight runs it **inline on the reactor**:
//! the frozen plan executes into a reactor-owned row that is encoded
//! straight into the connection's write buffer — no queue hop, no wake-up
//! of another thread, no allocation. Anything else (two requests in one
//! tick, or work already in flight) goes to the bounded [`MicroBatcher`]
//! queue, whose worker coalesces under the [`BatchPolicy`], and comes back
//! over a completion channel tagged with a connection token and
//! per-connection sequence number; either way responses are written
//! strictly in request order. Running a plan on the reactor is safe for
//! the ladder below because of when it happens: nothing else was asking
//! for the reactor — no other request this tick, no completion owed — so
//! the only work it can delay is what arrives *during* the run, which
//! waits in the kernel's socket buffers for at most one plan execution and
//! is then seen together (and so queued, not run inline). Every check the
//! queued path applies is applied inline too: the registry resolve at
//! admission (the hot-swap read point), the sample-length check, the
//! request deadline, and drain.
//!
//! **Tick moderation.** A tick that served something — dispatched a frame
//! or delivered a completion — while two or more connections are open is
//! followed by a rest: the reactor flushes what it owes, then sleeps out
//! what is left of `TICK_PERIOD` since the tick began before it waits
//! again. The next wait then finds everything that arrived during the
//! rest: requests from different connections are admitted in one tick and
//! reach the batcher together, and the tick rate (every tick rebuilds the
//! poll set, O(connections)) is set by a timer, not by how fast the peers
//! turn around. Both jobs need a second connection. With one open there is
//! no other request to meet and the poll set is O(1), so the reactor does
//! not rest, and a lone closed-loop client is answered at wake-up speed
//! (about 45 µs a round trip on the build host). A tick that only
//! accepted, timed out or found nothing never rests, so an idle server
//! still never wakes. `reactor_rests` in the stats counts the rests taken.
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

use crate::batcher::{micros, Completion, CompletionTx};
use crate::poll::{self, PollFd, WakeRx, Waker};
use crate::protocol::{
    self, FrameDecoder, OP_HEALTH, OP_INFER, OP_INFER_MODEL, OP_RELOAD, OP_STATS, STATUS_OK,
    STATUS_OVERLOADED, STATUS_SHUTTING_DOWN,
};
use crate::{
    BatchPolicy, BatcherHandle, InferenceSession, MicroBatcher, ModelRegistry, RegistryConfig,
    ServeError, ServeStats, StatsSnapshot,
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
    /// Deadline attached to every infer request; queued work older than
    /// this is shed before inference ([`ServeError::DeadlineExceeded`]).
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
    /// The micro-batching policy behind the socket.
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
/// Least time between the starts of two ticks that serve something while
/// two or more connections are open (tick moderation, see the module doc).
/// A sleep overshoots by the kernel's timer slack and the wake-up — about
/// 60 µs here — so such ticks come about 120 µs apart.
const TICK_PERIOD: Duration = Duration::from_micros(60);
/// A rest that is due is never skipped, however long the tick ran: without
/// it two closed-loop peers can keep finding the reactor free one after
/// the other and never meet in a tick.
const MIN_REST: Duration = Duration::from_micros(1);

/// A running server. Dropping (or calling [`shutdown`](Server::shutdown))
/// stops accepting, drains in-flight requests, and joins the reactor.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    batcher: MicroBatcher,
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

    /// Binds the listener, spawns the batcher and the reactor thread over
    /// an existing model fleet, and returns immediately.
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
        config.limits.validate()?;
        let default_session = registry.get(&config.model_name)?;
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (waker, wake_rx) = poll::wake_pair()?;
        let stats = registry.stats_handle();
        let batcher = MicroBatcher::with_stats(default_session, config.policy.clone(), stats)?;
        let stop = Arc::new(AtomicBool::new(false));
        let reactor_thread = {
            let ctx = ConnCtx {
                handle: batcher.handle(),
                registry: Arc::clone(&registry),
                default_model: config.model_name,
                stats: batcher.stats_handle(),
                reload_busy: Arc::new(AtomicBool::new(false)),
            };
            let stop = Arc::clone(&stop);
            let limits = config.limits.clone();
            let waker = waker.clone();
            thread::spawn(move || Reactor::new(listener, ctx, limits, stop, waker, wake_rx).run())
        };
        Ok(Server {
            addr,
            stop,
            waker,
            batcher,
            registry,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (useful with a `:0` ephemeral-port bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The model fleet behind this server. Publishing or ingesting through
    /// it while the server runs performs an atomic hot-swap: requests
    /// resolved after the publish run the new plan, in-flight requests
    /// finish on the old one.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.batcher.stats()
    }

    /// Graceful shutdown: stop accepting, flush responses for everything
    /// already in flight, close every connection, then drain and join the
    /// batcher. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        self.batcher.shutdown();
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
    handle: BatcherHandle,
    registry: Arc<ModelRegistry>,
    /// The model `OP_INFER` (no model id on the wire) resolves to.
    default_model: String,
    stats: Arc<ServeStats>,
    /// At most one directory rescan runs at a time; concurrent `OP_RELOAD`
    /// requests are refused typed rather than queued.
    reload_busy: Arc<AtomicBool>,
}

/// What one complete request frame asks of the reactor.
enum Request {
    /// An admitted infer request: the plan is pinned and the sample has the
    /// plan's length. Where it runs is decided at the end of the tick.
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

impl ConnCtx {
    /// Turns one request frame into what the reactor must do about it.
    /// Nothing here touches the connection, so `payload` may borrow its
    /// decoder.
    fn parse(
        &self,
        op: u8,
        payload: &[u8],
        spare: &mut Vec<f32>,
        now: Instant,
        limits: &ConnLimits,
    ) -> Request {
        match op {
            OP_INFER => self.admit(&self.default_model, payload, spare, now, limits),
            OP_INFER_MODEL => match protocol::split_model_infer(payload) {
                Ok((model, floats)) => self.admit(model, floats, spare, now, limits),
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

    /// Decodes the sample into the reactor's spare buffer, resolves `model`
    /// against the fleet and checks the geometry. On refusal the buffer
    /// goes back to `spare`.
    fn admit(
        &self,
        model: &str,
        floats: &[u8],
        spare: &mut Vec<f32>,
        now: Instant,
        limits: &ConnLimits,
    ) -> Request {
        let mut sample = std::mem::take(spare);
        let admitted = protocol::decode_f32s_into(floats, &mut sample).and_then(|()| {
            // The hot-swap read point: the plan is pinned here, so this
            // request finishes on it even if a new version is published a
            // microsecond later.
            let session = self.registry.get(model)?;
            // Geometry is checked against the pinned plan before admission,
            // so a wrong-length sample can never reach (and fail) a
            // coalesced batch that also carries other connections' requests.
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
                *spare = sample;
                Request::Reply(Err(e))
            }
        }
    }

    /// Rescans validate checkpoints (probe forwards included), which is far
    /// too slow for the reactor thread: run it on a one-shot thread and
    /// deliver the report as a normal sequenced completion.
    fn spawn_reload(&self, conn: u64, seq: u64, tx: CompletionTx) {
        let registry = Arc::clone(&self.registry);
        let busy = Arc::clone(&self.reload_busy);
        thread::spawn(move || {
            let result = registry.rescan().map(|r| r.to_json().into_bytes());
            busy.store(false, Ordering::SeqCst);
            tx.send(Completion { conn, seq, result });
        });
    }
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

/// Index of the wake channel's entry in the poll set.
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
    /// Where the read scan starts; rotates every tick.
    rr: usize,
    next_token: u64,
    completions_rx: mpsc::Receiver<Completion>,
    completions_tx: CompletionTx,
    wake_rx: WakeRx,
    /// Requests handed to the batcher or a reload thread whose completion
    /// has not come back yet.
    inflight: usize,
    /// Infer requests admitted this tick, until the tick decides where
    /// they run.
    jobs: Vec<Pending>,
    /// The buffer the next sample decodes into; an inline run hands it
    /// back, a queued request takes it along.
    spare: Vec<f32>,
    /// Output row of the inline path.
    row: Vec<f32>,
    /// The one read buffer every connection's bounded read goes through.
    read_buf: [u8; READ_CHUNK],
    /// When the current tick began.
    tick_began: Instant,
    /// The current tick dispatched a frame or delivered a completion: with
    /// another connection open, the reactor rests out its [`TICK_PERIOD`]
    /// before the next wait.
    served: bool,
    stop: Arc<AtomicBool>,
    stopping: Option<Instant>,
}

impl Reactor {
    fn new(
        listener: TcpListener,
        ctx: ConnCtx,
        limits: ConnLimits,
        stop: Arc<AtomicBool>,
        waker: Waker,
        wake_rx: WakeRx,
    ) -> Reactor {
        let (completions_tx, completions_rx) = mpsc::channel();
        Reactor {
            listener: Some(listener),
            ctx,
            limits,
            conns: Vec::new(),
            fds: Vec::new(),
            rr: 0,
            next_token: 0,
            completions_rx,
            completions_tx: CompletionTx::new(completions_tx, waker),
            wake_rx,
            inflight: 0,
            jobs: Vec::new(),
            spare: Vec::new(),
            row: Vec::new(),
            read_buf: [0; READ_CHUNK],
            tick_began: Instant::now(),
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
                let left = TICK_PERIOD.saturating_sub(self.tick_began.elapsed());
                thread::sleep(left.max(MIN_REST));
                self.ctx.stats.record_reactor_rest();
            }
            if poll::wait(&mut self.fds, timeout).is_err() {
                // Nothing was reported ready; do not spin on a failing wait.
                thread::sleep(Duration::from_millis(1));
            }
            self.tick_began = Instant::now();
            self.ctx.stats.record_reactor_wakeup();
            self.tick();
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

    /// One wake-up's work: deliver completions, accept, read and dispatch
    /// every ready connection, then execute what that found.
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
            // (and admitted to the queue) first.
            self.rr = (self.rr + 1) % registered;
            for i in 0..registered {
                self.service((self.rr + i) % registered);
            }
        }
        self.execute_jobs();
    }

    fn route_completion(&mut self, c: Completion) {
        self.served = true;
        self.inflight = self.inflight.saturating_sub(1);
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
    /// admitted into `jobs`, reloads start their thread, everything else is
    /// answered on the spot.
    fn read_and_dispatch(&mut self, at: usize) {
        let Reactor {
            conns,
            ctx,
            limits,
            jobs,
            spare,
            read_buf,
            inflight,
            completions_tx,
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
                Ok(Some((op, payload))) => Ok(ctx.parse(op, payload, spare, now, limits)),
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
                    *inflight += 1;
                    ctx.spawn_reload(conn.token, seq, completions_tx.clone());
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

    /// Executes what the tick admitted. Exactly one request, with nothing
    /// queued or in flight, runs here and now: there is nobody to batch it
    /// with and nobody it would keep waiting. Anything else goes to the
    /// batcher's queue, where requests that arrive together leave together.
    fn execute_jobs(&mut self) {
        if self.jobs.len() == 1 && self.inflight == 0 {
            if let Some(job) = self.jobs.pop() {
                self.run_inline(job);
            }
            return;
        }
        let mut jobs = std::mem::take(&mut self.jobs);
        for job in jobs.drain(..) {
            let (conn, seq) = (job.conn, job.seq);
            let (handle, tx) = (&self.ctx.handle, self.completions_tx.clone());
            match handle.submit_event(job.session, job.sample, job.deadline, conn, seq, tx) {
                Ok(()) => self.inflight += 1,
                // A typed refusal is the answer; no completion will come.
                Err(e) => self.answer(conn, seq, Err(&e)),
            }
        }
        self.jobs = jobs;
    }

    /// Runs one admitted request on the reactor thread, with the checks
    /// the batching worker applies: drain, deadline, then the plan.
    fn run_inline(&mut self, job: Pending) {
        let stats = &self.ctx.stats;
        stats.record_inline();
        let now = Instant::now();
        let outcome = if self.ctx.handle.is_draining() {
            Err(ServeError::ShuttingDown)
        } else if job.deadline.is_some_and(|d| now >= d) {
            stats.record_deadline_expired();
            Err(ServeError::DeadlineExceeded {
                waited_us: micros(now.duration_since(job.admitted)),
            })
        } else {
            stats.record_batch(1);
            self.row.resize(job.session.num_outputs(), 0.0);
            match job.session.infer_into(&job.sample, 1, &mut self.row) {
                Ok(()) => {
                    stats.record_completed(micros(job.admitted.elapsed()));
                    Ok(())
                }
                Err(e) => {
                    stats.record_error();
                    Err(e)
                }
            }
        };
        match outcome {
            Ok(()) => {
                if let Some(conn) = conn_mut(&mut self.conns, job.conn) {
                    let row = &self.row;
                    conn.inflight = conn.inflight.saturating_sub(1);
                    conn.respond(job.seq, STATUS_OK, |out| protocol::put_f32s(out, row), now);
                }
            }
            Err(e) => self.answer(job.conn, job.seq, Err(&e)),
        }
        self.spare = job.sample;
    }

    /// Answers an admitted request from the reactor itself.
    fn answer(&mut self, conn: u64, seq: u64, result: Result<&[u8], &ServeError>) {
        if let Some(conn) = conn_mut(&mut self.conns, conn) {
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.respond_result(seq, result, Instant::now());
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
