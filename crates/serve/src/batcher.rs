//! Dynamic micro-batching with admission control.
//!
//! Single-sample requests land on a **bounded** MPSC queue. A dedicated
//! worker thread pops the first request, then keeps coalescing until
//! either [`BatchPolicy::max_batch`] requests are in hand or
//! [`BatchPolicy::max_delay`] has elapsed since the first one — the
//! classic latency/throughput knob; at `max_delay` zero coalescing is
//! purely opportunistic (whatever is already queued, never a wait). The
//! coalesced batch runs once through the frozen [`InferenceSession`] and
//! each requester gets its own output row back; the reactor is woken once
//! per batch, after the last row is queued for it.
//!
//! Backpressure is typed, not implicit: a full queue sheds the request
//! with [`ServeError::Overloaded`] instead of queueing unboundedly, and a
//! draining runtime answers [`ServeError::ShuttingDown`]. Shutdown is
//! graceful — everything already admitted is executed before the worker
//! exits.
//!
//! **Fleet routing**: every job carries the [`InferenceSession`] it was
//! resolved against at admission time, so one worker serves many models.
//! A coalesced batch is partitioned by plan identity (the `Arc` pointer of
//! the frozen network) before execution — requests resolved against an old
//! plan finish on that old plan even if a hot-swap published a new one
//! mid-flight, which is exactly the drain guarantee the registry's
//! `Arc`-swap relies on.

use crate::poll::Waker;
use crate::{InferenceSession, ServeError, ServeStats, StatsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// The batch-coalescing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch the worker will coalesce.
    pub max_batch: usize,
    /// Longest an under-filled batch is held open for co-batchees,
    /// counted from its first request's admission; zero never waits.
    pub max_delay: Duration,
    /// Bound of the admission queue; requests beyond it are shed.
    pub queue_depth: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_micros(500),
            queue_depth: 128,
        }
    }
}

impl BatchPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for zero `max_batch` or
    /// `queue_depth`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 || self.queue_depth == 0 {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "batch policy needs max_batch ≥ 1 and queue_depth ≥ 1, got {self:?}"
                ),
            });
        }
        Ok(())
    }
}

/// Where a finished (or shed) request's result goes.
///
/// Blocking callers park on a rendezvous channel; the event-loop server
/// instead receives a [`Completion`] tagged with its connection token and
/// per-connection sequence number on a shared channel, so the reactor
/// thread never blocks on queued inference.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Rendezvous for [`BatcherHandle::infer_blocking`].
    Blocking(mpsc::SyncSender<Result<Vec<f32>, ServeError>>),
    /// Completion-channel delivery for the event-loop front-end.
    Event {
        /// Connection token the reactor routes the completion back to.
        conn: u64,
        /// Per-connection request sequence number (response ordering).
        seq: u64,
        /// The reactor's completion queue.
        tx: CompletionTx,
    },
}

impl Reply {
    /// Delivers `result`. An event completion is only queued here: its
    /// sender goes to `bells`, which the worker rings once the whole batch
    /// is queued, so the reactor finds every row of a batch in one tick.
    fn send(self, result: Result<Vec<f32>, ServeError>, bells: &mut Vec<CompletionTx>) {
        match self {
            // A hung-up requester is not an error; drop its result.
            Reply::Blocking(tx) => {
                let _ = tx.send(result);
            }
            // Event completions carry the *encoded* response payload so
            // the serialisation cost lands on the worker thread, not the
            // reactor.
            Reply::Event { conn, seq, tx } => {
                let result = result.map(|row| crate::protocol::encode_f32s(&row));
                tx.queue(Completion { conn, seq, result });
                bells.push(tx);
            }
        }
    }
}

/// One finished request routed back to the event loop.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Connection token assigned by the reactor at accept time.
    pub conn: u64,
    /// Per-connection request sequence number.
    pub seq: u64,
    /// The encoded response payload (or a typed shed/failure). Inference
    /// completions carry `encode_f32s` bytes; out-of-band completions
    /// (e.g. reload reports) carry their own payload.
    pub result: Result<Vec<u8>, ServeError>,
}

/// The sending side of the reactor's completion queue: the channel plus
/// the wake-up that gets a reactor blocked in its readiness wait to look
/// at it.
#[derive(Debug, Clone)]
pub(crate) struct CompletionTx {
    tx: mpsc::Sender<Completion>,
    waker: Waker,
}

impl CompletionTx {
    pub(crate) fn new(tx: mpsc::Sender<Completion>, waker: Waker) -> CompletionTx {
        CompletionTx { tx, waker }
    }

    /// Queues `completion` without waking the reactor. A reactor that has
    /// already gone is not an error; the result is dropped with it.
    fn queue(&self, completion: Completion) {
        let _ = self.tx.send(completion);
    }

    /// Gets the reactor to look at what has been queued.
    fn wake(&self) {
        self.waker.wake();
    }

    /// Queues `completion` and wakes the reactor.
    pub(crate) fn send(&self, completion: Completion) {
        self.queue(completion);
        self.wake();
    }
}

/// One admitted request: the flat sample, the plan it was resolved
/// against, its enqueue time (for the latency histogram), an optional
/// absolute deadline, and where the result goes.
struct Job {
    sample: Vec<f32>,
    session: InferenceSession,
    enqueued: Instant,
    deadline: Option<Instant>,
    resp: Reply,
}

impl Job {
    /// `true` once the job's deadline has passed — such work is shed
    /// *before* inference, not run and discarded after.
    fn expired(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Saturating microseconds of a duration, for the latency counters.
pub(crate) fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// What travels down the admission queue.
enum Msg {
    Job(Job),
    /// Sent by [`MicroBatcher::shutdown`] after admission has closed: the
    /// worker executes what is still queued and exits. It is what lets an
    /// idle worker block in `recv` instead of waking on a timer to look at
    /// a flag.
    Stop,
}

/// The micro-batching runtime: owns the worker thread and the queue.
/// Request submission goes through cloneable [`BatcherHandle`]s.
#[derive(Debug)]
pub struct MicroBatcher {
    tx: mpsc::SyncSender<Msg>,
    stats: Arc<ServeStats>,
    draining: Arc<AtomicBool>,
    policy: BatchPolicy,
    session: InferenceSession,
    worker: Option<thread::JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the batching worker over a frozen session (the **default**
    /// plan for submissions that don't carry their own).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an invalid policy.
    pub fn new(session: InferenceSession, policy: BatchPolicy) -> Result<Self, ServeError> {
        MicroBatcher::with_stats(session, policy, Arc::new(ServeStats::default()))
    }

    /// As [`new`](Self::new), recording into a shared stats collector so
    /// the registry, server, and batcher report as one fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an invalid policy.
    pub fn with_stats(
        session: InferenceSession,
        policy: BatchPolicy,
        stats: Arc<ServeStats>,
    ) -> Result<Self, ServeError> {
        policy.validate()?;
        let (tx, rx) = mpsc::sync_channel::<Msg>(policy.queue_depth);
        let draining = Arc::new(AtomicBool::new(false));
        let worker = {
            let stats = Arc::clone(&stats);
            let policy = policy.clone();
            thread::spawn(move || worker_loop(&rx, &stats, &policy))
        };
        Ok(MicroBatcher {
            tx,
            stats,
            draining,
            policy,
            session,
            worker: Some(worker),
        })
    }

    /// A cloneable submission handle (one per connection, typically).
    pub fn handle(&self) -> BatcherHandle {
        BatcherHandle {
            tx: self.tx.clone(),
            stats: Arc::clone(&self.stats),
            draining: Arc::clone(&self.draining),
            session: self.session.clone(),
            queue_depth: self.policy.queue_depth,
        }
    }

    /// The session this batcher executes on.
    pub fn session(&self) -> &InferenceSession {
        &self.session
    }

    /// The active policy.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The shared stats collector (for fronts that record their own
    /// protocol-level counters).
    pub fn stats_handle(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Graceful drain: stop admitting, execute everything already queued,
    /// then join the worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            // Blocks only while the queue is full, and the worker is
            // emptying it.
            let _ = self.tx.send(Msg::Stop);
            let _ = worker.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A cheap, cloneable request-submission handle.
#[derive(Debug, Clone)]
pub struct BatcherHandle {
    tx: mpsc::SyncSender<Msg>,
    stats: Arc<ServeStats>,
    draining: Arc<AtomicBool>,
    session: InferenceSession,
    queue_depth: usize,
}

impl BatcherHandle {
    /// Submits one flat sample and blocks until its output row (or a typed
    /// rejection) comes back.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the admission queue is full,
    /// [`ServeError::ShuttingDown`] during drain, and whatever the forward
    /// pass reports (`BadRequest` for a wrong-length sample).
    pub fn infer_blocking(&self, sample: Vec<f32>) -> Result<Vec<f32>, ServeError> {
        self.infer_with_deadline(sample, None)
    }

    /// Like [`infer_blocking`](Self::infer_blocking), but the request
    /// carries an absolute deadline: if it is still queued when the
    /// deadline passes, the worker sheds it with
    /// [`ServeError::DeadlineExceeded`] instead of running inference.
    ///
    /// # Errors
    ///
    /// As [`infer_blocking`](Self::infer_blocking), plus
    /// [`ServeError::DeadlineExceeded`].
    fn infer_with_deadline(
        &self,
        sample: Vec<f32>,
        deadline: Option<Instant>,
    ) -> Result<Vec<f32>, ServeError> {
        let (resp_tx, resp_rx) = mpsc::sync_channel(1);
        self.submit(
            self.session.clone(),
            sample,
            deadline,
            Reply::Blocking(resp_tx),
        )?;
        match resp_rx.recv() {
            Ok(result) => result,
            // Worker exited between admission and execution — only
            // possible on teardown.
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Non-blocking submission for the event-loop front-end: the request
    /// runs on `session` (resolved against the registry at admission
    /// time) and the result comes back as a [`Completion`] on `tx`,
    /// tagged `(conn, seq)`.
    ///
    /// # Errors
    ///
    /// Admission failures ([`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`]) are returned synchronously — in that
    /// case **no** completion will arrive for this `(conn, seq)`.
    pub(crate) fn submit_event(
        &self,
        session: InferenceSession,
        sample: Vec<f32>,
        deadline: Option<Instant>,
        conn: u64,
        seq: u64,
        tx: CompletionTx,
    ) -> Result<(), ServeError> {
        self.submit(session, sample, deadline, Reply::Event { conn, seq, tx })
    }

    /// Shared admission path: typed refusal, never blocks.
    fn submit(
        &self,
        session: InferenceSession,
        sample: Vec<f32>,
        deadline: Option<Instant>,
        resp: Reply,
    ) -> Result<(), ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let job = Job {
            sample,
            session,
            enqueued: Instant::now(),
            deadline,
            resp,
        };
        match self.tx.try_send(Msg::Job(job)) {
            Ok(()) => Ok(()),
            Err(mpsc::TrySendError::Full(_)) => {
                self.stats.record_shed();
                Err(ServeError::Overloaded {
                    queue_depth: self.queue_depth,
                })
            }
            Err(mpsc::TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// `true` once drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// The worker: coalesce → execute → respond, until told to stop.
fn worker_loop(rx: &mpsc::Receiver<Msg>, stats: &ServeStats, policy: &BatchPolicy) {
    // Admission closed before `Stop` was sent, so from then on the queue
    // only empties: take what it still holds without blocking, then exit.
    let mut stopping = false;
    let mut bells = Vec::new();
    loop {
        let next = if stopping {
            rx.try_recv().ok()
        } else {
            rx.recv().ok()
        };
        let first = match next {
            Some(Msg::Job(job)) => job,
            Some(Msg::Stop) => {
                stopping = true;
                continue;
            }
            None => return,
        };
        let jobs = coalesce(rx, first, policy, &mut stopping);
        // Deadlines hold during drain too: expired queued work gets a
        // typed error, not a hang and not a post-deadline answer.
        let live = shed_expired_jobs(jobs, stats, &mut bells);
        if !live.is_empty() {
            run_batches(stats, live, &mut bells);
        }
        for tx in bells.drain(..) {
            tx.wake();
        }
    }
}

/// Collects up to `max_batch` jobs, waiting at most `max_delay` past the
/// first job's admission — and not at all once the queue is draining.
fn coalesce(
    rx: &mpsc::Receiver<Msg>,
    first: Job,
    policy: &BatchPolicy,
    stopping: &mut bool,
) -> Vec<Job> {
    let deadline = first.enqueued + policy.max_delay;
    let mut jobs = vec![first];
    while jobs.len() < policy.max_batch {
        let wait = deadline.saturating_duration_since(Instant::now());
        let next = if *stopping || wait.is_zero() {
            rx.try_recv().ok()
        } else {
            rx.recv_timeout(wait).ok()
        };
        match next {
            Some(Msg::Job(job)) => jobs.push(job),
            Some(Msg::Stop) => *stopping = true,
            None => break,
        }
    }
    jobs
}

/// Splits a batch into live jobs (returned) and expired ones, which are
/// answered with typed deadline errors; inference never runs for them.
fn shed_expired_jobs(
    jobs: Vec<Job>,
    stats: &ServeStats,
    bells: &mut Vec<CompletionTx>,
) -> Vec<Job> {
    let now = Instant::now();
    let mut live = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.expired(now) {
            stats.record_deadline_expired();
            let waited_us = micros(job.enqueued.elapsed());
            job.resp
                .send(Err(ServeError::DeadlineExceeded { waited_us }), bells);
        } else {
            live.push(job);
        }
    }
    live
}

/// Partitions a coalesced batch by plan identity (the `Arc` pointer of
/// each job's frozen plan) and executes one sub-batch per plan,
/// preserving submission order within each plan. In the common
/// single-model case this is one group and zero extra copies.
fn run_batches(stats: &ServeStats, jobs: Vec<Job>, bells: &mut Vec<CompletionTx>) {
    let mut groups: Vec<(*const apt_nn::FrozenPlan, Vec<Job>)> = Vec::new();
    for job in jobs {
        let key = Arc::as_ptr(job.session.plan());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(job),
            None => groups.push((key, vec![job])),
        }
    }
    for (_, group) in groups {
        run_batch(stats, group, bells);
    }
}

/// Runs one same-plan batch and distributes per-row results. Input vectors
/// are recycled through the session arena after staging.
fn run_batch(stats: &ServeStats, jobs: Vec<Job>, bells: &mut Vec<CompletionTx>) {
    stats.record_batch(jobs.len());
    let session = jobs[0].session.clone();
    let mut samples = Vec::with_capacity(jobs.len());
    let mut waiters = Vec::with_capacity(jobs.len());
    for job in jobs {
        samples.push(job.sample);
        waiters.push((job.enqueued, job.resp));
    }
    match session.infer_samples(&samples) {
        Ok(rows) => {
            for ((enqueued, resp), row) in waiters.into_iter().zip(rows) {
                stats.record_completed(micros(enqueued.elapsed()));
                resp.send(Ok(row), bells);
            }
        }
        Err(e) => {
            for (_, resp) in waiters {
                stats.record_error();
                resp.send(Err(e.duplicate()), bells);
            }
        }
    }
    for sample in samples {
        session.arena().put(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelArch, ModelSpec};
    use apt_nn::checkpoint;

    fn session() -> InferenceSession {
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![5, 8, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        };
        let mut net = spec.build().unwrap();
        let blob = checkpoint::save_full(&mut net);
        InferenceSession::from_checkpoint(&spec, &blob).unwrap()
    }

    #[test]
    fn single_request_round_trip() {
        let s = session();
        let want = s.infer_one(&[0.3; 5]).unwrap();
        let batcher = MicroBatcher::new(s, BatchPolicy::default()).unwrap();
        let got = batcher.handle().infer_blocking(vec![0.3; 5]).unwrap();
        assert_eq!(got, want);
        let snap = batcher.stats();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.shed, 0);
    }

    /// Parks the worker inside a rendezvous reply: until the returned
    /// receiver is read, everything submitted queues up behind it, so
    /// batches form with no timing involved.
    fn park_worker(h: &BatcherHandle) -> mpsc::Receiver<Result<Vec<f32>, ServeError>> {
        let (tx, rx) = mpsc::sync_channel(0);
        h.submit(h.session.clone(), vec![0.0; 5], None, Reply::Blocking(tx))
            .unwrap();
        rx
    }

    /// Admits one request without waiting for its answer.
    fn submit_one(
        h: &BatcherHandle,
        sample: Vec<f32>,
        deadline: Option<Instant>,
    ) -> mpsc::Receiver<Result<Vec<f32>, ServeError>> {
        let (tx, rx) = mpsc::sync_channel(1);
        h.submit(h.session.clone(), sample, deadline, Reply::Blocking(tx))
            .unwrap();
        rx
    }

    #[test]
    fn concurrent_requests_batch_and_match_single_sample() {
        let s = session();
        let policy = BatchPolicy {
            max_batch: 4,
            max_delay: Duration::ZERO,
            queue_depth: 64,
        };
        let batcher = MicroBatcher::new(s.clone(), policy).unwrap();
        let h = batcher.handle();
        let parked = park_worker(&h);
        let pending: Vec<_> = (0..12)
            .map(|t| {
                let sample = vec![t as f32 * 0.1; 5];
                (submit_one(&h, sample.clone(), None), sample)
            })
            .collect();
        parked.recv().unwrap().unwrap();
        for (rx, sample) in pending {
            let got = rx.recv().unwrap().unwrap();
            let want = s.infer_one(&sample).unwrap();
            assert_eq!(got, want, "batched result must be bit-identical");
        }
        let snap = batcher.stats();
        assert_eq!(snap.completed, 13);
        assert!(
            snap.batches < 12,
            "some coalescing expected, got {} batches",
            snap.batches
        );
        assert!(snap.batch_hist.iter().all(|&(size, _)| size <= 4));
    }

    #[test]
    fn wrong_length_sample_fails_typed() {
        let batcher = MicroBatcher::new(session(), BatchPolicy::default()).unwrap();
        let err = batcher.handle().infer_blocking(vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest { .. }), "{err}");
        assert_eq!(batcher.stats().errors, 1);
    }

    #[test]
    fn shutdown_rejects_new_requests() {
        let mut batcher = MicroBatcher::new(session(), BatchPolicy::default()).unwrap();
        let h = batcher.handle();
        batcher.shutdown();
        assert!(h.is_draining());
        assert!(matches!(
            h.infer_blocking(vec![0.0; 5]),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn expired_deadline_is_shed_before_inference() {
        let batcher = MicroBatcher::new(session(), BatchPolicy::default()).unwrap();
        let h = batcher.handle();
        let past = Instant::now() - Duration::from_millis(5);
        match h.infer_with_deadline(vec![0.2; 5], Some(past)) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snap = batcher.stats();
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.completed, 0, "expired work must never run");
        // A live deadline still gets a real answer.
        let future = Instant::now() + Duration::from_secs(30);
        assert!(h.infer_with_deadline(vec![0.2; 5], Some(future)).is_ok());
        assert_eq!(batcher.stats().completed, 1);
    }

    /// Drain contract: every request admitted before shutdown gets exactly
    /// one response — in-flight work completes bit-exactly, queued-but-
    /// expired work gets a typed deadline error, and nothing hangs, is
    /// lost, or is answered twice.
    #[test]
    fn drain_completes_inflight_and_sheds_expired() {
        let s = session();
        let policy = BatchPolicy {
            max_batch: 4,
            max_delay: Duration::ZERO,
            queue_depth: 64,
        };
        let mut batcher = MicroBatcher::new(s.clone(), policy).unwrap();
        let h = batcher.handle();
        const N: usize = 24;
        let parked = park_worker(&h);
        // Odd requests carry a deadline that has passed by the time the
        // worker reaches them.
        let pending: Vec<_> = (0..N)
            .map(|t| {
                let sample = vec![t as f32 * 0.05; 5];
                let deadline = (t % 2 == 1).then(Instant::now);
                (submit_one(&h, sample.clone(), deadline), sample)
            })
            .collect();
        // Begin drain while the queue is still full, then let the worker go.
        thread::scope(|scope| {
            scope.spawn(|| batcher.shutdown());
            while !h.is_draining() {
                thread::yield_now();
            }
            assert!(matches!(
                h.infer_blocking(vec![0.0; 5]),
                Err(ServeError::ShuttingDown)
            ));
            parked.recv().unwrap().unwrap();
        });

        let mut ok = 0u64;
        let mut expired = 0u64;
        for (rx, sample) in pending {
            match rx.recv().expect("every admitted request is answered") {
                Ok(row) => {
                    let want = s.infer_one(&sample).unwrap();
                    assert_eq!(row, want, "drained response must stay bit-exact");
                    ok += 1;
                }
                Err(ServeError::DeadlineExceeded { .. }) => expired += 1,
                Err(e) => panic!("untyped drain failure: {e}"),
            }
        }
        assert_eq!((ok, expired), (N as u64 / 2, N as u64 / 2));
        let snap = batcher.stats();
        assert_eq!(snap.completed, ok + 1, "no duplicated or lost completions");
        assert_eq!(snap.deadline_expired, expired);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn policy_validation() {
        assert!(BatchPolicy {
            max_batch: 0,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy {
            queue_depth: 0,
            ..BatchPolicy::default()
        }
        .validate()
        .is_err());
        assert!(BatchPolicy::default().validate().is_ok());
    }

    #[test]
    fn mixed_plan_batch_splits_and_stays_exact() {
        // Two distinct plans with identical geometry but different weights:
        // interleaved submissions must each run on the plan they were
        // resolved against, even when coalesced into one queue window.
        let spec = ModelSpec {
            arch: ModelArch::Mlp(vec![5, 8, 3]),
            classes: 3,
            img_size: 0,
            width_mult: 1.0,
        };
        let make = |seed: u64| {
            let mut net = apt_nn::models::mlp(
                "mlp",
                &[5, 8, 3],
                &apt_nn::QuantScheme::paper_apt(),
                &mut apt_tensor::rng::seeded(seed),
            )
            .unwrap();
            let blob = checkpoint::save_full(&mut net);
            InferenceSession::from_checkpoint(&spec, &blob).unwrap()
        };
        let a = make(11);
        let b = make(22);
        let sample = vec![0.7; 5];
        let want_a = a.infer_one(&sample).unwrap();
        let want_b = b.infer_one(&sample).unwrap();
        assert_ne!(want_a, want_b, "plans must actually differ");

        let policy = BatchPolicy {
            max_batch: 16,
            max_delay: Duration::ZERO,
            queue_depth: 64,
        };
        let batcher = MicroBatcher::new(a.clone(), policy).unwrap();
        let h = batcher.handle();
        let (tx, rx) = mpsc::channel();
        let (waker, wake_rx) = crate::poll::wake_pair().unwrap();
        let tx = CompletionTx::new(tx, waker);
        const N: u64 = 10;
        let parked = park_worker(&h);
        for seq in 0..N {
            let session = if seq % 2 == 0 { a.clone() } else { b.clone() };
            h.submit_event(session, sample.clone(), None, 1, seq, tx.clone())
                .unwrap();
        }
        parked.recv().unwrap().unwrap();
        // The reactor is woken once the whole window is queued for it, not
        // row by row: by the first wake-up every completion is there.
        crate::poll::wait(&mut [wake_rx.pollfd()], Some(Duration::from_secs(5))).unwrap();
        let ready: Vec<Completion> = rx.try_iter().collect();
        if cfg!(unix) {
            assert_eq!(ready.len() as u64, N, "woken before the window was queued");
        }
        let mut ready = ready.into_iter();
        let mut seen = 0;
        while seen < N {
            let c = ready
                .next()
                .unwrap_or_else(|| rx.recv_timeout(Duration::from_secs(5)).unwrap());
            let payload = c.result.expect("no typed failures expected");
            let row = crate::protocol::decode_f32s(&payload).unwrap();
            let want = if c.seq.is_multiple_of(2) {
                &want_a
            } else {
                &want_b
            };
            assert_eq!(&row, want, "seq {} answered by the wrong plan", c.seq);
            seen += 1;
        }
        let snap = batcher.stats();
        assert_eq!(snap.completed, N + 1);
        assert!(
            snap.batches <= 4,
            "ten queued jobs over two plans are at most two sub-batches per window: {snap:?}"
        );
    }

    #[test]
    fn overload_sheds_with_typed_error() {
        // A policy that admits one queued request at a time.
        let policy = BatchPolicy {
            max_batch: 1,
            max_delay: Duration::ZERO,
            queue_depth: 1,
        };
        let batcher = MicroBatcher::new(session(), policy).unwrap();
        let mut threads = Vec::new();
        for _ in 0..16 {
            let h = batcher.handle();
            threads.push(thread::spawn(move || {
                h.infer_blocking(vec![0.5; 5]).map(|_| ())
            }));
        }
        let results: Vec<Result<(), ServeError>> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        let ok = results.iter().filter(|r| r.is_ok()).count();
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded { .. })))
            .count();
        assert_eq!(ok + shed, 16, "only Ok or Overloaded allowed: {results:?}");
        assert!(ok >= 1);
        let snap = batcher.stats();
        assert_eq!(snap.completed as usize, ok);
        assert_eq!(snap.shed as usize, shed);
    }
}
