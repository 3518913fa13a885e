//! Dynamic micro-batching with admission control, for callers in the same
//! process.
//!
//! Single-sample requests land on a **bounded** MPSC queue. A dedicated
//! worker thread pops the first request, then takes whatever else is
//! already queued, up to [`BatchPolicy::max_batch`] requests, and never
//! waits for more: a batch is what arrived while the previous one ran
//! (the "no added delay" policy of Clipper's and Triton's dynamic
//! batchers). Requests that reach the queue together leave together. The
//! coalesced batch runs once through the frozen [`InferenceSession`] and
//! each [`BatcherHandle::infer_blocking`] caller gets its own output row
//! back. The worker's bookkeeping lives in buffers it reuses from batch to
//! batch, and staging goes through the session arena, so a steady stream
//! of batches allocates only the rows it hands out.
//!
//! The TCP [`crate::Server`] does not use this queue: its reactor thread
//! runs every request it admits itself, with the same [`BatchPolicy`]
//! (`max_batch` per plan run, `queue_depth` per tick).
//!
//! Backpressure is typed, not implicit: a full queue sheds the request
//! with [`ServeError::Overloaded`] instead of queueing unboundedly, and a
//! draining runtime answers [`ServeError::ShuttingDown`]. Shutdown is
//! graceful — everything already admitted is executed before the worker
//! exits.

use crate::{InferenceSession, ServeError, ServeStats, StatsSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// The batch-coalescing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch one plan run takes.
    pub max_batch: usize,
    /// Most requests admitted and not yet run — the batcher's queue, or
    /// one server tick; requests beyond it are shed.
    pub queue_depth: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
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

/// Where a blocking caller waits for its row (or a typed refusal).
type ReplyTx = mpsc::SyncSender<Result<Vec<f32>, ServeError>>;

/// One admitted request: the flat sample, its enqueue time (for the
/// latency histogram), an optional absolute deadline, and where the result
/// goes.
struct Job {
    sample: Vec<f32>,
    enqueued: Instant,
    deadline: Option<Instant>,
    resp: ReplyTx,
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
    worker: Option<thread::JoinHandle<()>>,
}

impl MicroBatcher {
    /// Spawns the batching worker over a frozen session.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an invalid policy.
    pub fn new(session: InferenceSession, policy: BatchPolicy) -> Result<Self, ServeError> {
        policy.validate()?;
        let stats = Arc::new(ServeStats::default());
        let (tx, rx) = mpsc::sync_channel::<Msg>(policy.queue_depth);
        let draining = Arc::new(AtomicBool::new(false));
        let worker = {
            let stats = Arc::clone(&stats);
            let max_batch = policy.max_batch;
            thread::spawn(move || worker_loop(&rx, &stats, &session, max_batch))
        };
        Ok(MicroBatcher {
            tx,
            stats,
            draining,
            policy,
            worker: Some(worker),
        })
    }

    /// A cloneable submission handle (one per connection, typically).
    pub fn handle(&self) -> BatcherHandle {
        BatcherHandle {
            tx: self.tx.clone(),
            stats: Arc::clone(&self.stats),
            draining: Arc::clone(&self.draining),
            queue_depth: self.policy.queue_depth,
        }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
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
        self.submit(sample, deadline, resp_tx)?;
        match resp_rx.recv() {
            Ok(result) => result,
            // Worker exited between admission and execution — only
            // possible on teardown.
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Admission: typed refusal, never blocks.
    fn submit(
        &self,
        sample: Vec<f32>,
        deadline: Option<Instant>,
        resp: ReplyTx,
    ) -> Result<(), ServeError> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let job = Job {
            sample,
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
}

/// The worker: coalesce → screen → execute → respond, until told to stop.
/// Every buffer here outlives the batch that fills it.
struct Worker<'a> {
    rx: &'a mpsc::Receiver<Msg>,
    stats: &'a ServeStats,
    session: &'a InferenceSession,
    max_batch: usize,
    /// Admission closed before `Stop` was sent, so from then on the queue
    /// only empties: take what it still holds without blocking, then exit.
    stopping: bool,
    /// The coalesced batch.
    jobs: Vec<Job>,
}

fn worker_loop(
    rx: &mpsc::Receiver<Msg>,
    stats: &ServeStats,
    session: &InferenceSession,
    max_batch: usize,
) {
    let mut worker = Worker {
        rx,
        stats,
        session,
        max_batch,
        stopping: false,
        jobs: Vec::new(),
    };
    while worker.coalesce() {
        // Deadlines hold during drain too: expired queued work gets a
        // typed error, not a hang and not a post-deadline answer.
        worker.screen();
        if !worker.jobs.is_empty() {
            worker.run_batch();
        }
    }
}

impl Worker<'_> {
    /// Blocks for a first job (unless stopping), then takes what is
    /// already queued behind it, up to `max_batch` jobs. Never waits for a
    /// job that has not arrived. `false` once the queue is empty after
    /// `Stop`, or gone.
    fn coalesce(&mut self) -> bool {
        while self.jobs.is_empty() {
            let next = if self.stopping {
                self.rx.try_recv().ok()
            } else {
                self.rx.recv().ok()
            };
            match next {
                Some(Msg::Job(job)) => self.jobs.push(job),
                Some(Msg::Stop) => self.stopping = true,
                None => return false,
            }
        }
        while self.jobs.len() < self.max_batch {
            match self.rx.try_recv() {
                Ok(Msg::Job(job)) => self.jobs.push(job),
                Ok(Msg::Stop) => self.stopping = true,
                Err(_) => break,
            }
        }
        true
    }

    /// Answers the jobs that must not run — deadline passed, or a sample
    /// of the wrong length — with typed errors, and keeps the rest in
    /// order. One bad sample fails only its own request.
    fn screen(&mut self) {
        let now = Instant::now();
        let sample_len = self.session.sample_len();
        let refused = |job: &mut Job| job.expired(now) || job.sample.len() != sample_len;
        for job in self.jobs.extract_if(.., refused) {
            let refusal = if job.expired(now) {
                self.stats.record_deadline_expired();
                ServeError::DeadlineExceeded {
                    waited_us: micros(job.enqueued.elapsed()),
                }
            } else {
                self.stats.record_error();
                ServeError::BadRequest {
                    reason: format!(
                        "expected {sample_len} input values, got {}",
                        job.sample.len()
                    ),
                }
            };
            // A hung-up requester is not an error; drop its result.
            let _ = job.resp.send(Err(refusal));
        }
    }

    /// Runs `jobs` as one batch: samples are staged into a buffer from the
    /// session arena, the plan runs into another, and each caller gets a
    /// copy of its chunk of the output. Both buffers go back to the arena;
    /// the request samples are dropped, so the arena's few slots hold the
    /// batch-sized buffers the next batch takes.
    fn run_batch(&mut self) {
        let n = self.jobs.len();
        self.stats.record_batch(n);
        let session = self.session;
        let arena = session.arena();
        let width = session.num_outputs();
        let mut staging = arena.take(n * session.sample_len());
        for job in &self.jobs {
            staging.extend_from_slice(&job.sample);
        }
        let mut out = arena.take(n * width);
        out.resize(n * width, 0.0);
        let ran = session.infer_into(&staging, n, &mut out);
        for (job, row) in self.jobs.drain(..).zip(out.chunks_exact(width)) {
            let result = match &ran {
                Ok(()) => {
                    self.stats.record_completed(micros(job.enqueued.elapsed()));
                    Ok(row.to_vec())
                }
                Err(e) => {
                    self.stats.record_error();
                    Err(e.duplicate())
                }
            };
            let _ = job.resp.send(result);
        }
        arena.put(staging);
        arena.put(out);
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

    /// A request with nobody queued behind it runs at once. A hold of
    /// `HOLD` or more per request could only make the loop slower than
    /// `N × HOLD`, so no batch is ever held open waiting for company.
    #[test]
    fn lone_request_is_never_held_open() {
        const N: u32 = 400;
        const HOLD: Duration = Duration::from_micros(250);
        let batcher = MicroBatcher::new(session(), BatchPolicy::default()).unwrap();
        let h = batcher.handle();
        let began = Instant::now();
        for i in 0..N {
            h.infer_blocking(vec![i as f32 * 0.01; 5]).unwrap();
        }
        let took = began.elapsed();
        let snap = batcher.stats();
        assert_eq!(snap.batch_hist, vec![(1, u64::from(N))], "{snap:?}");
        assert!(took < HOLD * N, "{N} lone requests took {took:?}");
    }

    /// Parks the worker inside a rendezvous reply: until the returned
    /// receiver is read, everything submitted queues up behind it, so
    /// batches form with no timing involved.
    fn park_worker(h: &BatcherHandle) -> mpsc::Receiver<Result<Vec<f32>, ServeError>> {
        let (tx, rx) = mpsc::sync_channel(0);
        h.submit(vec![0.0; 5], None, tx).unwrap();
        rx
    }

    /// Admits one request without waiting for its answer.
    fn submit_one(
        h: &BatcherHandle,
        sample: Vec<f32>,
        deadline: Option<Instant>,
    ) -> mpsc::Receiver<Result<Vec<f32>, ServeError>> {
        let (tx, rx) = mpsc::sync_channel(1);
        h.submit(sample, deadline, tx).unwrap();
        rx
    }

    #[test]
    fn concurrent_requests_batch_and_match_single_sample() {
        let s = session();
        let policy = BatchPolicy {
            max_batch: 4,
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
        assert!(h.draining.load(Ordering::SeqCst));
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
            while !h.draining.load(Ordering::SeqCst) {
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
    fn overload_sheds_with_typed_error() {
        // A policy that admits one queued request at a time.
        let policy = BatchPolicy {
            max_batch: 1,
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
