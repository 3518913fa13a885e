//! Lock-free serving metrics: request counters, a log₂-bucketed latency
//! histogram (p50/p90/p99), and the batch-size distribution.
//!
//! Everything is plain atomics so the hot path (batcher worker, connection
//! threads) records without locks, and any thread can snapshot at any time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ latency buckets: bucket `i` holds `[2^(i-1), 2^i)` µs
/// (bucket 0 is `< 1` µs), so 40 buckets cover up to ~9 minutes.
const LAT_BUCKETS: usize = 40;

/// Batch sizes `1..=BATCH_BUCKETS-1` recorded exactly; larger clamp into
/// the last bucket.
const BATCH_BUCKETS: usize = 65;

/// Shared, lock-free serving counters. One instance per runtime; handles
/// clone the `Arc` around it.
#[derive(Debug)]
pub struct ServeStats {
    completed: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    refused_accept: AtomicU64,
    deadline_expired: AtomicU64,
    idle_reaped: AtomicU64,
    slow_reaped: AtomicU64,
    open_conns: AtomicU64,
    swaps: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
    model_unavailable: AtomicU64,
    models_resident: AtomicU64,
    resident_bytes: AtomicU64,
    plans_frozen: AtomicU64,
    reactor_wakeups: AtomicU64,
    reactor_rests: AtomicU64,
    reactor_rests_early: AtomicU64,
    inline_requests: AtomicU64,
    lat: [AtomicU64; LAT_BUCKETS],
    batch_sizes: [AtomicU64; BATCH_BUCKETS],
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            refused_accept: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            idle_reaped: AtomicU64::new(0),
            slow_reaped: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            model_unavailable: AtomicU64::new(0),
            models_resident: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            plans_frozen: AtomicU64::new(0),
            reactor_wakeups: AtomicU64::new(0),
            reactor_rests: AtomicU64::new(0),
            reactor_rests_early: AtomicU64::new(0),
            inline_requests: AtomicU64::new(0),
            lat: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_sizes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Index of the log₂ bucket for a microsecond latency.
fn lat_bucket(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(LAT_BUCKETS - 1)
    }
}

/// Upper bound (µs) of a latency bucket — what the percentile estimator
/// reports, making it a conservative (never understated) figure.
fn bucket_upper_us(bucket: usize) -> u64 {
    1u64 << bucket
}

impl ServeStats {
    /// Records one successfully answered request and its end-to-end
    /// latency (enqueue → response ready).
    pub fn record_completed(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.lat[lat_bucket(latency_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request shed by admission control.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request that failed inside the runtime.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection refused at accept time (connection limit).
    pub fn record_refused_accept(&self) {
        self.refused_accept.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request whose deadline expired in the queue; the work
    /// was shed before inference ran.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection reaped for sitting idle past its deadline.
    pub fn record_idle_reaped(&self) {
        self.idle_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one connection reaped for stalling mid-frame or mid-write
    /// (slowloris defence).
    pub fn record_slow_reaped(&self) {
        self.slow_reaped.fetch_add(1, Ordering::Relaxed);
    }

    /// Adjusts the open-connection gauge at accept (+1) / close (−1).
    pub fn record_conn_open(&self) {
        self.open_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`record_conn_open`](Self::record_conn_open).
    pub fn record_conn_close(&self) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one hot-swap: a publish that **replaced** an existing entry
    /// for the same model id (first publishes are not swaps).
    pub fn record_swap(&self) {
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one cold model evicted under the resident-bytes budget.
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one checkpoint file rejected at ingestion and moved to the
    /// quarantine directory.
    pub fn record_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one request answered `ModelUnavailable` (unknown id or
    /// evicted model).
    pub fn record_model_unavailable(&self) {
        self.model_unavailable.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one session served from a compiled frozen plan.
    pub fn record_plan_frozen(&self) {
        self.plans_frozen.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one return of the reactor's readiness wait, whatever ended
    /// it: traffic, a completion, a deadline, shutdown.
    pub fn record_reactor_wakeup(&self) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one rest the reactor took after a serving tick (tick
    /// moderation; taken only while two or more connections are open).
    pub(crate) fn record_reactor_rest(&self) {
        self.reactor_rests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one rest that ended before its period because every
    /// connection registered for reading had bytes or had hung up.
    pub(crate) fn record_reactor_rest_early(&self) {
        self.reactor_rests_early.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one infer request the server's reactor took to the end of
    /// its tick: run, shed at its deadline, or answered during drain.
    pub fn record_inline(&self) {
        self.inline_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the fleet gauges: models currently resident and their summed
    /// resident bytes. Called by the registry after every mutation.
    pub fn set_fleet(&self, models: u64, bytes: u64) {
        self.models_resident.store(models, Ordering::Relaxed);
        self.resident_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Records one executed batch and its coalesced size.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_sizes[size.min(BATCH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting. Counters are read
    /// relaxed; exactness across concurrent updates is not required for
    /// monitoring output.
    pub fn snapshot(&self) -> StatsSnapshot {
        let lat: Vec<u64> = self.lat.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = lat.iter().sum();
        let pct = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            let target = (q * total as f64).ceil() as u64;
            let mut cum = 0;
            for (i, &n) in lat.iter().enumerate() {
                cum += n;
                if cum >= target {
                    return bucket_upper_us(i);
                }
            }
            bucket_upper_us(LAT_BUCKETS - 1)
        };
        let batch_hist: Vec<(usize, u64)> = self
            .batch_sizes
            .iter()
            .enumerate()
            .filter_map(|(size, n)| {
                let n = n.load(Ordering::Relaxed);
                (n > 0).then_some((size, n))
            })
            .collect();
        let batches = self.batches.load(Ordering::Relaxed);
        let weighted: u64 = batch_hist.iter().map(|&(s, n)| s as u64 * n).sum();
        StatsSnapshot {
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            batches,
            refused_accept: self.refused_accept.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            idle_reaped: self.idle_reaped.load(Ordering::Relaxed),
            slow_reaped: self.slow_reaped.load(Ordering::Relaxed),
            open_conns: self.open_conns.load(Ordering::Relaxed),
            swaps: self.swaps.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            model_unavailable: self.model_unavailable.load(Ordering::Relaxed),
            models_resident: self.models_resident.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            plans_frozen: self.plans_frozen.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            reactor_rests: self.reactor_rests.load(Ordering::Relaxed),
            reactor_rests_early: self.reactor_rests_early.load(Ordering::Relaxed),
            inline_requests: self.inline_requests.load(Ordering::Relaxed),
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            mean_batch: if batches == 0 {
                0.0
            } else {
                weighted as f64 / batches as f64
            },
            batch_hist,
        }
    }
}

/// A point-in-time copy of the serving counters, with percentiles already
/// estimated from the histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests shed by admission control (`Overloaded`).
    pub shed: u64,
    /// Requests that failed inside the runtime.
    pub errors: u64,
    /// Batches executed.
    pub batches: u64,
    /// Connections refused at accept time by the connection limit.
    pub refused_accept: u64,
    /// Requests whose deadline expired in the queue (shed pre-inference).
    pub deadline_expired: u64,
    /// Connections reaped for exceeding the idle deadline.
    pub idle_reaped: u64,
    /// Connections reaped for stalling mid-frame or mid-write (slowloris).
    pub slow_reaped: u64,
    /// Connections currently open (gauge, not a counter).
    pub open_conns: u64,
    /// Publishes that replaced an already-registered model (hot-swaps).
    pub swaps: u64,
    /// Cold models evicted under the resident-bytes budget.
    pub evictions: u64,
    /// Checkpoint files rejected at ingestion and quarantined.
    pub quarantines: u64,
    /// Requests answered `ModelUnavailable` (unknown or evicted model).
    pub model_unavailable: u64,
    /// Models currently resident in the registry (gauge).
    pub models_resident: u64,
    /// Summed resident bytes of every resident model (gauge).
    pub resident_bytes: u64,
    /// Sessions published: each serves a compiled frozen plan.
    pub plans_frozen: u64,
    /// Times the server's reactor returned from its readiness wait.
    pub reactor_wakeups: u64,
    /// Rests the reactor took after a tick that served something, to let
    /// requests from different connections meet in the next tick; a lone
    /// connection is never made to wait one out.
    pub reactor_rests: u64,
    /// Rests that ended before their period because every connection
    /// registered for reading had bytes or had hung up.
    pub reactor_rests_early: u64,
    /// Infer requests the server's reactor took to the end of a tick —
    /// every admitted one: run, or refused at its deadline or by drain.
    /// An in-process [`crate::MicroBatcher`] counts none.
    pub inline_requests: u64,
    /// Median end-to-end latency, µs (log₂-bucket upper bound).
    pub p50_us: u64,
    /// 90th-percentile latency, µs.
    pub p90_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Mean coalesced batch size.
    pub mean_batch: f64,
    /// `(batch size, count)` pairs for every batch size observed.
    pub batch_hist: Vec<(usize, u64)>,
}

impl StatsSnapshot {
    /// Renders the snapshot as a self-contained JSON object (hand-rolled;
    /// the workspace has no serde).
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self
            .batch_hist
            .iter()
            .map(|&(s, n)| format!("{{\"size\":{s},\"count\":{n}}}"))
            .collect();
        format!(
            "{{\"completed\":{},\"shed\":{},\"errors\":{},\"batches\":{},\
             \"refused_accept\":{},\"deadline_expired\":{},\"idle_reaped\":{},\
             \"slow_reaped\":{},\"open_conns\":{},\
             \"swaps\":{},\"evictions\":{},\"quarantines\":{},\
             \"model_unavailable\":{},\"models_resident\":{},\
             \"resident_bytes\":{},\
             \"plans_frozen\":{},\
             \"reactor_wakeups\":{},\"reactor_rests\":{},\"reactor_rests_early\":{},\
             \"inline_requests\":{},\
             \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"mean_batch\":{:.3},\
             \"batch_hist\":[{}]}}",
            self.completed,
            self.shed,
            self.errors,
            self.batches,
            self.refused_accept,
            self.deadline_expired,
            self.idle_reaped,
            self.slow_reaped,
            self.open_conns,
            self.swaps,
            self.evictions,
            self.quarantines,
            self.model_unavailable,
            self.models_resident,
            self.resident_bytes,
            self.plans_frozen,
            self.reactor_wakeups,
            self.reactor_rests,
            self.reactor_rests_early,
            self.inline_requests,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.mean_batch,
            hist.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone() {
        assert_eq!(lat_bucket(0), 0);
        assert_eq!(lat_bucket(1), 1);
        assert_eq!(lat_bucket(2), 2);
        assert_eq!(lat_bucket(1023), 10);
        assert_eq!(lat_bucket(1024), 11);
        assert_eq!(lat_bucket(u64::MAX), LAT_BUCKETS - 1);
        for us in [1u64, 5, 100, 4096] {
            assert!(us <= bucket_upper_us(lat_bucket(us)));
        }
    }

    #[test]
    fn percentiles_track_distribution() {
        let s = ServeStats::default();
        // 90 fast requests (~8 µs) and 10 slow ones (~4096 µs).
        for _ in 0..90 {
            s.record_completed(8);
        }
        for _ in 0..10 {
            s.record_completed(4000);
        }
        let snap = s.snapshot();
        assert_eq!(snap.completed, 100);
        assert!(snap.p50_us <= 16, "p50={}", snap.p50_us);
        assert!(snap.p99_us >= 2048, "p99={}", snap.p99_us);
        assert!(snap.p50_us <= snap.p90_us && snap.p90_us <= snap.p99_us);
    }

    #[test]
    fn batch_histogram_and_mean() {
        let s = ServeStats::default();
        s.record_batch(1);
        s.record_batch(1);
        s.record_batch(8);
        s.record_batch(1000); // clamps into the last bucket
        let snap = s.snapshot();
        assert_eq!(snap.batches, 4);
        assert!(snap.batch_hist.contains(&(1, 2)));
        assert!(snap.batch_hist.contains(&(8, 1)));
        assert!(snap.batch_hist.contains(&(64, 1)));
        assert!(snap.mean_batch > 1.0);
    }

    #[test]
    fn failure_taxonomy_counts_exactly() {
        let s = ServeStats::default();
        s.record_refused_accept();
        s.record_refused_accept();
        s.record_deadline_expired();
        s.record_idle_reaped();
        s.record_slow_reaped();
        s.record_conn_open();
        s.record_conn_open();
        s.record_conn_close();
        let snap = s.snapshot();
        assert_eq!(snap.refused_accept, 2);
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.idle_reaped, 1);
        assert_eq!(snap.slow_reaped, 1);
        assert_eq!(snap.open_conns, 1);
        let j = snap.to_json();
        for key in [
            "refused_accept",
            "deadline_expired",
            "idle_reaped",
            "slow_reaped",
            "open_conns",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn fleet_counters_and_gauges() {
        let s = ServeStats::default();
        s.record_swap();
        s.record_swap();
        s.record_eviction();
        s.record_quarantine();
        s.record_quarantine();
        s.record_quarantine();
        s.record_model_unavailable();
        s.set_fleet(4, 12_345);
        let snap = s.snapshot();
        assert_eq!(snap.swaps, 2);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.quarantines, 3);
        assert_eq!(snap.model_unavailable, 1);
        assert_eq!(snap.models_resident, 4);
        assert_eq!(snap.resident_bytes, 12_345);
        // Gauges are set, not accumulated.
        s.set_fleet(2, 99);
        let snap = s.snapshot();
        assert_eq!(snap.models_resident, 2);
        assert_eq!(snap.resident_bytes, 99);
        let j = snap.to_json();
        for key in [
            "\"swaps\":2",
            "\"evictions\":1",
            "\"quarantines\":3",
            "\"model_unavailable\":1",
            "\"models_resident\":2",
            "\"resident_bytes\":99",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn freeze_gauges_count_and_serialize() {
        let s = ServeStats::default();
        s.record_plan_frozen();
        s.record_plan_frozen();
        let snap = s.snapshot();
        assert_eq!(snap.plans_frozen, 2);
        let j = snap.to_json();
        assert!(j.contains("\"plans_frozen\":2"), "{j}");
    }

    #[test]
    fn path_counters_count_and_serialize() {
        let s = ServeStats::default();
        s.record_reactor_wakeup();
        s.record_reactor_wakeup();
        s.record_reactor_wakeup();
        s.record_reactor_rest();
        s.record_reactor_rest();
        s.record_reactor_rest_early();
        s.record_inline();
        let snap = s.snapshot();
        assert_eq!((snap.reactor_wakeups, snap.inline_requests), (3, 1));
        assert_eq!((snap.reactor_rests, snap.reactor_rests_early), (2, 1));
        let j = snap.to_json();
        assert!(j.contains("\"reactor_wakeups\":3"), "{j}");
        assert!(j.contains("\"reactor_rests\":2"), "{j}");
        assert!(j.contains("\"reactor_rests_early\":1"), "{j}");
        assert!(j.contains("\"inline_requests\":1"), "{j}");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let s = ServeStats::default();
        s.record_completed(10);
        s.record_shed();
        s.record_error();
        s.record_batch(2);
        let j = s.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "completed",
            "shed",
            "errors",
            "batches",
            "p50_us",
            "p99_us",
            "batch_hist",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = ServeStats::default().snapshot();
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.p99_us, 0);
        assert_eq!(snap.mean_batch, 0.0);
        assert!(snap.batch_hist.is_empty());
    }
}
