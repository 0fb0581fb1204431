//! Pool health and liveness: per-session progress counters, latency
//! trackers, and the opt-in watchdog thread that turns them into
//! [`HealthRecord`]s.
//!
//! A session started with `watchdog_ms` owns one [`Health`]: pool workers
//! register a progress slot in it that the watchdog can sample from
//! outside the pool (`cdt-obs` sits *below* `cdt-sim` in the dependency
//! graph, so the slots live here and the pool registers them). A pool job
//! is a whole policy run, so the heartbeat is the round, not the claim:
//! the pipeline's round-end hook feeds [`Health::record_round_ns`] on the
//! job's own thread, which ticks that thread's slot. The session's
//! watchdog samples every `N` ms and emits a [`HealthRecord`] into the
//! session's JSONL sink when it sees:
//!
//! - **`stalled_worker`** — a registered worker that completed no round
//!   across a full sampling interval;
//! - **`slow_round`** — a completed round slower than the configured
//!   threshold (an explicit `--watchdog-slow-round-ns` floor, or
//!   p99 × [`SLOW_FACTOR`] over the rounds seen so far);
//! - **`flush_spike`** — a journal write/flush slower than
//!   p99 × [`SLOW_FACTOR`] of the writes seen so far.
//!
//! Every event also ticks `cdt_obs_health_events_total{kind=…}` in the
//! session's registry, so the Prometheus render and `--obs-summary`
//! surface the counts with no extra wiring. Like every observer here, the
//! watchdog is passive: it reads atomics and the clock, never engine
//! state, so results are bit-identical with it on or off.

use crate::latency::LatencyHistogram;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Worker slots the watchdog can observe. Pool workers beyond this many
/// simply go unmonitored (the pool itself is unaffected).
pub const MAX_WORKERS: usize = 64;

/// Slow-round / flush-spike multiplier over the observed p99.
pub const SLOW_FACTOR: f64 = 4.0;

/// Minimum samples before a p99-relative threshold is trusted.
const MIN_SAMPLES: u64 = 16;

/// Floor for p99-relative thresholds, so micro-benchmarks with
/// nanosecond-scale rounds do not page on scheduler noise.
const MIN_THRESHOLD_NS: u64 = 1_000_000;

#[derive(Debug, Default)]
struct WorkerSlot {
    active: AtomicBool,
    progress: AtomicU64,
    /// What the watchdog saw at its previous sample (only it touches
    /// these): whether the worker was active, and its progress.
    was_active: AtomicBool,
    last_progress: AtomicU64,
}

thread_local! {
    /// The slot of the pool worker running on this thread, between its
    /// [`Health::worker_begin`] and [`Health::worker_end`].
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The trackers one session's watchdog samples: a progress slot per pool
/// worker, and the worst round and journal-write durations since the last
/// sample with their distributions for the p99 thresholds. Producers
/// reach it through [`crate::Session::health`], which is `Some` only
/// while a watchdog runs, so idle runs pay nothing.
#[derive(Debug)]
pub struct Health {
    /// The sampling interval (`--watchdog-ms`).
    interval_ms: u64,
    /// The explicit slow-round floor (`--watchdog-slow-round-ns`); `None`
    /// derives p99 × [`SLOW_FACTOR`] from the rounds seen so far.
    slow_round_ns: Option<u64>,
    workers: [WorkerSlot; MAX_WORKERS],
    max_round_ns: AtomicU64,
    max_flush_ns: AtomicU64,
    round_hist: Mutex<LatencyHistogram>,
    flush_hist: Mutex<LatencyHistogram>,
}

fn record_into(hist: &Mutex<LatencyHistogram>, ns: u64) {
    hist.lock().unwrap_or_else(|e| e.into_inner()).record_ns(ns);
}

impl Health {
    pub(crate) fn new(interval_ms: u64, slow_round_ns: Option<u64>) -> Self {
        Self {
            interval_ms,
            slow_round_ns,
            workers: std::array::from_fn(|_| WorkerSlot::default()),
            max_round_ns: AtomicU64::new(0),
            max_flush_ns: AtomicU64::new(0),
            round_hist: Mutex::new(LatencyHistogram::new()),
            flush_hist: Mutex::new(LatencyHistogram::new()),
        }
    }

    /// Marks pool worker `w` live on the calling thread: from now on every
    /// round the thread completes ticks `w`'s progress.
    pub fn worker_begin(&self, w: usize) {
        if let Some(slot) = self.workers.get(w) {
            slot.active.store(true, Ordering::Relaxed);
            WORKER.with(|worker| worker.set(Some(w)));
        }
    }

    /// Marks pool worker `w` done (no more progress expected) and detaches
    /// it from the calling thread.
    pub fn worker_end(&self, w: usize) {
        if let Some(slot) = self.workers.get(w) {
            slot.active.store(false, Ordering::Relaxed);
        }
        WORKER.with(|worker| worker.set(None));
    }

    /// Bumps worker `w`'s progress counter.
    fn worker_progress(&self, w: usize) {
        if let Some(slot) = self.workers.get(w) {
            slot.progress.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Feeds one completed round's duration to the slow-round tracker, and
    /// ticks the progress of the pool worker running on this thread, if
    /// any.
    pub fn record_round_ns(&self, ns: u64) {
        self.max_round_ns.fetch_max(ns, Ordering::Relaxed);
        record_into(&self.round_hist, ns);
        if let Some(w) = WORKER.with(Cell::get) {
            self.worker_progress(w);
        }
    }

    /// Feeds one journal write/flush duration to the flush-spike tracker.
    pub fn record_flush_ns(&self, ns: u64) {
        self.max_flush_ns.fetch_max(ns, Ordering::Relaxed);
        record_into(&self.flush_hist, ns);
    }

    /// One watchdog sample over every tracker: each finding goes to
    /// `emit`.
    pub(crate) fn sample(&self, emit: &mut dyn FnMut(&HealthRecord)) {
        // Stalled workers: active across two consecutive samples with no
        // progress in between.
        for (w, slot) in self.workers.iter().enumerate() {
            let active = slot.active.load(Ordering::Relaxed);
            let progress = slot.progress.load(Ordering::Relaxed);
            let primed = slot.was_active.swap(active, Ordering::Relaxed);
            let last = slot.last_progress.swap(progress, Ordering::Relaxed);
            if active && primed && progress == last {
                let mut record = HealthRecord::new(HealthKind::StalledWorker);
                record.worker = Some(w as u64);
                record.observed_ns = Some(self.interval_ms.saturating_mul(1_000_000));
                emit(&record);
            }
        }

        // Slow rounds: the worst round since the last sample against the
        // explicit floor, or p99 × SLOW_FACTOR once enough rounds are seen.
        let worst_round = self.max_round_ns.swap(0, Ordering::Relaxed);
        if worst_round > 0 {
            let threshold = self
                .slow_round_ns
                .or_else(|| p99_threshold(&self.round_hist));
            if let Some(threshold) = threshold {
                if worst_round > threshold {
                    let mut record = HealthRecord::new(HealthKind::SlowRound);
                    record.observed_ns = Some(worst_round);
                    record.threshold_ns = Some(threshold);
                    emit(&record);
                }
            }
        }

        // Journal flush spikes, same shape (always p99-relative).
        let worst_flush = self.max_flush_ns.swap(0, Ordering::Relaxed);
        if worst_flush > 0 {
            if let Some(threshold) = p99_threshold(&self.flush_hist) {
                if worst_flush > threshold {
                    let mut record = HealthRecord::new(HealthKind::FlushSpike);
                    record.observed_ns = Some(worst_flush);
                    record.threshold_ns = Some(threshold);
                    emit(&record);
                }
            }
        }
    }
}

/// What went wrong, as sampled by the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthKind {
    /// An active pool worker made no progress for a full interval.
    StalledWorker,
    /// A round exceeded the slow-round threshold.
    SlowRound,
    /// A journal write/flush exceeded the spike threshold.
    FlushSpike,
}

impl HealthKind {
    /// Every kind.
    pub const ALL: [HealthKind; 3] = [Self::StalledWorker, Self::SlowRound, Self::FlushSpike];

    /// The snake_case label used in metrics and the JSONL trace.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::StalledWorker => "stalled_worker",
            Self::SlowRound => "slow_round",
            Self::FlushSpike => "flush_spike",
        }
    }
}

/// One watchdog observation, as written to the JSONL trace
/// (`"event":"health"` first; every key always present).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthRecord {
    /// What was observed.
    pub kind: HealthKind,
    /// When, nanoseconds on the span timebase ([`crate::span::now_ns`]).
    pub t_ns: u64,
    /// The stalled worker's index ([`HealthKind::StalledWorker`] only).
    pub worker: Option<u64>,
    /// The offending duration (round or flush), where applicable.
    pub observed_ns: Option<u64>,
    /// The threshold it exceeded, where applicable.
    pub threshold_ns: Option<u64>,
}

impl HealthRecord {
    fn new(kind: HealthKind) -> Self {
        Self {
            kind,
            t_ns: crate::span::now_ns(),
            worker: None,
            observed_ns: None,
            threshold_ns: None,
        }
    }
}

/// A running monitor thread.
#[derive(Debug)]
pub(crate) struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Watchdog {
    /// Starts the monitor thread: every `interval_ms` it calls `sample`,
    /// until [`Watchdog::stop`] or until `sample` returns `false`.
    pub(crate) fn start(
        interval_ms: u64,
        mut sample: impl FnMut() -> bool + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let interval = Duration::from_millis(interval_ms.max(1));
        let thread = std::thread::Builder::new()
            .name("cdt-watchdog".to_owned())
            .spawn(move || loop {
                // Sleep the interval in small slices so a stop joins
                // promptly even with a long interval.
                let mut slept = Duration::ZERO;
                let mut stopping = stop_seen.load(Ordering::Relaxed);
                while !stopping && slept < interval {
                    let slice = (interval - slept).min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    slept += slice;
                    stopping = stop_seen.load(Ordering::Relaxed);
                }
                if !sample() || stopping {
                    return;
                }
            })
            .expect("spawn watchdog thread");
        Self { stop, thread }
    }

    /// Stops the monitor thread. The thread takes one final sample on the
    /// way out, so short runs still surface their events; it is joined
    /// unless this is the monitor thread itself.
    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        if self.thread.thread().id() != std::thread::current().id() {
            let _ = self.thread.join();
        }
    }
}

/// p99 × [`SLOW_FACTOR`] over `hist`, floored; `None` below
/// [`MIN_SAMPLES`] (not enough history to call anything an outlier).
fn p99_threshold(hist: &Mutex<LatencyHistogram>) -> Option<u64> {
    let hist = hist.lock().unwrap_or_else(|e| e.into_inner());
    if hist.count() < MIN_SAMPLES {
        return None;
    }
    let p99 = hist.quantile_ns(0.99)?;
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    Some(((p99 as f64 * SLOW_FACTOR) as u64).max(MIN_THRESHOLD_NS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::keys_of;
    use crate::pipeline::{ObsConfig, Session};
    use cdt_types::json::{from_str, to_string};

    /// A session whose watchdog samples every `interval_ms`.
    fn watched(interval_ms: u64, slow_round_ns: Option<u64>) -> Session {
        Session::start(ObsConfig {
            watchdog_ms: Some(interval_ms),
            slow_round_ns,
            ..ObsConfig::default()
        })
        .unwrap()
    }

    fn health_count(session: &Session, kind: &str) -> u64 {
        session
            .registry()
            .unwrap()
            .counter_value("cdt_obs_health_events_total", &[("kind", kind)])
    }

    #[test]
    fn record_round_trips_with_stable_keys() {
        let mut rec = HealthRecord::new(HealthKind::SlowRound);
        rec.observed_ns = Some(42);
        rec.threshold_ns = Some(7);
        let json = to_string(&rec);
        assert!(json.contains("\"event\":\"health\""), "{json}");
        assert!(json.contains("\"kind\":\"slow_round\""), "{json}");
        assert_eq!(
            keys_of(&json),
            [
                "event",
                "kind",
                "t_ns",
                "worker",
                "observed_ns",
                "threshold_ns"
            ]
        );
        let back: HealthRecord = from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn explicit_slow_round_floor_fires_on_first_sample() {
        let session = watched(5, Some(1));
        session.health().unwrap().record_round_ns(10_000);
        // The final stop-time sample sees the round even if no interval
        // elapsed; later samples see no new round.
        session.finish().unwrap();
        assert_eq!(health_count(&session, "slow_round"), 1);
    }

    #[test]
    fn stalled_worker_needs_two_quiet_samples() {
        let session = watched(5, None);
        let health = session.health().unwrap();
        health.worker_begin(0);
        // Two full intervals with no progress: the first sample primes,
        // a later one fires.
        std::thread::sleep(Duration::from_millis(40));
        health.worker_end(0);
        session.finish().unwrap();
        assert!(health_count(&session, "stalled_worker") > 0);
    }

    #[test]
    fn advancing_worker_never_reports_stalled() {
        let session = watched(10, None);
        let health = session.health().unwrap();
        health.worker_begin(1);
        for _ in 0..8 {
            health.worker_progress(1);
            std::thread::sleep(Duration::from_millis(5));
        }
        health.worker_end(1);
        session.finish().unwrap();
        assert_eq!(health_count(&session, "stalled_worker"), 0);
    }

    #[test]
    fn worker_completing_rounds_never_reports_stalled() {
        let session = watched(10, None);
        let health = session.health().unwrap();
        // A pool worker's thread: its rounds, not its claims, are the
        // heartbeat, over at least 4 sampling intervals.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                health.worker_begin(2);
                for _ in 0..12 {
                    health.record_round_ns(1_000);
                    std::thread::sleep(Duration::from_millis(5));
                }
                health.worker_end(2);
            });
        });
        session.finish().unwrap();
        assert_eq!(health_count(&session, "stalled_worker"), 0);
    }

    #[test]
    fn p99_threshold_needs_history() {
        let hist = Mutex::new(LatencyHistogram::new());
        assert_eq!(p99_threshold(&hist), None);
        for _ in 0..MIN_SAMPLES {
            record_into(&hist, 1_000);
        }
        let threshold = p99_threshold(&hist).unwrap();
        assert!(threshold >= MIN_THRESHOLD_NS);
    }

    #[test]
    fn out_of_range_worker_indices_are_ignored() {
        let health = Health::new(1, None);
        health.worker_begin(MAX_WORKERS + 5);
        health.worker_progress(MAX_WORKERS + 5);
        health.worker_end(MAX_WORKERS + 5);
    }

    #[test]
    fn stop_is_idempotent() {
        let session = watched(5, Some(1));
        session.finish().unwrap();
        session.finish().unwrap();
        // Stopped for good: a slow round after the stop is never sampled.
        session.health().unwrap().record_round_ns(10_000);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(health_count(&session, "slow_round"), 0);
    }
}
