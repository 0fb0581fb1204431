//! Pool health and liveness: shared progress counters, latency trackers,
//! and the opt-in watchdog thread that turns them into [`HealthRecord`]s.
//!
//! Pool workers register a progress slot here that the watchdog can
//! sample from outside the pool (`cdt-obs` sits *below* `cdt-sim` in the
//! dependency graph, so the slots live here and the pool registers them).
//! A pool job is a whole policy run, so the heartbeat is the round, not
//! the claim: the pipeline's round-end hook feeds [`record_round_ns`] on
//! the job's own thread, which ticks that thread's slot. The watchdog —
//! started by the pipeline when `--watchdog-ms N` is set — samples every
//! `N` ms and emits a [`HealthRecord`] into the same JSONL sink family when
//! it sees:
//!
//! - **`stalled_worker`** — a registered worker that completed no round
//!   across a full sampling interval;
//! - **`slow_round`** — a completed round slower than the configured
//!   threshold (an explicit `--watchdog-slow-round-ns` floor, or
//!   p99 × [`SLOW_FACTOR`] over the rounds seen so far);
//! - **`flush_spike`** — a journal write/flush slower than
//!   p99 × [`SLOW_FACTOR`] of the writes seen so far.
//!
//! Every event also ticks `cdt_obs_health_events_total{kind=…}`, so the
//! Prometheus render and `--obs-summary` surface the counts with no extra
//! wiring. Like every observer here, the watchdog is passive: it reads
//! atomics and the clock, never engine state, so results are bit-identical
//! with it on or off.

use crate::latency::LatencyHistogram;
use crate::metrics;
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

#[derive(Debug)]
struct WorkerSlot {
    active: AtomicBool,
    progress: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SLOT: WorkerSlot = WorkerSlot {
    active: AtomicBool::new(false),
    progress: AtomicU64::new(0),
};
static WORKERS: [WorkerSlot; MAX_WORKERS] = [EMPTY_SLOT; MAX_WORKERS];

thread_local! {
    /// The slot of the pool worker running on this thread, between its
    /// [`worker_begin`] and [`worker_end`].
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Fast gate the producers check before feeding the trackers.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Max observed round duration since the watchdog's last sample.
static MAX_ROUND_NS: AtomicU64 = AtomicU64::new(0);
/// Max observed journal write/flush duration since the last sample.
static MAX_FLUSH_NS: AtomicU64 = AtomicU64::new(0);

/// Round-duration / flush-duration distributions feeding the p99
/// thresholds (`None` until the first observation — the constructor is
/// not `const`). Producers batch via the max atomics above; these are
/// only touched once per completed round / journal write while a
/// watchdog runs.
static ROUND_HIST: Mutex<Option<LatencyHistogram>> = Mutex::new(None);
static FLUSH_HIST: Mutex<Option<LatencyHistogram>> = Mutex::new(None);

fn record_into(hist: &Mutex<Option<LatencyHistogram>>, ns: u64) {
    hist.lock()
        .unwrap_or_else(|e| e.into_inner())
        .get_or_insert_with(LatencyHistogram::new)
        .record_ns(ns);
}

/// Whether a watchdog is running — the producers' single relaxed load.
#[must_use]
pub fn watchdog_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Marks pool worker `w` live on the calling thread: from now on every
/// round the thread completes ticks `w`'s progress.
pub fn worker_begin(w: usize) {
    if let Some(slot) = WORKERS.get(w) {
        slot.active.store(true, Ordering::Relaxed);
        WORKER.with(|worker| worker.set(Some(w)));
    }
}

/// Marks pool worker `w` done (no more progress expected) and detaches it
/// from the calling thread.
pub fn worker_end(w: usize) {
    if let Some(slot) = WORKERS.get(w) {
        slot.active.store(false, Ordering::Relaxed);
    }
    WORKER.with(|worker| worker.set(None));
}

/// Bumps worker `w`'s progress counter.
fn worker_progress(w: usize) {
    if let Some(slot) = WORKERS.get(w) {
        slot.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Feeds one completed round's duration to the slow-round tracker, and
/// ticks the progress of the pool worker running on this thread, if any.
/// Producers gate on [`watchdog_active`] so idle runs pay nothing.
pub fn record_round_ns(ns: u64) {
    MAX_ROUND_NS.fetch_max(ns, Ordering::Relaxed);
    record_into(&ROUND_HIST, ns);
    if let Some(w) = WORKER.with(Cell::get) {
        worker_progress(w);
    }
}

/// Feeds one journal write/flush duration to the flush-spike tracker.
pub fn record_flush_ns(ns: u64) {
    MAX_FLUSH_NS.fetch_max(ns, Ordering::Relaxed);
    record_into(&FLUSH_HIST, ns);
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

/// Watchdog tuning, resolved from `--watchdog-ms` /
/// `--watchdog-slow-round-ns` by the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Sampling interval in milliseconds (≥ 1).
    pub interval_ms: u64,
    /// Explicit slow-round floor in nanoseconds; `None` derives
    /// p99 × [`SLOW_FACTOR`] from the rounds seen so far.
    pub slow_round_ns: Option<u64>,
}

struct Watchdog {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

static WATCHDOG: Mutex<Option<Watchdog>> = Mutex::new(None);

fn watchdog_slot() -> std::sync::MutexGuard<'static, Option<Watchdog>> {
    WATCHDOG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts the monitor thread (replacing any prior one) and resets every
/// tracker. Called by the pipeline when `--watchdog-ms` is set.
pub fn start_watchdog(config: WatchdogConfig) {
    stop_watchdog();
    for slot in &WORKERS {
        slot.active.store(false, Ordering::Relaxed);
        slot.progress.store(0, Ordering::Relaxed);
    }
    MAX_ROUND_NS.store(0, Ordering::Relaxed);
    MAX_FLUSH_NS.store(0, Ordering::Relaxed);
    *ROUND_HIST.lock().unwrap_or_else(|e| e.into_inner()) = None;
    *FLUSH_HIST.lock().unwrap_or_else(|e| e.into_inner()) = None;

    let stop = Arc::new(AtomicBool::new(false));
    let stop_seen = Arc::clone(&stop);
    ACTIVE.store(true, Ordering::Relaxed);
    let thread = std::thread::Builder::new()
        .name("cdt-watchdog".to_owned())
        .spawn(move || monitor(&config, &stop_seen))
        .expect("spawn watchdog thread");
    *watchdog_slot() = Some(Watchdog { stop, thread });
}

/// Stops and joins the monitor thread (idempotent). The thread takes one
/// final sample on the way out, so short runs still surface their events.
pub fn stop_watchdog() {
    let Some(watchdog) = watchdog_slot().take() else {
        return;
    };
    watchdog.stop.store(true, Ordering::Relaxed);
    let _ = watchdog.thread.join();
    ACTIVE.store(false, Ordering::Relaxed);
}

fn emit(record: &HealthRecord) {
    metrics::global().add_counter(
        "cdt_obs_health_events_total",
        &[("kind", record.kind.as_str())],
        1,
    );
    crate::pipeline::publish_health(record);
}

/// p99 × [`SLOW_FACTOR`] over `hist`, floored; `None` below
/// [`MIN_SAMPLES`] (not enough history to call anything an outlier).
fn p99_threshold(hist: &Mutex<Option<LatencyHistogram>>) -> Option<u64> {
    let slot = hist.lock().unwrap_or_else(|e| e.into_inner());
    let hist = slot.as_ref()?;
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

/// One watchdog sample over every tracker.
fn sample(
    config: &WatchdogConfig,
    last_progress: &mut [u64; MAX_WORKERS],
    primed: &mut [bool; MAX_WORKERS],
) {
    // Stalled workers: active across two consecutive samples with no
    // progress in between.
    for (w, slot) in WORKERS.iter().enumerate() {
        let active = slot.active.load(Ordering::Relaxed);
        let progress = slot.progress.load(Ordering::Relaxed);
        if active && primed[w] && progress == last_progress[w] {
            let mut record = HealthRecord::new(HealthKind::StalledWorker);
            record.worker = Some(w as u64);
            record.observed_ns = Some(config.interval_ms.saturating_mul(1_000_000));
            emit(&record);
        }
        primed[w] = active;
        last_progress[w] = progress;
    }

    // Slow rounds: the worst round since the last sample against the
    // explicit floor, or p99 × SLOW_FACTOR once enough rounds are seen.
    let worst_round = MAX_ROUND_NS.swap(0, Ordering::Relaxed);
    if worst_round > 0 {
        let threshold = config.slow_round_ns.or_else(|| p99_threshold(&ROUND_HIST));
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
    let worst_flush = MAX_FLUSH_NS.swap(0, Ordering::Relaxed);
    if worst_flush > 0 {
        if let Some(threshold) = p99_threshold(&FLUSH_HIST) {
            if worst_flush > threshold {
                let mut record = HealthRecord::new(HealthKind::FlushSpike);
                record.observed_ns = Some(worst_flush);
                record.threshold_ns = Some(threshold);
                emit(&record);
            }
        }
    }
}

fn monitor(config: &WatchdogConfig, stop: &AtomicBool) {
    let interval = Duration::from_millis(config.interval_ms.max(1));
    let mut last_progress = [0u64; MAX_WORKERS];
    let mut primed = [false; MAX_WORKERS];
    loop {
        // Sleep the interval in small slices so stop_watchdog joins
        // promptly even with a long interval.
        let mut slept = Duration::ZERO;
        let mut stopping = stop.load(Ordering::Relaxed);
        while !stopping && slept < interval {
            let slice = (interval - slept).min(Duration::from_millis(20));
            std::thread::sleep(slice);
            slept += slice;
            stopping = stop.load(Ordering::Relaxed);
        }
        sample(config, &mut last_progress, &mut primed);
        if stopping {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::keys_of;
    use cdt_types::json::{from_str, to_string};

    // Watchdog state (trackers, the global registry, the monitor slot) is
    // process-wide; serialize the tests that exercise it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn health_count(kind: &str) -> u64 {
        metrics::global().counter_value("cdt_obs_health_events_total", &[("kind", kind)])
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
        let _guard = lock();
        let before = health_count("slow_round");
        start_watchdog(WatchdogConfig {
            interval_ms: 5,
            slow_round_ns: Some(1),
        });
        record_round_ns(10_000);
        // The final stop-time sample sees the round even if no interval
        // elapsed.
        stop_watchdog();
        assert!(health_count("slow_round") > before);
    }

    #[test]
    fn stalled_worker_needs_two_quiet_samples() {
        let _guard = lock();
        let before = health_count("stalled_worker");
        start_watchdog(WatchdogConfig {
            interval_ms: 5,
            slow_round_ns: None,
        });
        worker_begin(0);
        // Two full intervals with no progress: the first sample primes,
        // a later one fires.
        std::thread::sleep(Duration::from_millis(40));
        worker_end(0);
        stop_watchdog();
        assert!(health_count("stalled_worker") > before);
    }

    #[test]
    fn advancing_worker_never_reports_stalled() {
        let _guard = lock();
        let before = health_count("stalled_worker");
        start_watchdog(WatchdogConfig {
            interval_ms: 10,
            slow_round_ns: None,
        });
        worker_begin(1);
        for _ in 0..8 {
            worker_progress(1);
            std::thread::sleep(Duration::from_millis(5));
        }
        worker_end(1);
        stop_watchdog();
        assert_eq!(health_count("stalled_worker"), before);
    }

    #[test]
    fn worker_completing_rounds_never_reports_stalled() {
        let _guard = lock();
        let before = health_count("stalled_worker");
        start_watchdog(WatchdogConfig {
            interval_ms: 10,
            slow_round_ns: None,
        });
        // A pool worker's thread: its rounds, not its claims, are the
        // heartbeat, over at least 4 sampling intervals.
        std::thread::spawn(|| {
            worker_begin(2);
            for _ in 0..12 {
                record_round_ns(1_000);
                std::thread::sleep(Duration::from_millis(5));
            }
            worker_end(2);
        })
        .join()
        .unwrap();
        stop_watchdog();
        assert_eq!(health_count("stalled_worker"), before);
    }

    #[test]
    fn p99_threshold_needs_history() {
        let hist = Mutex::new(None);
        assert_eq!(p99_threshold(&hist), None);
        for _ in 0..MIN_SAMPLES {
            record_into(&hist, 1_000);
        }
        let threshold = p99_threshold(&hist).unwrap();
        assert!(threshold >= MIN_THRESHOLD_NS);
    }

    #[test]
    fn out_of_range_worker_indices_are_ignored() {
        worker_begin(MAX_WORKERS + 5);
        worker_progress(MAX_WORKERS + 5);
        worker_end(MAX_WORKERS + 5);
    }

    #[test]
    fn stop_is_idempotent() {
        let _guard = lock();
        stop_watchdog();
        stop_watchdog();
        assert!(!watchdog_active());
    }
}
