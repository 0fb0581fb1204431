//! Deterministic parallel job execution for the evaluation engine.
//!
//! Every evaluation workload in this crate is a grid of independent jobs —
//! (replication × policy) cells in [`crate::replicate`], one job per policy
//! in [`crate::compare_policies`], one per sweep point in `experiments/*` —
//! and every job owns its RNG stream via a `u64` seed. That makes
//! parallelism *trivially deterministic*: the jobs are computed in any
//! order on any number of threads, but the results are gathered **by job
//! index**, so the output is bit-for-bit identical to the serial path.
//!
//! Built on [`std::thread::scope`] only — no extra dependencies (the
//! workspace's approved offline set is pinned in DESIGN.md §6). Work is
//! distributed by an atomic cursor (work stealing), so a slow cell (e.g.
//! the largest `M` of a sweep) does not stall the other workers.
//!
//! A claim is one `fetch_add(1)` on the cursor: one job. Every job is a
//! whole policy run of 10³–2·10⁵ rounds, so one atomic RMW per job is
//! noise, and handing out one job at a time keeps the tail balanced with
//! no sizing rule (EXPERIMENTS.md, "One dispatcher").
//!
//! Thread-count resolution, from most to least specific:
//!
//! 1. the process-wide override set by [`set_thread_override`]
//!    (wired to the `--threads` CLI flag);
//! 2. the `CDT_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! A resolved count of 1 short-circuits to an in-order loop on the calling
//! thread — exactly today's serial code path, with no worker threads
//! spawned at all.

use cdt_obs::LatencyHistogram;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the engine's thread count for this process (`Some(n)` with
/// `n ≥ 1`), or clears the override (`None`) so [`configured_threads`]
/// falls back to `CDT_THREADS` / the machine's parallelism.
///
/// # Panics
/// Panics on `Some(0)`.
pub fn set_thread_override(threads: Option<usize>) {
    if let Some(n) = threads {
        assert!(n >= 1, "thread count must be at least 1");
        THREAD_OVERRIDE.store(n, Ordering::Relaxed);
    } else {
        THREAD_OVERRIDE.store(0, Ordering::Relaxed);
    }
}

/// The number of worker threads evaluation fan-outs will use (override >
/// `CDT_THREADS` > available parallelism; always ≥ 1).
#[must_use]
pub fn configured_threads() -> usize {
    let overridden = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if overridden != 0 {
        return overridden;
    }
    threads_from_env(std::env::var("CDT_THREADS").ok().as_deref())
}

/// Resolves `CDT_THREADS` from its raw value (`None` when the variable is
/// unset). Anything but a positive integer warns once — "ignoring invalid
/// CDT_THREADS value …" — and falls back to the available parallelism; the
/// warning counter in the metrics registry ticks on every such resolution.
fn threads_from_env(raw: Option<&str>) -> usize {
    let available = || {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    let Some(raw) = raw else {
        return available();
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => {
            let fallback = available();
            cdt_obs::warn_once(
                "cdt-threads-invalid",
                &format!(
                    "ignoring invalid CDT_THREADS value {raw:?} \
                     (expected a positive integer); using {fallback} thread(s)"
                ),
            );
            fallback
        }
    }
}

/// Per-worker introspection accumulated locally and published to the
/// global metrics registry once per `parallel_map` call (never per job).
#[derive(Default)]
struct PoolWorkerStats {
    jobs: u64,
    busy_ns: u64,
    job_ns: LatencyHistogram,
}

impl PoolWorkerStats {
    fn publish(&self, worker: usize, wall_ns: u64) {
        let registry = cdt_obs::global();
        let label = worker.to_string();
        let labels: [(&str, &str); 1] = [("worker", &label)];
        registry.add_counter("cdt_obs_pool_worker_jobs_total", &labels, self.jobs);
        registry.add_counter("cdt_obs_pool_worker_busy_ns_total", &labels, self.busy_ns);
        registry.add_counter(
            "cdt_obs_pool_worker_idle_ns_total",
            &labels,
            wall_ns.saturating_sub(self.busy_ns),
        );
        registry.merge_histogram("cdt_obs_pool_job_ns", &[], &self.job_ns);
    }
}

/// Maps `f` over `items` on up to `threads` worker threads, returning the
/// results **in item order** — bit-for-bit identical to the serial
/// `items.iter().enumerate().map(..)` as long as each job is a pure
/// function of `(index, item)`.
///
/// `threads <= 1` (or fewer than two items) runs the exact serial path on
/// the calling thread. A panic in any job is propagated to the caller.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let workers = threads.min(n);
    let cursor = AtomicUsize::new(0);
    // One relaxed atomic load per parallel_map call; all per-job
    // instrumentation below is gated behind this local bool, so the
    // uninstrumented path pays a predictable branch and nothing else.
    let instrument = cdt_obs::is_enabled();
    if instrument {
        cdt_obs::global().set_gauge("cdt_obs_pool_threads", &[], workers as f64);
    }
    // With span tracing on, the whole fan-out gets one `pool` span
    // (parented to the caller's scope), and each claim a `chunk` span under
    // it. A worker enters its claim's span while the job runs, so the run
    // span a job creates is the child of its chunk.
    let pool_span = cdt_obs::active_trace().map(|trace| {
        (
            trace,
            cdt_obs::span::next_span_id(),
            cdt_obs::span::current_scope(),
            cdt_obs::span::now_ns(),
        )
    });
    // Watchdog liveness: workers register their slot, and every round a
    // job completes on the worker's thread ticks it (passive, atomics
    // only; results unchanged).
    let watch = cdt_obs::health::watchdog_active();
    let mut gathered: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                let pool_span = &pool_span;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let worker_start = instrument.then(Instant::now);
                    let mut stats = PoolWorkerStats::default();
                    let mut chunk_spans: Vec<cdt_obs::SpanRecord> = Vec::new();
                    if watch {
                        cdt_obs::health::worker_begin(w);
                    }
                    loop {
                        // The claim's `chunk` span (id, start) opens before
                        // the claim, so it covers the claim and the gather.
                        let chunk = pool_span
                            .as_ref()
                            .map(|_| (cdt_obs::span::next_span_id(), cdt_obs::span::now_ns()));
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        if !instrument {
                            local.push((i, f(i, item)));
                            continue;
                        }
                        let job_start = Instant::now();
                        let result = {
                            let _chunk_scope = chunk.map(|(id, _)| cdt_obs::span::enter_scope(id));
                            f(i, item)
                        };
                        let ns = u64::try_from(job_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        local.push((i, result));
                        stats.jobs += 1;
                        stats.busy_ns = stats.busy_ns.saturating_add(ns);
                        stats.job_ns.record_ns(ns);
                        if let (Some(&(trace, pool_id, _, _)), Some((id, c0))) =
                            (pool_span.as_ref(), chunk)
                        {
                            chunk_spans.push(
                                cdt_obs::SpanRecord::new(
                                    trace,
                                    id,
                                    Some(pool_id),
                                    "chunk",
                                    c0,
                                    cdt_obs::span::now_ns().saturating_sub(c0),
                                )
                                .with_worker(w as u64),
                            );
                        }
                    }
                    if watch {
                        cdt_obs::health::worker_end(w);
                    }
                    if !chunk_spans.is_empty() {
                        cdt_obs::publish_spans(&chunk_spans);
                    }
                    if let Some(start) = worker_start {
                        let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        stats.publish(w, wall);
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => gathered.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if let Some((trace, id, parent, start_ns)) = pool_span {
        cdt_obs::publish_spans(&[cdt_obs::SpanRecord::new(
            trace,
            id,
            parent,
            "pool",
            start_ns,
            cdt_obs::span::now_ns().saturating_sub(start_ns),
        )]);
    }

    // Place results by job index so scheduling order never matters.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in gathered.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index is claimed exactly once"))
        .collect()
}

/// As [`parallel_map`] for fallible jobs: returns the first error in *item*
/// order (deterministic regardless of which job failed first in time).
///
/// # Errors
/// Returns the error of the lowest-indexed failing job.
pub fn try_parallel_map<T, R, F, E>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    parallel_map(items, threads, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_in_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i * 1000 + x * x)
            .collect();
        for threads in [1, 2, 4, 16] {
            let par = parallel_map(&items, threads, |i, &x| i * 1000 + x * x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        let items = [7usize, 8];
        assert_eq!(parallel_map(&items, 64, |_, &x| x + 1), vec![8, 9]);
    }

    #[test]
    fn empty_and_single_item() {
        let empty: [usize; 0] = [];
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[42usize], 8, |i, &x| (i, x)), vec![(0, 42)]);
    }

    #[test]
    fn try_variant_returns_lowest_index_error() {
        let items: Vec<usize> = (0..50).collect();
        let res: Result<Vec<usize>, usize> =
            try_parallel_map(&items, 4, |i, &x| if x % 10 == 3 { Err(i) } else { Ok(x) });
        assert_eq!(
            res.unwrap_err(),
            3,
            "first error in item order, not time order"
        );
    }

    #[test]
    fn try_variant_collects_all_oks() {
        let items: Vec<usize> = (0..20).collect();
        let res: Result<Vec<usize>, ()> = try_parallel_map(&items, 4, |_, &x| Ok(x * 2));
        assert_eq!(res.unwrap(), (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn job_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[1usize, 2, 3], 2, |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    // The observability pipeline is process-wide; serialize the tests that
    // install one so neither uninstalls it under the other's pool call.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Sums a per-worker pool counter over workers `0..4`.
    fn pool_counter(name: &str) -> u64 {
        (0..4)
            .map(|w| cdt_obs::global().counter_value(name, &[("worker", &w.to_string())]))
            .sum()
    }

    #[test]
    fn pool_metrics_appear_when_pipeline_installed() {
        let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // The pool publishes per-worker stats only while a pipeline is
        // installed; results stay identical either way.
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();

        cdt_obs::uninstall();
        assert_eq!(parallel_map(&items, 4, |_, &x| x * 3), expect);

        cdt_obs::install(cdt_obs::ObsConfig::default()).unwrap();
        let before = pool_counter("cdt_obs_pool_worker_jobs_total");
        assert_eq!(parallel_map(&items, 4, |_, &x| x * 3), expect);
        let after = pool_counter("cdt_obs_pool_worker_jobs_total");
        cdt_obs::uninstall();
        // ≥, not ==: other tests in this binary may drive the pool (and the
        // global registry) concurrently.
        assert!(after - before >= items.len() as u64, "{before} -> {after}");
    }

    #[test]
    fn override_takes_precedence_and_clears() {
        // This test owns the global thread override for its duration;
        // other tests here never set it.
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        set_thread_override(None);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn cdt_threads_parses_positive_integers_and_warns_once_on_anything_else() {
        // Unset and rejected values fall back to the available parallelism;
        // a rejected value also ticks the warning counter (which counts even
        // without an installed pipeline).
        let available = threads_from_env(None);
        assert!(available >= 1);
        assert_eq!(threads_from_env(Some(" 12 ")), 12);
        let labels = [("kind", "cdt-threads-invalid")];
        for invalid in ["0", "wide", ""] {
            let before = cdt_obs::global().counter_value("cdt_obs_warnings_total", &labels);
            assert_eq!(threads_from_env(Some(invalid)), available, "{invalid:?}");
            let after = cdt_obs::global().counter_value("cdt_obs_warnings_total", &labels);
            assert!(after > before, "{invalid:?}: {before} -> {after}");
        }
    }
}
