//! Deterministic parallel job execution for the evaluation engine.
//!
//! Every evaluation workload in this crate is a grid of independent jobs —
//! (replication × policy) cells in [`crate::replicate()`], one job per policy
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
//! The pool's width and its observability session arrive in one
//! [`RunConfig`], built once per command (the `cdt` binary resolves
//! `--threads`, then `CDT_THREADS`, then the available parallelism) and
//! passed down. A width of 1 short-circuits to an in-order loop on the
//! calling thread — exactly the serial code path, with no worker threads
//! spawned at all.

use cdt_obs::{LatencyHistogram, MetricsRegistry, Session, SpanRecord};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How one command runs its evaluation jobs: the pool's width and the
/// observability session its runs report to. Both knobs are fixed for the
/// command's lifetime; nothing about them is process-global.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Worker threads per fan-out (1 runs the exact serial path).
    pub threads: usize,
    /// Where the runs' observers, the pool's introspection and the
    /// journal's metrics go (disabled: nowhere).
    pub obs: Session,
}

impl RunConfig {
    /// `threads` workers, observing nothing.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            obs: Session::disabled(),
        }
    }
}

impl Default for RunConfig {
    /// The serial path, observing nothing.
    fn default() -> Self {
        Self::with_threads(1)
    }
}

/// Per-worker introspection accumulated locally and published to the
/// session's metrics registry once per `parallel_map` call (never per job).
#[derive(Default)]
struct PoolWorkerStats {
    jobs: u64,
    busy_ns: u64,
    job_ns: LatencyHistogram,
}

impl PoolWorkerStats {
    fn publish(&self, registry: &MetricsRegistry, worker: usize, wall_ns: u64) {
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

/// Maps `f` over `items` on up to `cfg.threads` worker threads, returning
/// the results **in item order** — bit-for-bit identical to the serial
/// `items.iter().enumerate().map(..)` as long as each job is a pure
/// function of `(index, item)`. While `cfg.obs` is enabled the pool
/// publishes per-worker introspection (and, with span tracing, `pool` and
/// `chunk` spans) to it.
///
/// `cfg.threads <= 1` (or fewer than two items) runs the exact serial path
/// on the calling thread. A panic in any job is propagated to the caller.
pub fn parallel_map<T, R, F>(items: &[T], cfg: &RunConfig, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if cfg.threads <= 1 || n <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let workers = cfg.threads.min(n);
    let cursor = AtomicUsize::new(0);
    // All per-job instrumentation below is gated behind this local: the
    // unobserved path pays a predictable branch and nothing else.
    let registry = cfg.obs.registry();
    if let Some(registry) = registry {
        registry.set_gauge("cdt_obs_pool_threads", &[], workers as f64);
    }
    // With span tracing on, the whole fan-out gets one `pool` span
    // (parented to the caller's scope), and each claim a `chunk` span under
    // it. A worker enters its claim's span while the job runs, so the run
    // span a job creates is the child of its chunk.
    let pool_span = cfg.obs.trace().map(|trace| {
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
    let health = cfg.obs.health();
    let mut gathered: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let cursor = &cursor;
                let f = &f;
                let pool_span = &pool_span;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let worker_start = registry.map(|_| Instant::now());
                    let mut stats = PoolWorkerStats::default();
                    let mut chunk_spans = cfg.obs.span_buffer();
                    if let Some(health) = health {
                        health.worker_begin(w);
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
                        if registry.is_none() {
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
                                &SpanRecord::new(
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
                    if let Some(health) = health {
                        health.worker_end(w);
                    }
                    chunk_spans.flush();
                    if let (Some(registry), Some(start)) = (registry, worker_start) {
                        let wall = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        stats.publish(registry, w, wall);
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
        cfg.obs.span_buffer().push(&SpanRecord::new(
            trace,
            id,
            parent,
            "pool",
            start_ns,
            cdt_obs::span::now_ns().saturating_sub(start_ns),
        ));
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
pub fn try_parallel_map<T, R, F, E>(items: &[T], cfg: &RunConfig, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    parallel_map(items, cfg, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(threads: usize) -> RunConfig {
        RunConfig::with_threads(threads)
    }

    #[test]
    fn matches_serial_in_order() {
        let items: Vec<usize> = (0..97).collect();
        let serial: Vec<usize> = items
            .iter()
            .enumerate()
            .map(|(i, x)| i * 1000 + x * x)
            .collect();
        for threads in [1, 2, 4, 16] {
            let par = parallel_map(&items, &pool(threads), |i, &x| i * 1000 + x * x);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        let items = [7usize, 8];
        assert_eq!(parallel_map(&items, &pool(64), |_, &x| x + 1), vec![8, 9]);
    }

    #[test]
    fn empty_and_single_item() {
        let empty: [usize; 0] = [];
        assert!(parallel_map(&empty, &pool(8), |_, &x| x).is_empty());
        assert_eq!(
            parallel_map(&[42usize], &pool(8), |i, &x| (i, x)),
            vec![(0, 42)]
        );
    }

    #[test]
    fn try_variant_returns_lowest_index_error() {
        let items: Vec<usize> = (0..50).collect();
        let res: Result<Vec<usize>, usize> =
            try_parallel_map(
                &items,
                &pool(4),
                |i, &x| if x % 10 == 3 { Err(i) } else { Ok(x) },
            );
        assert_eq!(
            res.unwrap_err(),
            3,
            "first error in item order, not time order"
        );
    }

    #[test]
    fn try_variant_collects_all_oks() {
        let items: Vec<usize> = (0..20).collect();
        let res: Result<Vec<usize>, ()> = try_parallel_map(&items, &pool(4), |_, &x| Ok(x * 2));
        assert_eq!(res.unwrap(), (0..20).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn job_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[1usize, 2, 3], &pool(2), |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_metrics_appear_when_pipeline_installed() {
        // The pool publishes per-worker stats only to an enabled session;
        // results stay identical either way.
        let items: Vec<u64> = (0..40).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        assert_eq!(parallel_map(&items, &pool(4), |_, &x| x * 3), expect);

        let observed = RunConfig {
            threads: 4,
            obs: Session::start(cdt_obs::ObsConfig::default()).unwrap(),
        };
        assert_eq!(parallel_map(&items, &observed, |_, &x| x * 3), expect);
        let registry = observed.obs.registry().unwrap();
        let jobs: u64 = (0..4)
            .map(|w| {
                registry.counter_value(
                    "cdt_obs_pool_worker_jobs_total",
                    &[("worker", &w.to_string())],
                )
            })
            .sum();
        // The session is this test's own, so the count is exact.
        assert_eq!(jobs, items.len() as u64);
    }
}
