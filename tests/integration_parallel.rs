//! Determinism contract of the parallel evaluation engine: every fan-out
//! gathers results by job index and every job owns its seed, so output is
//! bit-for-bit identical at any thread count.
//!
//! These tests run the same workloads pinned to one worker (the exact
//! serial path) and to a four-worker pool, and require `==` on the full
//! result structures — not approximate equality.

use cdt_core::Scenario;
use cdt_sim::{
    compare_policies, compare_policies_grid, replicate, set_thread_override, ComparisonResult,
    PolicySpec, ReplicatedRun,
};
use cdt_types::SimRng;
use std::sync::Mutex;

/// The thread override is process-global; serialize the tests that set it.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

fn scenario(seed: u64, m: usize, k: usize, n: usize) -> Scenario {
    let mut rng = SimRng::new(seed);
    Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap()
}

/// One full evaluation workload: a checkpointed comparison, a sweep grid,
/// and a replication, all at the given thread count.
fn workload(threads: usize) -> (ComparisonResult, Vec<ComparisonResult>, Vec<ReplicatedRun>) {
    set_thread_override(Some(threads));
    let specs = PolicySpec::paper_set();
    let single = scenario(11, 20, 4, 120);
    let cmp = compare_policies(&single, &specs, 7, &[40, 120]).unwrap();

    let grid: Vec<Scenario> = [(16, 3), (20, 4), (24, 5)]
        .iter()
        .map(|&(m, k)| scenario(31, m, k, 90))
        .collect();
    let seeds = [5u64, 6, 7];
    let swept = compare_policies_grid(&grid, &specs, &seeds, &[]).unwrap();

    let reps = replicate(12, 3, 3, 80, &specs, 3, 99).unwrap();
    set_thread_override(None);
    (cmp, swept, reps)
}

#[test]
fn serial_and_parallel_results_are_bit_identical() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let serial = workload(1);
    let parallel = workload(4);
    assert_eq!(
        serial.0, parallel.0,
        "compare_policies diverged across thread counts"
    );
    assert_eq!(
        serial.1, parallel.1,
        "compare_policies_grid diverged across thread counts"
    );
    assert_eq!(
        serial.2, parallel.2,
        "replicate diverged across thread counts"
    );
}

#[test]
fn oversubscribed_pool_is_still_identical() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // More workers than jobs: the pool must behave exactly like the
    // serial path even when most workers find the queue already drained.
    set_thread_override(Some(32));
    let s = scenario(17, 18, 3, 60);
    let wide = compare_policies(&s, &PolicySpec::paper_set(), 3, &[]).unwrap();
    set_thread_override(Some(1));
    let narrow = compare_policies(&s, &PolicySpec::paper_set(), 3, &[]).unwrap();
    set_thread_override(None);
    assert_eq!(wide, narrow);
}

#[test]
fn thread_counts_are_bit_identical() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The thread count changes only which worker claims a job, never the
    // gather: sweep thread counts against the serial reference.
    let specs = PolicySpec::paper_set();
    let s = scenario(23, 16, 3, 70);
    set_thread_override(Some(1));
    let reference = compare_policies(&s, &specs, 13, &[30, 70]).unwrap();
    for threads in [2usize, 4, 8] {
        set_thread_override(Some(threads));
        let run = compare_policies(&s, &specs, 13, &[30, 70]).unwrap();
        assert_eq!(reference, run, "diverged at threads = {threads}");
    }
    set_thread_override(None);
}

#[test]
fn spans_and_watchdog_do_not_perturb_results_across_thread_counts() {
    let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdt_obs::uninstall();
    let specs = PolicySpec::paper_set();

    // Untraced serial reference (no pipeline installed at all).
    set_thread_override(Some(1));
    let baseline = replicate(12, 3, 10, 40, &specs, 4, 2024).unwrap();

    // Span tracing + watchdog on at every thread count: both are passive
    // (spans read clocks, the watchdog reads atomics on its own thread), so
    // every run must stay bit-for-bit on the untraced serial reference.
    let events = std::env::temp_dir().join(format!(
        "cdt_parallel_spans_watchdog_{}.jsonl",
        std::process::id()
    ));
    for threads in [1usize, 2, 4] {
        set_thread_override(Some(threads));
        cdt_obs::global().reset();
        cdt_obs::install(cdt_obs::ObsConfig {
            events_path: Some(events.clone()),
            spans: true,
            watchdog_ms: Some(1),
            ..cdt_obs::ObsConfig::default()
        })
        .unwrap();
        let run = replicate(12, 3, 10, 40, &specs, 4, 2024).unwrap();
        cdt_obs::flush().unwrap();
        cdt_obs::uninstall();
        assert_eq!(
            baseline, run,
            "spans+watchdog perturbed results at threads={threads}"
        );
    }
    std::fs::remove_file(&events).ok();
    set_thread_override(None);
}
