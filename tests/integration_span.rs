//! Span-tracing and watchdog contract tests.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Golden span schema** — every `"event":"span"` line carries exactly
//!    the documented 10-key set, with `null` for absent attributes, across
//!    every producer (pipeline run/round/phase spans, pool and chunk
//!    spans).
//! 2. **Parent-link integrity** — every non-null parent id resolves to a
//!    span written in the same trace: the causal tree has no dangling
//!    edges, and each pool claim's `chunk` span parents the `run` span of
//!    its one job.
//! 3. **Flame reconciliation** — the root `run` span's inclusive time sits
//!    within 5% of the measured wall clock of the traced call, and the
//!    signed exclusive self-times telescope exactly to the root inclusive
//!    time (the invariant `cdt obs flame` reports per root).
//! 4. **Watchdog liveness** — a watchdog with an explicit 1 ns slow-round
//!    floor emits at least one well-formed `"event":"health"` record for a
//!    real run.

use cdt_core::Scenario;
use cdt_obs::{HealthKind, HealthRecord, ObsConfig, SpanRecord, TraceLine};
use cdt_sim::{replicate, run_policy, set_thread_override, PolicySpec};
use cdt_types::json::{self, Reader};
use cdt_types::SimRng;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Mutex;

/// The observability pipeline and the pool overrides are process-global;
/// serialize every test that touches either.
static GLOBAL_STATE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scenario(seed: u64, m: usize, k: usize, n: usize) -> Scenario {
    let mut rng = SimRng::new(seed);
    Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap()
}

/// A throwaway path in the system temp dir, unique per test name.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdt_span_{}_{name}.jsonl", std::process::id()))
}

/// Every line of a JSONL events file, decoded (each line must decode).
fn trace_lines(text: &str) -> Vec<(&str, TraceLine)> {
    text.lines()
        .map(|line| {
            let decoded = TraceLine::decode(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            (line, decoded)
        })
        .collect()
}

/// The span lines of a mixed JSONL events file, with their records.
fn span_lines(text: &str) -> Vec<(&str, SpanRecord)> {
    trace_lines(text)
        .into_iter()
        .filter_map(|(line, decoded)| match decoded {
            TraceLine::Span(span) => Some((line, span)),
            _ => None,
        })
        .collect()
}

/// The top-level keys of the JSON object `line`.
fn keys_of(line: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    Reader::new(line)
        .object(&mut |r, key| {
            keys.insert(key.to_owned());
            r.skip()
        })
        .unwrap_or_else(|e| panic!("{line}: {e}"));
    keys
}

#[test]
fn span_jsonl_matches_golden_schema_with_intact_parent_links() {
    let _guard = lock();
    cdt_obs::uninstall();
    let events = temp_path("golden");

    // A threaded replication exercises every span producer at once: pool +
    // chunk spans from the worker pool, and run/round/phase spans from the
    // pipeline observer inside each job.
    cdt_obs::global().reset();
    cdt_obs::install(ObsConfig {
        events_path: Some(events.clone()),
        spans: true,
        ..ObsConfig::default()
    })
    .unwrap();
    set_thread_override(Some(2));
    let reps = 2;
    replicate(12, 3, 3, 30, &PolicySpec::paper_set(), reps, 2024).unwrap();
    set_thread_override(None);
    let jobs = reps * PolicySpec::paper_set().len();
    cdt_obs::flush().unwrap();
    cdt_obs::uninstall();

    let text = std::fs::read_to_string(&events).unwrap();
    let spans = span_lines(&text);
    assert!(!spans.is_empty(), "no span lines were written");

    // Golden schema: exactly these keys, always present (absent attributes
    // are null, never omitted).
    let wanted: BTreeSet<String> = [
        "event", "trace", "span", "parent", "name", "run", "round", "start_ns", "dur_ns", "worker",
    ]
    .into_iter()
    .map(str::to_owned)
    .collect();
    for (line, span) in &spans {
        assert_eq!(keys_of(line), wanted, "span schema drift in: {line}");
        // Round-trip through the typed record: the schema really is the code.
        assert_eq!(&json::to_string(span), line);
    }

    // Every producer showed up.
    let names: HashSet<&str> = spans.iter().map(|(_, s)| s.name.as_str()).collect();
    for name in ["run", "round", "pool", "chunk"] {
        assert!(
            names.contains(name),
            "missing `{name}` spans; got {names:?}"
        );
    }

    // Parent-link integrity: every non-null parent resolves to a span id
    // written in the same trace.
    let mut ids_by_trace: HashMap<u64, HashSet<u64>> = HashMap::new();
    for (_, span) in &spans {
        ids_by_trace
            .entry(span.trace)
            .or_default()
            .insert(span.span);
    }
    assert_eq!(ids_by_trace.len(), 1, "one install means one trace id");
    for (line, span) in &spans {
        if let Some(parent) = span.parent {
            assert!(
                ids_by_trace[&span.trace].contains(&parent),
                "dangling parent {parent} in: {line}"
            );
        }
    }

    // One claim per job: every `run` is the child of a `chunk`, and every
    // `chunk` holds exactly one `run`, so `cdt obs flame` charges a job's
    // time to its run, not to the claim.
    let name_of: HashMap<u64, &str> = spans
        .iter()
        .map(|(_, s)| (s.span, s.name.as_str()))
        .collect();
    let mut runs_per_chunk: HashMap<u64, usize> = spans
        .iter()
        .filter(|(_, s)| s.name == "chunk")
        .map(|(_, s)| (s.span, 0))
        .collect();
    assert_eq!(runs_per_chunk.len(), jobs, "one chunk span per job");
    for (line, span) in spans.iter().filter(|(_, s)| s.name == "run") {
        let parent = span.parent.expect("a pooled run has a parent");
        assert_eq!(name_of[&parent], "chunk", "run not under a chunk: {line}");
        *runs_per_chunk.get_mut(&parent).unwrap() += 1;
    }
    assert!(
        runs_per_chunk.values().all(|&runs| runs == 1),
        "{runs_per_chunk:?}"
    );
    std::fs::remove_file(&events).ok();
}

#[test]
fn flame_root_matches_wall_clock_and_exclusive_sum_is_exact() {
    let _guard = lock();
    cdt_obs::uninstall();
    let events = temp_path("flame");
    cdt_obs::global().reset();
    // Sample the trace sparsely: the `run` span closes just after the
    // drop-time publication of the buffered JSONL lines, and a small trace
    // (about 20 sampled rounds) of a long run pins the 5% reconciliation
    // bound on tracing itself, not on serialization volume.
    cdt_obs::install(ObsConfig {
        events_path: Some(events.clone()),
        spans: true,
        events_sample: 1000,
        ..ObsConfig::default()
    })
    .unwrap();

    // One serial traced run, timed tightly: the `run` span must cover
    // nearly all of it. 20000 rounds keep the fixed per-call setup (label
    // formatting, observer construction) far under the 5% tolerance.
    let s = scenario(33, 14, 3, 20_000);
    let started = std::time::Instant::now();
    run_policy(&s, PolicySpec::paper_set()[0], 5, &[]).unwrap();
    let wall_ns = started.elapsed().as_nanos() as u64;
    cdt_obs::flush().unwrap();
    cdt_obs::uninstall();

    let text = std::fs::read_to_string(&events).unwrap();
    let spans: Vec<SpanRecord> = span_lines(&text).into_iter().map(|(_, s)| s).collect();
    let roots: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "run")
        .collect();
    assert_eq!(roots.len(), 1, "one serial run means one root `run` span");
    let root_incl = roots[0].dur_ns;
    assert!(
        root_incl <= wall_ns,
        "root span ({root_incl}ns) exceeds the wall clock ({wall_ns}ns)"
    );
    assert!(
        root_incl * 100 >= wall_ns * 95,
        "root span ({root_incl}ns) covers less than 95% of the wall clock ({wall_ns}ns)"
    );

    // Σ exclusive == root inclusive, exactly: each span's signed self time
    // is its duration minus its children's durations, so summing over the
    // single-rooted tree telescopes to the root duration.
    let mut child_ns: HashMap<u64, i128> = HashMap::new();
    for span in &spans {
        if let Some(parent) = span.parent {
            *child_ns.entry(parent).or_default() += i128::from(span.dur_ns);
        }
    }
    let exclusive_sum: i128 = spans
        .iter()
        .map(|s| i128::from(s.dur_ns) - child_ns.get(&s.span).copied().unwrap_or(0))
        .sum();
    assert_eq!(
        exclusive_sum,
        i128::from(root_incl),
        "exclusive self-times do not telescope to the root inclusive time"
    );

    // The offline tools agree: the flame report's per-root reconciliation
    // line states the same identity, and the critical path is non-empty.
    let set = cdt_obs::SpanSet::from_jsonl(&text);
    assert_eq!(set.len(), spans.len());
    let flame = cdt_obs::render_flame(&set);
    let reconciliation = flame
        .lines()
        .find(|l| l.contains("[root run:"))
        .unwrap_or_else(|| panic!("no reconciliation line in:\n{flame}"));
    let (lhs, rhs) = reconciliation
        .split_once(" == ")
        .expect("reconciliation line states an equality");
    let inclusive = lhs.rsplit("inclusive ").next().unwrap();
    let exclusive = rhs
        .trim_end_matches(']')
        .trim_start_matches("exclusive-sum ");
    assert_eq!(inclusive, exclusive, "flame report failed to reconcile");
    assert!(
        !cdt_obs::render_critical_path(&set).is_empty(),
        "critical path report is empty"
    );
    std::fs::remove_file(&events).ok();
}

#[test]
fn watchdog_emits_well_formed_health_events() {
    let _guard = lock();
    cdt_obs::uninstall();
    let events = temp_path("watchdog");
    cdt_obs::global().reset();
    // An explicit 1 ns slow-round floor: every settled round is "slow", so
    // the 1 ms monitor must flag at least one during a real run (and
    // `uninstall` takes one final sample before the sink goes away).
    cdt_obs::install(ObsConfig {
        events_path: Some(events.clone()),
        watchdog_ms: Some(1),
        slow_round_ns: Some(1),
        ..ObsConfig::default()
    })
    .unwrap();
    let s = scenario(21, 14, 3, 80);
    run_policy(&s, PolicySpec::paper_set()[0], 9, &[]).unwrap();
    cdt_obs::flush().unwrap();
    cdt_obs::uninstall();

    let text = std::fs::read_to_string(&events).unwrap();
    let health: Vec<(&str, HealthRecord)> = trace_lines(&text)
        .into_iter()
        .filter_map(|(line, decoded)| match decoded {
            TraceLine::Health(health) => Some((line, health)),
            _ => None,
        })
        .collect();
    assert!(
        !health.is_empty(),
        "watchdog with a 1 ns floor emitted no health events"
    );

    let wanted: BTreeSet<String> = [
        "event",
        "kind",
        "t_ns",
        "worker",
        "observed_ns",
        "threshold_ns",
    ]
    .into_iter()
    .map(str::to_owned)
    .collect();
    for (line, _) in &health {
        assert_eq!(keys_of(line), wanted, "health schema drift in: {line}");
    }
    assert!(
        health.iter().any(|(_, h)| h.kind == HealthKind::SlowRound),
        "no slow_round event despite the 1 ns floor: {health:?}"
    );
    // The registry counted them too (this is what `--obs-summary` and the
    // Prometheus render surface).
    let counted =
        cdt_obs::global().counter_value("cdt_obs_health_events_total", &[("kind", "slow_round")]);
    assert!(counted >= 1, "health events missing from the registry");
    std::fs::remove_file(&events).ok();
}
