//! Observability contract tests.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Passivity** — recording every event (in memory or through the
//!    installed pipeline) leaves `RunResult` / `ReplicatedRun` bit-for-bit
//!    identical to the uninstrumented null path, at any thread count.
//! 2. **Schema stability** — the JSONL trace written by the sink carries
//!    exactly the documented key set per event type (the golden schema),
//!    and every line of a committed trace (`tests/fixtures/obs_golden.jsonl`)
//!    decodes and re-encodes to its own bytes, less the members retired
//!    since it was written.
//! 3. **Timing sanity** — per-phase nanosecond laps nest inside the
//!    measured wall clock of the run that produced them.

use cdt_core::Scenario;
use cdt_obs::{EventRecord, ObsConfig, RecordingObserver, TraceLine};
use cdt_sim::{replicate, run_policy, run_policy_observed, set_thread_override, PolicySpec};
use cdt_types::json::{self, Reader};
use cdt_types::SimRng;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The observability pipeline and the thread override are process-global;
/// serialize every test that touches either.
static GLOBAL_STATE_LOCK: Mutex<()> = Mutex::new(());

fn scenario(seed: u64, m: usize, k: usize, n: usize) -> Scenario {
    let mut rng = SimRng::new(seed);
    Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap()
}

/// A throwaway path in the system temp dir, unique per test name.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdt_obs_{}_{name}.jsonl", std::process::id()))
}

#[test]
fn recording_observer_is_bit_identical_to_null_path() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdt_obs::uninstall();
    let s = scenario(42, 16, 3, 100);
    let spec = PolicySpec::paper_set()[0];

    let plain = run_policy(&s, spec, 7, &[25, 100]).unwrap();
    let mut rec = RecordingObserver::new("identity");
    let observed = run_policy_observed(&s, spec, 7, &[25, 100], &mut rec).unwrap();

    assert_eq!(plain, observed, "recording a run changed its result");
    // 6 events per round: start, selection, equilibrium, observation,
    // round_end, regret.
    assert_eq!(rec.records.len(), 100 * 6);
}

#[test]
fn installed_pipeline_leaves_replication_bit_identical() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdt_obs::uninstall();
    let specs = PolicySpec::paper_set();

    set_thread_override(Some(1));
    let baseline = replicate(12, 3, 3, 60, &specs, 2, 99).unwrap();

    // Same workload, pipeline on, four workers: still identical.
    let events = temp_path("replicate");
    cdt_obs::global().reset();
    cdt_obs::install(ObsConfig {
        events_path: Some(events.clone()),
        summary: false,
        events_sample: 0,
        ..ObsConfig::default()
    })
    .unwrap();
    set_thread_override(Some(4));
    let instrumented = replicate(12, 3, 3, 60, &specs, 2, 99).unwrap();
    set_thread_override(None);
    cdt_obs::flush().unwrap();
    cdt_obs::uninstall();

    assert_eq!(
        baseline, instrumented,
        "the installed pipeline perturbed replication results"
    );
    let text = std::fs::read_to_string(&events).unwrap();
    assert!(!text.is_empty(), "pipeline wrote no events");
    std::fs::remove_file(&events).ok();
}

#[test]
fn jsonl_trace_matches_golden_schema() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdt_obs::uninstall();
    let events = temp_path("golden");
    cdt_obs::global().reset();
    cdt_obs::install(ObsConfig {
        events_path: Some(events.clone()),
        summary: false,
        events_sample: 0,
        ..ObsConfig::default()
    })
    .unwrap();
    let s = scenario(5, 12, 3, 20);
    run_policy(&s, PolicySpec::paper_set()[0], 3, &[]).unwrap();
    cdt_obs::flush().unwrap();
    cdt_obs::uninstall();

    let golden: &[(&str, &[&str])] = &[
        ("round_start", &["event", "run", "round"]),
        (
            "selection",
            &["event", "run", "round", "selected", "scores"],
        ),
        (
            "equilibrium",
            &[
                "event",
                "run",
                "round",
                "service_price",
                "collection_price",
                "sensing_times",
                "consumer_profit",
                "platform_profit",
                "seller_profit",
            ],
        ),
        (
            "observation",
            &["event", "run", "round", "observed_revenue", "samples"],
        ),
        (
            "round_end",
            &[
                "event",
                "run",
                "round",
                "observed_revenue",
                "consumer_profit",
                "platform_profit",
                "seller_profit",
                "selection_ns",
                "solve_ns",
                "observe_ns",
            ],
        ),
        (
            "regret",
            &["event", "run", "round", "cumulative_regret", "account_ns"],
        ),
    ];

    let text = std::fs::read_to_string(&events).unwrap();
    let mut seen_types = BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let Ok(TraceLine::Event(record)) = TraceLine::decode(line) else {
            panic!("not a round event line: {line}");
        };
        let tag = record.tag();
        let expected = golden
            .iter()
            .find(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("unknown event type `{tag}`"))
            .1;
        let mut keys = BTreeSet::new();
        Reader::new(line)
            .object(&mut |r, key| {
                keys.insert(key.to_owned());
                r.skip()
            })
            .expect("every line is a JSON object");
        let wanted: BTreeSet<String> = expected.iter().map(|&k| k.to_owned()).collect();
        assert_eq!(keys, wanted, "schema drift in `{tag}`");
        // Round-trip through the typed enum: the schema really is the code.
        // Every line re-encodes to itself, the `null` written for the +∞
        // UCB index of a never-sampled seller included.
        assert_eq!(json::to_string(&record), line);
        seen_types.insert(tag.to_owned());
        lines += 1;
    }
    assert_eq!(lines, 20 * 6, "one line per hook per round");
    assert_eq!(
        seen_types.len(),
        golden.len(),
        "every event type appears in a full run"
    );
    std::fs::remove_file(&events).ok();
}

/// `tests/fixtures/obs_golden.jsonl`: the trace of `cdt compare --m 6 --k 2
/// --l 2 --n 3 --reps 1 --threads 2 --obs-events FILE --obs-spans
/// --watchdog-ms 1 --watchdog-slow-round-ns 1`, as written before the
/// in-tree codec replaced serde_json: every event kind, the run, round,
/// phase, pool and chunk spans, a health line and a `null` score. It is
/// kept as written, so it also carries two members current traces no
/// longer write: `"cached"` on equilibrium lines (the retired equilibrium
/// cache) and `"chunk"` on span lines (the retired chunk size).
fn golden_trace() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/obs_golden.jsonl")
}

/// `line` without its `,"name":value` member, if it has one; the value is
/// a scalar (`true`, `false`, `null` or an integer).
fn without_member(line: &str, name: &str) -> String {
    let key = format!(",\"{name}\":");
    let Some(start) = line.find(&key) else {
        return line.to_owned();
    };
    let rest = &line[start + key.len()..];
    let end = rest
        .find([',', '}'])
        .expect("a scalar member ends the object or a field");
    format!("{}{}", &line[..start], &rest[end..])
}

#[test]
fn golden_trace_reencodes_byte_for_byte_and_summarizes_cleanly() {
    let text = std::fs::read_to_string(golden_trace()).unwrap();
    assert!(text.contains(r#","cached":true"#) && text.contains(r#","chunk":1"#));
    let (mut events, mut spans, mut health) = (0, 0, 0);
    for line in text.lines() {
        let encoded = match TraceLine::decode(line).unwrap_or_else(|e| panic!("{line}: {e:?}")) {
            TraceLine::Event(record) => {
                events += 1;
                json::to_string(&record)
            }
            TraceLine::Span(span) => {
                spans += 1;
                json::to_string(&span)
            }
            TraceLine::Health(record) => {
                health += 1;
                json::to_string(&record)
            }
            TraceLine::Journal(kind) => panic!("no journal lines in this trace: {kind}"),
        };
        let current = without_member(&without_member(line, "cached"), "chunk");
        assert_eq!(encoded, current);
    }
    assert_eq!((events, spans, health), (90, 86, 1));
    assert!(text.contains(r#""scores":[null"#));

    let summary = cdt_obs::summarize_trace(&golden_trace()).unwrap();
    assert!(summary.contains("(90 events / 5 runs)"), "{summary}");
    assert!(!summary.contains("malformed"), "{summary}");
}

#[test]
fn phase_laps_nest_inside_run_wall_clock() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdt_obs::uninstall();
    let s = scenario(9, 14, 3, 50);
    let mut rec = RecordingObserver::new("timing");
    let started = std::time::Instant::now();
    run_policy_observed(&s, PolicySpec::paper_set()[0], 11, &[], &mut rec).unwrap();
    let wall_ns = started.elapsed().as_nanos() as u64;

    let mut phase_total = 0u64;
    for record in &rec.records {
        match record {
            EventRecord::RoundEnd {
                selection_ns,
                solve_ns,
                observe_ns,
                ..
            } => phase_total += selection_ns + solve_ns + observe_ns,
            EventRecord::Regret { account_ns, .. } => phase_total += account_ns,
            _ => {}
        }
    }
    assert!(phase_total > 0, "phase laps were never recorded");
    assert!(
        phase_total <= wall_ns,
        "summed phase laps ({phase_total}ns) exceed run wall clock ({wall_ns}ns)"
    );
}

#[test]
fn prometheus_dump_covers_rounds_phases_and_pool() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdt_obs::uninstall();
    cdt_obs::global().reset();
    cdt_obs::install(ObsConfig::default()).unwrap();
    set_thread_override(Some(2));
    replicate(10, 3, 3, 40, &PolicySpec::paper_set(), 2, 17).unwrap();
    set_thread_override(None);
    let dump = cdt_obs::render(cdt_obs::global());
    cdt_obs::uninstall();

    for family in [
        "cdt_obs_rounds_total",
        "cdt_obs_events_total",
        "cdt_obs_round_phase_ns_bucket",
        "cdt_obs_round_phase_ns_count",
        "cdt_obs_pool_threads",
        "cdt_obs_pool_worker_jobs_total",
        "cdt_obs_pool_job_ns_bucket",
    ] {
        assert!(dump.contains(family), "missing `{family}` in:\n{dump}");
    }
    assert!(
        dump.contains("le=\"+Inf\""),
        "histograms must end with an +Inf bucket"
    );
}
