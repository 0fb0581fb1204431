//! Observability contract tests.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Passivity** — recording every event (in memory or through an
//!    observability session) leaves `RunResult` / `ReplicatedRun`
//!    bit-for-bit identical to the uninstrumented null path, at any thread
//!    count.
//! 2. **Schema stability** — the JSONL trace written by the sink carries
//!    exactly the documented key set per event type (the golden schema),
//!    and every line of a committed trace (`tests/fixtures/obs_golden.jsonl`)
//!    decodes and re-encodes to its own bytes, less the members retired
//!    since it was written.
//! 3. **Timing sanity** — per-phase nanosecond laps nest inside the
//!    measured wall clock of the run that produced them.
//! 4. **Robustness** — the `cdt obs` readers never panic on a damaged
//!    trace.

use cdt_core::Scenario;
use cdt_obs::{EventRecord, ObsConfig, RecordingObserver, Session, TraceLine};
use cdt_sim::{replicate, run_policy, run_policy_observed, PolicySpec, RunConfig};
use cdt_types::json::{self, Reader};
use cdt_types::SimRng;
use std::collections::BTreeSet;

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
    let specs = PolicySpec::paper_set();
    let baseline = replicate((12, 3, 3, 60), &specs, 2, 99, &RunConfig::default()).unwrap();

    // Same workload, session on, four workers: still identical.
    let events = temp_path("replicate");
    let observed = RunConfig {
        threads: 4,
        obs: Session::start(ObsConfig {
            events_path: Some(events.clone()),
            ..ObsConfig::default()
        })
        .unwrap(),
    };
    let instrumented = replicate((12, 3, 3, 60), &specs, 2, 99, &observed).unwrap();
    observed.obs.finish().unwrap();

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
    let events = temp_path("golden");
    let session = Session::start(ObsConfig {
        events_path: Some(events.clone()),
        ..ObsConfig::default()
    })
    .unwrap();
    let s = scenario(5, 12, 3, 20);
    let mut obs = session.observer_for_run("golden").unwrap();
    run_policy_observed(&s, PolicySpec::paper_set()[0], 3, &[], &mut obs).unwrap();
    drop(obs);
    session.finish().unwrap();

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
    let observed = RunConfig {
        threads: 2,
        obs: Session::start(ObsConfig::default()).unwrap(),
    };
    let specs = PolicySpec::paper_set();
    replicate((10, 3, 3, 40), &specs, 2, 17, &observed).unwrap();
    let registry = observed.obs.registry().unwrap();
    // The session is this test's own, so its counts are exact: 2
    // replications of every policy, 40 rounds each.
    let rounds = registry.counter_value("cdt_obs_rounds_total", &[]);
    assert_eq!(rounds, 2 * specs.len() as u64 * 40);
    let dump = cdt_obs::render(registry);

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

/// One edit of a trace, for the never-panic property below.
#[derive(Debug)]
enum TraceEdit {
    Flip {
        at: usize,
        mask: u8,
    },
    Truncate {
        at: usize,
    },
    Insert {
        at: usize,
        bytes: Vec<u8>,
    },
    DuplicateLine(usize),
    SwapLines(usize, usize),
    DeleteLine(usize),
    /// Every integer `"key":N` member set to this value.
    Count(&'static str, u64),
}

/// The duration and count members of the trace layouts.
const TRACE_COUNTS: [&str; 15] = [
    "selection_ns",
    "solve_ns",
    "observe_ns",
    "account_ns",
    "start_ns",
    "dur_ns",
    "t_ns",
    "observed_ns",
    "threshold_ns",
    "round",
    "samples",
    "trace",
    "span",
    "parent",
    "worker",
];

/// `bytes` with `edit` applied.
fn edit_trace(mut bytes: Vec<u8>, edit: &TraceEdit) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let line = |i: usize| i % lines.len().max(1);
    match edit {
        TraceEdit::Flip { at, mask } => {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        TraceEdit::Truncate { at } => bytes.truncate(at % bytes.len()),
        TraceEdit::Insert { at, bytes: extra } => {
            let at = at % (bytes.len() + 1);
            bytes.splice(at..at, extra.iter().copied());
        }
        TraceEdit::DuplicateLine(i) => {
            let i = line(*i);
            lines.insert(i, lines[i].clone());
            bytes = lines.concat();
        }
        TraceEdit::SwapLines(a, b) => {
            let (a, b) = (line(*a), line(*b));
            lines.swap(a, b);
            bytes = lines.concat();
        }
        TraceEdit::DeleteLine(i) => {
            lines.remove(line(*i));
            bytes = lines.concat();
        }
        TraceEdit::Count(key, value) => {
            let text = String::from_utf8(bytes).unwrap();
            let member = format!("\"{key}\":");
            let mut out = String::new();
            let mut rest = text.as_str();
            while let Some(i) = rest.find(&member) {
                let (head, tail) = rest.split_at(i + member.len());
                out.push_str(head);
                let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
                if digits > 0 {
                    out.push_str(&value.to_string());
                }
                rest = &tail[digits..];
            }
            out.push_str(rest);
            bytes = out.into_bytes();
        }
    }
    bytes
}

/// "Trace readers never panic": one edit of a committed trace (the golden
/// trace, or the traced `cdt run` of the CLI goldens), then every reader
/// `cdt obs` runs over it: `summarize`, and `flame` and `critical-path`
/// over its spans. A reader skips what it cannot read, but none may panic
/// (the debug build checks every addition). Besides 400 seeded byte and
/// line edits, each duration and count is set to 0 and to `u64::MAX`.
#[test]
fn trace_readers_never_panic_on_a_damaged_trace() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let traces = [golden_trace(), fixtures.join("cli/obs-run/t.jsonl")]
        .map(|path| std::fs::read(path).unwrap());
    let forged = (0..traces.len()).flat_map(|trace| {
        TRACE_COUNTS
            .iter()
            .flat_map(move |&key| [0, u64::MAX].map(|value| (trace, TraceEdit::Count(key, value))))
    });
    let seeded = (0..400).map(|seed| {
        let mut rng = SimRng::new(seed);
        let mut at = || rng.below(1 << 16) as usize;
        let (kind, trace, a, b) = (at() % 6, at() % traces.len(), at(), at());
        let edit = match kind {
            0 => TraceEdit::Flip {
                at: a,
                mask: 1 << (b % 8),
            },
            1 => TraceEdit::Truncate { at: a },
            2 => TraceEdit::Insert {
                at: a,
                bytes: b.to_le_bytes()[..1 + b % 4].to_vec(),
            },
            3 => TraceEdit::DuplicateLine(a),
            4 => TraceEdit::SwapLines(a, b),
            _ => TraceEdit::DeleteLine(a),
        };
        (trace, edit)
    });
    let path = temp_path("never_panic");
    cdt_types::check::check_all(forged.chain(seeded), |(trace, edit)| {
        let bytes = edit_trace(traces[*trace].clone(), edit);
        std::fs::write(&path, &bytes).unwrap();
        // Malformed lines are skipped: only bytes that are not UTF-8 fail.
        let summary = cdt_obs::summarize_trace(&path);
        assert_eq!(summary.is_ok(), std::str::from_utf8(&bytes).is_ok());
        let spans = cdt_obs::SpanSet::from_jsonl(&String::from_utf8_lossy(&bytes));
        let _ = cdt_obs::render_flame(&spans);
        let _ = cdt_obs::render_critical_path(&spans);
    });
    std::fs::remove_file(&path).ok();
}
