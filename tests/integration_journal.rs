//! Protocol-journal contract tests.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Byte identity** — the streaming [`JournalObserver`] produces, for
//!    the same seed, exactly the bytes the historical whole-buffer path
//!    (manual stepping + [`events_for_round`] + [`EventLog::to_json_lines`])
//!    used to write, and the journaled run's ledger is bit-identical to an
//!    unjournaled run (the observer is passive).
//! 2. **Crash safety** — a run that dies mid-round leaves a
//!    `<path>.partial` whose settled-round prefix recovers cleanly.
//! 3. **Budget semantics** — a budgeted run journals exactly the rounds
//!    the consumer settled; the budget-rejected final round never reaches
//!    the journal.

use cdt_core::{BudgetedCmabHs, CmabHs, LedgerMode, Scenario, StopReason};
use cdt_obs::{ObsConfig, Session};
use cdt_protocol::{
    events_for_round, load_journal, load_journal_text, recover_journal, EventLog, JournalObserver,
    JournalSink, MarketEvent,
};
use cdt_types::SimRng;

fn scenario(seed: u64, m: usize, k: usize, n: usize) -> Scenario {
    let mut rng = SimRng::new(seed);
    Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap()
}

/// A throwaway path in the system temp dir, unique per test name.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdt_journal_{}_{name}.jsonl", std::process::id()))
}

/// The historical buffered path: step the mechanism, collect every Fig. 2
/// event in memory, serialize once at the end.
fn buffered_journal(seed: u64, m: usize, k: usize, n: usize) -> String {
    let mut rng = SimRng::new(seed);
    let s = Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap();
    let mut mech = CmabHs::new(s.config.clone()).unwrap();
    let observer = s.observer();
    let mut log = EventLog::new();
    log.append(MarketEvent::JobPublished {
        job: s.config.job.clone(),
    })
    .unwrap();
    let mut rounds = 0;
    while !mech.is_finished() {
        let outcome = mech.step(&observer, &mut rng).unwrap();
        for event in events_for_round(&outcome) {
            log.append(event).unwrap();
        }
        rounds += 1;
    }
    log.append(MarketEvent::JobCompleted { rounds }).unwrap();
    log.to_json_lines()
}

#[test]
fn streamed_journal_is_byte_identical_to_buffered_path() {
    let (seed, m, k, n) = (42, 16, 3, 60);
    let reference = buffered_journal(seed, m, k, n);

    let path = temp_path("byte_identity");
    let mut rng = SimRng::new(seed);
    let s = Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap();
    let mut mech = CmabHs::new(s.config.clone()).unwrap();
    let mut journal = JournalObserver::create(&path, s.config.job.clone()).unwrap();
    let observed = mech
        .run_with_mode_observed(&s.observer(), &mut rng, LedgerMode::Summary, &mut journal)
        .unwrap();
    let report = journal.finish().unwrap();
    assert!(report.completed);
    assert_eq!(report.settled_rounds, n);
    assert_eq!(report.events as usize, 2 + 5 * n);

    let streamed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        streamed, reference,
        "streamed journal bytes diverge from the buffered serialization"
    );

    // The journal observer is passive: same seed without it gives a
    // bit-identical ledger.
    let mut rng2 = SimRng::new(seed);
    let s2 = Scenario::paper_defaults(m, k, 4, n, &mut rng2).unwrap();
    let mut plain = CmabHs::new(s2.config.clone()).unwrap();
    let unobserved = plain
        .run_with_mode(&s2.observer(), &mut rng2, LedgerMode::Summary)
        .unwrap();
    assert_eq!(observed, unobserved, "journaling changed the run");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn journal_bytes_identical_with_spans_and_watchdog() {
    let (seed, m, k, n) = (42, 14, 3, 50);

    // Reference journal: observed by nothing.
    let path_off = temp_path("spans_off");
    let mut rng = SimRng::new(seed);
    let s = Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap();
    let mut mech = CmabHs::new(s.config.clone()).unwrap();
    let mut journal = JournalObserver::create(&path_off, s.config.job.clone()).unwrap();
    let ledger_off = mech
        .run_with_mode_observed(&s.observer(), &mut rng, LedgerMode::Summary, &mut journal)
        .unwrap();
    journal.finish().unwrap();

    // Same seed with span tracing and the watchdog on, the journal riding
    // beside the run's observer as `cdt run` pairs them: spans and health
    // records go to their own events file, so the journal bytes — and the
    // ledger — must be bit-for-bit identical to the untraced run.
    let events = temp_path("spans_events");
    let path_on = temp_path("spans_on");
    let session = Session::start(ObsConfig {
        events_path: Some(events.clone()),
        spans: true,
        watchdog_ms: Some(1),
        ..ObsConfig::default()
    })
    .unwrap();
    let mut rng2 = SimRng::new(seed);
    let s2 = Scenario::paper_defaults(m, k, 4, n, &mut rng2).unwrap();
    let mut mech2 = CmabHs::new(s2.config.clone()).unwrap();
    let journal2 =
        JournalObserver::create_with(&path_on, s2.config.job.clone(), None, &session).unwrap();
    let mut pair = (journal2, session.observer_for_run("cmab-hs").unwrap());
    let ledger_on = mech2
        .run_with_mode_observed(&s2.observer(), &mut rng2, LedgerMode::Summary, &mut pair)
        .unwrap();
    let (journal2, observer) = pair;
    drop(observer);
    journal2.finish().unwrap();
    session.finish().unwrap();
    let traced = std::fs::read_to_string(&events).unwrap();
    assert!(traced.contains(r#""name":"journal_write""#), "{traced}");

    assert_eq!(ledger_off, ledger_on, "spans+watchdog changed the ledger");
    let bytes_off = std::fs::read(&path_off).unwrap();
    let bytes_on = std::fs::read(&path_on).unwrap();
    assert_eq!(
        bytes_off, bytes_on,
        "spans+watchdog changed the journal bytes"
    );

    std::fs::remove_file(&path_off).unwrap();
    std::fs::remove_file(&path_on).unwrap();
    std::fs::remove_file(&events).ok();
}

#[test]
fn killed_run_leaves_recoverable_partial() {
    let path = temp_path("crash");
    let partial = {
        let mut rng = SimRng::new(7);
        let s = Scenario::paper_defaults(12, 3, 4, 40, &mut rng).unwrap();
        let mut mech = CmabHs::new(s.config.clone()).unwrap();
        let observer = s.observer();
        let mut sink = JournalSink::create(&path).unwrap();
        sink.append(&MarketEvent::JobPublished {
            job: s.config.job.clone(),
        })
        .unwrap();
        for _ in 0..5 {
            let outcome = mech.step(&observer, &mut rng).unwrap();
            for event in events_for_round(&outcome) {
                sink.append(&event).unwrap();
            }
        }
        // Begin round 5 but never settle it, then drop (simulated kill).
        let outcome = mech.step(&observer, &mut rng).unwrap();
        let events = events_for_round(&outcome);
        sink.append(&events[0]).unwrap();
        sink.append(&events[1]).unwrap();
        sink.partial_path().to_path_buf()
    };
    assert!(!path.exists(), "no finished journal should appear");
    assert!(partial.exists(), "the kill must leave the partial behind");

    let rec = recover_journal(&partial).unwrap();
    assert_eq!(rec.view.settled_rounds(), 5);
    assert!(!rec.view.completed());
    assert_eq!(rec.events_replayed - rec.events_kept(), 2);
    let stop = rec.stop.expect("mid-round truncation must be reported");
    assert!(stop.reason.contains("mid-round"), "{}", stop.reason);
    // The recovered prefix is itself a valid journal.
    load_journal_text(&rec.kept_text, "recovered.jsonl").unwrap();
    std::fs::remove_file(&partial).unwrap();
}

#[test]
fn stale_partial_is_refused_and_preserved() {
    // A crashed run's `<path>.partial` is recoverable evidence; starting a
    // new journal at the same path must refuse loudly, not clobber it.
    let path = temp_path("stale_partial");
    let partial = path.with_extension("jsonl.partial");
    let evidence = "this is the dead run's history\n";
    std::fs::write(&partial, evidence).unwrap();

    let err = JournalSink::create(&path).expect_err("stale partial must refuse");
    let msg = err.to_string();
    assert!(msg.contains("refusing to start journal"), "{msg}");
    assert!(msg.contains("journal recover"), "{msg}");
    assert_eq!(
        std::fs::read_to_string(&partial).unwrap(),
        evidence,
        "the stale partial must be untouched"
    );

    // Once the partial is cleared, the same path works again.
    std::fs::remove_file(&partial).unwrap();
    let sink = JournalSink::create(&path).unwrap();
    drop(sink);
    std::fs::remove_file(path.with_extension("jsonl.partial")).unwrap();
}

#[test]
fn budget_journal_records_only_settled_rounds() {
    // Probe a typical per-round payment, then cap at ~6 rounds.
    let s = scenario(3, 10, 3, 400);
    let mut rng = SimRng::new(11);
    let mut probe = BudgetedCmabHs::new(s.config.clone(), 1e12).unwrap();
    let full = probe.run(&s.observer(), &mut rng).unwrap();
    let per_round = full.spent / full.ledger.rounds() as f64;

    let path = temp_path("budget");
    let s2 = scenario(3, 10, 3, 400);
    let mut rng2 = SimRng::new(11);
    let mut mech = BudgetedCmabHs::new(s2.config.clone(), per_round * 6.0).unwrap();
    let mut sink = JournalSink::create(&path).unwrap();
    sink.append(&MarketEvent::JobPublished {
        job: s2.config.job.clone(),
    })
    .unwrap();
    let run = mech
        .run_with(&s2.observer(), &mut rng2, |outcome| {
            for event in events_for_round(outcome) {
                sink.append(&event).unwrap();
            }
        })
        .unwrap();
    assert_eq!(run.stop_reason, StopReason::BudgetExhausted);
    let rounds = sink.state().settled_rounds();
    sink.append(&MarketEvent::JobCompleted { rounds }).unwrap();
    let report = sink.finish().unwrap();

    assert!(report.completed);
    assert_eq!(report.settled_rounds, run.ledger.rounds());
    // The journal's settled money equals the ledger's spend: the rejected
    // round is absent from both.
    let journaled = load_journal(&path).unwrap().consumer_total();
    assert!((journaled - run.spent).abs() < 1e-9);
    std::fs::remove_file(&path).unwrap();
}
