//! Protocol-journal contract tests, over the mechanism's one trading
//! loop (`CmabHs::run`) with the journal written from its `settle` step,
//! as `cdt run` and `cdt budget` write it.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Byte identity** — the streamed journal holds, for the same seed,
//!    exactly the bytes of the whole-buffer path (the run's settled
//!    outcomes as Fig. 2 events in an [`EventLog`], serialized once), with
//!    spans and the watchdog on or off; and the journaled run's ledger is
//!    bit-identical to an unjournaled run (journaling is passive).
//! 2. **Crash safety** — a run that dies mid-round leaves a
//!    `<path>.partial` whose settled-round prefix recovers cleanly.
//! 3. **Budget semantics** — a budgeted run journals exactly the rounds
//!    the consumer settled; the budget-refused final round never reaches
//!    the journal.

use cdt_core::{Budget, CmabHs, NullObserver, RoundOutcome, Scenario, TradingLedger};
use cdt_obs::{ObsConfig, Session};
use cdt_protocol::{
    load_journal, load_journal_text, recover_journal, EventLog, JournalReport, JournalSink,
    MarketEvent,
};
use cdt_types::{CdtError, SimRng};
use std::error::Error;
use std::path::Path;

fn scenario(seed: u64, m: usize, k: usize, n: usize) -> Scenario {
    let mut rng = SimRng::new(seed);
    Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap()
}

/// A throwaway path in the system temp dir, unique per test name.
fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cdt_journal_{}_{name}.jsonl", std::process::id()))
}

/// Runs `s` with every round settled and nothing journaled.
fn plain_run(s: &Scenario, rng: &mut SimRng) -> TradingLedger {
    let mut ledger = TradingLedger::default();
    CmabHs::new(s.config.clone())
        .run(&s.observer(), rng, &mut NullObserver, |o, _| {
            ledger.record(o);
            Ok::<_, CdtError>(true)
        })
        .unwrap();
    ledger
}

/// Runs `s` as `cdt run` and `cdt budget` do: the journal at `path`
/// publishes the job, the session's run observer (when it is enabled)
/// observes every round, each round `admit` accepts is journaled as it
/// settles, and the journal completes once the observer is gone. Returns
/// the ledger, the journal's report and the settled outcomes.
fn journaled_run(
    s: &Scenario,
    rng: &mut SimRng,
    path: &Path,
    session: &Session,
    mut admit: impl FnMut(&RoundOutcome) -> bool,
) -> (TradingLedger, JournalReport, Vec<RoundOutcome>) {
    let mut mech = CmabHs::new(s.config.clone());
    let mut sink = JournalSink::create_with(path, None, session).unwrap();
    sink.append(&MarketEvent::JobPublished {
        job: s.config.job.clone(),
    })
    .unwrap();
    let mut ledger = TradingLedger::default();
    let mut settled = Vec::new();
    let mut settle = |o: &RoundOutcome| -> Result<bool, Box<dyn Error>> {
        if !admit(o) {
            return Ok(false);
        }
        sink.append_round(o)?;
        ledger.record(o);
        settled.push(o.clone());
        Ok(true)
    };
    match session.observer_for_run("cmab-hs") {
        Some(mut observer) => mech.run(&s.observer(), rng, &mut observer, |o, _| settle(o)),
        None => mech.run(&s.observer(), rng, &mut NullObserver, |o, _| settle(o)),
    }
    .unwrap();
    let rounds = sink.state().settled_rounds();
    sink.append(&MarketEvent::JobCompleted { rounds }).unwrap();
    (ledger, sink.finish().unwrap(), settled)
}

/// The whole-buffer oracle: `outcomes` as Fig. 2 events in an
/// [`EventLog`], each settlement paying `p^J · Στ` and `p · τ_i`.
fn buffered_journal(s: &Scenario, outcomes: &[RoundOutcome]) -> String {
    let mut log = EventLog::new();
    log.append(MarketEvent::JobPublished {
        job: s.config.job.clone(),
    })
    .unwrap();
    for o in outcomes {
        let (round, strategy) = (o.round, &o.strategy);
        for event in [
            MarketEvent::SellersSelected {
                round,
                sellers: o.selected.clone(),
            },
            MarketEvent::StrategyDetermined {
                round,
                service_price: strategy.service_price,
                collection_price: strategy.collection_price,
                sensing_times: strategy.sensing_times.clone(),
            },
            MarketEvent::DataCollected {
                round,
                observed_revenue: o.observed_revenue,
            },
            MarketEvent::StatisticsDelivered { round },
            MarketEvent::PaymentsSettled {
                round,
                consumer_payment: strategy.consumer_payment(),
                seller_payments: strategy
                    .sensing_times
                    .iter()
                    .map(|&tau| strategy.collection_price * tau)
                    .collect(),
            },
        ] {
            log.append(event).unwrap();
        }
    }
    log.append(MarketEvent::JobCompleted {
        rounds: outcomes.len(),
    })
    .unwrap();
    log.to_json_lines()
}

#[test]
fn streamed_journal_is_byte_identical_to_buffered_path() {
    let (seed, m, k, n) = (42, 16, 3, 60);
    let path = temp_path("byte_identity");
    let mut rng = SimRng::new(seed);
    let s = Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap();
    let (journaled, report, outcomes) =
        journaled_run(&s, &mut rng, &path, &Session::disabled(), |_| true);
    assert!(report.completed);
    assert_eq!(report.settled_rounds, n);
    assert_eq!(report.events as usize, 2 + 5 * n);

    let streamed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        streamed,
        buffered_journal(&s, &outcomes),
        "streamed journal bytes diverge from the buffered serialization"
    );

    // Journaling is passive: the same seed without it gives a
    // bit-identical ledger.
    let mut rng2 = SimRng::new(seed);
    let s2 = Scenario::paper_defaults(m, k, 4, n, &mut rng2).unwrap();
    assert_eq!(
        journaled,
        plain_run(&s2, &mut rng2),
        "journaling changed the run"
    );

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn journal_bytes_identical_with_spans_and_watchdog() {
    let (seed, m, k, n) = (42, 14, 3, 50);

    // Reference journal: observed by nothing.
    let path_off = temp_path("spans_off");
    let mut rng = SimRng::new(seed);
    let s = Scenario::paper_defaults(m, k, 4, n, &mut rng).unwrap();
    let (ledger_off, ..) = journaled_run(&s, &mut rng, &path_off, &Session::disabled(), |_| true);

    // Same seed with span tracing and the watchdog on, every round
    // observed by the run's observer as `cdt run` observes it: spans and
    // health records go to their own events file, so the journal bytes —
    // and the ledger — must be bit-for-bit identical to the untraced run.
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
    let (ledger_on, ..) = journaled_run(&s2, &mut rng2, &path_on, &session, |_| true);
    session.finish().unwrap();
    let traced = std::fs::read_to_string(&events).unwrap();
    assert!(traced.contains(r#""name":"journal_write""#), "{traced}");
    assert!(traced.contains(r#""name":"round""#), "{traced}");

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
        let mut mech = CmabHs::new(s.config.clone());
        let mut sink = JournalSink::create(&path).unwrap();
        sink.append(&MarketEvent::JobPublished {
            job: s.config.job.clone(),
        })
        .unwrap();
        // Five rounds settle; the kill lands two events into the sixth
        // round's settlement, and the sink is dropped unfinished.
        mech.run(&s.observer(), &mut rng, &mut NullObserver, |o, _| {
            if o.round.index() < 5 {
                sink.append_round(o)?;
                return Ok(true);
            }
            sink.append(&MarketEvent::SellersSelected {
                round: o.round,
                sellers: o.selected.clone(),
            })?;
            sink.append(&MarketEvent::StrategyDetermined {
                round: o.round,
                service_price: o.strategy.service_price,
                collection_price: o.strategy.collection_price,
                sensing_times: o.strategy.sensing_times.clone(),
            })?;
            Ok::<_, Box<dyn Error>>(false)
        })
        .unwrap();
        sink.partial_path().to_path_buf()
    };
    assert!(!path.exists(), "no finished journal should appear");
    assert!(partial.exists(), "the kill must leave the partial behind");

    let rec = recover_journal(&partial, true).unwrap();
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
    let full = plain_run(&s, &mut SimRng::new(11));
    let per_round = full.total_consumer_payment() / full.rounds() as f64;

    let path = temp_path("budget");
    let mut budget = Budget::new(per_round * 6.0).unwrap();
    let (ledger, report, settled) =
        journaled_run(&s, &mut SimRng::new(11), &path, &Session::disabled(), |o| {
            budget.admit(o)
        });
    assert!(ledger.rounds() < 400, "the cap must bind");
    assert!(report.completed);
    assert_eq!(report.settled_rounds, ledger.rounds());
    assert_eq!(settled.len(), ledger.rounds());
    // The journal's settled money is the budget's spend, bit for bit: the
    // refused round is absent from both.
    let journaled = load_journal(&path).unwrap().consumer_total();
    assert_eq!(journaled.to_bits(), budget.spent().to_bits());
    std::fs::remove_file(&path).unwrap();
}
