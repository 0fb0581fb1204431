//! Offline trace analysis: rebuild summary metrics from a JSONL event
//! trace (`cdt obs summarize <trace.jsonl>`).
//!
//! A live run publishes phase histograms and cache counters to the global
//! registry as it goes; this module reconstructs the same registry shape
//! from a trace written earlier (`--obs-events`), so the one summary
//! renderer ([`render_summary`]) serves both the live `--obs-summary` path
//! and post-hoc analysis of a file.

use crate::codec::TraceLine;
use crate::event::Phase;
use crate::latency::LatencyHistogram;
use crate::metrics::MetricsRegistry;
use crate::record::EventRecord;
use crate::summary::render_summary;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// Aggregate statistics parsed out of one JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Records that parsed as [`EventRecord`]s.
    pub events: u64,
    /// Non-empty lines that did not parse (skipped, not fatal).
    pub malformed: u64,
    /// Distinct run labels seen.
    pub runs: usize,
    /// Completed rounds (`round_end` records).
    pub rounds: u64,
    /// Engine busy time summed over every phase sample, in nanoseconds.
    pub busy_ns: u64,
    /// Market-protocol journal events (`cdt-protocol` `MarketEvent` lines,
    /// as written by a `--journal` run) found in the file.
    pub protocol_events: u64,
    /// Settled rounds among those journal events (`PaymentsSettled` lines).
    pub settled_rounds: u64,
    /// Causal spans (`"event":"span"` lines from an `--obs-spans` run).
    pub spans: u64,
    /// Watchdog health events (`"event":"health"` lines).
    pub health_events: u64,
}

impl TraceStats {
    /// Completed rounds per second of summed engine busy time. Zero when
    /// the trace carries no timing samples.
    #[must_use]
    pub fn rounds_per_sec(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.rounds as f64 * 1e9 / self.busy_ns as f64
        }
    }
}

/// Parses the JSONL trace at `path` into a fresh [`MetricsRegistry`] with
/// the same metric families a live run publishes (round/event counters,
/// per-phase latency histograms), plus [`TraceStats`].
///
/// Malformed lines are counted and skipped so a truncated trace (e.g. from
/// a killed run) still summarizes.
///
/// # Errors
/// Propagates I/O errors opening or reading the file.
pub fn registry_from_trace(path: &Path) -> io::Result<(MetricsRegistry, TraceStats)> {
    let reader = BufReader::new(File::open(path)?);

    let mut runs = BTreeSet::new();
    let mut events = 0u64;
    let mut malformed = 0u64;
    let mut rounds = 0u64;
    let mut protocol_events = 0u64;
    let mut settled_rounds = 0u64;
    let mut spans = 0u64;
    let mut health_events = 0u64;
    let mut health_by_kind: Vec<(&'static str, u64)> = Vec::new();
    let mut phase_hists: [LatencyHistogram; 4] = std::array::from_fn(|_| LatencyHistogram::new());

    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let record = match TraceLine::decode(line) {
            Ok(TraceLine::Event(record)) => record,
            Ok(TraceLine::Span(_)) => {
                spans += 1;
                continue;
            }
            Ok(TraceLine::Health(health)) => {
                health_events += 1;
                let kind = health.kind.as_str();
                match health_by_kind.iter_mut().find(|(k, _)| *k == kind) {
                    Some((_, count)) => *count += 1,
                    None => health_by_kind.push((kind, 1)),
                }
                continue;
            }
            Ok(TraceLine::Journal(kind)) => {
                protocol_events += 1;
                settled_rounds += u64::from(kind == "PaymentsSettled");
                continue;
            }
            Err(_) => {
                malformed += 1;
                continue;
            }
        };
        events += 1;
        runs.insert(record.run().to_owned());
        match &record {
            EventRecord::RoundEnd {
                selection_ns,
                solve_ns,
                observe_ns,
                ..
            } => {
                rounds += 1;
                phase_hists[Phase::Selection as usize].record_ns(*selection_ns);
                phase_hists[Phase::Solve as usize].record_ns(*solve_ns);
                phase_hists[Phase::Observe as usize].record_ns(*observe_ns);
            }
            EventRecord::Regret { account_ns, .. } => {
                phase_hists[Phase::Account as usize].record_ns(*account_ns);
            }
            _ => {}
        }
    }

    let registry = MetricsRegistry::new();
    registry.add_counter("cdt_obs_rounds_total", &[], rounds);
    registry.add_counter("cdt_obs_events_total", &[], events);
    if protocol_events > 0 {
        registry.add_counter("cdt_obs_protocol_events_total", &[], protocol_events);
        registry.add_counter("cdt_obs_protocol_settled_rounds", &[], settled_rounds);
    }
    if spans > 0 {
        registry.add_counter("cdt_obs_spans_total", &[], spans);
    }
    for (kind, count) in &health_by_kind {
        registry.add_counter("cdt_obs_health_events_total", &[("kind", kind)], *count);
    }
    let mut busy_ns = 0u64;
    for phase in Phase::ALL {
        let hist = &phase_hists[phase as usize];
        if hist.count() > 0 {
            busy_ns += hist.sum_ns();
            registry.merge_histogram("cdt_obs_round_phase_ns", &[("phase", phase.as_str())], hist);
        }
    }

    let stats = TraceStats {
        events,
        malformed,
        runs: runs.len(),
        rounds,
        busy_ns,
        protocol_events,
        settled_rounds,
        spans,
        health_events,
    };
    Ok((registry, stats))
}

/// Renders the human summary of the trace at `path`: the standard
/// [`render_summary`] table over the reconstructed registry, framed by the
/// trace provenance and a rounds-per-second throughput line.
///
/// # Errors
/// Propagates I/O errors from [`registry_from_trace`].
pub fn summarize_trace(path: &Path) -> io::Result<String> {
    let (registry, stats) = registry_from_trace(path)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} ({} events / {} runs)",
        path.display(),
        stats.events,
        stats.runs
    );
    if stats.malformed > 0 {
        let _ = writeln!(out, "skipped {} malformed lines", stats.malformed);
    }
    if stats.spans > 0 {
        let _ = writeln!(
            out,
            "spans: {} (analyze with `cdt obs flame` / `cdt obs critical-path`)",
            stats.spans
        );
    }
    out.push_str(&render_summary(&registry));
    if stats.rounds > 0 && stats.busy_ns > 0 {
        let _ = writeln!(
            out,
            "throughput: {:.0} rounds/sec (engine busy time)",
            stats.rounds_per_sec()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::json::to_string;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "cdt-obs-analyze-{}-{name}.jsonl",
            std::process::id()
        ));
        p
    }

    fn write_trace(name: &str, lines: &[String]) -> PathBuf {
        let path = temp_path(name);
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    }

    fn round_end(run: &str, round: usize) -> String {
        to_string(&EventRecord::RoundEnd {
            run: run.into(),
            round,
            observed_revenue: 1.0,
            consumer_profit: 0.4,
            platform_profit: 0.3,
            seller_profit: 0.3,
            selection_ns: 1_000,
            solve_ns: 2_000,
            observe_ns: 3_000,
        })
    }

    fn equilibrium(run: &str, round: usize) -> String {
        to_string(&EventRecord::Equilibrium {
            run: run.into(),
            round,
            service_price: 1.0,
            collection_price: 0.5,
            sensing_times: vec![0.1],
            consumer_profit: 0.4,
            platform_profit: 0.3,
            seller_profit: 0.3,
        })
    }

    #[test]
    fn rebuilds_counters_histograms_and_cache_stats() {
        let path = write_trace(
            "full",
            &[
                equilibrium("a/seed1", 0),
                round_end("a/seed1", 0),
                equilibrium("a/seed1", 1),
                round_end("a/seed1", 1),
                equilibrium("a/seed1", 2),
                round_end("a/seed1", 2),
                equilibrium("b/seed2", 0),
                round_end("b/seed2", 0),
            ],
        );
        let (registry, stats) = registry_from_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(stats.events, 8);
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.rounds, 4);
        // 4 round_end records × (1000 + 2000 + 3000) ns.
        assert_eq!(stats.busy_ns, 24_000);
        assert!(stats.rounds_per_sec() > 0.0);

        assert_eq!(registry.counter_value("cdt_obs_rounds_total", &[]), 4);
    }

    #[test]
    fn summary_text_includes_phases_and_throughput() {
        let path = write_trace(
            "render",
            &[
                round_end("a/seed1", 0),
                round_end("a/seed1", 1),
                "not json at all".to_owned(),
            ],
        );
        let text = summarize_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert!(text.contains("(2 events / 1 runs)"), "got:\n{text}");
        assert!(text.contains("skipped 1 malformed lines"), "got:\n{text}");
        assert!(text.contains("rounds: 2"), "got:\n{text}");
        assert!(text.contains("selection"), "got:\n{text}");
        assert!(text.contains("throughput:"), "got:\n{text}");
    }

    #[test]
    fn protocol_journal_lines_are_recognized_not_malformed() {
        let path = write_trace(
            "journal",
            &[
                r#"{"JobPublished":{"job":{"l":4,"n":2,"t":10.0}}}"#.to_owned(),
                r#"{"SellersSelected":{"round":0,"sellers":[0,1]}}"#.to_owned(),
                r#"{"PaymentsSettled":{"round":0,"consumer_payment":20.0,"seller_payments":[3.0,4.5]}}"#
                    .to_owned(),
                r#"{"JobCompleted":{"rounds":1}}"#.to_owned(),
                "really not json".to_owned(),
                r#"{"two":"keys","so":"not a MarketEvent"}"#.to_owned(),
            ],
        );
        let (registry, stats) = registry_from_trace(&path).unwrap();
        let text = summarize_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(stats.protocol_events, 4);
        assert_eq!(stats.settled_rounds, 1);
        assert_eq!(stats.malformed, 2);
        assert_eq!(
            registry.counter_value("cdt_obs_protocol_events_total", &[]),
            4
        );
        assert_eq!(
            registry.counter_value("cdt_obs_protocol_settled_rounds", &[]),
            1
        );
        assert!(
            text.contains("protocol journal: 4 events / 1 settled rounds"),
            "got:\n{text}"
        );
    }

    #[test]
    fn span_and_health_lines_are_recognized_not_malformed() {
        use crate::span::{SpanId, SpanRecord, TraceId};
        let span = to_string(&SpanRecord::new(
            TraceId(1),
            SpanId(2),
            None,
            "run",
            0,
            1_000,
        ));
        let health = r#"{"event":"health","kind":"slow_round","t_ns":9,"worker":null,"observed_ns":50,"threshold_ns":10}"#;
        let path = write_trace(
            "spans",
            &[
                span.clone(),
                span,
                health.to_owned(),
                round_end("a/seed1", 0),
            ],
        );
        let (registry, stats) = registry_from_trace(&path).unwrap();
        let text = summarize_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(stats.spans, 2);
        assert_eq!(stats.health_events, 1);
        assert_eq!(stats.malformed, 0);
        assert_eq!(stats.events, 1);
        assert_eq!(registry.counter_value("cdt_obs_spans_total", &[]), 2);
        assert_eq!(
            registry.counter_value("cdt_obs_health_events_total", &[("kind", "slow_round")]),
            1
        );
        assert!(text.contains("spans: 2"), "got:\n{text}");
        assert!(text.contains("health events"), "got:\n{text}");
    }

    #[test]
    fn empty_trace_summarizes_without_throughput_line() {
        let path = write_trace("empty", &[String::new()]);
        let text = summarize_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("rounds: 0"));
        assert!(!text.contains("throughput:"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("definitely-not-created");
        assert!(summarize_trace(&path).is_err());
    }
}
