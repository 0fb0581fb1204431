//! End-of-run human summary: a plain-text table over the metrics registry.

use crate::event::Phase;
use crate::metrics::{Metric, MetricKey, MetricsRegistry};
use std::fmt::Write as _;

fn label_value<'a>(key: &'a MetricKey, name: &str) -> Option<&'a str> {
    key.labels
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders the human-readable end-of-run summary of `registry`.
#[must_use]
pub fn render_summary(registry: &MetricsRegistry) -> String {
    let snapshot = registry.snapshot();
    let mut out = String::new();
    let _ = writeln!(out, "== observability summary ==");

    let counter = |family: &str| {
        snapshot
            .iter()
            .filter(|(k, _)| k.family == family)
            .filter_map(|(_, m)| match m {
                Metric::Counter(c) => Some(*c),
                _ => None,
            })
            .sum::<u64>()
    };
    let _ = writeln!(
        out,
        "rounds: {}   events: {}",
        counter("cdt_obs_rounds_total"),
        counter("cdt_obs_events_total")
    );

    // Event-trace sampling factor (`--obs-events-sample`): qualifies the
    // events count above — metrics still cover every round.
    let sample = snapshot.iter().find_map(|(k, m)| match m {
        Metric::Gauge(v) if k.family == "cdt_obs_events_sample" => Some(*v),
        _ => None,
    });
    if let Some(s) = sample.filter(|&s| s > 1.0) {
        let _ = writeln!(out, "event trace sampled: every {s:.0}th round");
    }

    // Watchdog health events, by kind (only after at least one fired).
    let mut health: Vec<(&str, u64)> = snapshot
        .iter()
        .filter(|(k, _)| k.family == "cdt_obs_health_events_total")
        .filter_map(|(k, m)| match m {
            Metric::Counter(c) => label_value(k, "kind").map(|kind| (kind, *c)),
            _ => None,
        })
        .collect();
    if !health.is_empty() {
        health.sort_by(|a, b| a.0.cmp(b.0));
        let parts: Vec<String> = health
            .iter()
            .map(|(kind, count)| format!("{count} {kind}"))
            .collect();
        let _ = writeln!(out, "health events: {}", parts.join(", "));
    }

    // Protocol journal (the JournalSink member of the sink family).
    let protocol_events = counter("cdt_obs_protocol_events_total");
    let settled = counter("cdt_obs_protocol_settled_rounds");
    let violations = counter("cdt_obs_protocol_violations_total");
    if protocol_events + settled + violations > 0 {
        let _ = write!(
            out,
            "protocol journal: {protocol_events} events / {settled} settled rounds"
        );
        if violations > 0 {
            let _ = write!(out, ", {violations} violations rejected");
        }
        let _ = writeln!(out);
    }
    let journal_hist = snapshot.iter().find_map(|(k, m)| match m {
        Metric::Histogram(h) if k.family == "cdt_obs_journal_write_ns" => Some(h),
        _ => None,
    });
    if let Some(h) = journal_hist {
        let _ = writeln!(
            out,
            "journal writes: {} in {} (mean {}, p50 {}, p99 {})",
            h.count(),
            fmt_ns(h.sum_ns() as f64),
            fmt_ns(h.mean_ns()),
            fmt_ns(h.quantile_ns(0.5).unwrap_or(0) as f64),
            fmt_ns(h.quantile_ns(0.99).unwrap_or(0) as f64),
        );
    }

    // Journal segment rotation and compaction (only once either ticked).
    let segments = counter("cdt_obs_journal_segments_total");
    let compactions = counter("cdt_obs_journal_compactions_total");
    if segments + compactions > 0 {
        let _ = write!(out, "journal segments: {segments} sealed");
        if compactions > 0 {
            let _ = write!(
                out,
                ", {compactions} compaction{} ({} rounds folded)",
                if compactions == 1 { "" } else { "s" },
                counter("cdt_obs_journal_compacted_rounds_total")
            );
        }
        let _ = writeln!(out);
    }

    // Per-phase latency table.
    let mut phase_rows = Vec::new();
    for phase in Phase::ALL {
        let hist = snapshot.iter().find_map(|(k, m)| match m {
            Metric::Histogram(h)
                if k.family == "cdt_obs_round_phase_ns"
                    && label_value(k, "phase") == Some(phase.as_str()) =>
            {
                Some(h)
            }
            _ => None,
        });
        if let Some(h) = hist {
            phase_rows.push((
                phase.as_str(),
                fmt_ns(h.sum_ns() as f64),
                fmt_ns(h.mean_ns()),
                fmt_ns(h.quantile_ns(0.5).unwrap_or(0) as f64),
                fmt_ns(h.quantile_ns(0.99).unwrap_or(0) as f64),
            ));
        }
    }
    if !phase_rows.is_empty() {
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "total", "mean", "p50", "p99"
        );
        for (name, total, mean, p50, p99) in phase_rows {
            let _ = writeln!(out, "{name:<10} {total:>10} {mean:>10} {p50:>10} {p99:>10}");
        }
    }

    // Per-worker pool table.
    let mut workers: Vec<(String, u64, u64, u64)> = Vec::new();
    for (key, metric) in &snapshot {
        if key.family != "cdt_obs_pool_worker_jobs_total" {
            continue;
        }
        let Some(worker) = label_value(key, "worker") else {
            continue;
        };
        let Metric::Counter(jobs) = metric else {
            continue;
        };
        let lookup = |family: &str| {
            snapshot
                .iter()
                .find_map(|(k, m)| match m {
                    Metric::Counter(c)
                        if k.family == family && label_value(k, "worker") == Some(worker) =>
                    {
                        Some(*c)
                    }
                    _ => None,
                })
                .unwrap_or(0)
        };
        workers.push((
            worker.to_owned(),
            *jobs,
            lookup("cdt_obs_pool_worker_busy_ns_total"),
            lookup("cdt_obs_pool_worker_idle_ns_total"),
        ));
    }
    if !workers.is_empty() {
        workers.sort_by_key(|(w, ..)| w.parse::<usize>().unwrap_or(usize::MAX));
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>10} {:>10}",
            "worker", "jobs", "busy", "idle"
        );
        for (worker, jobs, busy, idle) in workers {
            let _ = writeln!(
                out,
                "{:<8} {:>8} {:>10} {:>10}",
                worker,
                jobs,
                fmt_ns(busy as f64),
                fmt_ns(idle as f64)
            );
        }
    }

    // Warnings, by kind.
    for (key, metric) in &snapshot {
        if key.family == "cdt_obs_warnings_total" {
            if let (Metric::Counter(c), Some(kind)) = (metric, label_value(key, "kind")) {
                let _ = writeln!(out, "warning[{kind}]: {c}x");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyHistogram;

    #[test]
    fn renders_rounds_phases_and_workers() {
        let r = MetricsRegistry::new();
        r.add_counter("cdt_obs_rounds_total", &[], 100);
        r.add_counter("cdt_obs_events_total", &[], 600);
        let mut h = LatencyHistogram::new();
        h.record_ns(10_000);
        h.record_ns(20_000);
        r.merge_histogram("cdt_obs_round_phase_ns", &[("phase", "solve")], &h);
        r.add_counter("cdt_obs_pool_worker_jobs_total", &[("worker", "0")], 7);
        r.add_counter(
            "cdt_obs_pool_worker_busy_ns_total",
            &[("worker", "0")],
            5_000_000,
        );
        r.add_counter("cdt_obs_warnings_total", &[("kind", "cdt-threads")], 2);

        let text = render_summary(&r);
        assert!(text.contains("rounds: 100   events: 600"));
        assert!(text.contains("solve"), "got:\n{text}");
        assert!(text.contains("worker"), "got:\n{text}");
        assert!(text.contains("warning[cdt-threads]: 2x"));
    }

    #[test]
    fn empty_registry_still_renders_header() {
        let text = render_summary(&MetricsRegistry::new());
        assert!(text.starts_with("== observability summary =="));
        assert!(text.contains("rounds: 0"));
    }

    #[test]
    fn protocol_journal_lines_render_counts_and_latency() {
        let r = MetricsRegistry::new();
        assert!(!render_summary(&r).contains("protocol journal"));
        r.add_counter("cdt_obs_protocol_events_total", &[], 42);
        r.add_counter("cdt_obs_protocol_settled_rounds", &[], 8);
        let mut h = LatencyHistogram::new();
        h.record_ns(1_000);
        h.record_ns(3_000);
        r.merge_histogram("cdt_obs_journal_write_ns", &[], &h);
        let text = render_summary(&r);
        assert!(
            text.contains("protocol journal: 42 events / 8 settled rounds"),
            "got:\n{text}"
        );
        assert!(text.contains("journal writes: 2 in"), "got:\n{text}");
        r.add_counter("cdt_obs_protocol_violations_total", &[], 3);
        let text = render_summary(&r);
        assert!(text.contains("3 violations rejected"), "got:\n{text}");
    }

    #[test]
    fn journal_segments_line_renders_rotation_and_compaction() {
        let r = MetricsRegistry::new();
        assert!(!render_summary(&r).contains("journal segments"));
        r.add_counter("cdt_obs_journal_segments_total", &[], 5);
        let text = render_summary(&r);
        assert!(text.contains("journal segments: 5 sealed"), "got:\n{text}");
        assert!(!text.contains("compaction"), "got:\n{text}");
        r.add_counter("cdt_obs_journal_compactions_total", &[], 1);
        r.add_counter("cdt_obs_journal_compacted_rounds_total", &[], 12);
        let text = render_summary(&r);
        assert!(
            text.contains("journal segments: 5 sealed, 1 compaction (12 rounds folded)"),
            "got:\n{text}"
        );
    }

    #[test]
    fn sampling_line_renders_only_when_thinning() {
        let r = MetricsRegistry::new();
        assert!(!render_summary(&r).contains("sampled"));
        r.set_gauge("cdt_obs_events_sample", &[], 5.0);
        let text = render_summary(&r);
        assert!(
            text.contains("event trace sampled: every 5th round"),
            "got:\n{text}"
        );
    }

    #[test]
    fn health_line_renders_counts_by_kind() {
        let r = MetricsRegistry::new();
        assert!(!render_summary(&r).contains("health events"));
        r.add_counter("cdt_obs_health_events_total", &[("kind", "slow_round")], 2);
        r.add_counter(
            "cdt_obs_health_events_total",
            &[("kind", "stalled_worker")],
            1,
        );
        let text = render_summary(&r);
        assert!(
            text.contains("health events: 2 slow_round, 1 stalled_worker"),
            "got:\n{text}"
        );
    }

    #[test]
    fn human_units_scale() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(2_500.0), "2.50us");
        assert_eq!(fmt_ns(3_000_000.0), "3.00ms");
        assert_eq!(fmt_ns(1.5e9), "1.50s");
    }
}
