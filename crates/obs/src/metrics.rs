//! A metrics registry: counters, gauges, and log-bucketed latency
//! histograms, keyed by `(family, labels)`. Each observability session
//! ([`crate::Session`]) owns one.
//!
//! The registry is deliberately tiny — a mutex around a sorted map — because
//! every hot path batches locally and publishes once (per worker, per run),
//! never per round. Families follow the Prometheus naming convention and are
//! all prefixed `cdt_obs_`.

use crate::latency::LatencyHistogram;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A metric identity: family name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric family, e.g. `cdt_obs_pool_worker_jobs_total`.
    pub family: String,
    /// Label pairs, e.g. `[("worker", "3")]`. Empty for unlabeled metrics.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(family: &str, labels: &[(&str, &str)]) -> Self {
        Self {
            family: family.to_owned(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect(),
        }
    }

    /// Renders the labels as `{k="v",…}` (empty string when unlabeled).
    #[must_use]
    pub fn label_suffix(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let parts: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// One metric's current value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A log-bucketed latency distribution (nanoseconds).
    Histogram(LatencyHistogram),
}

/// A threadsafe registry of named metrics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<MetricKey, Metric>> {
        // Observability must never take the process down: a poisoned lock
        // just means a panicking thread died mid-update; the map is still
        // structurally sound.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds `by` to a counter (creating it at 0).
    pub fn add_counter(&self, family: &str, labels: &[(&str, &str)], by: u64) {
        let key = MetricKey::new(family, labels);
        let mut map = self.lock();
        match map.entry(key).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c = c.saturating_add(by),
            other => debug_assert!(false, "{family} is not a counter: {other:?}"),
        }
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, family: &str, labels: &[(&str, &str)], value: f64) {
        let key = MetricKey::new(family, labels);
        self.lock().insert(key, Metric::Gauge(value));
    }

    /// Merges a locally accumulated histogram into a registry histogram —
    /// the batched publish hot paths use instead of per-event locking.
    pub fn merge_histogram(&self, family: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        if h.count() == 0 {
            return;
        }
        let key = MetricKey::new(family, labels);
        let mut map = self.lock();
        match map
            .entry(key)
            .or_insert_with(|| Metric::Histogram(LatencyHistogram::new()))
        {
            Metric::Histogram(existing) => existing.merge(h),
            other => debug_assert!(false, "{family} is not a histogram: {other:?}"),
        }
    }

    /// A sorted snapshot of every metric (family, then labels).
    #[must_use]
    pub fn snapshot(&self) -> Vec<(MetricKey, Metric)> {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// The current value of a counter (0 when absent).
    #[must_use]
    pub fn counter_value(&self, family: &str, labels: &[(&str, &str)]) -> u64 {
        match self.lock().get(&MetricKey::new(family, labels)) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.add_counter("cdt_obs_test_total", &[], 2);
        r.add_counter("cdt_obs_test_total", &[], 3);
        assert_eq!(r.counter_value("cdt_obs_test_total", &[]), 5);
    }

    #[test]
    fn labels_separate_series() {
        let r = MetricsRegistry::new();
        r.add_counter("jobs", &[("worker", "0")], 1);
        r.add_counter("jobs", &[("worker", "1")], 7);
        assert_eq!(r.counter_value("jobs", &[("worker", "0")]), 1);
        assert_eq!(r.counter_value("jobs", &[("worker", "1")]), 7);
        assert_eq!(r.counter_value("jobs", &[]), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.set_gauge("threads", &[], 4.0);
        r.set_gauge("threads", &[], 8.0);
        match &r.snapshot()[0].1 {
            Metric::Gauge(v) => assert_eq!(*v, 8.0),
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn histograms_record_and_merge() {
        let r = MetricsRegistry::new();
        let mut local = LatencyHistogram::new();
        local.record_ns(1_000);
        r.merge_histogram("lat", &[], &local);
        local.record_ns(2_000);
        local.record_ns(3_000);
        r.merge_histogram("lat", &[], &local);
        match &r.snapshot()[0].1 {
            Metric::Histogram(h) => {
                assert_eq!(h.count(), 4);
                assert_eq!(h.sum_ns(), 7_000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = MetricsRegistry::new();
        assert!(r.snapshot().is_empty());
        r.add_counter("b_total", &[], 1);
        r.add_counter("a_total", &[], 1);
        let snap = r.snapshot();
        assert_eq!(snap[0].0.family, "a_total");
        assert_eq!(snap[1].0.family, "b_total");
    }

    #[test]
    fn label_suffix_renders() {
        let key = MetricKey::new("x", &[("phase", "solve"), ("worker", "2")]);
        assert_eq!(key.label_suffix(), "{phase=\"solve\",worker=\"2\"}");
        assert_eq!(MetricKey::new("x", &[]).label_suffix(), "");
    }
}
