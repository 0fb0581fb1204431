//! One-time warnings, counted in the metrics registry.
//!
//! [`Warnings::warn`] always increments `cdt_obs_warnings_total{kind=...}`
//! but prints the message to stderr only the first time that `kind` fires
//! in its session — configuration mistakes (an unparseable `CDT_THREADS`,
//! say) surface exactly once, while the counter still shows how often the
//! bad path was hit.

use crate::metrics::MetricsRegistry;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The warning kinds one session has already printed.
#[derive(Debug, Default)]
pub struct Warnings {
    seen: Mutex<BTreeSet<String>>,
}

impl Warnings {
    /// Counts a warning under `kind` in `registry`; prints `message` only
    /// on `kind`'s first occurrence. Returns `true` when the message was
    /// printed.
    pub fn warn(&self, registry: &MetricsRegistry, kind: &str, message: &str) -> bool {
        registry.add_counter("cdt_obs_warnings_total", &[("kind", kind)], 1);
        let mut seen = self.seen.lock().unwrap_or_else(|e| e.into_inner());
        if seen.contains(kind) {
            return false;
        }
        seen.insert(kind.to_owned());
        eprintln!("warning: {message}");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_once_but_counts_every_time() {
        let (warnings, registry) = (Warnings::default(), MetricsRegistry::new());
        let kind = "warn-unit-test";
        assert!(warnings.warn(&registry, kind, "first"));
        assert!(!warnings.warn(&registry, kind, "second"));
        assert!(!warnings.warn(&registry, kind, "third"));
        let count = registry.counter_value("cdt_obs_warnings_total", &[("kind", kind)]);
        assert_eq!(count, 3);
    }
}
