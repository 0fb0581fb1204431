//! Causal span tracing: process-unique trace/span identities, a shared
//! monotonic timebase, and the JSONL span record the sink family writes.
//!
//! A span is a named interval `[start_ns, start_ns + dur_ns)` on the
//! process-wide timebase, linked to its causal parent by id. Spans join the
//! same JSONL event family as [`crate::EventRecord`] (tagged
//! `"event":"span"`), so one `--obs-events` trace carries round events,
//! protocol journal lines, and the causal span tree side by side; the
//! offline analyzers (`cdt obs flame` / `cdt obs critical-path` in
//! [`crate::flame`]) rebuild the tree from that file.
//!
//! Like every observer in this crate, span emission is passive: producers
//! read the clock and buffer records, never touching RNG streams or engine
//! state, so results are bit-identical with tracing on or off.
//!
//! # Parentage
//!
//! Cross-thread parent links flow through an explicit *scope stack*: a
//! producer that opens a long-lived span (the CLI command, a pool
//! fan-out) pushes its id with [`enter_scope`]; spans opened
//! below it on the same thread parent to [`current_scope`]. Worker threads
//! do not inherit the spawner's stack — the pool passes its call-span id
//! into each worker, and each claim opens a `chunk` span under it that the
//! worker enters while the job runs, so the run span a job creates is the
//! child of its claim, which chains back to the fan-out that scheduled it.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A process-unique trace identity (one per span-tracing session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// A process-unique span identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Allocates the next trace id (never reused within a process).
#[must_use]
pub fn next_trace_id() -> TraceId {
    TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
}

/// Allocates the next span id (never reused within a process).
#[must_use]
pub fn next_span_id() -> SpanId {
    SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed))
}

/// The process-wide timebase origin, pinned on first use so span
/// timestamps are comparable across threads.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process timebase origin (monotonic).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One closed span, as written to the JSONL trace: `"event":"span"`
/// first, then every field in declaration order (see [`crate::codec`]).
///
/// Every key is always present (absent attributes are written as `null`),
/// so the line schema is golden-stable and greppable.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: u64,
    /// This span's identity.
    pub span: u64,
    /// The causal parent's span id; `null` for a root.
    pub parent: Option<u64>,
    /// What the interval covers (`"run"`, `"round"`, `"solve"`,
    /// `"pool"`, `"chunk"`, `"journal_write"`, …).
    pub name: String,
    /// The run label (`"cmab-hs/seed42"`) for run-scoped spans.
    pub run: Option<String>,
    /// The round index for round-scoped spans.
    pub round: Option<u64>,
    /// Start, nanoseconds on the process timebase ([`now_ns`]).
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Pool worker index, for pool-side spans.
    pub worker: Option<u64>,
}

impl SpanRecord {
    /// A span record with no attributes set.
    #[must_use]
    pub fn new(
        trace: TraceId,
        span: SpanId,
        parent: Option<SpanId>,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
    ) -> Self {
        Self {
            trace: trace.0,
            span: span.0,
            parent: parent.map(|p| p.0),
            name: name.to_owned(),
            run: None,
            round: None,
            start_ns,
            dur_ns,
            worker: None,
        }
    }

    /// Sets the run label.
    #[must_use]
    pub fn with_run(mut self, run: &str) -> Self {
        self.run = Some(run.to_owned());
        self
    }

    /// Sets the round index.
    #[must_use]
    pub fn with_round(mut self, round: u64) -> Self {
        self.round = Some(round);
        self
    }

    /// Sets the pool worker index.
    #[must_use]
    pub fn with_worker(mut self, worker: u64) -> Self {
        self.worker = Some(worker);
        self
    }
}

thread_local! {
    /// The scope stack: ids of the open ancestor spans on this thread.
    static SCOPE: RefCell<Vec<SpanId>> = const { RefCell::new(Vec::new()) };
    /// The innermost open *round* span on this thread (span id, round),
    /// so nested producers that only see wall time (journal writes) can
    /// still attribute themselves to the settling round.
    static ROUND_SCOPE: Cell<Option<(SpanId, u64)>> = const { Cell::new(None) };
}

/// The innermost scope span on the current thread, if any.
#[must_use]
pub fn current_scope() -> Option<SpanId> {
    SCOPE.with(|s| s.borrow().last().copied())
}

/// Pushes `id` onto this thread's scope stack; popped when the returned
/// guard drops. Spans opened below (on this thread) parent to `id`.
#[must_use]
pub fn enter_scope(id: SpanId) -> ScopeGuard {
    SCOPE.with(|s| s.borrow_mut().push(id));
    ScopeGuard { id }
}

/// Pops its scope span on drop (LIFO; mismatches are dropped defensively).
#[derive(Debug)]
pub struct ScopeGuard {
    id: SpanId,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                // Out-of-order teardown: remove our id wherever it is so
                // the stack never grows without bound.
                stack.retain(|&other| other != self.id);
            }
        });
    }
}

/// Marks `(span, round)` as the open round span on this thread.
pub fn set_round_scope(span: SpanId, round: u64) {
    ROUND_SCOPE.with(|r| r.set(Some((span, round))));
}

/// Clears the open round span, but only if it is still `span` (a later
/// round on this thread overwrites the mark; never clear a successor's).
pub fn clear_round_scope(span: SpanId) {
    ROUND_SCOPE.with(|r| {
        if r.get().map(|(id, _)| id) == Some(span) {
            r.set(None);
        }
    });
}

/// The innermost open round span on this thread: `(span id, round)`.
#[must_use]
pub fn current_round_scope() -> Option<(SpanId, u64)> {
    ROUND_SCOPE.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::keys_of;
    use cdt_types::json::{from_str, to_string};

    #[test]
    fn ids_are_unique_and_monotone() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(b.0 > a.0);
        let t1 = next_trace_id();
        let t2 = next_trace_id();
        assert!(t2.0 > t1.0);
    }

    #[test]
    fn timebase_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn scope_stack_nests_and_unwinds() {
        assert_eq!(current_scope(), None);
        let outer = next_span_id();
        let inner = next_span_id();
        {
            let _g1 = enter_scope(outer);
            assert_eq!(current_scope(), Some(outer));
            {
                let _g2 = enter_scope(inner);
                assert_eq!(current_scope(), Some(inner));
            }
            assert_eq!(current_scope(), Some(outer));
        }
        assert_eq!(current_scope(), None);
    }

    #[test]
    fn out_of_order_guard_drop_removes_only_its_id() {
        let a = next_span_id();
        let b = next_span_id();
        let g1 = enter_scope(a);
        let g2 = enter_scope(b);
        drop(g1); // a removed from the middle
        assert_eq!(current_scope(), Some(b));
        drop(g2);
        assert_eq!(current_scope(), None);
    }

    #[test]
    fn round_scope_is_overwrite_safe() {
        let a = next_span_id();
        let b = next_span_id();
        set_round_scope(a, 3);
        assert_eq!(current_round_scope(), Some((a, 3)));
        set_round_scope(b, 4); // the next round overwrites
        clear_round_scope(a); // a stale clear must not drop b's mark
        assert_eq!(current_round_scope(), Some((b, 4)));
        clear_round_scope(b);
        assert_eq!(current_round_scope(), None);
    }

    #[test]
    fn record_serializes_with_stable_tag_and_full_key_set() {
        let rec = SpanRecord::new(TraceId(1), SpanId(2), Some(SpanId(1)), "solve", 10, 20)
            .with_run("cmab-hs/seed1")
            .with_round(5);
        let json = to_string(&rec);
        assert!(json.contains("\"event\":\"span\""), "{json}");
        assert_eq!(
            keys_of(&json),
            [
                "event", "trace", "span", "parent", "name", "run", "round", "start_ns", "dur_ns",
                "worker"
            ]
        );
        let back: SpanRecord = from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn fourteen_key_trace_lines_still_deserialize() {
        // Traces written while spans still carried the `lane`, `batch` and
        // `cell` attributes have 14 keys, and those written while chunk
        // spans carried their size have 11; the analyzers must keep reading
        // both, ignoring the retired keys.
        let fourteen = r#"{"event":"span","trace":1,"span":2,"parent":null,"name":"chunk",
            "run":null,"round":null,"start_ns":0,"dur_ns":1,"worker":3,
            "lane":2,"batch":4,"chunk":5,"cell":7}"#;
        let eleven = r#"{"event":"span","trace":1,"span":2,"parent":null,"name":"chunk",
            "run":null,"round":null,"start_ns":0,"dur_ns":1,"worker":3,"chunk":5}"#;
        for old in [fourteen, eleven] {
            let rec: SpanRecord = from_str(old).unwrap();
            assert_eq!(
                rec,
                SpanRecord::new(TraceId(1), SpanId(2), None, "chunk", 0, 1).with_worker(3)
            );
        }
    }

    #[test]
    fn non_span_lines_do_not_deserialize() {
        assert!(from_str::<SpanRecord>(r#"{"event":"round_start","run":"a","round":0}"#).is_err());
    }
}
