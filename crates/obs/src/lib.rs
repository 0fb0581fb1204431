//! Zero-dependency observability for the CDT engine: structured round
//! events, a metrics registry with log-bucketed latency histograms, phase
//! timing, and sinks (JSONL traces, Prometheus text, a human summary).
//!
//! # Design
//!
//! - **Static dispatch, zero default cost.** Instrumented code is generic
//!   over [`RoundObserver`]; the default [`NullObserver`] sets
//!   [`RoundObserver::ENABLED`] to `false`, so event construction and every
//!   `Instant` read compile away and the hot path stays allocation-free.
//! - **Passive by contract.** Observers never touch RNG streams or mutate
//!   engine state: results are bit-for-bit identical with sinks on or off,
//!   at any thread count.
//! - **Batch, then publish.** Per-run observers ([`PipelineObserver`]) and
//!   pool workers accumulate locally and publish to their session's
//!   [`MetricsRegistry`] once, and write trace lines to its JSONL sink in
//!   bounded batches, bounding both lock contention and memory.
//! - **No new dependencies.** Histograms bucket by the bit length of
//!   `ns + 1`; trace lines go through the workspace codec
//!   `cdt_types::json` (layouts in [`codec`]).
//!
//! # Wiring
//!
//! Nothing here is process-global. Each `cdt` command starts one
//! [`Session`] from an [`ObsConfig`] built from its `--obs-*` flags, and
//! passes it down with its run configuration: a session owns its JSONL
//! sink, metrics registry, trace id, warn-once set and watchdog. Evaluation
//! jobs ask [`Session::observer_for_run`] for a per-run observer and hand
//! it to the instrumented engine entry points
//! (`execute_round_observed_into`, `run_policy_observed`). A disabled
//! session (the default) keeps everything on the null path.

pub mod analyze;
pub mod codec;
pub mod event;
pub mod flame;
pub mod health;
pub mod latency;
pub mod metrics;
pub mod pipeline;
pub mod prometheus;
pub mod record;
pub mod sink;
pub mod span;
pub mod summary;
pub mod timing;
pub mod warn;

pub use analyze::{registry_from_trace, summarize_trace, TraceStats};
pub use codec::{BadLine, TraceLine};
pub use event::{
    EquilibriumEvent, NullObserver, ObservationEvent, Phase, RoundEndEvent, RoundObserver,
    SelectionEvent,
};
pub use flame::{critical_paths, render_critical_path, render_flame, SpanSet};
pub use health::{Health, HealthKind, HealthRecord};
pub use latency::LatencyHistogram;
pub use metrics::{Metric, MetricKey, MetricsRegistry};
pub use pipeline::{ObsConfig, PipelineObserver, Session, SpanBuffer, BATCH_BYTES};
pub use prometheus::render;
pub use record::{EventRecord, RecordingObserver};
pub use sink::JsonlSink;
pub use span::{SpanId, SpanRecord, TraceId};
pub use summary::render_summary;
pub use timing::{PhaseTimer, PhaseTotals};
pub use warn::Warnings;
