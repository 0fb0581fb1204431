//! The process-wide observability pipeline.
//!
//! Experiments fan out through many layers (CLI → compare grid → replicate →
//! `run_policy`), so instead of threading an observer through every
//! signature, a run-level choke point asks the globally installed pipeline
//! for an observer: [`observer_for_run`] returns `None` (and the caller
//! stays on the statically disabled [`crate::NullObserver`] path) unless
//! [`install`] was called. A [`PipelineObserver`] buffers records and phase
//! histograms locally and publishes once when dropped, so concurrent runs
//! contend on the sink/registry once per run, not per event.
//!
//! With [`ObsConfig::spans`] set the same observer synthesizes the causal
//! span tree for its run — a `run` span opened at creation, a `round` span
//! per sampled round, and phase child spans laid out from the round's
//! measured laps — and engine-side producers (the pool and the journal
//! sink) attach their own spans through [`active_trace`] /
//! [`publish_spans`]. With [`ObsConfig::watchdog_ms`] set the pipeline
//! also runs the [`crate::health`] monitor thread for its lifetime.

use crate::event::{
    EquilibriumEvent, ObservationEvent, Phase, RoundEndEvent, RoundObserver, SelectionEvent,
};
use crate::health::{HealthRecord, WatchdogConfig};
use crate::latency::LatencyHistogram;
use crate::metrics;
use crate::record::RecordingObserver;
use crate::sink::JsonlSink;
use crate::span::{self, SpanId, SpanRecord, TraceId};
use cdt_types::Round;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What the pipeline should produce.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Write one JSON object per event to this file (`--obs-events`).
    pub events_path: Option<PathBuf>,
    /// Print the end-of-run human summary table (`--obs-summary`).
    pub summary: bool,
    /// Record only every k-th round's events (`--obs-events-sample`);
    /// `0` and `1` both mean "record every round". Sampling thins the
    /// JSONL trace only — metrics (round counts, phase histograms) still
    /// cover every round, and the summary reports the factor.
    pub events_sample: usize,
    /// Emit causal spans (`--obs-spans`) into the events sink: run/round/
    /// phase spans from the observer, pool and journal spans from the
    /// engine. Round-level spans obey `events_sample` like records.
    pub spans: bool,
    /// Run the health watchdog, sampling every this-many milliseconds
    /// (`--watchdog-ms`). `None` disables it.
    pub watchdog_ms: Option<u64>,
    /// Explicit slow-round threshold for the watchdog in nanoseconds
    /// (`--watchdog-slow-round-ns`); `None` derives p99 ×
    /// [`crate::health::SLOW_FACTOR`] from observed rounds.
    pub slow_round_ns: Option<u64>,
}

#[derive(Debug)]
struct Pipeline {
    sink: Option<JsonlSink>,
    summary: bool,
    events_sample: usize,
    /// The trace every span of this install belongs to (`None` when span
    /// tracing is off).
    trace: Option<TraceId>,
}

/// Fast gate: one relaxed atomic load on the hot paths.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Fast gate for span producers (subset of `ENABLED`).
static SPANS: AtomicBool = AtomicBool::new(false);
static PIPELINE: Mutex<Option<Arc<Pipeline>>> = Mutex::new(None);

fn pipeline_slot() -> std::sync::MutexGuard<'static, Option<Arc<Pipeline>>> {
    PIPELINE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs the pipeline for the rest of the process (replacing any prior
/// one). Metrics collection turns on even with no sink configured.
pub fn install(config: ObsConfig) -> io::Result<()> {
    let sink = match &config.events_path {
        Some(path) => Some(JsonlSink::create(path)?),
        None => None,
    };
    if config.events_sample > 1 {
        metrics::global().set_gauge("cdt_obs_events_sample", &[], config.events_sample as f64);
    }
    let trace = config.spans.then(span::next_trace_id);
    *pipeline_slot() = Some(Arc::new(Pipeline {
        sink,
        summary: config.summary,
        events_sample: config.events_sample,
        trace,
    }));
    SPANS.store(config.spans, Ordering::Release);
    ENABLED.store(true, Ordering::Release);
    if let Some(interval_ms) = config.watchdog_ms {
        crate::health::start_watchdog(WatchdogConfig {
            interval_ms,
            slow_round_ns: config.slow_round_ns,
        });
    }
    Ok(())
}

/// Tears the pipeline down (tests; flushes the sink via drop). Stops the
/// watchdog, if one is running, before the sink goes away.
pub fn uninstall() {
    crate::health::stop_watchdog();
    ENABLED.store(false, Ordering::Release);
    SPANS.store(false, Ordering::Release);
    *pipeline_slot() = None;
}

/// Whether a pipeline is installed. Single relaxed atomic load — this is
/// the only cost observability adds to uninstrumented parallel code.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether span tracing is on. Single relaxed atomic load.
#[must_use]
pub fn spans_enabled() -> bool {
    SPANS.load(Ordering::Relaxed)
}

/// The installed pipeline's trace id, when span tracing is on — engine
/// producers (pool, journal) stamp their spans with it.
#[must_use]
pub fn active_trace() -> Option<TraceId> {
    if !spans_enabled() {
        return None;
    }
    pipeline_slot().as_ref().and_then(|p| p.trace)
}

/// Whether the installed pipeline wants the end-of-run summary printed.
#[must_use]
pub fn summary_requested() -> bool {
    pipeline_slot().as_ref().is_some_and(|p| p.summary)
}

/// Writes finished spans to the events sink (counting them in
/// `cdt_obs_spans_total`). Producers batch locally — once per pool call,
/// once per run — so this locks the sink once per batch.
pub fn publish_spans(spans: &[SpanRecord]) {
    if spans.is_empty() {
        return;
    }
    metrics::global().add_counter("cdt_obs_spans_total", &[], spans.len() as u64);
    if let Some(pipeline) = pipeline_slot().as_ref() {
        if let Some(sink) = &pipeline.sink {
            if sink.write_batch(spans).is_err() {
                crate::warn::warn_once(
                    "obs-sink-write",
                    "failed to write observability events; trace is incomplete",
                );
            }
        }
    }
}

/// Writes one watchdog health event to the events sink, flushing so the
/// line is visible immediately (health events are rare and urgent).
pub fn publish_health(record: &HealthRecord) {
    if let Some(pipeline) = pipeline_slot().as_ref() {
        if let Some(sink) = &pipeline.sink {
            if sink.write_record(record).is_ok() {
                let _ = sink.flush();
            } else {
                crate::warn::warn_once(
                    "obs-sink-write",
                    "failed to write observability events; trace is incomplete",
                );
            }
        }
    }
}

/// An observer for one evaluation run, or `None` when no pipeline is
/// installed. `run` labels every record (e.g. `"cmab-hs/seed42"`).
#[must_use]
pub fn observer_for_run(run: &str) -> Option<PipelineObserver> {
    if !is_enabled() {
        return None;
    }
    let pipeline = pipeline_slot().as_ref().map(Arc::clone)?;
    let events_sample = pipeline.events_sample.max(1);
    let run_span = pipeline.trace.map(|trace| RunSpan {
        trace,
        span: span::next_span_id(),
        parent: span::current_scope(),
        start_ns: span::now_ns(),
        round: None,
    });
    Some(PipelineObserver {
        recorder: RecordingObserver::new(run),
        phase_ns: [const { None }; 4],
        rounds: 0,
        events_sample,
        pipeline,
        run_span,
        spans: Vec::new(),
    })
}

/// Flushes the sink (if any) so readers see every line written so far.
pub fn flush() -> io::Result<()> {
    if let Some(pipeline) = pipeline_slot().as_ref() {
        if let Some(sink) = &pipeline.sink {
            sink.flush()?;
        }
    }
    Ok(())
}

/// The open `run` span of a [`PipelineObserver`] (span tracing only).
#[derive(Debug)]
struct RunSpan {
    trace: TraceId,
    span: SpanId,
    parent: Option<SpanId>,
    start_ns: u64,
    /// The currently open round span, if any.
    round: Option<RoundSpan>,
}

/// An open `round` span awaiting its phase laps and close.
#[derive(Debug)]
struct RoundSpan {
    span: SpanId,
    round: u64,
    start_ns: u64,
    /// Phase laps stashed at `round_end`, awaiting the `regret` hook's
    /// account lap (the account phase runs between the two hooks).
    phases: Option<[u64; 3]>,
}

/// A per-run observer wired to the installed pipeline.
///
/// Buffers everything locally; publishes records (and spans) to the sink
/// and phase histograms to the global registry when dropped.
#[derive(Debug)]
pub struct PipelineObserver {
    recorder: RecordingObserver,
    phase_ns: [Option<LatencyHistogram>; 4],
    rounds: u64,
    events_sample: usize,
    pipeline: Arc<Pipeline>,
    /// `Some` while span tracing is on: the open run span.
    run_span: Option<RunSpan>,
    /// Closed spans, buffered like records and written once on drop.
    spans: Vec<SpanRecord>,
}

impl PipelineObserver {
    fn phase_hist(&mut self, phase: Phase) -> &mut LatencyHistogram {
        self.phase_ns[phase as usize].get_or_insert_with(LatencyHistogram::new)
    }

    /// Whether this round's events land in the trace. Metrics (the rounds
    /// counter, phase histograms) deliberately bypass this gate.
    fn sampled(&self, round: Round) -> bool {
        round.0.is_multiple_of(self.events_sample)
    }

    /// Closes the open round span (if any): emits the `round` span plus
    /// its phase children, laid out back-to-back from the round's start.
    /// The laps were measured inside the round wall interval (hook time is
    /// excluded by `PhaseTimer::skip`), so children always nest.
    fn close_round_span(&mut self, account_ns: Option<u64>) {
        let Some(ctx) = &mut self.run_span else {
            return;
        };
        let Some(round) = ctx.round.take() else {
            return;
        };
        let end_ns = span::now_ns();
        let run = self.recorder.run.clone();
        self.spans.push(
            SpanRecord::new(
                ctx.trace,
                round.span,
                Some(ctx.span),
                "round",
                round.start_ns,
                end_ns.saturating_sub(round.start_ns),
            )
            .with_run(&run)
            .with_round(round.round),
        );
        let mut cursor = round.start_ns;
        let phases = round.phases.unwrap_or([0; 3]);
        let children = [
            ("selection", phases[0]),
            ("solve", phases[1]),
            ("observe", phases[2]),
            ("account", account_ns.unwrap_or(0)),
        ];
        for (name, ns) in children {
            if ns == 0 {
                continue;
            }
            self.spans.push(
                SpanRecord::new(
                    ctx.trace,
                    span::next_span_id(),
                    Some(round.span),
                    name,
                    cursor,
                    ns,
                )
                .with_run(&run)
                .with_round(round.round),
            );
            cursor = cursor.saturating_add(ns);
        }
        span::clear_round_scope(round.span);
    }
}

impl RoundObserver for PipelineObserver {
    fn round_start(&mut self, round: Round) {
        if self.sampled(round) {
            self.recorder.round_start(round);
            if self.run_span.is_some() {
                // A round left open (regret hook never fired) closes here.
                self.close_round_span(None);
                if let Some(ctx) = &mut self.run_span {
                    let id = span::next_span_id();
                    ctx.round = Some(RoundSpan {
                        span: id,
                        round: round.0 as u64,
                        start_ns: span::now_ns(),
                        phases: None,
                    });
                    span::set_round_scope(id, round.0 as u64);
                }
            }
        }
    }

    fn selection(&mut self, round: Round, event: &SelectionEvent<'_>) {
        if self.sampled(round) {
            self.recorder.selection(round, event);
        }
    }

    fn equilibrium(&mut self, round: Round, event: &EquilibriumEvent<'_>) {
        if self.sampled(round) {
            self.recorder.equilibrium(round, event);
        }
    }

    fn observation(&mut self, round: Round, event: &ObservationEvent) {
        if self.sampled(round) {
            self.recorder.observation(round, event);
        }
    }

    fn round_end(&mut self, round: Round, event: &RoundEndEvent) {
        if self.sampled(round) {
            self.recorder.round_end(round, event);
            if let Some(ctx) = &mut self.run_span {
                if let Some(open) = &mut ctx.round {
                    if open.round == round.0 as u64 {
                        open.phases = Some([event.selection_ns, event.solve_ns, event.observe_ns]);
                    }
                }
            }
        }
        self.rounds += 1;
        self.phase_hist(Phase::Selection)
            .record_ns(event.selection_ns);
        self.phase_hist(Phase::Solve).record_ns(event.solve_ns);
        self.phase_hist(Phase::Observe).record_ns(event.observe_ns);
        if crate::health::watchdog_active() {
            // Engine time of the round (phase laps partition it); good
            // enough for the slow-round tracker and available for every
            // round, sampled or not.
            crate::health::record_round_ns(
                event
                    .selection_ns
                    .saturating_add(event.solve_ns)
                    .saturating_add(event.observe_ns),
            );
        }
    }

    fn regret(&mut self, round: Round, cumulative_regret: f64, account_ns: u64) {
        if self.sampled(round) {
            self.recorder.regret(round, cumulative_regret, account_ns);
            let matches = self
                .run_span
                .as_ref()
                .and_then(|ctx| ctx.round.as_ref())
                .is_some_and(|open| open.round == round.0 as u64);
            if matches {
                self.close_round_span(Some(account_ns));
            }
        }
        self.phase_hist(Phase::Account).record_ns(account_ns);
    }
}

impl Drop for PipelineObserver {
    fn drop(&mut self) {
        self.close_round_span(None);
        let registry = metrics::global();
        registry.add_counter("cdt_obs_rounds_total", &[], self.rounds);
        registry.add_counter(
            "cdt_obs_events_total",
            &[],
            self.recorder.records.len() as u64,
        );
        let spans = self.spans.len() + usize::from(self.run_span.is_some());
        if spans > 0 {
            registry.add_counter("cdt_obs_spans_total", &[], spans as u64);
        }
        for phase in Phase::ALL {
            if let Some(hist) = &self.phase_ns[phase as usize] {
                registry.merge_histogram(
                    "cdt_obs_round_phase_ns",
                    &[("phase", phase.as_str())],
                    hist,
                );
            }
        }
        let Some(sink) = &self.pipeline.sink else {
            return;
        };
        let mut written = sink.write_batch(&self.recorder.records).is_ok();
        written &= sink.write_batch(&self.spans).is_ok();
        // The run span closes last, so it covers writing the run's own
        // trace: a pool job's time outside its run is only the claim.
        if let Some(ctx) = &self.run_span {
            let record = SpanRecord::new(
                ctx.trace,
                ctx.span,
                ctx.parent,
                "run",
                ctx.start_ns,
                span::now_ns().saturating_sub(ctx.start_ns),
            )
            .with_run(&self.recorder.run);
            written &= sink.write_batch(&[record]).is_ok();
        }
        if !written {
            crate::warn::warn_once(
                "obs-sink-write",
                "failed to write observability events; trace is incomplete",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    // The pipeline and the metrics registry are process-wide; serialize the
    // tests that install/uninstall or read counter deltas.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn end_event() -> RoundEndEvent {
        RoundEndEvent {
            observed_revenue: 1.0,
            consumer_profit: 0.5,
            platform_profit: 0.3,
            seller_profit: 0.2,
            selection_ns: 100,
            solve_ns: 200,
            observe_ns: 300,
        }
    }

    #[test]
    fn no_pipeline_means_no_observer() {
        let _guard = lock();
        uninstall();
        assert!(!is_enabled());
        assert!(!spans_enabled());
        assert!(observer_for_run("x").is_none());
    }

    #[test]
    fn observer_publishes_on_drop() {
        let _guard = lock();
        install(ObsConfig::default()).unwrap();
        let before = metrics::global().counter_value("cdt_obs_rounds_total", &[]);
        {
            let mut obs = observer_for_run("pipeline-unit").unwrap();
            obs.round_start(Round(0));
            obs.round_end(Round(0), &end_event());
            obs.regret(Round(0), 0.0, 50);
        }
        let after = metrics::global().counter_value("cdt_obs_rounds_total", &[]);
        assert_eq!(after - before, 1);
        uninstall();
    }

    #[test]
    fn sampling_thins_the_trace_but_not_the_metrics() {
        let _guard = lock();
        install(ObsConfig {
            events_sample: 3,
            ..ObsConfig::default()
        })
        .unwrap();
        let before = metrics::global().counter_value("cdt_obs_rounds_total", &[]);
        let mut obs = observer_for_run("sampling-unit").unwrap();
        for t in 0..6 {
            obs.round_start(Round(t));
            obs.round_end(Round(t), &end_event());
        }
        // Only rounds 0 and 3 are recorded (2 events each) …
        assert_eq!(obs.recorder.records.len(), 4);
        drop(obs);
        // … but the rounds counter still covers all 6.
        let after = metrics::global().counter_value("cdt_obs_rounds_total", &[]);
        assert_eq!(after - before, 6);
        let sample = metrics::global()
            .snapshot()
            .into_iter()
            .find_map(|(k, m)| match m {
                Metric::Gauge(v) if k.family == "cdt_obs_events_sample" => Some(v),
                _ => None,
            });
        assert_eq!(sample, Some(3.0));
        uninstall();
    }

    #[test]
    fn spans_off_means_no_span_buffer() {
        let _guard = lock();
        install(ObsConfig::default()).unwrap();
        assert!(!spans_enabled());
        assert!(active_trace().is_none());
        let mut obs = observer_for_run("no-spans").unwrap();
        obs.round_start(Round(0));
        obs.round_end(Round(0), &end_event());
        obs.regret(Round(0), 0.0, 50);
        assert!(obs.spans.is_empty());
        assert!(obs.run_span.is_none());
        drop(obs);
        uninstall();
    }

    #[test]
    fn spans_on_builds_a_parented_tree() {
        let _guard = lock();
        install(ObsConfig {
            spans: true,
            ..ObsConfig::default()
        })
        .unwrap();
        assert!(spans_enabled());
        let trace = active_trace().expect("trace id while spans are on");
        let before = metrics::global().counter_value("cdt_obs_spans_total", &[]);
        let spans = {
            let mut obs = observer_for_run("span-unit").unwrap();
            for t in 0..2 {
                obs.round_start(Round(t));
                obs.round_end(Round(t), &end_event());
                obs.regret(Round(t), 0.0, 50);
            }
            // Peek before drop: the buffered spans minus the run span.
            let mut spans = obs.spans.clone();
            let run_ctx = obs.run_span.as_ref().unwrap();
            spans.push(SpanRecord::new(
                trace,
                run_ctx.span,
                run_ctx.parent,
                "run",
                run_ctx.start_ns,
                0,
            ));
            spans
        };
        let after = metrics::global().counter_value("cdt_obs_spans_total", &[]);
        uninstall();

        // 2 rounds × (round + selection + solve + observe + account) + run.
        assert_eq!(spans.len(), 2 * 5 + 1);
        assert_eq!(after - before, spans.len() as u64);
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        assert_eq!(run.parent, None);
        for s in &spans {
            assert_eq!(s.trace, trace.0);
            if s.name == "round" {
                assert_eq!(s.parent, Some(run.span));
            }
            if s.name == "solve" {
                let parent = s.parent.unwrap();
                assert!(spans.iter().any(|p| p.span == parent && p.name == "round"));
            }
        }
    }

    #[test]
    fn phase_children_nest_inside_their_round_span() {
        let _guard = lock();
        install(ObsConfig {
            spans: true,
            ..ObsConfig::default()
        })
        .unwrap();
        let spans = {
            let mut obs = observer_for_run("nest-unit").unwrap();
            obs.round_start(Round(0));
            std::thread::sleep(std::time::Duration::from_millis(2));
            obs.round_end(Round(0), &end_event());
            obs.regret(Round(0), 0.0, 50);
            obs.spans.clone()
        };
        uninstall();
        let round = spans.iter().find(|s| s.name == "round").unwrap();
        for child in spans.iter().filter(|s| s.parent == Some(round.span)) {
            assert!(child.start_ns >= round.start_ns);
            assert!(
                child.start_ns + child.dur_ns <= round.start_ns + round.dur_ns,
                "{} escapes its round span",
                child.name
            );
        }
    }
}
