//! One command's observability session.
//!
//! Experiments fan out through many layers (CLI → compare grid → replicate
//! → pool job), and the one [`Session`] a command builds travels down with
//! them in its run configuration. A pool job asks the session for its
//! run's observer: [`Session::observer_for_run`] returns `None` on a
//! disabled session, and the caller stays on the statically disabled
//! [`crate::NullObserver`] path. A [`PipelineObserver`] counts its events,
//! keeps its phase histograms locally and publishes them once, when it
//! drops; with a sink it writes its trace lines in batches of about
//! [`BATCH_BYTES`]. So concurrent runs contend on the registry once per run
//! and on the sink once per batch, and a run holds at most one batch of
//! its trace in memory however many rounds it plays.
//!
//! With [`ObsConfig::spans`] set the same observer synthesizes the causal
//! span tree for its run — a `run` span opened at creation, a `round` span
//! per sampled round, and phase child spans laid out from the round's
//! measured laps — and engine-side producers (the pool and the journal
//! sink) stamp their own spans with [`Session::trace`] and write them
//! through a [`SpanBuffer`]. With [`ObsConfig::watchdog_ms`] set the
//! session also runs the [`crate::health`] monitor thread, until
//! [`Session::finish`] or until its last clone drops.

use crate::event::{
    EquilibriumEvent, ObservationEvent, Phase, RoundEndEvent, RoundObserver, SelectionEvent,
};
use crate::health::{Health, HealthRecord, Watchdog};
use crate::latency::LatencyHistogram;
use crate::metrics::MetricsRegistry;
use crate::record::RecordingObserver;
use crate::sink::JsonlSink;
use crate::span::{self, SpanId, SpanRecord, TraceId};
use crate::warn::Warnings;
use cdt_types::json::Codec;
use cdt_types::Round;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// The encoded trace lines a producer holds before it writes them to the
/// sink: 64 KiB, a few hundred lines.
pub const BATCH_BYTES: usize = 64 * 1024;

/// What a session should produce.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Write one JSON object per event to this file (`--obs-events`).
    pub events_path: Option<PathBuf>,
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

/// One command's observability: the JSONL sink, the metrics registry,
/// the trace id, the warn-once set and the watchdog (its thread, worker
/// slots and round/flush trackers).
///
/// Cloning is one `Arc` bump; every clone reports to the same sink and
/// registry. The default session is disabled: it owns nothing, it hands
/// out no observer, and its warnings go straight to stderr.
#[derive(Debug, Clone, Default)]
pub struct Session(Option<Arc<Pipeline>>);

#[derive(Debug)]
struct Pipeline {
    sink: Option<JsonlSink>,
    registry: MetricsRegistry,
    warnings: Warnings,
    /// The trace every span of this session belongs to (`None` when span
    /// tracing is off).
    trace: Option<TraceId>,
    /// Record every k-th round's events (≥ 1).
    events_sample: usize,
    /// The watchdog's trackers (`None` when no watchdog runs).
    health: Option<Health>,
    watchdog: Mutex<Option<Watchdog>>,
}

impl Pipeline {
    /// Writes encoded lines to the sink, if there is one.
    fn write(&self, lines: &[u8]) {
        if let Some(sink) = &self.sink {
            if sink.write_lines(lines).is_err() {
                self.sink_failed();
            }
        }
    }

    fn sink_failed(&self) {
        self.warnings.warn(
            &self.registry,
            "obs-sink-write",
            "failed to write observability events; trace is incomplete",
        );
    }

    /// Counts one watchdog record and writes it to the sink, flushing so
    /// the line is visible immediately (health events are rare and
    /// urgent).
    fn emit_health(&self, record: &HealthRecord) {
        self.registry.add_counter(
            "cdt_obs_health_events_total",
            &[("kind", record.kind.as_str())],
            1,
        );
        if let Some(sink) = &self.sink {
            if sink
                .write_record(record)
                .and_then(|()| sink.flush())
                .is_err()
            {
                self.sink_failed();
            }
        }
    }

    fn stop_watchdog(&self) {
        let watchdog = self
            .watchdog
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(watchdog) = watchdog {
            watchdog.stop();
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.stop_watchdog();
    }
}

impl Session {
    /// A session that observes nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Starts a session: creates (truncating) the events file, and starts
    /// the watchdog when `config.watchdog_ms` is set. Metrics collection
    /// is on even with no sink.
    ///
    /// # Errors
    /// Returns the I/O error when the events file cannot be created.
    pub fn start(config: ObsConfig) -> io::Result<Self> {
        let sink = match &config.events_path {
            Some(path) => Some(JsonlSink::create(path)?),
            None => None,
        };
        let registry = MetricsRegistry::new();
        if config.events_sample > 1 {
            registry.set_gauge("cdt_obs_events_sample", &[], config.events_sample as f64);
        }
        let pipeline = Arc::new(Pipeline {
            sink,
            registry,
            warnings: Warnings::default(),
            trace: config.spans.then(span::next_trace_id),
            events_sample: config.events_sample.max(1),
            health: config
                .watchdog_ms
                .map(|interval_ms| Health::new(interval_ms, config.slow_round_ns)),
            watchdog: Mutex::new(None),
        });
        if let Some(interval_ms) = config.watchdog_ms {
            // The monitor holds the session weakly, so dropping the last
            // clone stops it.
            let target = Arc::downgrade(&pipeline);
            let watchdog = Watchdog::start(interval_ms, move || {
                let Some(pipeline) = target.upgrade() else {
                    return false;
                };
                if let Some(health) = &pipeline.health {
                    health.sample(&mut |record| pipeline.emit_health(record));
                }
                true
            });
            *pipeline.watchdog.lock().unwrap_or_else(|e| e.into_inner()) = Some(watchdog);
        }
        Ok(Self(Some(pipeline)))
    }

    /// Whether this session observes anything. Instrumented code checks
    /// this once per call, not per event.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The session's metrics registry (`None` when disabled).
    #[must_use]
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref().map(|p| &p.registry)
    }

    /// The session's trace id, when span tracing is on: engine producers
    /// (pool, journal) stamp their spans with it.
    #[must_use]
    pub fn trace(&self) -> Option<TraceId> {
        self.0.as_ref()?.trace
    }

    /// The watchdog's trackers, while one runs.
    #[must_use]
    pub fn health(&self) -> Option<&Health> {
        self.0.as_ref()?.health.as_ref()
    }

    /// A buffer that writes spans to this session's sink in batches.
    #[must_use]
    pub fn span_buffer(&self) -> SpanBuffer {
        SpanBuffer {
            pipeline: self.0.clone(),
            lines: Vec::new(),
            spans: 0,
        }
    }

    /// Counts a warning under `kind` and prints `message` to stderr on
    /// `kind`'s first occurrence in this session; a disabled session only
    /// prints. Returns `true` when the message was printed.
    pub fn warn_once(&self, kind: &str, message: &str) -> bool {
        match &self.0 {
            Some(p) => p.warnings.warn(&p.registry, kind, message),
            None => {
                eprintln!("warning: {message}");
                true
            }
        }
    }

    /// An observer for one evaluation run, or `None` when the session is
    /// disabled. `run` labels every record (e.g. `"cmab-hs/seed42"`).
    #[must_use]
    pub fn observer_for_run(&self, run: &str) -> Option<PipelineObserver> {
        let pipeline = Arc::clone(self.0.as_ref()?);
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
            events: 0,
            spans: 0,
            pipeline,
            run_span,
            lines: Vec::new(),
            span_lines: Vec::new(),
        })
    }

    /// Stops the watchdog, after one final sample, and flushes the sink so
    /// readers see every line written so far. The registry stays
    /// readable, and calling it again only flushes again.
    ///
    /// # Errors
    /// Returns the I/O error of the sink's flush.
    pub fn finish(&self) -> io::Result<()> {
        let Some(pipeline) = &self.0 else {
            return Ok(());
        };
        pipeline.stop_watchdog();
        match &pipeline.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

/// Closed spans on their way to a session's sink: encoded as they are
/// pushed, written in batches of about [`BATCH_BYTES`] and counted in
/// `cdt_obs_spans_total` as they go. [`SpanBuffer::flush`], or the drop,
/// writes the rest. A disabled session's buffer drops every span.
#[derive(Debug)]
pub struct SpanBuffer {
    pipeline: Option<Arc<Pipeline>>,
    lines: Vec<u8>,
    spans: u64,
}

impl SpanBuffer {
    /// Adds one closed span.
    pub fn push(&mut self, span: &SpanRecord) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        self.spans += 1;
        if pipeline.sink.is_some() {
            span.encode(&mut self.lines);
            self.lines.push(b'\n');
            if self.lines.len() >= BATCH_BYTES {
                self.flush();
            }
        }
    }

    /// Counts and writes every span pushed since the last flush.
    pub fn flush(&mut self) {
        let Some(pipeline) = &self.pipeline else {
            return;
        };
        if self.spans > 0 {
            pipeline
                .registry
                .add_counter("cdt_obs_spans_total", &[], self.spans);
            self.spans = 0;
        }
        pipeline.write(&self.lines);
        self.lines.clear();
    }
}

impl Drop for SpanBuffer {
    fn drop(&mut self) {
        self.flush();
    }
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

/// A per-run observer wired to a session.
///
/// Counts every sampled event and keeps its phase histograms locally,
/// publishing both to the session's registry when dropped. With a sink it
/// encodes each sampled event, and each span it closes, as it happens, and
/// writes them in batches of about [`BATCH_BYTES`]: a batch holds the
/// events, then the spans, closed since the last one.
#[derive(Debug)]
pub struct PipelineObserver {
    /// Builds one sampled event's record on its way into `lines` (with a
    /// sink only); its label names the run.
    recorder: RecordingObserver,
    phase_ns: [Option<LatencyHistogram>; 4],
    rounds: u64,
    /// Sampled events and closed spans, counted whether or not a sink
    /// writes them.
    events: u64,
    spans: u64,
    pipeline: Arc<Pipeline>,
    /// `Some` while span tracing is on: the open run span.
    run_span: Option<RunSpan>,
    /// Encoded event and span lines not yet written.
    lines: Vec<u8>,
    span_lines: Vec<u8>,
}

impl PipelineObserver {
    fn phase_hist(&mut self, phase: Phase) -> &mut LatencyHistogram {
        self.phase_ns[phase as usize].get_or_insert_with(LatencyHistogram::new)
    }

    /// Whether this round's events land in the trace. Metrics (the rounds
    /// counter, phase histograms) deliberately bypass this gate.
    fn sampled(&self, round: Round) -> bool {
        round.0.is_multiple_of(self.pipeline.events_sample)
    }

    /// Counts one sampled event; with a sink, `hook` records it and its
    /// line joins the batch.
    fn record(&mut self, hook: impl FnOnce(&mut RecordingObserver)) {
        self.events += 1;
        if self.pipeline.sink.is_some() {
            hook(&mut self.recorder);
            for record in self.recorder.records.drain(..) {
                record.encode(&mut self.lines);
                self.lines.push(b'\n');
            }
            self.write_batch_if_full();
        }
    }

    /// Counts one closed span; with a sink, its line joins the batch.
    fn push_span(&mut self, span: &SpanRecord) {
        self.spans += 1;
        if self.pipeline.sink.is_some() {
            span.encode(&mut self.span_lines);
            self.span_lines.push(b'\n');
            self.write_batch_if_full();
        }
    }

    fn write_batch_if_full(&mut self) {
        if self.lines.len() + self.span_lines.len() >= BATCH_BYTES {
            self.write_batch();
        }
    }

    /// Writes the batch: its events, then its spans.
    fn write_batch(&mut self) {
        self.lines.extend_from_slice(&self.span_lines);
        self.pipeline.write(&self.lines);
        self.lines.clear();
        self.span_lines.clear();
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
        let (trace, run_span) = (ctx.trace, ctx.span);
        let end_ns = span::now_ns();
        let record = SpanRecord::new(
            trace,
            round.span,
            Some(run_span),
            "round",
            round.start_ns,
            end_ns.saturating_sub(round.start_ns),
        )
        .with_run(&self.recorder.run)
        .with_round(round.round);
        self.push_span(&record);
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
            let record = SpanRecord::new(
                trace,
                span::next_span_id(),
                Some(round.span),
                name,
                cursor,
                ns,
            )
            .with_run(&self.recorder.run)
            .with_round(round.round);
            self.push_span(&record);
            cursor = cursor.saturating_add(ns);
        }
        span::clear_round_scope(round.span);
    }
}

impl RoundObserver for PipelineObserver {
    fn round_start(&mut self, round: Round) {
        if self.sampled(round) {
            self.record(|r| r.round_start(round));
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
            self.record(|r| r.selection(round, event));
        }
    }

    fn equilibrium(&mut self, round: Round, event: &EquilibriumEvent<'_>) {
        if self.sampled(round) {
            self.record(|r| r.equilibrium(round, event));
        }
    }

    fn observation(&mut self, round: Round, event: &ObservationEvent) {
        if self.sampled(round) {
            self.record(|r| r.observation(round, event));
        }
    }

    fn round_end(&mut self, round: Round, event: &RoundEndEvent) {
        if self.sampled(round) {
            self.record(|r| r.round_end(round, event));
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
        if let Some(health) = &self.pipeline.health {
            // Engine time of the round (phase laps partition it); good
            // enough for the slow-round tracker and available for every
            // round, sampled or not.
            health.record_round_ns(
                event
                    .selection_ns
                    .saturating_add(event.solve_ns)
                    .saturating_add(event.observe_ns),
            );
        }
    }

    fn regret(&mut self, round: Round, cumulative_regret: f64, account_ns: u64) {
        if self.sampled(round) {
            self.record(|r| r.regret(round, cumulative_regret, account_ns));
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
        let registry = &self.pipeline.registry;
        registry.add_counter("cdt_obs_rounds_total", &[], self.rounds);
        registry.add_counter("cdt_obs_events_total", &[], self.events);
        let spans = self.spans + u64::from(self.run_span.is_some());
        if spans > 0 {
            registry.add_counter("cdt_obs_spans_total", &[], spans);
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
        if self.pipeline.sink.is_none() {
            return;
        }
        self.write_batch();
        // The run span closes last, so it covers writing the run's own
        // trace: a pool job's time outside its run is only the claim.
        if let Some(ctx) = &self.run_span {
            SpanRecord::new(
                ctx.trace,
                ctx.span,
                ctx.parent,
                "run",
                ctx.start_ns,
                span::now_ns().saturating_sub(ctx.start_ns),
            )
            .with_run(&self.recorder.run)
            .encode(&mut self.lines);
            self.lines.push(b'\n');
            self.pipeline.write(&self.lines);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TraceLine;
    use crate::metrics::Metric;

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

    /// A throwaway events file, unique per test name.
    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cdt_pipeline_{}_{name}.jsonl", std::process::id()))
    }

    /// A session tracing spans into the events file at `path`.
    fn traced(path: &std::path::Path) -> Session {
        Session::start(ObsConfig {
            events_path: Some(path.to_path_buf()),
            spans: true,
            ..ObsConfig::default()
        })
        .unwrap()
    }

    /// The span lines of the events file at `path`.
    fn spans_in(path: &std::path::Path) -> Vec<SpanRecord> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter_map(|line| match TraceLine::decode(line).unwrap() {
                TraceLine::Span(span) => Some(span),
                _ => None,
            })
            .collect()
    }

    /// Plays rounds `0..n` through every hook of `obs`.
    fn play(obs: &mut PipelineObserver, n: usize) {
        for t in 0..n {
            obs.round_start(Round(t));
            obs.round_end(Round(t), &end_event());
            obs.regret(Round(t), 0.0, 50);
        }
    }

    #[test]
    fn no_pipeline_means_no_observer() {
        let session = Session::disabled();
        assert!(!session.is_enabled());
        assert!(session.trace().is_none());
        assert!(session.registry().is_none());
        assert!(session.observer_for_run("x").is_none());
    }

    #[test]
    fn observer_publishes_on_drop() {
        let session = Session::start(ObsConfig::default()).unwrap();
        let registry = session.registry().unwrap();
        play(&mut session.observer_for_run("pipeline-unit").unwrap(), 1);
        assert_eq!(registry.counter_value("cdt_obs_rounds_total", &[]), 1);
        assert_eq!(registry.counter_value("cdt_obs_events_total", &[]), 3);
    }

    #[test]
    fn sampling_thins_the_trace_but_not_the_metrics() {
        let session = Session::start(ObsConfig {
            events_sample: 3,
            ..ObsConfig::default()
        })
        .unwrap();
        let mut obs = session.observer_for_run("sampling-unit").unwrap();
        for t in 0..6 {
            obs.round_start(Round(t));
            obs.round_end(Round(t), &end_event());
        }
        // Only rounds 0 and 3 are counted (2 events each), and with no
        // sink none is recorded …
        assert_eq!(obs.events, 4);
        assert!(obs.recorder.records.is_empty() && obs.lines.is_empty());
        drop(obs);
        // … but the rounds counter still covers all 6.
        let registry = session.registry().unwrap();
        assert_eq!(registry.counter_value("cdt_obs_rounds_total", &[]), 6);
        assert_eq!(registry.counter_value("cdt_obs_events_total", &[]), 4);
        let sample = registry.snapshot().into_iter().find_map(|(k, m)| match m {
            Metric::Gauge(v) if k.family == "cdt_obs_events_sample" => Some(v),
            _ => None,
        });
        assert_eq!(sample, Some(3.0));
    }

    #[test]
    fn spans_off_means_no_span_buffer() {
        let session = Session::start(ObsConfig::default()).unwrap();
        assert!(session.trace().is_none());
        let mut obs = session.observer_for_run("no-spans").unwrap();
        play(&mut obs, 1);
        assert_eq!(obs.spans, 0);
        assert!(obs.run_span.is_none());
    }

    #[test]
    fn spans_on_builds_a_parented_tree() {
        let events = temp_path("tree");
        let session = traced(&events);
        let trace = session.trace().expect("trace id while spans are on");
        play(&mut session.observer_for_run("span-unit").unwrap(), 2);
        session.finish().unwrap();
        let spans = spans_in(&events);
        std::fs::remove_file(&events).ok();

        // 2 rounds × (round + selection + solve + observe + account) + run.
        assert_eq!(spans.len(), 2 * 5 + 1);
        let counted = session
            .registry()
            .unwrap()
            .counter_value("cdt_obs_spans_total", &[]);
        assert_eq!(counted, spans.len() as u64);
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
        let events = temp_path("nest");
        let session = traced(&events);
        {
            let mut obs = session.observer_for_run("nest-unit").unwrap();
            obs.round_start(Round(0));
            std::thread::sleep(std::time::Duration::from_millis(2));
            obs.round_end(Round(0), &end_event());
            obs.regret(Round(0), 0.0, 50);
        }
        session.finish().unwrap();
        let spans = spans_in(&events);
        std::fs::remove_file(&events).ok();
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

    #[test]
    fn long_runs_write_their_trace_in_bounded_batches() {
        let events = temp_path("batches");
        let session = traced(&events);
        let rounds = 5_000;
        {
            let mut obs = session.observer_for_run("batch-unit").unwrap();
            for t in 0..rounds {
                obs.round_start(Round(t));
                obs.round_end(Round(t), &end_event());
                obs.regret(Round(t), 0.0, 50);
                // Never more than one batch (plus the line that filled it).
                assert!(obs.lines.len() + obs.span_lines.len() < BATCH_BYTES + 1024);
            }
        }
        session.finish().unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        std::fs::remove_file(&events).ok();
        assert!(text.len() > 4 * BATCH_BYTES, "{} bytes", text.len());
        // Every event and span reached the file: 3 events and 5 spans per
        // round, plus the run span.
        assert_eq!(text.lines().count(), rounds * 8 + 1);
        let registry = session.registry().unwrap();
        assert_eq!(
            registry.counter_value("cdt_obs_events_total", &[]),
            rounds as u64 * 3
        );
    }
}
