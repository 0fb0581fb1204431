//! Implementations of the `cdt` subcommands.

use crate::args::{env_positive, parse_flags, FlagMap};
use cdt_core::{Budget, CmabHs, NullObserver, RoundOutcome, Scenario, TradingLedger};
use cdt_game::{solve_equilibrium, verify_equilibrium, welfare_report};
use cdt_obs::{ObsConfig, Session};
use cdt_protocol::{JournalSink, MarketEvent};
use cdt_quality::SellerProfile;
use cdt_sim::experiments::{all_experiment_ids, game_curves, run_experiment, Scale};
use cdt_sim::{
    compare_policies, replicate, replication_table, run_cells, CellJob, PolicySpec, RunConfig,
    RunResult, Series,
};
use cdt_trace::{csv, generate_trace, trace_stats, TraceConfig, TripRecord};
use cdt_types::json::{push_f64, push_str, push_usize};
use cdt_types::{mix_seed, CdtError, SimRng};
use std::fmt;
use std::fs::File;
use std::io::{self, Write as _};
use std::num::NonZeroUsize;

/// Why a command stopped short of success.
#[derive(Debug)]
pub enum Failure {
    /// The command failed: the message names why.
    Error(String),
    /// Stdout refused the command's output.
    Stdout(io::Error),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Error(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Error(message.to_owned())
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(message) => f.write_str(message),
            Failure::Stdout(e) => write!(f, "cannot write to stdout: {e}"),
        }
    }
}

/// The one writer of `cdt`'s output, for `write!` and `writeln!`: stdout,
/// whose write errors become [`Failure::Stdout`] where `print!` would
/// panic.
struct Out;

impl Out {
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), Failure> {
        io::stdout().write_fmt(args).map_err(Failure::Stdout)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
cdt — CMAB-HS crowdsensing data trading (ICDE 2021 reproduction)

USAGE:
  cdt trace generate [--records N] [--taxis M] [--seed S] [--out FILE]
  cdt trace stats FILE
  cdt run      [--m M] [--k K] [--l L] [--n N] [--seed S] [--json FILE] [--journal FILE]
               [--journal-segment-rounds N]
  cdt budget   [--m M] [--k K] [--l L] [--n N] [--seed S] --budget B [--journal FILE]
               [--journal-segment-rounds N]
  cdt compare  [--m M] [--k K] [--l L] [--n N] [--seed S] [--reps R] [--threads T]
  cdt sweep    --axis k|m|n --grid V1,V2,... [--m M] [--k K] [--l L] [--n N]
               [--reps R] [--seed S] [--threads T]
  cdt game     [--omega W] [--theta T]
  cdt repro    [--exp ID[,ID...]] [--paper] [--csv DIR] [--threads T]
  cdt obs summarize     FILE
  cdt obs flame         FILE
  cdt obs critical-path FILE
  cdt journal verify  FILE
  cdt journal audit   FILE
  cdt journal recover FILE [--out FILE]
  cdt journal compact FILE [--keep-segments N]
  cdt journal seek    FILE --round R
  cdt journal diff    A B [--tol T]

PROTOCOL JOURNAL:
  `run --journal FILE` and `budget --journal FILE` stream the Fig. 2
  market protocol to FILE as rounds settle: every event is validated
  against the protocol state machine before it is written, the buffered
  writer flushes at each settlement boundary, and bytes accumulate in
  FILE.partial until an atomic rename publishes the finished journal. A
  killed run therefore leaves FILE.partial with at most the in-flight
  round unsettled, and a journal already at FILE, in either layout, is
  refused, never replaced. `journal verify` is the strict all-or-nothing
  replay check, `journal audit` additionally prints the per-round
  settlement money flow, and `journal recover` replays a (possibly truncated)
  journal up to its last settlement boundary — `--out FILE` writes the
  recovered prefix back out as a valid journal (refusing to overwrite an
  existing file or to trust a source that shrank while it was read).

  --journal-segment-rounds N (or CDT_JOURNAL_SEGMENT_ROUNDS) rotates the
  journal into FILE.seg-0000, FILE.seg-0001, ... at settlement
  boundaries every N settled rounds, with FILE.idx mapping round ranges
  to segments; `cat FILE.seg-*` is byte-identical to the single-file
  journal, and verify/audit/recover/diff read both layouts. `journal
  compact` folds the settled prefix into a digest-verified checkpoint
  (state snapshot + settlement ledger) so replay resumes mid-history;
  `journal seek --round R` answers one round's settlement from the index
  with at most one segment replay. `journal diff A B [--tol T]` aligns
  two journals' settled rounds, reports the maximum absolute / relative
  payment divergence, and exits nonzero beyond --tol (default 0, i.e.
  bit-identical or fail): two runs of one scenario and seed diff to zero.

OBSERVABILITY (on `run`, `budget`, `compare`, `sweep`, `repro` and
`journal compact`; each command's flags start one session, closed when it
ends):
  --obs-events FILE      write one JSON object per round event (JSONL trace)
  --obs-events-sample K  record only every K-th round's events in that trace
                         (metrics still cover every round)
  --metrics-out FILE     dump the metrics registry in Prometheus text format
  --obs-summary          print the end-of-run phase/pool summary table
  --obs-spans            also emit causal spans (run/round/phase, pool/chunk,
                         journal write/flush) into --obs-events
  --watchdog-ms N        run the health watchdog, sampling every N ms:
                         stalled workers, slow rounds (p99 x 4), journal
                         flush spikes become `health` records + counters
  --watchdog-slow-round-ns N  that watchdog's slow-round threshold (default:
                         derived)

`cdt obs summarize FILE` re-renders that summary table offline from a
JSONL trace written earlier with --obs-events. `cdt obs flame FILE`
renders a traced run (--obs-spans) as a self-time flame tree; `cdt obs
critical-path FILE` prints the longest causal chain per round. Tracing
and the watchdog are passive: results, ledgers, and journal bytes are
bit-identical with them on or off.

Defaults follow the paper's Table II (M=300, K=10, L=10, omega=1000,
theta=0.1); `run`/`compare` default to N=2000 so they finish in seconds —
pass --n 100000 for the paper's horizon.

`compare` fans its per-policy (and per-replication) runs out over worker
threads; --threads T (or the CDT_THREADS env var) sets the pool size and
--threads 1 forces the exact serial path. Results are bit-for-bit
identical at any thread count, with observability on or off.

`sweep` runs a whole grid over one axis (--axis k|m|n, --grid V1,V2,...;
the other dimensions stay at their fixed flags) with --reps fresh
scenarios per grid point, all flattened into ONE job stream on the same
pool. The printed tables are bit-for-bit identical at any --threads.

`repro` regenerates the tables and figures of the paper's evaluation
(Sec. V: Table II, Figs. 7-18, plus `nonstat` and `replicate`) as text
tables. --exp picks experiments by id (default: all), --paper runs the
paper's workload instead of the seconds-long CI scale, and --csv DIR also
writes each table to DIR/<id>_<i>.csv. Its tables are bit-for-bit
identical at any --threads.";

/// The observability flags [`start_session`] reads: those of every
/// command that observes something.
const OBS_FLAGS: &[&str] = &[
    "obs-events",
    "obs-events-sample",
    "metrics-out",
    "obs-summary",
    "obs-spans",
    "watchdog-ms",
    "watchdog-slow-round-ns",
];

/// The scenario-shape flags [`scenario_from_flags`] reads.
const SCENARIO_FLAGS: &[&str] = &["m", "k", "l", "n", "seed"];

/// The protocol-journal flags of `run` and `budget`.
const JOURNAL_FLAGS: &[&str] = &["journal", "journal-segment-rounds"];

/// The replication and pool flags of `compare` and `sweep`.
const POOL_FLAGS: &[&str] = &["reps", "threads"];

/// The flags `cdt <command>` reads, one list per flag group.
fn known_flags(command: &str) -> &'static [&'static [&'static str]] {
    match command {
        "trace generate" => &[&["records", "taxis", "seed", "out"]],
        "run" => &[SCENARIO_FLAGS, JOURNAL_FLAGS, OBS_FLAGS, &["json"]],
        "budget" => &[SCENARIO_FLAGS, JOURNAL_FLAGS, OBS_FLAGS, &["budget"]],
        "compare" => &[SCENARIO_FLAGS, POOL_FLAGS, OBS_FLAGS],
        "sweep" => &[SCENARIO_FLAGS, POOL_FLAGS, OBS_FLAGS, &["axis", "grid"]],
        "game" => &[&["omega", "theta"]],
        "repro" => &[OBS_FLAGS, &["exp", "paper", "csv", "threads"]],
        "journal compact" => &[OBS_FLAGS, &["keep-segments"]],
        "journal recover" => &[&["out"]],
        "journal seek" => &[&["round"]],
        "journal diff" => &[&["tol"]],
        // `trace stats`, `journal verify|audit` and the `obs` family take
        // a file and no flags.
        _ => &[],
    }
}

/// Parses the flags of `cdt <command>` (e.g. `"run"`, `"journal seek"`),
/// accepting exactly the flags that command reads.
///
/// # Errors
/// Returns a message naming the first unknown flag, or any other parse
/// failure of [`parse_flags`].
pub fn command_flags(command: &str, args: &[String]) -> Result<FlagMap, String> {
    parse_flags(command, known_flags(command), args)
}

/// Runs `cdt` on `argv` (the arguments after the program name): picks the
/// command, then hands it to [`run_command`].
///
/// # Errors
/// Returns a usage message for an unknown or incomplete command, or the
/// command's own error.
pub fn dispatch(argv: &[String]) -> Result<(), Failure> {
    let mut words = argv.iter().map(String::as_str);
    match (words.next(), words.next()) {
        (Some("trace"), Some("generate")) => {
            run_command("trace generate", &argv[2..], |flags, _| {
                trace_generate(flags)
            })
        }
        (Some("trace"), Some("stats")) => match argv.get(2) {
            Some(p) => run_command("trace stats", &argv[3..], |_, _| trace_stats_cmd(p)),
            None => Err("usage: cdt trace stats FILE".into()),
        },
        (Some("obs"), Some(sub @ ("summarize" | "flame" | "critical-path"))) => match argv.get(2) {
            Some(p) => run_command(&format!("obs {sub}"), &argv[3..], |_, _| match sub {
                "summarize" => obs_summarize_cmd(p),
                "flame" => obs_flame_cmd(p),
                _ => obs_critical_path_cmd(p),
            }),
            None => Err(format!("usage: cdt obs {sub} FILE").into()),
        },
        (Some("journal"), Some(sub @ ("verify" | "audit" | "recover" | "compact" | "seek"))) => {
            match argv.get(2) {
                Some(path) => {
                    run_command(
                        &format!("journal {sub}"),
                        &argv[3..],
                        |flags, cfg| match sub {
                            "verify" => journal_verify_cmd(path),
                            "audit" => journal_audit_cmd(path),
                            "compact" => journal_compact_cmd(path, flags, cfg),
                            "seek" => journal_seek_cmd(path, flags),
                            _ => journal_recover_cmd(path, flags.get("out")),
                        },
                    )
                }
                None => Err(format!("usage: cdt journal {sub} FILE").into()),
            }
        }
        (Some("journal"), Some("diff")) => match (argv.get(2), argv.get(3)) {
            (Some(a), Some(b)) => run_command("journal diff", &argv[4..], |flags, _| {
                journal_diff_cmd(a, b, flags)
            }),
            _ => Err("usage: cdt journal diff A B [--tol T]".into()),
        },
        (Some("journal"), _) => {
            Err("usage: cdt journal verify|audit|recover|compact|seek|diff FILE".into())
        }
        (Some("run"), _) => run_command("run", &argv[1..], run_mechanism),
        (Some("budget"), _) => run_command("budget", &argv[1..], budget),
        (Some("compare"), _) => run_command("compare", &argv[1..], compare),
        (Some("sweep"), _) => run_command("sweep", &argv[1..], sweep),
        (Some("game"), _) => run_command("game", &argv[1..], |flags, _| game(flags)),
        (Some("repro"), _) => run_command("repro", &argv[1..], repro),
        (Some("--help" | "-h"), _) | (None, _) => {
            writeln!(Out, "{USAGE}")?;
            Ok(())
        }
        (Some(other), _) => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

/// Runs `cdt <command>` on the flags in `args`: parses them, builds the
/// command's one [`RunConfig`], runs `body`, and then closes the session
/// (flushes the trace, writes `--metrics-out`, prints `--obs-summary`),
/// also when `body` fails.
///
/// The configuration holds exactly the two knobs:
/// - `threads`: `--threads`, then `CDT_THREADS`, then the available
///   parallelism, for the commands that read `--threads`; every other
///   command gets 1 and never reads the environment;
/// - `obs`: a session started from the `--obs-*` flags, for the commands
///   that read them; disabled otherwise.
///
/// # Errors
/// Returns the first flag, set-up, command or output failure.
pub fn run_command<F>(command: &str, args: &[String], body: F) -> Result<(), Failure>
where
    F: FnOnce(&FlagMap, &RunConfig) -> Result<(), Failure>,
{
    let flags = command_flags(command, args)?;
    let reads = |flag: &str| {
        known_flags(command)
            .iter()
            .any(|group| group.contains(&flag))
    };
    // `--threads 1` forces the exact serial path.
    let threads = if reads("threads") {
        flags.positive("threads")?
    } else {
        Some(1)
    };
    let (obs, metrics_out) = if reads("obs-events") {
        start_session(&flags)?
    } else {
        (Session::disabled(), None)
    };
    let threads = threads.unwrap_or_else(|| {
        env_positive("CDT_THREADS", &obs).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
    });
    let cfg = RunConfig { threads, obs };
    let result = body(&flags, &cfg);
    let finish = finish_session(&cfg.obs, metrics_out, flags.is_set("obs-summary"));
    result?;
    finish
}

/// Starts the command's observability session if any of `--obs-events`,
/// `--metrics-out`, `--obs-summary`, `--watchdog-ms` was given (a disabled
/// one otherwise), with the `--metrics-out` file it will be dumped to.
///
/// # Errors
/// Returns a message on a bad or orphaned obs flag, or when the events or
/// metrics file cannot be created.
fn start_session(flags: &FlagMap) -> Result<(Session, Option<(String, File)>), String> {
    let events_path = flags.get("obs-events").map(std::path::PathBuf::from);
    let summary = flags.is_set("obs-summary");
    let events_sample = flags.usize_or("obs-events-sample", 0)?;
    let spans = flags.is_set("obs-spans");
    if events_path.is_none() {
        if spans {
            return Err("--obs-spans requires --obs-events FILE (spans are written there)".into());
        }
        if flags.get("obs-events-sample").is_some() {
            return Err(
                "--obs-events-sample requires --obs-events FILE (it thins that trace)".into(),
            );
        }
    }
    let watchdog_ms = match flags.get("watchdog-ms") {
        None => None,
        Some(_) => {
            let ms = flags.u64_or("watchdog-ms", 0)?;
            if ms == 0 {
                return Err("--watchdog-ms must be at least 1".into());
            }
            Some(ms)
        }
    };
    let slow_round_ns = match flags.get("watchdog-slow-round-ns") {
        None => None,
        Some(_) if watchdog_ms.is_none() => {
            return Err(
                "--watchdog-slow-round-ns requires --watchdog-ms N (it tunes that watchdog)".into(),
            )
        }
        Some(_) => Some(flags.u64_or("watchdog-slow-round-ns", 0)?),
    };
    // Created before the command runs, so a bad path fails before any work.
    let metrics_out = flags.get("metrics-out").map(create_output).transpose()?;
    if events_path.is_none() && metrics_out.is_none() && !summary && watchdog_ms.is_none() {
        return Ok((Session::disabled(), None));
    }
    let obs = Session::start(ObsConfig {
        events_path,
        events_sample,
        spans,
        watchdog_ms,
        slow_round_ns,
    })
    .map_err(|e| format!("cannot set up observability: {e}"))?;
    Ok((obs, metrics_out))
}

/// Ends the session: stops its watchdog, flushes the event sink, dumps
/// the registry to `--metrics-out` and prints the summary table when
/// `summary` is set.
///
/// # Errors
/// Returns a message on sink-flush or metrics-write failure.
fn finish_session(
    obs: &Session,
    metrics_out: Option<(String, File)>,
    summary: bool,
) -> Result<(), Failure> {
    let Some(registry) = obs.registry() else {
        return Ok(());
    };
    obs.finish()
        .map_err(|e| format!("cannot flush observability events: {e}"))?;
    if let Some((path, mut file)) = metrics_out {
        file.write_all(cdt_obs::render(registry).as_bytes())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(Out, "metrics written to {path}")?;
    }
    if summary {
        write!(Out, "{}", cdt_obs::render_summary(registry))?;
    }
    Ok(())
}

/// Creates (truncating) the output file at `path`.
fn create_output(path: &str) -> Result<(String, File), String> {
    File::create(path)
        .map(|file| (path.to_owned(), file))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// `cdt obs summarize FILE` — offline summary of a JSONL event trace.
///
/// # Errors
/// Returns a message on I/O failure.
pub fn obs_summarize_cmd(path: &str) -> Result<(), Failure> {
    let text = cdt_obs::summarize_trace(std::path::Path::new(path))
        .map_err(|e| format!("cannot summarize {path}: {e}"))?;
    write!(Out, "{text}")?;
    Ok(())
}

/// Reads a JSONL trace and parses its span lines, failing on an empty set.
fn span_set_from(path: &str) -> Result<cdt_obs::SpanSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let set = cdt_obs::SpanSet::from_jsonl(&text);
    if set.is_empty() {
        return Err(format!(
            "{path}: no span records found (rerun with --obs-events FILE --obs-spans)"
        ));
    }
    Ok(set)
}

/// `cdt obs flame FILE` — offline self-time flame view of a span trace:
/// the causal tree merged by span name, heaviest subtree first, with
/// inclusive and exclusive (self) time per node. Each root line reconciles
/// the root's inclusive time against the exact sum of its tree's
/// exclusive self-times.
///
/// # Errors
/// Returns a message on I/O failure or a trace with no span records.
pub fn obs_flame_cmd(path: &str) -> Result<(), Failure> {
    write!(Out, "{}", cdt_obs::render_flame(&span_set_from(path)?))?;
    Ok(())
}

/// `cdt obs critical-path FILE` — the longest causal chain through each
/// round span (slowest rounds first): where the wall clock actually went.
///
/// # Errors
/// Returns a message on I/O failure or a trace with no span records.
pub fn obs_critical_path_cmd(path: &str) -> Result<(), Failure> {
    write!(
        Out,
        "{}",
        cdt_obs::render_critical_path(&span_set_from(path)?)
    )?;
    Ok(())
}

/// `cdt journal verify FILE` — strict all-or-nothing replay validation of
/// a protocol journal: every line must parse and the whole history must
/// replay through the state machine.
///
/// # Errors
/// Returns a message on I/O failure or the first replay violation.
pub fn journal_verify_cmd(path: &str) -> Result<(), Failure> {
    let view = cdt_protocol::load_journal(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    writeln!(
        Out,
        "{path}: valid journal — {} events, {} settled rounds, {}",
        view.events,
        view.settled_rounds(),
        if view.completed() {
            "completed"
        } else {
            "not completed"
        }
    )?;
    if view.segmented {
        writeln!(
            Out,
            "segments: {} sealed, checkpoint: {} rounds / {} events folded",
            view.segments, view.compacted_rounds, view.compacted_events
        )?;
    }
    Ok(())
}

/// `cdt journal audit FILE` — verify, then print the settlement money
/// flow round by round (long journals elide the middle rounds).
///
/// # Errors
/// Returns a message on I/O failure or replay violation.
pub fn journal_audit_cmd(path: &str) -> Result<(), Failure> {
    let view = cdt_protocol::load_journal(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    // Row-order sums: bit-identical to the pre-segmentation full-replay
    // totals, and to the checkpoint's digested totals after compaction.
    let consumer_total = view.consumer_total();
    let seller_total = view.seller_total();
    writeln!(Out, "journal audit: {path}")?;
    writeln!(
        Out,
        "events: {}   settled rounds: {}   completed: {}",
        view.events,
        view.settled_rounds(),
        view.completed()
    )?;
    if view.segmented {
        writeln!(
            Out,
            "segments: {} sealed, checkpoint: {} rounds / {} events folded",
            view.segments, view.compacted_rounds, view.compacted_events
        )?;
    }
    writeln!(
        Out,
        "consumer paid: {consumer_total:.1}   sellers received: {seller_total:.1}"
    )?;
    writeln!(
        Out,
        "{:<8} {:>14} {:>14} {:>8}",
        "round", "consumer", "sellers", "k"
    )?;
    const CAP: usize = 10;
    let settlements = &view.settlements;
    for (i, row) in settlements.iter().enumerate() {
        if settlements.len() > 2 * CAP && (CAP..settlements.len() - CAP).contains(&i) {
            if i == CAP {
                writeln!(
                    Out,
                    "...      ({} rounds elided)",
                    settlements.len() - 2 * CAP
                )?;
            }
            continue;
        }
        writeln!(
            Out,
            "{:<8} {:>14.4} {:>14.4} {:>8}",
            row.round.index(),
            row.consumer,
            row.sellers.iter().sum::<f64>(),
            row.sellers.len()
        )?;
    }
    Ok(())
}

/// `cdt journal recover FILE [--out FILE]` — truncation-tolerant replay of
/// a (possibly partial) journal: keeps the longest prefix ending on a
/// settlement boundary, reports where and why replay stopped, and with
/// `--out` writes the recovered prefix back out as a valid journal.
///
/// # Errors
/// Returns a message on I/O failure (recovery itself never fails).
pub fn journal_recover_cmd(path: &str, out: Option<&str>) -> Result<(), Failure> {
    // Only `--out` writes the kept lines, so only it has them copied.
    let rec = cdt_protocol::recover_journal(std::path::Path::new(path), out.is_some())
        .map_err(|e| e.to_string())?;
    let view = &rec.view;
    writeln!(
        Out,
        "{path}: recovered {} settled rounds ({} events kept of {} lines{})",
        view.settled_rounds(),
        rec.events_kept(),
        rec.lines_read,
        if view.completed() { ", completed" } else { "" }
    )?;
    if view.compacted_rounds > 0 {
        writeln!(
            Out,
            "resumed from checkpoint: {} rounds / {} events folded",
            view.compacted_rounds, view.compacted_events
        )?;
    }
    if let Some(stop) = &rec.stop {
        writeln!(Out, "replay stopped at line {}: {}", stop.line, stop.reason)?;
    }
    if let Some(out_path) = out {
        // Output safety: never clobber an existing file with a recovered
        // prefix — the existing file may itself be the better history.
        if std::path::Path::new(out_path).exists() {
            return Err(format!(
                "refusing to overwrite existing {out_path} (delete it or pick another --out path)"
            )
            .into());
        }
        // A compacted history's folded events exist only inside the
        // checkpoint; the kept text alone would replay from round 0 and
        // fail, so there is no valid flat journal to write.
        if view.compacted_events > 0 {
            return Err(format!(
                "cannot write --out from a compacted journal: {} events live only in the \
                 checkpoint (the segments still replay in place — use `cdt journal verify`)",
                view.compacted_events
            )
            .into());
        }
        source_still_covers(path, rec.source_bytes)?;
        std::fs::write(out_path, &rec.kept_text)
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
        writeln!(Out, "recovered journal written to {out_path}")?;
    }
    Ok(())
}

/// The `--out` guard against a truncation race: the recovered prefix
/// covers the first `covered` bytes of the journal file at `path`, so a
/// file now shorter than that shrank or changed while it was read, and
/// its prefix must not be trusted. A segmented layout has no one file to
/// measure.
fn source_still_covers(path: &str, covered: u64) -> Result<(), String> {
    match std::fs::metadata(path) {
        Ok(meta) if meta.len() < covered => Err(format!(
            "recovered prefix covers {covered} bytes of {path}, which now holds {}: the \
             source changed while it was being read (truncation race) — re-run recovery",
            meta.len()
        )),
        _ => Ok(()),
    }
}

/// `cdt journal diff A B [--tol T]` — round-aligned settlement comparison
/// between two journals. Two runs of the same scenario and seed diff to
/// zero. Exits nonzero on a structural mismatch or when the maximum
/// absolute divergence exceeds the tolerance (default 0: bit-identical or
/// fail).
///
/// # Errors
/// Returns a message on I/O failure, an invalid journal, a structural
/// mismatch, or divergence beyond `--tol`.
pub fn journal_diff_cmd(path_a: &str, path_b: &str, flags: &FlagMap) -> Result<(), Failure> {
    let tol = flags.f64_or("tol", 0.0)?;
    if !tol.is_finite() || tol < 0.0 {
        return Err(format!("--tol must be a finite non-negative number, got {tol}").into());
    }
    let read_view = |path: &str| -> Result<cdt_protocol::JournalView, String> {
        cdt_protocol::load_journal(std::path::Path::new(path)).map_err(|e| e.to_string())
    };
    let view_a = read_view(path_a)?;
    let view_b = read_view(path_b)?;
    let d = cdt_protocol::diff_settlement_rows(&view_a.settlements, &view_b.settlements);
    writeln!(Out, "journal diff: {path_a} vs {path_b}")?;
    writeln!(
        Out,
        "settled rounds: {} vs {}   compared: {}",
        d.rounds_a, d.rounds_b, d.rounds_compared
    )?;
    match d.worst_round {
        Some(round) => writeln!(
            Out,
            "max divergence: {:.3e} abs, {:.3e} rel (worst at round {})",
            d.max_abs,
            d.max_rel,
            round.index()
        )?,
        None => writeln!(Out, "max divergence: 0 (settlements bit-identical)")?,
    }
    if let Some(msg) = &d.structural {
        return Err(format!("structural mismatch: {msg}").into());
    }
    if !d.within(tol) {
        return Err(format!(
            "settlements diverge: max abs {:.3e} exceeds tolerance {tol:.3e}",
            d.max_abs
        )
        .into());
    }
    writeln!(Out, "within tolerance {tol:.3e}")?;
    Ok(())
}

/// `cdt journal compact FILE [--keep-segments N]` — fold the settled
/// prefix of a segment-rotated journal into a digest-verified checkpoint
/// (a `ProtocolState` snapshot plus the settlement ledger), keeping the
/// last N segments (default 0: fold everything). Replay-to-round and
/// recovery resume from the checkpoint instead of round 0.
///
/// # Errors
/// Returns a message on I/O failure, a single-file (unsegmented) journal,
/// or a replay/digest violation in the segments being folded.
pub fn journal_compact_cmd(path: &str, flags: &FlagMap, cfg: &RunConfig) -> Result<(), Failure> {
    let keep = flags.usize_or("keep-segments", 0)?;
    let report = cdt_protocol::compact_journal(std::path::Path::new(path), keep, &cfg.obs)
        .map_err(|e| e.to_string())?;
    if report.folded_segments == 0 {
        writeln!(
            Out,
            "{path}: nothing to fold ({} segment{} kept, checkpoint at {} rounds)",
            report.kept_segments,
            if report.kept_segments == 1 { "" } else { "s" },
            report.checkpoint_rounds
        )?;
        return Ok(());
    }
    writeln!(
        Out,
        "{path}: folded {} segment{} ({} rounds, {} events) into checkpoint generation {}",
        report.folded_segments,
        if report.folded_segments == 1 { "" } else { "s" },
        report.folded_rounds,
        report.folded_events,
        report.generation
    )?;
    writeln!(
        Out,
        "checkpoint now covers {} rounds; {} segment{} kept",
        report.checkpoint_rounds,
        report.kept_segments,
        if report.kept_segments == 1 { "" } else { "s" }
    )?;
    Ok(())
}

/// `cdt journal seek FILE --round R` — settlement lookup for one round:
/// an index lookup plus at most one segment replay on a segmented
/// journal (or the checkpoint ledger directly for a compacted round),
/// instead of a full-history replay.
///
/// # Errors
/// Returns a message on I/O failure, a missing/invalid `--round`, an
/// unsettled round, or a digest violation in the segment scanned.
pub fn journal_seek_cmd(path: &str, flags: &FlagMap) -> Result<(), Failure> {
    let raw = flags
        .get("round")
        .ok_or("journal seek requires --round R")?;
    let round: usize = raw
        .parse()
        .map_err(|_| format!("--round expects an integer, got `{raw}`"))?;
    let lookup = cdt_protocol::replay_to_round(std::path::Path::new(path), round)
        .map_err(|e| e.to_string())?;
    let row = &lookup.row;
    writeln!(
        Out,
        "round {}: consumer paid {:.4}, sellers received {:.4} (k={})",
        row.round.index(),
        row.consumer,
        row.sellers.iter().sum::<f64>(),
        row.sellers.len()
    )?;
    if lookup.from_checkpoint {
        writeln!(Out, "served from checkpoint ledger (0 events replayed)")?;
    } else if let Some(seq) = lookup.segment {
        writeln!(
            Out,
            "served from segment {seq} ({} events replayed)",
            lookup.events_scanned
        )?;
    } else {
        writeln!(
            Out,
            "served by full-journal replay ({} events replayed)",
            lookup.events_scanned
        )?;
    }
    Ok(())
}

/// Resolves the journal rotation setting: `--journal-segment-rounds N`
/// beats the `CDT_JOURNAL_SEGMENT_ROUNDS` env var; absent both, rotation
/// is off and the journal stays a single file.
///
/// # Errors
/// Returns a message when the flag value is not a positive integer (a
/// malformed env var warns through `obs` and reads as unset).
pub fn journal_rotation(
    flags: &FlagMap,
    obs: &Session,
) -> Result<Option<cdt_protocol::RotationConfig>, String> {
    let segment_rounds = flags
        .positive("journal-segment-rounds")?
        .or_else(|| env_positive("CDT_JOURNAL_SEGMENT_ROUNDS", obs));
    Ok(segment_rounds.map(|segment_rounds| cdt_protocol::RotationConfig { segment_rounds }))
}

/// `cdt trace generate`.
///
/// # Errors
/// Returns a message on flag or I/O failure.
pub fn trace_generate(flags: &FlagMap) -> Result<(), Failure> {
    let taxis = flags.u64_or("taxis", 300)?;
    let num_taxis = u32::try_from(taxis)
        .ok()
        .filter(|&t| t > 0)
        .ok_or_else(|| format!("--taxis must be in 1..={}, got {taxis}", u32::MAX))?;
    let num_records = flags.usize_or("records", 27_465)?;
    if !fits::<TripRecord>(num_records) {
        return Err(format!(
            "--records {num_records} is too large: the trace does not fit in memory"
        )
        .into());
    }
    let config = TraceConfig {
        num_records,
        num_taxis,
        ..TraceConfig::paper_scale()
    };
    let seed = flags.u64_or("seed", 20_210_419)?;
    let records = generate_trace(&config, &mut SimRng::new(seed));
    let stats = trace_stats(&records);
    writeln!(
        Out,
        "generated {} records, {} taxis, {} areas, mean trip {:.2} mi, area gini {:.3}",
        stats.num_records, stats.num_taxis, stats.num_areas, stats.mean_trip_miles, stats.area_gini
    )?;
    if let Some(path) = flags.get("out") {
        std::fs::write(path, csv::to_csv(&records))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(Out, "trace written to {path}")?;
    }
    Ok(())
}

/// `cdt trace stats FILE`.
///
/// # Errors
/// Returns a message on I/O or parse failure.
pub fn trace_stats_cmd(path: &str) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let records = csv::from_csv(&text).map_err(|e| e.to_string())?;
    let s = trace_stats(&records);
    writeln!(Out, "records:            {}", s.num_records)?;
    writeln!(Out, "taxis:              {}", s.num_taxis)?;
    writeln!(Out, "areas touched:      {}", s.num_areas)?;
    writeln!(Out, "mean trip miles:    {:.2}", s.mean_trip_miles)?;
    writeln!(Out, "area gini:          {:.3}", s.area_gini)?;
    writeln!(Out, "busiest taxi trips: {}", s.max_trips_per_taxi)?;
    let peak = s
        .peak_hour()
        .map_or_else(|| "none".to_owned(), |h| format!("{h}:00"));
    writeln!(Out, "peak hour:          {peak}")?;
    Ok(())
}

fn print_ledger(scenario: &Scenario, ledger: &TradingLedger) -> Result<(), Failure> {
    writeln!(
        Out,
        "CMAB-HS: M={} K={} L={} N={}",
        scenario.config.m(),
        scenario.config.k(),
        scenario.config.l(),
        scenario.config.n()
    )?;
    writeln!(Out, "rounds:            {}", ledger.rounds())?;
    writeln!(
        Out,
        "observed revenue:  {:.1}",
        ledger.total_observed_revenue()
    )?;
    writeln!(
        Out,
        "consumer paid:     {:.1}",
        ledger.total_consumer_payment()
    )?;
    writeln!(
        Out,
        "sellers received:  {:.1}",
        ledger.total_seller_payment()
    )?;
    writeln!(
        Out,
        "mean PoC/PoP/PoS:  {:.2} / {:.2} / {:.2}",
        ledger.mean_consumer_profit(),
        ledger.mean_platform_profit(),
        ledger.mean_seller_profit()
    )?;
    Ok(())
}

/// The scenario shape `(M, K, L, N)` and seed of `run`, `budget`,
/// `compare` and `sweep`, with the buffers `--m` and `--l` size checked.
fn shape_from_flags(flags: &FlagMap) -> Result<(usize, usize, usize, usize, u64), String> {
    let m = flags.usize_or("m", 300)?;
    let k = flags.usize_or("k", 10)?;
    let l = flags.usize_or("l", 10)?;
    let n = flags.usize_or("n", 2_000)?;
    let seed = flags.u64_or("seed", 20_210_419)?;
    check_shape(m, l)?;
    Ok((m, k, l, n, seed))
}

/// Rejects an `M` or `L` whose buffers cannot be sized: the population
/// holds `M` seller profiles, and round 0 observes every seller at every
/// PoI (`M × L` values).
fn check_shape(m: usize, l: usize) -> Result<(), String> {
    if !fits::<SellerProfile>(m) {
        return Err(format!(
            "--m {m} is too large: the seller population does not fit in memory"
        ));
    }
    if !m.checked_mul(l).is_some_and(fits::<f64>) {
        return Err(format!(
            "--l {l} is too large for --m {m}: round 0 observes every seller at every PoI"
        ));
    }
    Ok(())
}

/// Whether `count` values of `T` fit in one allocation (at most
/// `isize::MAX` bytes), so that a size a flag sets is an error rather than
/// a `capacity overflow` panic.
fn fits<T>(count: usize) -> bool {
    count
        .checked_mul(std::mem::size_of::<T>())
        .is_some_and(|bytes| isize::try_from(bytes).is_ok())
}

/// The `--reps` flag of `compare` and `sweep`: at least 1, and few enough
/// that `points × reps` scenarios fit in memory.
fn reps_from_flags(flags: &FlagMap, points: usize) -> Result<usize, String> {
    let reps = flags.usize_or("reps", 1)?;
    if reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    if !points.checked_mul(reps).is_some_and(fits::<Scenario>) {
        return Err(format!(
            "--reps {reps} is too large: {points} × {reps} scenarios do not fit in memory"
        ));
    }
    Ok(reps)
}

fn scenario_from_flags(flags: &FlagMap) -> Result<(Scenario, SimRng, u64), String> {
    let (m, k, l, n, seed) = shape_from_flags(flags)?;
    let mut rng = SimRng::new(seed);
    let scenario = Scenario::paper_defaults(m, k, l, n, &mut rng).map_err(|e| e.to_string())?;
    Ok((scenario, rng, seed))
}

/// `cdt run` — run CMAB-HS end to end and print the settlement.
///
/// # Errors
/// Returns a message on flag, run, or I/O failure.
pub fn run_mechanism(flags: &FlagMap, cfg: &RunConfig) -> Result<(), Failure> {
    let (scenario, mut rng, _) = scenario_from_flags(flags)?;
    let journal = journal_target(flags, &cfg.obs)?;
    // Created after the journal flags are checked, so a refused journal
    // leaves no empty ledger behind, and before the run, so a bad path
    // fails before any round trades.
    let json_out = flags.get("json").map(create_output).transpose()?;
    let ledger = trade(journal, cfg, &scenario, &mut rng, |_| true)?;
    print_ledger(&scenario, &ledger)?;
    if let Some((path, mut file)) = json_out {
        file.write_all(&ledger_json(&ledger))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(Out, "ledger written to {path}")?;
    }
    Ok(())
}

/// The `--journal FILE` of `run` and `budget` and its rotation, once
/// every check that needs no file created has passed: an orphaned or zero
/// `--journal-segment-rounds`, and a journal already at `FILE`.
struct JournalTarget<'a> {
    path: &'a str,
    rotation: Option<cdt_protocol::RotationConfig>,
}

/// Checks the journal flags of `run` and `budget`; `None` without
/// `--journal`.
///
/// # Errors
/// Returns a message when a check fails.
fn journal_target<'a>(
    flags: &'a FlagMap,
    obs: &Session,
) -> Result<Option<JournalTarget<'a>>, String> {
    let Some(path) = flags.get("journal") else {
        if flags.get("journal-segment-rounds").is_some() {
            return Err(
                "--journal-segment-rounds requires --journal FILE (it rotates that journal)".into(),
            );
        }
        return Ok(None);
    };
    let rotation = journal_rotation(flags, obs)?;
    JournalSink::check_target(std::path::Path::new(path), rotation).map_err(|e| e.to_string())?;
    Ok(Some(JournalTarget { path, rotation }))
}

/// Runs CMAB-HS on `scenario` through the mechanism's one trading loop,
/// for `run` and `budget`: each round is stepped, then settled by
/// `settle`, and the first round it refuses ends the run.
///
/// The command's session, when enabled, observes every round the loop
/// runs; without obs flags the round runs on the static [`NullObserver`].
/// With a `journal` every settled round is streamed to it:
/// each Fig. 2 event is validated, written, and flushed as its round
/// settles, so a killed run still leaves a recoverable `FILE.partial`
/// behind, and a journal write error ends the run at that round. The
/// journal publishes its job before the run's observer exists and
/// completes after that observer is dropped, so a traced round's
/// `journal_write` span nests in its `round` span.
///
/// # Errors
/// Returns a message on a run or journal failure.
fn trade(
    journal: Option<JournalTarget<'_>>,
    cfg: &RunConfig,
    scenario: &Scenario,
    rng: &mut SimRng,
    mut settle: impl FnMut(&RoundOutcome) -> bool,
) -> Result<TradingLedger, Failure> {
    let Some(JournalTarget { path, rotation }) = journal else {
        return observed(scenario, rng, &cfg.obs, |o| Ok::<_, CdtError>(settle(o)))
            .map_err(|e| e.to_string().into());
    };
    let mut sink = JournalSink::create_with(path, rotation, &cfg.obs).map_err(|e| e.to_string())?;
    sink.append(&MarketEvent::JobPublished {
        job: scenario.config.job.clone(),
    })
    .map_err(|e| e.to_string())?;
    let ledger = observed(scenario, rng, &cfg.obs, |outcome| {
        if !settle(outcome) {
            return Ok(false);
        }
        sink.append_round(outcome)?;
        Ok::<_, Box<dyn std::error::Error>>(true)
    })
    .map_err(|e| e.to_string())?;
    let rounds = sink.state().settled_rounds();
    sink.append(&MarketEvent::JobCompleted { rounds })
        .map_err(|e| e.to_string())?;
    let report = sink.finish().map_err(|e| e.to_string())?;
    writeln!(
        Out,
        "journaled {} events over {} rounds to {path} (streamed, replay-validated)",
        report.events, report.settled_rounds
    )?;
    if report.segments > 0 {
        writeln!(Out, "journal rotated into {} segments", report.segments)?;
    }
    Ok(ledger)
}

/// The paper's mechanism run on `scenario`, observed by the session's
/// observer for the run, which is dropped when the run ends, or by
/// [`NullObserver`] when the session is disabled; returns the ledger of
/// the rounds `settle` settled.
fn observed<E: From<CdtError>>(
    scenario: &Scenario,
    rng: &mut SimRng,
    obs: &Session,
    mut settle: impl FnMut(&RoundOutcome) -> Result<bool, E>,
) -> Result<TradingLedger, E> {
    let mut mech = CmabHs::new(scenario.config.clone());
    let observer = scenario.observer();
    let mut ledger = TradingLedger::default();
    let mut settle = |outcome: &RoundOutcome| -> Result<bool, E> {
        let settled = settle(outcome)?;
        if settled {
            ledger.record(outcome);
        }
        Ok(settled)
    };
    match obs.observer_for_run("cmab-hs") {
        Some(mut pipeline) => mech.run(&observer, rng, &mut pipeline, |o, _| settle(o)),
        None => mech.run(&observer, rng, &mut NullObserver, |o, _| settle(o)),
    }?;
    Ok(ledger)
}

/// The `--json` file of a summary ledger: its fields in serde_json's
/// pretty layout (two-space indent, `"key": value`, no final newline),
/// floats in shortest round-trip form.
fn ledger_json(ledger: &TradingLedger) -> Vec<u8> {
    // The ledger keeps totals only; the `mode` and the empty `outcomes`
    // stay, because the file's bytes are a format.
    let mut out = b"{\n  \"mode\": \"Summary\",\n  \"outcomes\": [],\n  \"rounds\": ".to_vec();
    push_usize(&mut out, ledger.rounds());
    for (name, value) in [
        ("total_observed_revenue", ledger.total_observed_revenue()),
        ("total_consumer_profit", ledger.total_consumer_profit()),
        ("total_platform_profit", ledger.total_platform_profit()),
        ("total_seller_profit", ledger.total_seller_profit()),
        ("total_consumer_payment", ledger.total_consumer_payment()),
        ("total_seller_payment", ledger.total_seller_payment()),
    ] {
        out.extend_from_slice(b",\n  ");
        push_str(&mut out, name);
        out.extend_from_slice(b": ");
        push_f64(&mut out, value);
    }
    out.extend_from_slice(b"\n}");
    out
}

/// `cdt budget` — budget-constrained trading: the run of `cdt run`, with
/// a settle rule that stops it when the consumer's spend ceiling binds.
///
/// # Errors
/// Returns a message on flag or run failure.
pub fn budget(flags: &FlagMap, cfg: &RunConfig) -> Result<(), Failure> {
    let cap = flags
        .get("budget")
        .ok_or("--budget is required")?
        .parse::<f64>()
        .map_err(|_| "--budget expects a number".to_owned())?;
    let (scenario, mut rng, _) = scenario_from_flags(flags)?;
    let mut budget = Budget::new(cap).map_err(|e| e.to_string())?;
    let journal = journal_target(flags, &cfg.obs)?;
    let ledger = trade(journal, cfg, &scenario, &mut rng, |outcome| {
        budget.admit(outcome)
    })?;
    writeln!(
        Out,
        "budgeted run: {} rounds, spent {:.1} of {:.1} ({})",
        ledger.rounds(),
        budget.spent(),
        cap,
        // A refused round is the only way to settle fewer than N.
        if ledger.rounds() < scenario.config.n() {
            "budget exhausted"
        } else {
            "horizon reached"
        }
    )?;
    writeln!(
        Out,
        "observed revenue {:.1}, mean PoC {:.2}",
        ledger.total_observed_revenue(),
        ledger.mean_consumer_profit()
    )?;
    Ok(())
}

/// `cdt compare` — the paper's policy comparison (optionally replicated).
///
/// # Errors
/// Returns a message on flag or run failure.
pub fn compare(flags: &FlagMap, cfg: &RunConfig) -> Result<(), Failure> {
    let reps = reps_from_flags(flags, 1)?;
    if reps > 1 {
        let (m, k, l, n, seed) = shape_from_flags(flags)?;
        let runs = replicate((m, k, l, n), &PolicySpec::paper_set(), reps, seed, cfg)
            .map_err(|e| e.to_string())?;
        writeln!(
            Out,
            "{}",
            replication_table(&format!("policy comparison ({reps} replications)"), &runs)
        )?;
        return Ok(());
    }
    let (scenario, _, seed) = scenario_from_flags(flags)?;
    let cmp = compare_policies(&scenario, &PolicySpec::paper_set(), seed, &[], cfg)
        .map_err(|e| e.to_string())?;
    writeln!(Out, "{}", cmp.summary_table("policy comparison"))?;
    Ok(())
}

/// `cdt sweep` — a grid sweep over one axis (`k`, `m`, or `n`) run as a
/// single job stream on the pool.
///
/// Every (grid point × replication) pair is one scenario cell and every
/// (cell × policy) pair one [`CellJob`]. The tables printed are a pure
/// function of the per-job results, so output is bit-for-bit identical at
/// any thread count.
///
/// # Errors
/// Returns a message on flag or run failure.
pub fn sweep(flags: &FlagMap, cfg: &RunConfig) -> Result<(), Failure> {
    let axis = flags.get("axis").ok_or("--axis k|m|n is required")?;
    if !matches!(axis, "k" | "m" | "n") {
        return Err(format!("--axis must be k, m, or n, got `{axis}`").into());
    }
    let grid = flags
        .get("grid")
        .ok_or("--grid V1,V2,... is required")?
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("--grid expects comma-separated integers, got `{s}`"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let (m, k, l, n, seed) = shape_from_flags(flags)?;
    let reps = reps_from_flags(flags, grid.len())?;
    let specs = PolicySpec::paper_set();

    // One fresh scenario per (grid point × replication) cell; the swept
    // axis value replaces the corresponding fixed flag.
    let mut scenarios = Vec::with_capacity(grid.len() * reps);
    for (i, &g) in grid.iter().enumerate() {
        let (gm, gk, gn) = match axis {
            "k" => (m, g, n),
            "m" => (g, k, n),
            _ => (m, k, g),
        };
        check_shape(gm, l)?;
        for rep in 0..reps {
            let mut rng = SimRng::new(mix_seed(mix_seed(seed, i as u64), rep as u64));
            scenarios.push(
                Scenario::paper_defaults(gm, gk, l, gn, &mut rng).map_err(|e| e.to_string())?,
            );
        }
    }

    // The whole grid as one cell-major job stream: cell c = grid point
    // i × replication rep, one job per policy inside each cell. Each job
    // owns its mix_seed-derived RNG stream, so scheduling never shows.
    let mut jobs: Vec<CellJob> = Vec::with_capacity(scenarios.len() * specs.len());
    for (c, scenario) in scenarios.iter().enumerate() {
        let (i, rep) = (c / reps, c % reps);
        for (j, &spec) in specs.iter().enumerate() {
            jobs.push(CellJob {
                scenario,
                spec,
                seed: mix_seed(mix_seed(mix_seed(seed, i as u64), rep as u64), 1 + j as u64),
            });
        }
    }
    let results = run_cells(&jobs, &[], cfg).map_err(|e| e.to_string())?;

    let axis_label = axis.to_uppercase();
    let x: Vec<f64> = grid.iter().map(|&g| g as f64).collect();
    let per = specs.len();
    let mean = |metric: &dyn Fn(&RunResult) -> f64, i: usize, j: usize| -> f64 {
        (0..reps)
            .map(|rep| metric(&results[(i * reps + rep) * per + j]))
            .sum::<f64>()
            / reps as f64
    };
    let mut revenue = Vec::new();
    let mut regret = Vec::new();
    for (j, spec) in specs.iter().enumerate() {
        let label = spec.label();
        let rev: Vec<f64> = (0..grid.len())
            .map(|i| mean(&|r: &RunResult| r.expected_revenue, i, j))
            .collect();
        let reg: Vec<f64> = (0..grid.len())
            .map(|i| mean(&|r: &RunResult| r.regret, i, j))
            .collect();
        revenue.push(Series::new(label.clone(), x.clone(), rev));
        regret.push(Series::new(label, x.clone(), reg));
    }
    writeln!(
        Out,
        "{}",
        Series::tabulate(
            format!("sweep: total revenue vs {axis_label} (mean of {reps} reps)"),
            &axis_label,
            &revenue
        )
    )?;
    writeln!(
        Out,
        "{}",
        Series::tabulate(
            format!("sweep: regret vs {axis_label} (mean of {reps} reps)"),
            &axis_label,
            &regret
        )
    )?;
    Ok(())
}

/// `cdt game` — solve one round's Stackelberg game at the paper's
/// single-round setting (Sec. V-B-2, K = 10), verify the SE, report
/// welfare efficiency.
///
/// # Errors
/// Returns a message on flag or construction failure.
pub fn game(flags: &FlagMap) -> Result<(), Failure> {
    let omega = flags.f64_or("omega", 1000.0)?;
    let theta = flags.f64_or("theta", 0.1)?;
    let ctx = game_curves::round_context(Scale::Paper, omega, theta).map_err(|e| e.to_string())?;
    let eq = solve_equilibrium(&ctx);
    writeln!(
        Out,
        "equilibrium (K = {}, omega = {omega}, theta = {theta}):",
        ctx.k()
    )?;
    writeln!(Out, "  p^J* = {:.4}", eq.service_price)?;
    writeln!(Out, "  p*   = {:.4}", eq.collection_price)?;
    writeln!(Out, "  total sensing time = {:.4}", eq.total_sensing_time())?;
    writeln!(
        Out,
        "  PoC = {:.2}, PoP = {:.2}, sum PoS = {:.2}",
        eq.profits.consumer,
        eq.profits.platform,
        eq.profits.total_seller()
    )?;
    let report = verify_equilibrium(&ctx, &eq, 2000, 1e-3 * eq.profits.consumer.abs());
    writeln!(
        Out,
        "  Stackelberg equilibrium verified: {} (max deviation gain {:.3e})",
        report.is_equilibrium(),
        report.max_gain()
    )?;
    let w = welfare_report(&ctx, &eq);
    writeln!(
        Out,
        "  welfare: equilibrium {:.2} / first-best {:.2} (efficiency {:.1}%)",
        w.equilibrium_welfare,
        w.efficient_welfare,
        100.0 * w.efficiency()
    )?;
    Ok(())
}

/// The `--exp ID[,ID…]` list, every id known; all experiments without it.
fn experiment_ids(flags: &FlagMap) -> Result<Vec<&'static str>, String> {
    let known = all_experiment_ids();
    let Some(list) = flags.get("exp") else {
        return Ok(known);
    };
    list.split(',')
        .map(|id| {
            let id = id.trim();
            known.iter().copied().find(|&k| k == id).ok_or_else(|| {
                format!(
                    "unknown experiment `{id}` for --exp (known: {})",
                    known.join(", ")
                )
            })
        })
        .collect()
}

/// `cdt repro` — regenerates the data series behind every table and
/// figure of the paper's evaluation (Sec. V) and prints them as aligned
/// text tables; `--csv DIR` also writes each table to `DIR/<id>_<i>.csv`.
///
/// # Errors
/// Returns a message naming an unknown `--exp` id (before any experiment
/// runs), or on a flag, experiment or write failure.
pub fn repro(flags: &FlagMap, cfg: &RunConfig) -> Result<(), Failure> {
    let ids = experiment_ids(flags)?;
    let (scale, scale_name) = if flags.is_set("paper") {
        (Scale::Paper, "paper")
    } else {
        (Scale::Test, "test")
    };
    writeln!(Out, "# CMAB-HS figure reproduction (scale: {scale_name})\n")?;
    let csv_dir = flags.get("csv");
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    for id in &ids {
        let started = std::time::Instant::now();
        let tables =
            run_experiment(id, scale, cfg).map_err(|e| format!("experiment {id} failed: {e}"))?;
        writeln!(
            Out,
            "=== {id} ({} table{}, {:.1?}) ===\n",
            tables.len(),
            if tables.len() == 1 { "" } else { "s" },
            started.elapsed()
        )?;
        for (i, table) in tables.iter().enumerate() {
            writeln!(Out, "{table}")?;
            if let Some(dir) = csv_dir {
                let path = format!("{dir}/{id}_{i}.csv");
                std::fs::write(&path, table.to_csv())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                writeln!(Out, "[csv written to {path}]\n")?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(command: &str, args: &[&str]) -> FlagMap {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        command_flags(command, &args).unwrap()
    }

    /// `cdt ARGV...`, as the binary runs it, minus the exit code.
    fn cdt(argv: &[&str]) -> Result<(), String> {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
        dispatch(&argv).map_err(|e| e.to_string())
    }

    /// `argv` with `extra` appended.
    fn with<'a>(argv: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
        let mut all = argv.to_vec();
        all.extend_from_slice(extra);
        all
    }

    #[test]
    fn run_small_mechanism() {
        cdt(&["run", "--m", "10", "--k", "3", "--l", "4", "--n", "20"]).unwrap();
    }

    #[test]
    fn run_with_journal_writes_valid_log() {
        let dir = std::env::temp_dir().join("cdt_cli_journal_test");
        // A journal refuses to replace one left by an earlier test run.
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let path_str = path.to_str().unwrap();
        let shape = ["run", "--m", "6", "--k", "2", "--l", "3", "--n", "8"];
        cdt(&with(&shape, &["--journal", path_str])).unwrap();
        let view = cdt_protocol::load_journal(&path).unwrap();
        assert!(view.completed());
        assert_eq!(view.settled_rounds(), 8);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn budget_with_journal_streams_valid_log() {
        let dir = std::env::temp_dir().join("cdt_cli_budget_journal_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("budget-journal.jsonl");
        let path_str = path.to_str().unwrap();
        let shape = ["--m", "8", "--k", "2", "--l", "3", "--n", "200"];
        // Cap at half of what the same scenario spends uncapped, so the
        // cap binds mid-run whatever the random stream.
        let (scenario, mut rng, _) = scenario_from_flags(&flags("budget", &shape)).unwrap();
        let mut uncapped = TradingLedger::default();
        CmabHs::new(scenario.config.clone())
            .run(&scenario.observer(), &mut rng, &mut NullObserver, |o, _| {
                uncapped.record(o);
                Ok::<_, CdtError>(true)
            })
            .unwrap();
        assert_eq!(uncapped.rounds(), 200);
        let cap = (uncapped.total_consumer_payment() / 2.0).to_string();
        let args = with(&with(&["budget"], &shape), &["--budget", &cap]);
        cdt(&with(&args, &["--journal", path_str])).unwrap();
        let view = cdt_protocol::load_journal(&path).unwrap();
        assert!(view.completed());
        // The cap binds before the horizon; only settled rounds are
        // journaled, so the budget-rejected final round is absent.
        let settled = view.settled_rounds();
        assert!((1..200).contains(&settled), "settled {settled}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn journal_commands_verify_audit_and_recover() {
        let dir = std::env::temp_dir().join("cdt_cli_journal_cmds_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let path_str = path.to_str().unwrap();
        let shape = ["run", "--m", "6", "--k", "2", "--l", "3", "--n", "4"];
        cdt(&with(&shape, &["--journal", path_str])).unwrap();
        cdt(&["journal", "verify", path_str]).unwrap();
        cdt(&["journal", "audit", path_str]).unwrap();

        // Simulate a crash: keep two settled rounds, two in-flight events,
        // and a torn half-written line.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut cut = take_lines(&text, 1 + 2 * 5 + 2);
        cut.push_str(&text.lines().nth(13).unwrap()[..10]);
        let partial = dir.join("journal.jsonl.partial");
        std::fs::write(&partial, cut).unwrap();
        let partial_str = partial.to_str().unwrap();
        assert!(journal_verify_cmd(partial_str).is_err());
        let out = dir.join("recovered.jsonl");
        let out_str = out.to_str().unwrap();
        cdt(&["journal", "recover", partial_str, "--out", out_str]).unwrap();
        let recovered = std::fs::read_to_string(&out).unwrap();
        assert_eq!(recovered, take_lines(&text, 1 + 2 * 5));
        let view = cdt_protocol::load_journal(&out).unwrap();
        assert_eq!(view.settled_rounds(), 2);

        // A second recover to the same --out must refuse rather than
        // clobber the file just written.
        let err = journal_recover_cmd(partial_str, Some(out_str))
            .unwrap_err()
            .to_string();
        assert!(err.contains("refusing to overwrite"), "{err}");
        assert_eq!(std::fs::read_to_string(&out).unwrap(), recovered);
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(partial).unwrap();
        std::fs::remove_file(out).unwrap();
    }

    /// The first `n` lines of `text`, newline-terminated.
    fn take_lines(text: &str, n: usize) -> String {
        text.lines()
            .take(n)
            .map(|line| format!("{line}\n"))
            .collect()
    }

    #[test]
    fn journal_recover_rejects_prefix_longer_than_source() {
        let dir =
            std::env::temp_dir().join(format!("cdt_cli_recover_race_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("j.jsonl");
        let shape = ["run", "--m", "8", "--k", "2", "--l", "3", "--n", "6"];
        cdt(&with(&shape, &["--journal", full.to_str().unwrap()])).unwrap();
        // A complete journal that lacks its final newline recovers whole:
        // the kept prefix covers every byte of it, and the recovered
        // journal is the original, newline and all.
        let text = std::fs::read_to_string(&full).unwrap();
        let src = dir.join("n.jsonl");
        std::fs::write(&src, text.strip_suffix('\n').unwrap()).unwrap();
        let (src, out) = (src.to_str().unwrap(), dir.join("r.jsonl"));
        journal_recover_cmd(src, Some(out.to_str().unwrap())).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), text);
        // A source now shorter than the prefix recovery kept shrank while
        // it was read (a truncation race): the guard refuses to trust it.
        let covered = text.len() as u64 - 1;
        source_still_covers(src, covered).unwrap();
        let err = source_still_covers(src, covered + 1).unwrap_err();
        assert!(err.contains("truncation race"), "{err}");
        assert!(
            err.contains(&format!("covers {} bytes", covered + 1)),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_segment_rotation_end_to_end() {
        let dir = std::env::temp_dir().join("cdt_cli_journal_segments_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let seg = dir.join("seg.jsonl");
        let flat = dir.join("flat.jsonl");
        let (seg_str, flat_str) = (seg.to_str().unwrap(), flat.to_str().unwrap());
        let shape = ["run", "--m", "6", "--k", "2", "--l", "3", "--n", "6"];
        cdt(&with(&shape, &["--journal", flat_str])).unwrap();
        let rotated = ["--journal", seg_str, "--journal-segment-rounds", "2"];
        cdt(&with(&shape, &rotated)).unwrap();
        // A second run to either journal, in either layout, refuses and
        // leaves it as it was.
        let flat_bytes = std::fs::read(&flat).unwrap();
        for journal in [flat_str, seg_str] {
            for extra in [&[][..], &rotated[2..]] {
                let argv = with(&with(&shape, &["--journal", journal]), extra);
                let err = cdt(&argv).unwrap_err();
                assert!(err.contains("refusing to start journal"), "{err}");
            }
        }
        assert_eq!(std::fs::read(&flat).unwrap(), flat_bytes);
        // Rotation writes segments + index, never the base file.
        assert!(!seg.exists());
        assert!(dir.join("seg.jsonl.idx").exists());
        cdt(&["journal", "verify", seg_str]).unwrap();
        cdt(&["journal", "audit", seg_str]).unwrap();
        cdt(&["journal", "seek", seg_str, "--round", "3"]).unwrap();
        // Same scenario, same seed: segmented vs single-file must diff to
        // exactly zero — and still after compaction folds the prefix.
        cdt(&["journal", "diff", seg_str, flat_str]).unwrap();
        cdt(&["journal", "compact", seg_str, "--keep-segments", "1"]).unwrap();
        cdt(&["journal", "verify", seg_str]).unwrap();
        cdt(&["journal", "diff", seg_str, flat_str]).unwrap();
        cdt(&["journal", "seek", seg_str, "--round", "1"]).unwrap();
        // The recovered prefix of a compacted history has no flat-journal
        // serialization; --out must refuse.
        let out = dir.join("out.jsonl");
        let err = journal_recover_cmd(seg_str, Some(out.to_str().unwrap()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("compacted journal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_rotation_flag_rejects_bad_values() {
        let obs = Session::disabled();
        assert!(journal_rotation(&flags("run", &[]), &obs)
            .unwrap()
            .is_none());
        let three = flags("run", &["--journal-segment-rounds", "3"]);
        assert_eq!(
            journal_rotation(&three, &obs)
                .unwrap()
                .unwrap()
                .segment_rounds,
            3
        );
        for bad in ["0", "lots"] {
            let f = flags("run", &["--journal-segment-rounds", bad]);
            assert!(journal_rotation(&f, &obs).is_err(), "{bad}");
        }
    }

    #[test]
    fn journal_seek_requires_round() {
        let err = cdt(&["journal", "seek", "/nonexistent/missing.jsonl"]).unwrap_err();
        assert!(err.contains("--round"), "{err}");
        assert!(cdt(&[
            "journal",
            "seek",
            "/nonexistent/missing.jsonl",
            "--round",
            "0"
        ])
        .is_err());
    }

    #[test]
    fn journal_compact_rejects_single_file_journals() {
        let dir = std::env::temp_dir().join("cdt_cli_compact_flat_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("flat.jsonl");
        std::fs::write(&p, "").unwrap();
        let err = cdt(&["journal", "compact", p.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("nothing to compact"), "{err}");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn journal_commands_missing_file_errors() {
        let missing = "/nonexistent/definitely/missing.jsonl";
        assert!(journal_verify_cmd(missing).is_err());
        assert!(journal_audit_cmd(missing).is_err());
        assert!(journal_recover_cmd(missing, None).is_err());
    }

    #[test]
    fn journal_readers_take_no_obs_flags() {
        // Only `journal compact` publishes anything to a session; the five
        // readers refuse the obs flags by name.
        let path = "/nonexistent/j.jsonl";
        for (sub, extra) in [
            ("verify", &[][..]),
            ("audit", &[]),
            ("recover", &[]),
            ("seek", &["--round", "0"]),
            ("diff", &[path]),
        ] {
            let argv = with(&with(&["journal", sub, path], extra), &["--obs-summary"]);
            let err = cdt(&argv).unwrap_err();
            assert_eq!(
                err,
                format!("unknown flag --obs-summary for cdt journal {sub}")
            );
        }
    }

    #[test]
    fn orphaned_obs_flags_are_refused_by_name() {
        let run = ["run", "--m", "6", "--k", "2", "--l", "3", "--n", "2"];
        let budget = [
            "budget", "--m", "6", "--k", "2", "--l", "3", "--budget", "1e9",
        ];
        for (extra, missing) in [
            (&["--obs-spans"][..], "--obs-events"),
            (
                &["--obs-events-sample", "5", "--obs-summary"],
                "--obs-events",
            ),
            (&["--watchdog-slow-round-ns", "1"], "--watchdog-ms"),
            // The journal's tuning flag, too.
            (&["--journal-segment-rounds", "2"], "--journal"),
        ] {
            for command in [&run[..], &budget[..]] {
                let err = cdt(&with(command, extra)).unwrap_err();
                assert!(
                    err.starts_with(&format!("{} requires {missing} ", extra[0])),
                    "{extra:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn compare_small() {
        cdt(&["compare", "--m", "10", "--k", "3", "--l", "4", "--n", "30"]).unwrap();
    }

    #[test]
    fn compare_with_explicit_threads() {
        let shape = ["compare", "--m", "10", "--k", "3", "--l", "4", "--n", "30"];
        cdt(&with(&shape, &["--threads", "2"])).unwrap();
    }

    #[test]
    fn compare_rejects_zero_threads() {
        assert!(cdt(&["compare", "--m", "10", "--threads", "0"]).is_err());
    }

    #[test]
    fn the_threads_flag_sets_the_pool_and_only_pool_commands_read_it() {
        let threads_of = |command: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            let mut threads = 0;
            run_command(command, &args, |_, cfg| {
                threads = cfg.threads;
                Ok(())
            })
            .unwrap();
            threads
        };
        // The flag wins over `CDT_THREADS` and the machine's parallelism.
        assert_eq!(threads_of("compare", &["--threads", "3"]), 3);
        assert!(threads_of("sweep", &[]) >= 1);
        // `run` never uses the pool: one thread, whatever the environment.
        assert_eq!(threads_of("run", &[]), 1);
    }

    #[test]
    fn run_and_sweep_reject_zero_pois_and_rounds() {
        for [flag, zero] in [["--l", "0"], ["--n", "0"]] {
            let run = ["run", "--m", "10", "--k", "3", flag, zero];
            assert!(cdt(&run).is_err(), "run {flag} {zero}");
            let grid = [
                "sweep", "--axis", "k", "--grid", "3", "--m", "10", flag, zero,
            ];
            assert!(cdt(&grid).is_err(), "sweep {flag} {zero}");
        }
    }

    #[test]
    fn unknown_flags_exit_with_their_name() {
        // Removed knobs, a typo, and `game --k` (the single-round game is
        // fixed at K = 10) are rejected before any value is consumed, so a
        // stale `--engine` cannot swallow the `--reps` after it.
        let rejected: [(&str, &str, &[&str]); 10] = [
            (
                "sweep",
                "--engine",
                &["--axis", "k", "--grid", "10", "--engine", "--reps", "2"],
            ),
            (
                "compare",
                "--engine-gather-us",
                &["--engine-gather-us", "100"],
            ),
            ("compare", "--chunk", &["--chunk", "4"]),
            ("compare", "--batch", &["--batch", "4"]),
            ("run", "--lanes", &["--lanes", "4"]),
            (
                "sweep",
                "--fast-math",
                &["--axis", "k", "--grid", "10", "--fast-math"],
            ),
            ("run", "--kk", &["--m", "20", "--k", "5", "--kk", "3"]),
            ("game", "--k", &["--k", "5"]),
            ("repro", "--test", &["--test"]),
            ("repro", "--journal", &["--journal", "x.jsonl"]),
        ];
        for (command, flag, args) in rejected {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            let err = command_flags(command, &args).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for cdt {command}"));
        }
    }

    #[test]
    fn journal_diff_identical_runs_are_bit_identical() {
        let dir = std::env::temp_dir().join("cdt_cli_journal_diff_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let c = dir.join("c.jsonl");
        let (a_str, b_str, c_str) = (
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            c.to_str().unwrap(),
        );
        let shape = ["run", "--m", "8", "--k", "2", "--l", "3", "--n", "6"];
        cdt(&with(&shape, &["--journal", a_str])).unwrap();
        cdt(&with(&shape, &["--journal", b_str])).unwrap();
        cdt(&with(&shape, &["--journal", c_str, "--seed", "7"])).unwrap();
        // Same scenario, same seed: settlements must diff to exactly zero.
        cdt(&["journal", "diff", a_str, b_str]).unwrap();
        // A different seed diverges and must fail the zero-tolerance diff.
        let err = cdt(&["journal", "diff", a_str, c_str]).unwrap_err();
        assert!(
            err.contains("diverge") || err.contains("structural"),
            "{err}"
        );
        for p in [a, b, c] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn journal_diff_rejects_bad_inputs() {
        assert!(cdt(&[
            "journal",
            "diff",
            "/nonexistent/a.jsonl",
            "/nonexistent/b.jsonl"
        ])
        .is_err());
        let dir = std::env::temp_dir().join("cdt_cli_journal_diff_tol_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("x.jsonl");
        std::fs::write(&p, "").unwrap();
        let p_str = p.to_str().unwrap();
        let err = cdt(&["journal", "diff", p_str, p_str, "--tol", "-1"]).unwrap_err();
        assert!(err.contains("--tol"), "{err}");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn compare_with_observability_writes_events_and_metrics() {
        let dir = std::env::temp_dir().join("cdt_cli_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let metrics = dir.join("metrics.prom");
        let shape = ["compare", "--m", "8", "--k", "2", "--l", "3", "--n", "15"];
        let outputs = [
            "--obs-events",
            events.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--obs-summary",
        ];
        cdt(&with(&shape, &outputs)).unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        assert!(!text.is_empty(), "events file must not be empty");
        for line in text.lines() {
            let parsed = cdt_obs::TraceLine::decode(line).unwrap();
            assert!(
                !matches!(parsed, cdt_obs::TraceLine::Journal(_)),
                "line missing event tag"
            );
        }
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(prom.contains("cdt_obs_rounds_total"), "got:\n{prom}");
        std::fs::remove_file(events).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn sampled_events_thin_the_trace_and_summarize_offline() {
        let dir = std::env::temp_dir().join("cdt_cli_obs_sample_test");
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events.jsonl");
        let shape = ["run", "--m", "8", "--k", "2", "--l", "3", "--n", "20"];
        let sampled = [
            "--obs-events",
            events.to_str().unwrap(),
            "--obs-events-sample",
            "5",
        ];
        cdt(&with(&shape, &sampled)).unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        // Rounds 0, 5, 10, 15 of the 20-round run land in the trace.
        let rounds: std::collections::BTreeSet<usize> = text
            .lines()
            .map(|l| match cdt_obs::TraceLine::decode(l).unwrap() {
                cdt_obs::TraceLine::Event(record) => record.round(),
                other => panic!("not a round event: {other:?}"),
            })
            .collect();
        assert_eq!(rounds.into_iter().collect::<Vec<_>>(), vec![0, 5, 10, 15]);
        // The offline summarizer reads the same trace back.
        obs_summarize_cmd(events.to_str().unwrap()).unwrap();
        std::fs::remove_file(events).ok();
    }

    #[test]
    fn run_writes_the_golden_json_ledger() {
        let out = std::env::temp_dir().join(format!("cdt_cli_ledger_{}.json", std::process::id()));
        let shape = ["run", "--m", "8", "--k", "2", "--l", "3", "--n", "6"];
        cdt(&with(&shape, &["--json", out.to_str().unwrap()])).unwrap();
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/ledger_golden.json");
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(golden).unwrap());
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn obs_summarize_missing_file_errors() {
        assert!(obs_summarize_cmd("/nonexistent/definitely/missing.jsonl").is_err());
    }

    #[test]
    fn compare_replicated() {
        cdt(&[
            "compare", "--m", "8", "--k", "2", "--l", "3", "--n", "20", "--reps", "2",
        ])
        .unwrap();
    }

    #[test]
    fn sweep_over_k_axis() {
        cdt(&[
            "sweep", "--axis", "k", "--grid", "2,3", "--m", "8", "--l", "3", "--n", "15",
        ])
        .unwrap();
    }

    #[test]
    fn sweep_with_reps_and_obs_summary() {
        cdt(&[
            "sweep",
            "--axis",
            "n",
            "--grid",
            "10,20",
            "--m",
            "8",
            "--k",
            "2",
            "--l",
            "3",
            "--reps",
            "2",
            "--obs-summary",
        ])
        .unwrap();
    }

    #[test]
    fn sweep_rejects_bad_flags() {
        assert!(cdt(&["sweep", "--grid", "1,2"]).is_err());
        assert!(cdt(&["sweep", "--axis", "q", "--grid", "1,2"]).is_err());
        assert!(cdt(&["sweep", "--axis", "k"]).is_err());
        assert!(cdt(&["sweep", "--axis", "k", "--grid", "2,x"]).is_err());
    }

    #[test]
    fn compare_and_sweep_reject_zero_reps_alike() {
        let want = Err("--reps must be at least 1".to_owned());
        assert_eq!(cdt(&["compare", "--m", "10", "--reps", "0"]), want);
        let grid = [
            "sweep", "--axis", "k", "--grid", "2,3", "--m", "10", "--reps", "0",
        ];
        assert_eq!(cdt(&grid), want);
    }

    #[test]
    fn oversized_size_flags_are_errors_naming_the_flag() {
        // Each size would overflow its buffer's byte count: an error, not
        // a `capacity overflow` panic (or, in release, a wrapped size).
        let max = "18446744073709551615";
        let cases: [(&str, &[&str]); 4] = [
            ("--m", &["run", "--m", max, "--k", "1", "--n", "1"]),
            (
                "--l",
                &["run", "--l", max, "--m", "3", "--k", "1", "--n", "1"],
            ),
            (
                "--reps",
                &[
                    "sweep", "--axis", "k", "--grid", "1", "--reps", max, "--m", "3", "--l", "1",
                    "--n", "1",
                ],
            ),
            ("--records", &["trace", "generate", "--records", max]),
        ];
        for (flag, argv) in cases {
            let err = cdt(argv).expect_err(flag);
            assert!(err.contains(flag), "{argv:?}: {err}");
        }
    }

    #[test]
    fn budget_command_stops_on_cap() {
        cdt(&[
            "budget", "--m", "8", "--k", "2", "--l", "3", "--n", "200", "--budget", "50",
        ])
        .unwrap();
    }

    #[test]
    fn budget_requires_flag() {
        assert!(cdt(&["budget", "--m", "8"]).is_err());
    }

    #[test]
    fn game_solves() {
        cdt(&["game", "--omega", "800", "--theta", "0.2"]).unwrap();
    }

    #[test]
    fn trace_generate_and_stats_round_trip() {
        let dir = std::env::temp_dir().join("cdt_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        let path_str = path.to_str().unwrap();
        cdt(&[
            "trace",
            "generate",
            "--records",
            "500",
            "--taxis",
            "20",
            "--seed",
            "1",
            "--out",
            path_str,
        ])
        .unwrap();
        trace_stats_cmd(path_str).unwrap();
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn trace_generate_rejects_out_of_range_taxis() {
        // 0 taxis leaves the sampler an empty range, and 2^32 + 1 would
        // wrap to 1 taxi through a narrowing cast: both are flag errors.
        for taxis in ["0", "4294967297"] {
            let err = cdt(&["trace", "generate", "--taxis", taxis]).expect_err(taxis);
            assert!(err.contains("--taxis"), "{taxis}: {err}");
        }
    }

    #[test]
    fn trace_stats_missing_file_errors() {
        assert!(trace_stats_cmd("/nonexistent/definitely/missing.csv").is_err());
    }

    #[test]
    fn rejects_k_above_m() {
        let err = cdt(&["run", "--m", "3", "--k", "5", "--n", "5"]).unwrap_err();
        assert!(err.contains("K=5"), "{err}");
    }
}
