//! End-to-end tests of the `cdt` binary: each test runs it as a child
//! process, so exit codes, stdout and stderr are checked as a user sees
//! them, and no test shares the process-wide observability pipeline.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn cdt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdt"))
        .args(args)
        .output()
        .expect("cdt runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A throwaway path in the system temp dir, unique per test name.
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cdt_cli_{}_{name}", std::process::id()))
}

#[test]
fn a_run_trace_summarizes_every_line() {
    let events = temp_path("events.jsonl");
    let events_arg = events.to_str().unwrap();
    let run = cdt(&[
        "run",
        "--m",
        "10",
        "--k",
        "3",
        "--l",
        "4",
        "--n",
        "40",
        "--obs-events",
        events_arg,
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    // Round 0's selection line carries `null` scores (+∞ UCB indices of
    // never-sampled sellers); it is an event like any other.
    let text = std::fs::read_to_string(&events).unwrap();
    assert_eq!(text.lines().count(), 200);
    assert!(text.contains(r#""scores":[null"#), "{text}");
    let summary = cdt(&["obs", "summarize", events_arg]);
    assert!(summary.status.success(), "{}", stderr(&summary));
    let summary = stdout(&summary);
    assert!(summary.contains("(200 events / 1 runs)"), "{summary}");
    assert!(!summary.contains("skipped"), "{summary}");
    std::fs::remove_file(events).ok();
}

#[test]
fn unwritable_outputs_fail_before_the_run() {
    // A run of minutes: the bad path must end it before the first round.
    let shape = [
        "run", "--m", "300", "--k", "10", "--l", "10", "--n", "100000",
    ];
    for flag in ["--json", "--metrics-out"] {
        let path = format!("/nonexistent/cdt-{}", &flag[2..]);
        let mut args = shape.to_vec();
        args.extend([flag, &path]);
        let started = Instant::now();
        let out = cdt(&args);
        assert!(started.elapsed() < Duration::from_secs(10), "{flag}");
        assert_eq!(out.status.code(), Some(2), "{flag}: {}", stderr(&out));
        assert!(stderr(&out).contains(&path), "{flag}: {}", stderr(&out));
        assert!(
            !stdout(&out).contains("CMAB-HS"),
            "{flag}: {}",
            stdout(&out)
        );
    }
}

#[test]
fn repro_refuses_unknown_ids_and_retired_flags() {
    let out = cdt(&["repro", "--exp", "table2,nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown experiment `nosuch`"),
        "{}",
        stderr(&out)
    );
    assert!(
        stdout(&out).is_empty(),
        "an experiment ran: {}",
        stdout(&out)
    );
    for (flag, args) in [
        ("--test", &["repro", "--test"][..]),
        ("--journal", &["repro", "--journal", "x.jsonl"][..]),
    ] {
        let out = cdt(args);
        assert_eq!(out.status.code(), Some(2));
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown flag {flag} for cdt repro")),
            "{err}"
        );
    }
}

#[test]
fn repro_prints_the_table_header_and_csv_paths() {
    let dir = temp_path("repro");
    std::fs::remove_dir_all(&dir).ok();
    let out = cdt(&["repro", "--exp", "table2", "--csv", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.starts_with("# CMAB-HS figure reproduction (scale: test)\n\n=== table2 (1 table, ")
    );
    let csv = dir.join("table2_0.csv");
    assert!(
        text.contains(&format!("[csv written to {}]\n", csv.display())),
        "{text}"
    );
    assert!(std::fs::read_to_string(&csv)
        .unwrap()
        .starts_with("parameter,"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Blanks what differs between two runs of one command: a repro header
/// `=== id (N tables, T) ===` loses its timing, and a `[csv written to
/// PATH]` line keeps only the file name, as `mask.sed` does for
/// `regen.sh` and `ci.sh`.
fn mask(stdout: &str) -> String {
    stdout
        .split_inclusive('\n')
        .map(|line| {
            let (body, newline) = line.strip_suffix('\n').map_or((line, ""), |b| (b, "\n"));
            if let Some(path) = body
                .strip_prefix("[csv written to ")
                .and_then(|rest| rest.strip_suffix(']'))
            {
                let name = Path::new(path).file_name().unwrap().to_string_lossy();
                return format!("[csv written to {name}]{newline}");
            }
            if body.starts_with("=== ") && body.ends_with(") ===") {
                if let Some(comma) = body.rfind(", ").filter(|&i| body[..i].contains(" table")) {
                    return format!("{}) ==={newline}", &body[..comma]);
                }
            }
            line.to_string()
        })
        .collect()
}

/// The byte-identity check of every output-preserving change: each line
/// of `tests/fixtures/cli/commands.txt` runs the binary, and its masked
/// stdout (plus every CSV a `--csv DIR` run writes) must equal the golden
/// files that `regen.sh` wrote beside it.
#[test]
fn cli_outputs_match_their_goldens() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/cli");
    let list = std::fs::read_to_string(fixtures.join("commands.txt")).unwrap();
    let commands: Vec<(&str, Vec<&str>)> = list
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace();
            (words.next().unwrap(), words.collect())
        })
        .collect();
    assert!(commands.len() >= 6, "{list}");
    for (i, (golden, args)) in commands.iter().enumerate() {
        let shown = format!("cdt {}", args.join(" "));
        let dir = temp_path(&format!("golden_{i}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_cdt"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("cdt runs");
        assert!(out.status.success(), "{shown}: {}", stderr(&out));
        let expected = std::fs::read_to_string(fixtures.join(golden)).unwrap();
        assert_eq!(
            mask(&stdout(&out)),
            expected,
            "{shown} differs from {golden}"
        );
        if let Some(csv) = args.windows(2).find(|w| w[0] == "--csv").map(|w| w[1]) {
            let names = |root: &Path| {
                let mut names: Vec<_> = std::fs::read_dir(root)
                    .unwrap()
                    .map(|entry| entry.unwrap().file_name())
                    .collect();
                names.sort();
                names
            };
            let (written, pinned) = (dir.join(csv), fixtures.join(csv));
            assert_eq!(names(&written), names(&pinned), "{shown}: csv files");
            for name in names(&pinned) {
                assert!(
                    std::fs::read(written.join(&name)).unwrap()
                        == std::fs::read(pinned.join(&name)).unwrap(),
                    "{shown}: {} differs from its golden",
                    name.to_string_lossy()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
