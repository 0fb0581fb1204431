//! End-to-end tests of the `cdt` binary: each test runs it as a child
//! process, so exit codes, stdout, stderr and the files it writes are
//! checked as a user sees them.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
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

/// Blanks what differs between two runs of one command, as `mask.sed`
/// does for `regen.sh` and `ci.sh`: a repro header `=== id (N tables, T)
/// ===` loses its timing, a `[csv written to PATH]` line keeps only the
/// file name, and every `"…_ns":N` value is blanked.
fn mask(text: &str) -> String {
    text.split_inclusive('\n')
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
            let mut masked = String::with_capacity(line.len());
            let mut rest = line;
            while let Some(at) = rest.find("_ns\":") {
                let (head, tail) = rest.split_at(at + "_ns\":".len());
                masked.push_str(head);
                rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            }
            masked.push_str(rest);
            masked
        })
        .collect()
}

/// Every file under `root`, by path relative to it, with its bytes.
fn files_under(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    files
}

/// The byte-identity check of every output-preserving change: each line
/// of `tests/fixtures/cli/commands.txt` runs the binary, and its masked
/// stdout, plus every file it creates or changes in its working
/// directory, must equal the goldens that `regen.sh` wrote beside it.
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
    assert!(commands.len() >= 20, "{list}");
    let mut scenes = Vec::new();
    for (i, (golden, args)) in commands.iter().enumerate() {
        let shown = format!("cdt {}", args.join(" "));
        let dir = match golden.split_once('/') {
            Some((scene, _)) => temp_path(&format!("golden_scene_{scene}")),
            None => temp_path(&format!("golden_{i}")),
        };
        if !scenes.contains(&dir) {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            scenes.push(dir.clone());
        }
        let before = files_under(&dir);
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
        let written: BTreeMap<PathBuf, Vec<u8>> = files_under(&dir)
            .into_iter()
            .filter(|(path, bytes)| before.get(path) != Some(bytes))
            .collect();
        let pinned = files_under(&fixtures.join(golden.strip_suffix(".txt").unwrap()));
        assert_eq!(
            written.keys().collect::<Vec<_>>(),
            pinned.keys().collect::<Vec<_>>(),
            "{shown}: the files it writes"
        );
        for (path, bytes) in &written {
            assert_eq!(
                mask(&String::from_utf8_lossy(bytes)),
                String::from_utf8_lossy(&pinned[path]),
                "{shown}: {} differs from its golden",
                path.display()
            );
        }
    }
    for dir in scenes {
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `cdt ARGS` run in `dir`, so the paths it prints are the relative ones
/// it was given.
fn cdt_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cdt"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cdt runs")
}

/// Single-file `journal recover` on two torn copies of a finished
/// journal prints what it kept and where replay stopped; a single file
/// has no segment to name, so the stop reasons carry no file label.
#[test]
fn torn_single_file_recovery_reports_its_stop() {
    let dir = temp_path("torn_single");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let run = cdt_in(
        &dir,
        &[
            "run",
            "--m",
            "8",
            "--k",
            "2",
            "--l",
            "3",
            "--n",
            "6",
            "--journal",
            "j.jsonl",
        ],
    );
    assert!(run.status.success(), "{}", stderr(&run));
    let bytes = std::fs::read(dir.join("j.jsonl")).unwrap();
    // The first 23 lines: JobPublished, 4 settled rounds and 2 events of
    // round 4. The first 2000 bytes: the same, then half of line 23.
    let lines = bytes
        .split_inclusive(|&b| b == b'\n')
        .take(23)
        .flatten()
        .copied()
        .collect::<Vec<u8>>();
    std::fs::write(dir.join("lines.jsonl"), lines).unwrap();
    std::fs::write(dir.join("bytes.jsonl"), &bytes[..2000]).unwrap();
    for (file, stop) in [
        (
            "lines.jsonl",
            "journal ends mid-round (2 in-flight events discarded)",
        ),
        (
            "bytes.jsonl",
            "bad event JSON: expected `,` or `}` at line 1 column 58",
        ),
    ] {
        let out = cdt_in(&dir, &["journal", "recover", file]);
        assert!(out.status.success(), "{file}: {}", stderr(&out));
        assert_eq!(
            stdout(&out),
            format!(
                "{file}: recovered 4 settled rounds (21 events kept of 23 lines)\n\
                 replay stopped at line 23: {stop}\n"
            )
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes stdout early ends `cdt` quietly with status 0; a
/// stdout that refuses the write is an error, never a panic.
#[test]
fn a_closed_or_full_stdout_ends_cdt_without_a_panic() {
    let journal = temp_path("closed_stdout.jsonl");
    let run = cdt(&[
        "run",
        "--m",
        "8",
        "--k",
        "2",
        "--l",
        "3",
        "--n",
        "30",
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{}", stderr(&run));
    for args in [
        &["game"][..],
        &["journal", "audit", journal.to_str().unwrap()],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cdt"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cdt runs");
        // Close the read end before cdt writes its first line.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert_eq!(stderr(&out), "", "{args:?}");
    }
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cdt"))
        .arg("game")
        .stdout(full)
        .output()
        .expect("cdt runs");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).starts_with("error: cannot write to stdout: "),
        "{}",
        stderr(&out)
    );
    std::fs::remove_file(journal).ok();
}
