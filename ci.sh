#!/usr/bin/env bash
# CI gate, offline: build, tests, formatting, lints, a registry guard, a
# parallel-sweep determinism and speedup check, the paper-scale figures
# against their committed outputs, and end-to-end smokes of the `cdt`
# binary (strict flags, observability, journal).
set -euo pipefail
cd "$(dirname "$0")"

target_dir="${CARGO_TARGET_DIR:-target}"
CDT="$target_dir/release/cdt"
cdt() { "$CDT" "$@"; }

echo "==> build + tests (tier 1; --locked: Cargo.lock must be current)"
cargo build --release --offline --locked
cargo test -q --offline --locked

echo "==> debug cdt: count-bucketed UCB selection against the threshold kernel"
# A debug CmabUcbPolicy re-selects every count-bucketed round with the
# threshold kernel over all M indices and panics on any difference. Two
# M >> K shapes that keep the buckets for the whole run.
cargo build -q --offline --locked -p cdt-cli --bin cdt
"$target_dir/debug/cdt" run --m 10000 --k 10 --l 10 --n 500 > /dev/null
"$target_dir/debug/cdt" run --m 3000 --k 5 --l 3 --n 2000 > /dev/null

echo "==> registry guard (no rand, proptest, criterion, serde or serde_json)"
# cdt_types::SimRng is the one generator, cdt_types::check the one
# property loop, cdt_types::json the one JSON codec, and benchmark/ the
# one timing harness: the workspace names no registry crate.
for dep in rand proptest criterion serde serde_json; do
    if grep -nE "^$dep\b" Cargo.toml crates/*/Cargo.toml; then
        echo "ERROR: a manifest declares $dep" >&2
        exit 1
    fi
    if grep -rnE "\b$dep(::|!)" --include='*.rs' crates tests examples; then
        echo "ERROR: a source file names $dep:: or $dep!" >&2
        exit 1
    fi
done
if grep -n '^source = ' Cargo.lock; then
    echo "ERROR: Cargo.lock lists a crate from outside the workspace" >&2
    exit 1
fi

echo "==> same-seed smoke (one seed, one run; another seed, another run)"
seed_run() {
    cdt run --m 300 --k 10 --l 10 --n 2000 --seed "$1" > "$2"
}
seed_run 5 /tmp/cdt_seed5_a.txt
seed_run 5 /tmp/cdt_seed5_b.txt
seed_run 6 /tmp/cdt_seed6.txt
cmp /tmp/cdt_seed5_a.txt /tmp/cdt_seed5_b.txt
if cmp -s /tmp/cdt_seed5_a.txt /tmp/cdt_seed6.txt; then
    echo "ERROR: --seed 5 and --seed 6 printed identical runs" >&2
    exit 1
fi

echo "==> benchmark tests (std-only, offline; e2e runs against benchmark/tests/fake_cdt.sh)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> rustfmt"
cargo fmt --check

echo "==> clippy"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "==> parallel sweep (same tables at 1 and 2 threads; a speedup on 2+ cores)"
# The benchmark's sweep_k grid: 60 cell jobs on the pool. The tables are
# a pure function of the per-job results, so any thread count prints the
# same bytes; on two or more cores the pool must also pay for itself.
sweep=(sweep --axis k --grid 10,20,30,40,50,60 --m 300 --l 10 --n 1000 --reps 2)
cdt "${sweep[@]}" --threads 1 > /tmp/cdt_sweep_t1.txt
cdt "${sweep[@]}" --threads 2 > /tmp/cdt_sweep_t2.txt
cmp /tmp/cdt_sweep_t1.txt /tmp/cdt_sweep_t2.txt
if [ "$(nproc)" -ge 2 ]; then
    python3 - "$CDT" "${sweep[@]}" <<'PY'
import subprocess, sys, time
cmd = sys.argv[1:]
def wall(threads):
    started = time.perf_counter()
    subprocess.run(cmd + ["--threads", str(threads)], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - started
best = max(wall(1) / wall(2) for _ in range(3))
print(f"sweep speedup: best of 3 = {best:.2f}x on 2 threads")
assert best >= 1.3, f"parallel sweep speedup {best:.2f}x is below 1.3x"
PY
else
    echo "sweep speedup check skipped: 1 core"
fi

echo "==> paper-scale repro (27 CSVs against results/, stdout against repro_paper.txt)"
# The whole Sec. V evaluation at paper scale: every CSV must equal the
# committed one byte for byte, and stdout must equal repro_paper.txt once
# both are masked alike (the CLI goldens' mask: a header `=== id (N
# tables, T) ===` loses its timing, a `[csv written to PATH]` line keeps
# only the file name).
rm -rf /tmp/cdt_paper
cdt repro --paper --csv /tmp/cdt_paper > /tmp/cdt_paper.txt
diff <(cd results && ls -- *.csv) <(ls /tmp/cdt_paper)
for csv in results/*.csv; do
    cmp "$csv" "/tmp/cdt_paper/$(basename "$csv")"
done
mask=tests/fixtures/cli/mask.sed
diff <(sed -f "$mask" repro_paper.txt) <(sed -f "$mask" /tmp/cdt_paper.txt)

echo "==> strict flag smoke (unknown flags exit 2 naming the flag, never panic)"
# Each subcommand reads a fixed flag list; a removed knob or a typo must
# be rejected by name before any work starts (and before it can swallow
# the next flag as its value).
while read -r flag cmd; do
    set +e
    # shellcheck disable=SC2086  # $cmd is a deliberate word-split argument list
    cdt $cmd < /dev/null > /tmp/cdt_strict.txt 2>&1
    status=$?
    set -e
    if [ "$status" -ne 2 ] || ! grep -q -- "unknown flag $flag " /tmp/cdt_strict.txt \
        || grep -q panicked /tmp/cdt_strict.txt; then
        echo "ERROR: cdt $cmd exited $status:" >&2
        cat /tmp/cdt_strict.txt >&2
        exit 1
    fi
done <<'PROBES'
--engine sweep --axis k --grid 10 --engine
--chunk compare --chunk 4
--kk run --kk 3
--k game --k 5
--batch compare --batch 4
--lanes run --lanes 4
--fast-math sweep --axis k --grid 10 --fast-math
--test repro --test
--journal repro --journal x.jsonl
PROBES
# An unknown experiment id is refused by name before anything runs.
set +e
cdt repro --exp fig7,nosuch > /tmp/cdt_strict.txt 2>&1
status=$?
set -e
if [ "$status" -ne 2 ] || ! grep -q 'unknown experiment `nosuch`' /tmp/cdt_strict.txt \
    || grep -q '^===' /tmp/cdt_strict.txt; then
    echo "ERROR: cdt repro --exp fig7,nosuch exited $status:" >&2
    cat /tmp/cdt_strict.txt >&2
    exit 1
fi

echo "==> observability smoke (JSONL trace + Prometheus dump)"
rm -f /tmp/cdt_obs_events.jsonl /tmp/cdt_obs_metrics.prom
cdt repro --exp fig7 --obs-events /tmp/cdt_obs_events.jsonl \
    --metrics-out /tmp/cdt_obs_metrics.prom
test -s /tmp/cdt_obs_events.jsonl
test -s /tmp/cdt_obs_metrics.prom
# Every trace line must be a tagged JSON object, read by a parser other
# than cdt's own.
python3 - <<'EOF'
import json
with open("/tmp/cdt_obs_events.jsonl") as f:
    lines = [json.loads(line) for line in f]
assert lines, "no events written"
assert all("event" in obj for obj in lines), "untagged event line"
print(f"obs smoke: {len(lines)} valid events")
EOF
grep -q '^cdt_obs_rounds_total' /tmp/cdt_obs_metrics.prom

echo "==> cdt obs summarize (offline summary of the smoke trace)"
cdt obs summarize /tmp/cdt_obs_events.jsonl \
    | tee /tmp/cdt_obs_summary.txt
grep -q '^== observability summary ==' /tmp/cdt_obs_summary.txt
grep -q '^rounds: ' /tmp/cdt_obs_summary.txt
grep -q '^throughput: ' /tmp/cdt_obs_summary.txt

echo "==> span tracing smoke (flame + critical path over a traced run)"
rm -f /tmp/cdt_obs_spans.jsonl
cdt run \
    --m 10 --k 3 --l 4 --n 40 --obs-events /tmp/cdt_obs_spans.jsonl --obs-spans
test -s /tmp/cdt_obs_spans.jsonl
grep -q '"event":"span"' /tmp/cdt_obs_spans.jsonl
cdt obs flame /tmp/cdt_obs_spans.jsonl \
    | tee /tmp/cdt_obs_flame.txt
# The flame report must reconcile exactly: Σ exclusive == root inclusive.
grep -q '\[root run: inclusive \(.*\) == exclusive-sum \1\]' /tmp/cdt_obs_flame.txt
cdt obs critical-path /tmp/cdt_obs_spans.jsonl \
    | tee /tmp/cdt_obs_critical.txt
test -s /tmp/cdt_obs_critical.txt

echo "==> watchdog smoke (a 1 ns slow-round floor must page)"
rm -f /tmp/cdt_obs_watchdog.jsonl
cdt run \
    --m 10 --k 3 --l 4 --n 40 --obs-events /tmp/cdt_obs_watchdog.jsonl \
    --watchdog-ms 1 --watchdog-slow-round-ns 1
grep -c '"event":"health"' /tmp/cdt_obs_watchdog.jsonl \
    | python3 -c 'import sys; n=int(sys.stdin.read()); assert n>=1, "watchdog emitted no health events"; print(f"watchdog smoke: {n} health events")'

echo "==> protocol journal smoke (stream, verify, truncate mid-round, recover)"
rm -f /tmp/cdt_journal.jsonl /tmp/cdt_journal.jsonl.partial \
    /tmp/cdt_journal_torn.jsonl /tmp/cdt_journal_recovered.jsonl
cdt run \
    --m 8 --k 2 --l 3 --n 6 --journal /tmp/cdt_journal.jsonl
test -s /tmp/cdt_journal.jsonl
# The finished journal is published by atomic rename: no .partial remains.
test ! -e /tmp/cdt_journal.jsonl.partial
cdt journal verify /tmp/cdt_journal.jsonl
cdt journal audit /tmp/cdt_journal.jsonl \
    | tee /tmp/cdt_journal_audit.txt
grep -q '^consumer paid:' /tmp/cdt_journal_audit.txt
# Simulate a killed run: keep JobPublished + 4 settled rounds + 2 in-flight
# events of round 4 (1 + 4*5 + 2 = 23 lines). Strict verify must reject the
# torn tail; recover must keep exactly the 4-round settled prefix, and the
# recovered prefix must itself verify.
head -n 23 /tmp/cdt_journal.jsonl > /tmp/cdt_journal_torn.jsonl
if cdt journal verify /tmp/cdt_journal_torn.jsonl; then
    echo "ERROR: strict verify accepted a mid-round-truncated journal" >&2
    exit 1
fi
cdt journal recover /tmp/cdt_journal_torn.jsonl \
    --out /tmp/cdt_journal_recovered.jsonl | tee /tmp/cdt_journal_recover.txt
grep -q 'recovered 4 settled rounds' /tmp/cdt_journal_recover.txt
grep -q 'mid-round' /tmp/cdt_journal_recover.txt
cdt journal verify /tmp/cdt_journal_recovered.jsonl

echo "==> journal rotation smoke (segments, compaction checkpoint, seek)"
rm -f /tmp/cdt_journal_seg.jsonl /tmp/cdt_journal_seg.jsonl.seg-* \
    /tmp/cdt_journal_seg.jsonl.idx /tmp/cdt_journal_seg.jsonl.ckpt-*
# Same scenario and seed as the single-file smoke above: rotation is a
# file-layout change only, so the sealed segments must concatenate to the
# exact bytes of /tmp/cdt_journal.jsonl. 6 rounds at 2 rounds/segment is
# segs 0-1, 2-3, 4-5, plus the JobCompleted tail segment: 4 segments.
cdt run \
    --m 8 --k 2 --l 3 --n 6 --journal /tmp/cdt_journal_seg.jsonl \
    --journal-segment-rounds 2 | tee /tmp/cdt_journal_seg_run.txt
grep -q 'journal rotated into 4 segments' /tmp/cdt_journal_seg_run.txt
# Rotation roots the journal at the index — no base file appears…
test ! -e /tmp/cdt_journal_seg.jsonl
test -s /tmp/cdt_journal_seg.jsonl.idx
# …and cat(segments) == the single-file journal, byte for byte.
cat /tmp/cdt_journal_seg.jsonl.seg-* | cmp - /tmp/cdt_journal.jsonl
cdt journal verify /tmp/cdt_journal_seg.jsonl \
    | tee /tmp/cdt_journal_seg_verify.txt
grep -q 'segments: 4 sealed' /tmp/cdt_journal_seg_verify.txt
# Settlements must diff to exactly zero against the single-file run, and a
# point lookup must replay only the one segment holding the round.
cdt journal diff \
    /tmp/cdt_journal.jsonl /tmp/cdt_journal_seg.jsonl
cdt journal seek /tmp/cdt_journal_seg.jsonl \
    --round 3 | tee /tmp/cdt_journal_seek.txt
grep -q 'served from segment 1' /tmp/cdt_journal_seek.txt
# Fold the first two segments (rounds 0-3) into a checkpoint: verify,
# diff-vs-uncompacted, and seek must all answer exactly as before.
cdt journal compact /tmp/cdt_journal_seg.jsonl \
    --keep-segments 2 | tee /tmp/cdt_journal_compact.txt
grep -q 'into checkpoint generation 1' /tmp/cdt_journal_compact.txt
grep -q 'checkpoint now covers 4 rounds' /tmp/cdt_journal_compact.txt
test ! -e /tmp/cdt_journal_seg.jsonl.seg-0000
cdt journal verify /tmp/cdt_journal_seg.jsonl
cdt journal diff \
    /tmp/cdt_journal.jsonl /tmp/cdt_journal_seg.jsonl
cdt journal seek /tmp/cdt_journal_seg.jsonl \
    --round 1 | tee /tmp/cdt_journal_seek.txt
grep -q 'served from checkpoint ledger' /tmp/cdt_journal_seek.txt
cdt journal seek /tmp/cdt_journal_seg.jsonl \
    --round 5 | tee /tmp/cdt_journal_seek.txt
grep -q 'served from segment 2' /tmp/cdt_journal_seek.txt
# Recovery resumes from the checkpoint and still sees all 6 rounds.
cdt journal recover /tmp/cdt_journal_seg.jsonl \
    | tee /tmp/cdt_journal_seg_recover.txt
grep -q 'recovered 6 settled rounds' /tmp/cdt_journal_seg_recover.txt
grep -q 'resumed from checkpoint: 4 rounds' /tmp/cdt_journal_seg_recover.txt
# A forged index entry must fail strict verify (exit 2): segment 2 settles
# rounds 4-5, and its entry now claims a first round of u64::MAX.
cp /tmp/cdt_journal_seg.jsonl.idx /tmp/cdt_journal_seg.idx.orig
sed -i 's/"first_round":4,/"first_round":18446744073709551615,/' /tmp/cdt_journal_seg.jsonl.idx
if cmp -s /tmp/cdt_journal_seg.jsonl.idx /tmp/cdt_journal_seg.idx.orig; then
    echo "ERROR: the forged-index probe did not change the index" >&2
    exit 1
fi
set +e
cdt journal verify /tmp/cdt_journal_seg.jsonl \
    > /tmp/cdt_journal_forged.txt 2>&1
status=$?
set -e
if [ "$status" -ne 2 ] || ! grep -q 'first round' /tmp/cdt_journal_forged.txt; then
    echo "ERROR: journal verify exited $status on a forged first_round:" >&2
    cat /tmp/cdt_journal_forged.txt >&2
    exit 1
fi
cp /tmp/cdt_journal_seg.idx.orig /tmp/cdt_journal_seg.jsonl.idx

echo "==> journal diff smoke (same seed diffs to zero, another seed fails)"
# Two runs of one scenario and seed must settle bit-identically; a run of
# another seed is a different run and must fail the zero-tolerance diff
# (nonzero exit).
rm -f /tmp/cdt_diff_{a,b,d}.jsonl
diff_scenario="--m 20 --k 5 --l 10 --n 6"
# shellcheck disable=SC2086  # deliberate word-split flag list
cdt run $diff_scenario \
    --journal /tmp/cdt_diff_a.jsonl
# shellcheck disable=SC2086
cdt run $diff_scenario \
    --journal /tmp/cdt_diff_b.jsonl
# shellcheck disable=SC2086
cdt run $diff_scenario \
    --seed 7 --journal /tmp/cdt_diff_d.jsonl
cdt journal diff \
    /tmp/cdt_diff_a.jsonl /tmp/cdt_diff_b.jsonl
if cdt journal diff \
    /tmp/cdt_diff_a.jsonl /tmp/cdt_diff_d.jsonl; then
    echo "ERROR: journal diff accepted diverging runs" >&2
    exit 1
fi

echo "==> ci.sh: all gates passed"
