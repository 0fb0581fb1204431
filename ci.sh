#!/usr/bin/env bash
# CI gate, offline: build, tests, the benchmark's own build and run of
# `cdt`, formatting, lints, a registry guard, a process-global-state
# guard, the examples' stdout against their goldens, a parallel-sweep
# determinism and speedup check, the paper-scale figures against their
# committed outputs, and end-to-end smokes of the `cdt` binary (strict
# flags, observability, journal).
set -euo pipefail
cd "$(dirname "$0")"

target_dir="${CARGO_TARGET_DIR:-target}"
CDT="$target_dir/release/cdt"
cdt() { "$CDT" "$@"; }

echo "==> build + tests (tier 1; --locked: Cargo.lock must be current)"
cargo build --release --offline --locked
cargo test -q --offline --locked

echo "==> benchmark leg (cdt built and driven as the benchmark does)"
# The benchmark compiles crates/cli/src/main.rs through its own manifest,
# against cdt-cli alone, and runs all four workloads with both metric
# sets; a tree that builds here but not there fails this leg. What it
# writes lands under benchmark/target and benchmark/out (gitignored).
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --seconds 1 > /tmp/cdt_bench.txt
last="$(tail -n 1 /tmp/cdt_bench.txt)"
case "$last" in
    *'"correct":true'*'"failed":0,'*) echo "benchmark: ${last:0:60}..." ;;
    *)
        echo "ERROR: the benchmark run did not end correct with 0 failures:" >&2
        echo "${last:0:400}" >&2
        exit 1
        ;;
esac

echo "==> debug cdt: count-bucketed and fused UCB selection against the threshold kernel"
# A debug CmabUcbPolicy re-selects every count-bucketed and every fused
# round with the threshold kernel over all M indices and panics on any
# difference. Two M >> K shapes keep the buckets for the whole run. The
# M = 2000, K = 10 run stays on the buckets for its first ~2 600 rounds,
# while the counts sweep through the arms about 13 times, so buckets are
# created, refilled, spilled and emptied (the --n 500 run never empties
# one); the fused bound selects its other rounds. At the sweep_k K = 60
# cell shape the buckets drop at the first selection, and the fused bound
# then ranks ~180 candidates a round. The K = 60 run, and the Table II run
# below, must also print what the release cdt prints: a debug build inlines
# no #[inline] function, so equal bytes show that the release build's
# inlined ziggurat accept step and row fill draw exactly what the
# out-of-line calls draw.
debug_matches_release() {
    "$target_dir/debug/cdt" "$@" > /tmp/cdt_debug_run.txt
    cdt "$@" > /tmp/cdt_release_run.txt
    if ! cmp -s /tmp/cdt_debug_run.txt /tmp/cdt_release_run.txt; then
        echo "ERROR: debug and release cdt $* printed different bytes" >&2
        diff /tmp/cdt_debug_run.txt /tmp/cdt_release_run.txt | head -n 5 >&2 || true
        exit 1
    fi
}
cargo build -q --offline --locked -p cdt-cli --bin cdt
"$target_dir/debug/cdt" run --m 10000 --k 10 --l 10 --n 500 > /dev/null
"$target_dir/debug/cdt" run --m 3000 --k 5 --l 3 --n 2000 > /dev/null
"$target_dir/debug/cdt" run --m 2000 --k 10 --l 10 --n 5000 > /dev/null
debug_matches_release run --m 300 --k 60 --l 10 --n 2000

echo "==> debug cdt: Table II rows of observations stay in [0, 1]"
# At the Table II shape UCB converges onto the sellers whose mean is near
# 1, so about half of their truncated-Gaussian draws are rejected; the
# debug estimator asserts that every observation the row fill kept lies
# in [0, 1]. The same run checks every selection after round 0 against
# the threshold kernel: count-bucketed through round 63, fused after.
debug_matches_release run --m 300 --k 10 --l 10 --n 20000

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

echo "==> no process-global state (the only statics: tables, span ids, clock, scopes, allocation count)"
# Each command's thread count and observability session live in the one
# RunConfig it builds, so no test needs a lock to keep another apart. The
# statics left are the ziggurat tables, the span id counters and clock,
# the thread-local scope slots (the health module's worker slot among
# them), and the counting allocator of tests/integration_alloc.rs with its
# count (that binary holds one test).
statics="$(grep -rhoE '^\s*(pub(\([a-z]+\))? )?static (mut )?[A-Za-z0-9_]+:' \
    --include='*.rs' crates tests | sed -E 's/.*static (mut )?([A-Za-z0-9_]+):/\2/' | sort)"
expected="$(printf '%s\n' ALLOCATIONS COUNTING EPOCH NEXT_SPAN NEXT_TRACE ROUND_SCOPE SCOPE TABLES WORKER \
    | sort)"
if [ "$statics" != "$expected" ]; then
    echo "ERROR: the static items under crates/ and tests/ changed:" >&2
    diff <(echo "$expected") <(echo "$statics") >&2 || true
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

echo "==> examples (each release example's stdout against its golden)"
# The examples are seeded and print no timing, so each prints the same
# bytes on every run: tests/fixtures/examples/<name>.txt. Every example
# has a golden, and every golden an example.
cargo build -q --release --offline --locked --examples
diff <(cd examples && ls -- *.rs | sed 's/\.rs$//') \
    <(cd tests/fixtures/examples && ls -- *.txt | sed 's/\.txt$//')
for golden in tests/fixtures/examples/*.txt; do
    name="$(basename "$golden" .txt)"
    "$target_dir/release/examples/$name" | diff "$golden" -
done

echo "==> benchmark tests (std-only, offline; e2e runs against benchmark/tests/fake_cdt.sh)"
cargo test --offline --manifest-path benchmark/Cargo.toml

echo "==> rustfmt"
cargo fmt --check

echo "==> clippy"
cargo clippy --offline --locked --workspace --all-targets -- -D warnings

echo "==> rustdoc (no broken, ambiguous or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --locked --no-deps --workspace

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
--obs-events journal verify /tmp/cdt_strict.jsonl --obs-events /tmp/cdt_strict_t.jsonl
--obs-summary journal audit /tmp/cdt_strict.jsonl --obs-summary
--metrics-out journal recover /tmp/cdt_strict.jsonl --metrics-out /tmp/cdt_strict.prom
--obs-spans journal seek /tmp/cdt_strict.jsonl --round 0 --obs-spans
--watchdog-ms journal diff /tmp/cdt_strict.jsonl /tmp/cdt_strict.jsonl --watchdog-ms 1
PROBES
# A flag that tunes another one is refused without it, by name, before
# anything runs: nothing is observed (or journaled) there to tune.
while read -r missing cmd; do
    set +e
    # shellcheck disable=SC2086  # $cmd is a deliberate word-split argument list
    cdt $cmd < /dev/null > /tmp/cdt_strict.txt 2>&1
    status=$?
    set -e
    if [ "$status" -ne 2 ] || ! grep -q -- "requires $missing " /tmp/cdt_strict.txt \
        || grep -q -e panicked -e '^CMAB-HS' /tmp/cdt_strict.txt; then
        echo "ERROR: cdt $cmd exited $status:" >&2
        cat /tmp/cdt_strict.txt >&2
        exit 1
    fi
done <<'PROBES'
--watchdog-ms run --m 10 --k 3 --l 4 --n 40 --watchdog-slow-round-ns 1 --obs-events /tmp/cdt_strict_t.jsonl
--obs-events run --m 10 --k 3 --l 4 --n 40 --obs-events-sample 5 --obs-summary
--obs-events run --m 10 --k 3 --l 4 --n 40 --obs-spans
--journal run --m 10 --k 3 --l 4 --n 40 --journal-segment-rounds 2
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
# A reader that closes stdout early ends cdt quietly with status 0; a
# stdout that refuses the write exits 2, naming it. Neither panics.
for cmd in "game" "journal audit tests/fixtures/golden.jsonl"; do
    set +e
    # shellcheck disable=SC2086  # $cmd is a deliberate word-split argument list
    cdt $cmd 2> /tmp/cdt_strict.txt | head -n 1 > /dev/null
    status=${PIPESTATUS[0]}
    set -e
    if [ "$status" -ne 0 ] || [ -s /tmp/cdt_strict.txt ]; then
        echo "ERROR: cdt $cmd | head -n 1 exited $status:" >&2
        cat /tmp/cdt_strict.txt >&2
        exit 1
    fi
done
set +e
cdt game > /dev/full 2> /tmp/cdt_strict.txt
status=$?
set -e
if [ "$status" -ne 2 ] || ! grep -q 'cannot write to stdout' /tmp/cdt_strict.txt \
    || grep -q panicked /tmp/cdt_strict.txt; then
    echo "ERROR: cdt game > /dev/full exited $status:" >&2
    cat /tmp/cdt_strict.txt >&2
    exit 1
fi
# At omega = 1e17 the welfare search's bracket is too wide for its 1e-9
# tolerance to be reachable in f64: the golden-section search must still
# end, and the welfare line print.
if ! timeout 60 "$CDT" game --omega 1e17 > /tmp/cdt_strict.txt \
    || ! grep -q '^  welfare: ' /tmp/cdt_strict.txt; then
    echo "ERROR: cdt game --omega 1e17 did not end with its welfare line:" >&2
    cat /tmp/cdt_strict.txt >&2
    exit 1
fi
# At omega = 1e155 the quadratic costs overflow at the search's bracket
# end: the first best must still be a finite welfare.
if ! timeout 60 "$CDT" game --omega 1e155 > /tmp/cdt_strict.txt \
    || ! grep '^  welfare: ' /tmp/cdt_strict.txt | grep -qv inf; then
    echo "ERROR: cdt game --omega 1e155 printed no finite welfare line:" >&2
    cat /tmp/cdt_strict.txt >&2
    exit 1
fi
# A trace whose phase times sum past u64::MAX summarizes without a panic
# in the debug build, which checks every addition.
printf '%s\n' '{"event":"round_end","run":"x","round":0,"observed_revenue":1,"consumer_profit":1,"platform_profit":1,"seller_profit":1,"selection_ns":18446744073709551615,"solve_ns":2,"observe_ns":0}' \
    > /tmp/cdt_strict_t.jsonl
set +e
"$target_dir/debug/cdt" obs summarize /tmp/cdt_strict_t.jsonl > /tmp/cdt_strict.txt 2>&1
status=$?
set -e
if [ "$status" -ne 0 ] || grep -q panicked /tmp/cdt_strict.txt; then
    echo "ERROR: debug cdt obs summarize of a saturating trace exited $status:" >&2
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

echo "==> budget observability smoke (a budgeted run is observed like cdt run)"
# `cdt budget` runs the loop of `cdt run`: the summary counts every round
# the engine ran, the one refused at settlement included (6 settle here).
cdt budget --m 8 --k 2 --l 3 --n 20 --budget 3000 --obs-summary \
    | tee /tmp/cdt_budget_summary.txt
grep -q '^rounds: 7 ' /tmp/cdt_budget_summary.txt

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
# A complete journal that lacks its final newline recovers whole: --out
# writes it back newline-terminated, and it verifies.
rm -f /tmp/cdt_journal_nonl.jsonl /tmp/cdt_journal_nonl_out.jsonl
head -c -1 /tmp/cdt_journal.jsonl > /tmp/cdt_journal_nonl.jsonl
cdt journal recover /tmp/cdt_journal_nonl.jsonl --out /tmp/cdt_journal_nonl_out.jsonl
cdt journal verify /tmp/cdt_journal_nonl_out.jsonl
cmp /tmp/cdt_journal_nonl_out.jsonl /tmp/cdt_journal.jsonl
# A journal is never replaced: a second run to the finished journal exits
# 2 and leaves it byte for byte as it was.
cp /tmp/cdt_journal.jsonl /tmp/cdt_journal_before.jsonl
set +e
cdt run --m 8 --k 2 --l 3 --n 6 --journal /tmp/cdt_journal.jsonl \
    > /tmp/cdt_journal_again.txt 2>&1
status=$?
set -e
if [ "$status" -ne 2 ] || ! grep -q 'refusing to start journal' /tmp/cdt_journal_again.txt; then
    echo "ERROR: a second run to a finished journal exited $status:" >&2
    cat /tmp/cdt_journal_again.txt >&2
    exit 1
fi
cmp /tmp/cdt_journal.jsonl /tmp/cdt_journal_before.jsonl

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
# A single-file run to the rotated base exits 2 and creates no base file
# that would shadow the segments.
set +e
cdt run --m 8 --k 2 --l 3 --n 6 --journal /tmp/cdt_journal_seg.jsonl \
    > /tmp/cdt_journal_again.txt 2>&1
status=$?
set -e
if [ "$status" -ne 2 ] || [ -e /tmp/cdt_journal_seg.jsonl ]; then
    echo "ERROR: a single-file run over a rotated journal exited $status:" >&2
    cat /tmp/cdt_journal_again.txt >&2
    exit 1
fi
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
# A forged count must fail every reader (exit 2), never panic on overflow
# in a debug build: on a copy of the compacted store, the checkpoint
# reference's segments_folded and the first segment's seq become u64::MAX.
rm -rf /tmp/cdt_journal_forged
mkdir /tmp/cdt_journal_forged
max=18446744073709551615
for args in "verify" "recover" "seek --round 5" "compact"; do
    cp /tmp/cdt_journal_seg.jsonl.* /tmp/cdt_journal_forged/
    forged=/tmp/cdt_journal_forged/cdt_journal_seg.jsonl
    sed -i "s/\"segments_folded\":2}/\"segments_folded\":$max}/; \
        s/{\"segment\":{\"seq\":2,/{\"segment\":{\"seq\":$max,/" "$forged.idx"
    if [ "$(grep -c -- "$max" "$forged.idx")" -ne 2 ]; then
        echo "ERROR: the forged-seq probe did not change both index lines" >&2
        exit 1
    fi
    set +e
    # shellcheck disable=SC2086  # $args is a deliberate word-split argument list
    "$target_dir/debug/cdt" journal ${args%% *} "$forged" ${args#"${args%% *}"} \
        > /tmp/cdt_journal_forged.txt 2>&1
    status=$?
    set -e
    if [ "$status" -ne 2 ] || grep -q panicked /tmp/cdt_journal_forged.txt; then
        echo "ERROR: debug journal $args exited $status on a forged seq:" >&2
        cat /tmp/cdt_journal_forged.txt >&2
        exit 1
    fi
done

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
