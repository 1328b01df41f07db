#!/usr/bin/env bash
# CI gate: build, tier-1 tests, lints. Everything runs offline.
#
# The full fault-injection soak (64 seeds x 3 fault rates x 5 tools) is
# ignored by default; CI runs it here with a bounded thread pool. Drop
# RUN_SOAK=0 into the environment to skip it locally.
set -euo pipefail
cd "$(dirname "$0")"

# Each step's wall time (bash SECONDS), printed with the total at the end.
STEP=""
STEP_T0=0
STEP_TIMES=()
end_step() {
    if [[ -n "$STEP" ]]; then
        STEP_TIMES+=("$(printf '%5d s  %s' $((SECONDS - STEP_T0)) "$STEP")")
    fi
}
step() {
    end_step
    STEP="$1"
    STEP_T0=$SECONDS
    echo "==> $1"
}

step "cargo build --workspace --release"
cargo build --workspace --release

step "examples and self-checking paper tables (release)"
# The examples assert what they print (Fig. 7's stale read among them);
# table3 and table_static exit non-zero when a row breaks.
cargo build --release --examples
RUNS=()
for src in examples/*.rs; do RUNS+=("target/release/examples/$(basename "$src" .rs)"); done
RUNS+=(target/release/table3 target/release/table_static)
for exe in "${RUNS[@]}"; do
    OUT="$("./$exe" 2>&1)" || { echo "$exe failed:"; echo "$OUT"; exit 1; }
done
echo "    ${#RUNS[@]} programs OK"

step "perfbench build (the benchmark is a package of its own)"
# Same target directory as perfbench/run.py; --locked fails the step if
# perfbench/Cargo.lock would change.
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --locked --quiet \
    --manifest-path perfbench/Cargo.toml

step "perfbench output checks (each workload for 2 s)"
# Every op checks its output (served reports byte-identical to an
# in-process session, Table III, ...); a run passes only with
# "correct": true and no failed op on its last line.
for w in dracc-sweep spec-stream serve-replay static-fuzz; do
    PB_SCRATCH="$(mktemp -d)"
    PB_LAST="$(.bench_build/release/perfbench --workload "$w" --seed 1 --seconds 2 --trace 0 \
        --scratch "$PB_SCRATCH" | tail -n 1)"
    rm -rf "$PB_SCRATCH"
    python3 -c 'import json, sys; r = json.loads(sys.argv[1])
sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$PB_LAST" \
        || { echo "perfbench $w failed its output checks: $PB_LAST"; exit 1; }
    echo "    $w OK"
done

step "cargo test -q (tier-1: root package)"
cargo test -q

step "cargo test --workspace -q"
cargo test --workspace -q

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "arbalest lint all (static analyzer gate)"
# Exit code enforces the contract: buggy models flagged, correct silent.
./target/release/arbalest lint all --quiet

step "arbalest fuzz-lint --seeds 64 (differential soundness gate)"
# Generated programs + all 56 DRACC models through both detectors:
# every static Must confirmed dynamically, every dynamic report
# statically anticipated.
./target/release/arbalest fuzz-lint --seeds 64 --quiet

step "arbalest fix all (repair synthesis gate)"
# Every model convicted at Must needs a synthesized repair clearing
# both oracles (static re-check clean, zero dynamic reports).
./target/release/arbalest fix all --quiet

step "arbalest optimize (SPEC report-parity gate)"
# Transfer minimization must hold diagnostics byte-identical; the
# --apply-check re-verification fails the run on any parity break.
for w in postencil polbm pomriq pep pcg; do
    ./target/release/arbalest optimize "spec/$w" --apply-check --quiet
done

if [[ "${RUN_SOAK:-1}" == "1" ]]; then
    step "fault-injection soak (ignored test, bounded)"
    cargo test -q --test soak -- --ignored

    step "race-engine reference sweep (3000 seeds + >4096-task programs, 60s budget)"
    # Compile outside the wall-clock budget; only the sweep itself is bounded.
    # --nocapture shows the mixed-size misses, the kernel programs' repeat
    # share and the verdict goldens.
    cargo test -q --release --test oracle_race --no-run
    timeout 60 cargo test -q --release --test oracle_race -- --ignored --nocapture

    step "page-table stress (racing first touches against readers, 60s budget)"
    cargo test -q --release -p arbalest-sync --no-run
    timeout 60 cargo test -q --release -p arbalest-sync -- --ignored

    step "race-engine concurrency stress (repeat slots and cached cells on two threads, 60s budget)"
    cargo test -q --release -p arbalest-race --no-run
    timeout 60 cargo test -q --release -p arbalest-race -- --ignored

    step "team-pool stress (4 runtimes forking through member panics, 60s budget)"
    # A deadlocked pool fails here within a minute instead of hanging CI.
    cargo test -q --release -p arbalest-offload --test team_pool --no-run
    timeout 60 cargo test -q --release -p arbalest-offload --test team_pool -- --ignored

    step "network-chaos soak (all DRACC cases, fixed seeds, 60s budget)"
    # Compile outside the wall-clock budget; only the soak itself is bounded.
    cargo test -q --release -p arbalest-server --test chaos_soak --no-run
    timeout 60 cargo test -q --release -p arbalest-server --test chaos_soak -- --ignored
fi

step "analysis-service smoke (unix socket, 30s budget)"
SOCK="$(mktemp -u /tmp/arbalest-ci-XXXXXX.sock)"
TRACE="$(mktemp /tmp/arbalest-ci-XXXXXX.trace)"
ARB=./target/release/arbalest
timeout 30 "$ARB" serve --listen "unix:$SOCK" --shards 2 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -f "$SOCK" "$TRACE"' EXIT
for _ in $(seq 1 50); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
[[ -S "$SOCK" ]] || { echo "server never bound $SOCK"; exit 1; }
"$ARB" record 22 -o "$TRACE" --connect "unix:$SOCK"
SUBMIT_OUT="$("$ARB" submit "$TRACE" --connect "unix:$SOCK")"
echo "$SUBMIT_OUT" | grep -q "mapping-issue(UUM)" \
    || { echo "submit produced no UUM report:"; echo "$SUBMIT_OUT"; exit 1; }
# Capture before grepping: `grep -q` closing the pipe early would EPIPE
# the client under pipefail.
STATS_OUT="$("$ARB" stats --connect "unix:$SOCK")"
echo "$STATS_OUT" | grep -q "1 finished" \
    || { echo "stats did not count the finished session"; exit 1; }
PROM_OUT="$("$ARB" stats --format prom --connect "unix:$SOCK")"
echo "$PROM_OUT" | grep -q "^arbalest_server_sessions_finished_total 1$" \
    || { echo "prometheus export disagrees with stats"; exit 1; }
# The live scrape must pass the text-exposition conformance checker.
echo "$PROM_OUT" | "$ARB" check-prom \
    || { echo "prometheus export failed conformance"; exit 1; }
"$ARB" stop --connect "unix:$SOCK"
# Clean drain must finish well inside the timeout's budget.
wait "$SERVE_PID" || { echo "server exited non-zero"; exit 1; }
trap - EXIT
rm -f "$SOCK" "$TRACE"
echo "    server smoke OK"

step "crash-recovery smoke (kill -9 mid-session, 60s budget)"
DATA="$(mktemp -d /tmp/arbalest-ci-XXXXXX.data)"
DSOCK="$(mktemp -u /tmp/arbalest-ci-XXXXXX.sock)"
DTRACE="$(mktemp /tmp/arbalest-ci-XXXXXX.trace)"
# No `timeout` wrapper here: $! must be the server itself (killing a
# wrapper would orphan it), and this instance is SIGKILLed just below —
# the EXIT trap bounds the failure paths.
"$ARB" serve --listen "unix:$DSOCK" --shards 2 \
    --data-dir "$DATA" --snapshot-every-events 512 &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$DSOCK" "$DTRACE" "$DATA"' EXIT
for _ in $(seq 1 50); do [[ -S "$DSOCK" ]] && break; sleep 0.1; done
[[ -S "$DSOCK" ]] || { echo "durable server never bound $DSOCK"; exit 1; }
"$ARB" record 22 -o "$DTRACE"
# Stream half the trace, leave the session open, then SIGKILL: the only
# surviving copy of the session is its write-ahead log.
OPEN_OUT="$("$ARB" submit "$DTRACE" --connect "unix:$DSOCK" --take 1800 --no-finish --deadline 30)"
SESSION="$(echo "$OPEN_OUT" | sed -n 's/.*session \([0-9]*\) left open.*/\1/p')"
[[ -n "$SESSION" ]] || { echo "no open session id in: $OPEN_OUT"; exit 1; }
kill -9 "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
# Capture before grepping (as above: `grep -q` would EPIPE the binary).
INSPECT_OUT="$("$ARB" store inspect "$DATA")"
echo "$INSPECT_OUT" | grep -q "session $SESSION" \
    || { echo "WAL lost session $SESSION after kill -9:"; echo "$INSPECT_OUT"; exit 1; }
# Restart over the same data directory: resuming must rebuild the
# session from disk, and finishing it must match an uninterrupted run.
timeout 60 "$ARB" serve --listen "unix:$DSOCK" --shards 2 --data-dir "$DATA" &
SERVE_PID=$!
# $! is now the timeout wrapper: a SIGTERM reaches the server through
# it, where the SIGKILL above would orphan the server.
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$DSOCK" "$DTRACE" "$DATA"' EXIT
# The SIGKILLed instance left its socket file behind, so the file proves
# nothing: wait until the new instance answers.
for _ in $(seq 1 50); do "$ARB" stats --connect "unix:$DSOCK" >/dev/null 2>&1 && break; sleep 0.1; done
"$ARB" stats --connect "unix:$DSOCK" >/dev/null \
    || { echo "durable server never rebound $DSOCK"; exit 1; }
RESUMED_OUT="$("$ARB" submit "$DTRACE" --connect "unix:$DSOCK" --resume "$SESSION" --deadline 30)"
FRESH_OUT="$("$ARB" submit "$DTRACE" --connect "unix:$DSOCK" --deadline 30)"
[[ "$RESUMED_OUT" == "$FRESH_OUT" ]] \
    || { echo "recovered session diverged from uninterrupted run"; \
         diff <(echo "$RESUMED_OUT") <(echo "$FRESH_OUT") || true; exit 1; }
# Both sessions finished cleanly, so their durable state must be gone.
LEFT="$(ls "$DATA/sessions" 2>/dev/null | wc -l)"
[[ "$LEFT" == "0" ]] || { echo "finished sessions left durable state"; exit 1; }
# The resumed session was rebuilt once, at the resume, and counted once:
# nothing may still count as active.
STATS_OUT="$("$ARB" stats --connect "unix:$DSOCK")"
echo "$STATS_OUT" | grep -q " 0 active" \
    || { echo "restarted server still counts a session active:"; echo "$STATS_OUT"; exit 1; }
"$ARB" stop --connect "unix:$DSOCK"
wait "$SERVE_PID" || { echo "durable server exited non-zero"; exit 1; }
trap - EXIT
rm -rf "$DSOCK" "$DTRACE" "$DATA"
echo "    crash-recovery smoke OK"

step "causal-tracing smoke (serve --trace-dir --data-dir, 30s budget)"
TSOCK="$(mktemp -u /tmp/arbalest-ci-XXXXXX.sock)"
TDIR="$(mktemp -d /tmp/arbalest-ci-XXXXXX.traces)"
TDATA="$(mktemp -d /tmp/arbalest-ci-XXXXXX.data)"
# A durable instance, so every batch also has its wal_append leg.
timeout 30 "$ARB" serve --listen "unix:$TSOCK" --shards 2 --trace-dir "$TDIR" \
    --data-dir "$TDATA" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$TSOCK" "$TDIR" "$TDATA"' EXIT
for _ in $(seq 1 50); do [[ -S "$TSOCK" ]] && break; sleep 0.1; done
[[ -S "$TSOCK" ]] || { echo "tracing server never bound $TSOCK"; exit 1; }
"$ARB" submit 22 --connect "unix:$TSOCK" --trace --quiet
TRACE_FILE="$(ls "$TDIR"/session-*.json 2>/dev/null | head -1)"
[[ -n "$TRACE_FILE" ]] || { echo "traced session wrote no trace file in $TDIR"; exit 1; }
# The file must be a well-formed Perfetto document with linked causal ids,
# and carry every leg of the batch pipeline.
"$ARB" check-trace "$TRACE_FILE"
for leg in client_submit wal_append shard_job detector_feed; do
    grep -q "\"name\":\"$leg\"" "$TRACE_FILE" \
        || { echo "trace file missing $leg spans"; exit 1; }
done
"$ARB" stop --connect "unix:$TSOCK"
wait "$SERVE_PID" || { echo "tracing server exited non-zero"; exit 1; }
trap - EXIT
rm -rf "$TSOCK" "$TDIR" "$TDATA"
echo "    causal-tracing smoke OK"

step "arbalest explain smoke (provenance chains agree with hints)"
EXPLAIN_OUT="$("$ARB" explain 22)"
echo "$EXPLAIN_OUT" | grep -q "causal VSM history" \
    || { echo "explain 22 produced no provenance chain"; exit 1; }
echo "$EXPLAIN_OUT" | grep -q "read_target" \
    || { echo "explain 22 chain lacks the faulting read"; exit 1; }

step "observability smoke (metrics + trace dumps parse)"
METRICS="$(mktemp /tmp/arbalest-ci-XXXXXX.metrics.json)"
SPANS="$(mktemp /tmp/arbalest-ci-XXXXXX.trace.jsonl)"
"$ARB" dracc 22 --quiet --metrics-out "$METRICS" --trace-out "$SPANS"
python3 - "$METRICS" "$SPANS" <<'PY'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["counters"], "metrics dump has no counters"
names = {c["name"] for c in snap["counters"]}
assert "arbalest_detector_accesses_total" in names, names
assert "arbalest_detector_vsm_transition_pairs_total" in names, names
spans = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert spans and all("name" in s and "dur_ns" in s for s in spans), "bad span dump"
PY
rm -f "$METRICS" "$SPANS"
echo "    observability smoke OK"

step "observability overhead gate (quick, <=5%)"
OBS_OUT="$(mktemp /tmp/arbalest-ci-XXXXXX.obs.json)"
./target/release/obs_overhead --quick --out "$OBS_OUT"
rm -f "$OBS_OUT"

end_step
echo "==> wall time per step"
printf '    %s\n' "${STEP_TIMES[@]}"
echo "    total ${SECONDS} s"
echo "CI OK"
