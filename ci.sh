#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite with the
# coherence-invariant checker enabled everywhere.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test (SPP_CHECK=1: coherence checker on)"
SPP_CHECK=1 cargo test --workspace -q

echo "== perfbench golden gate (helper tests + a short run per workload)"
# The only gate that runs the observer-free hit path (SPP_CHECK unset)
# against goldens: every cell's simulated output must match
# perfbench/goldens.txt. The traced paper-apps run also replays its
# cells through TracePort at the probe sizes; the traced sync-sharing
# run times the kernel-stream sweep cells that give the per-protocol
# miss probes (core.{dashsci,mesi,dragon}.hn{2,32,128}.ns_per_access).
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
for run in "paper-apps 0" "sync-sharing 0" "paper-apps 1" "sync-sharing 1"; do
  read -r w trace <<<"$run"
  last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seconds 1 --trace "$trace" | tail -n 1)
  if ! grep -q '"correct": true' <<<"$last" || ! grep -q '"failed": 0,' <<<"$last"; then
    echo "perfbench $w --trace $trace: $last" >&2
    exit 1
  fi
  echo "   perfbench $w --trace $trace: correct, 0 failed"
done

echo "== spp repro all smoke run (1 step, every registered experiment)"
cargo build --release -q -p spp-bench --bin spp
SPP=target/release/spp
SPP_REPRO_DIR=target/repro/all "$SPP" repro all --steps 1 >/dev/null
test -s target/repro/all/BENCH_scenarios.json
grep -q '"all_as_expected": true' target/repro/all/BENCH_scenarios.json
test "$(grep -c '"status": "pass"' target/repro/all/BENCH_scenarios.json)" -eq 21
echo "   target/repro/all/BENCH_scenarios.json OK (21 experiments pass)"

echo "== faults report byte-check (standalone run = the repro-all report)"
rm -rf target/repro/faults-check
SPP_REPRO_DIR=target/repro/faults-check "$SPP" repro faults --steps 1 >/dev/null
cmp target/repro/all/BENCH_faults.json target/repro/faults-check/BENCH_faults.json
echo "   BENCH_faults.json byte-identical to target/repro/all/BENCH_faults.json"

echo "== spp repro chaos smoke run (1 step, fixed-seed grid, checker on)"
SPP_CHECK=1 "$SPP" repro chaos --steps 1 >/dev/null
test -s target/repro/BENCH_chaos.json
grep -q '"passed": true' target/repro/BENCH_chaos.json
echo "   target/repro/BENCH_chaos.json OK"

echo "== chaos report determinism (two runs, byte-identical JSON)"
cp target/repro/BENCH_chaos.json target/repro/BENCH_chaos.first.json
SPP_CHECK=1 "$SPP" repro chaos --steps 1 >/dev/null
cmp target/repro/BENCH_chaos.first.json target/repro/BENCH_chaos.json
rm -f target/repro/BENCH_chaos.first.json
echo "   BENCH_chaos.json byte-identical across runs"
cmp target/repro/all/BENCH_chaos.json target/repro/BENCH_chaos.json
echo "   BENCH_chaos.json byte-identical to target/repro/all/BENCH_chaos.json"

echo "== spp repro trace smoke run (1 step, tracing + reconciliation gates)"
"$SPP" repro trace --steps 1 >/dev/null
test -s target/repro/BENCH_trace.json
grep -q '"passed": true' target/repro/BENCH_trace.json
echo "   target/repro/BENCH_trace.json OK"

echo "== spp repro race smoke run (1 step, detector + schedule fuzzing + racy control)"
"$SPP" repro race --steps 1 >/dev/null
test -s target/repro/BENCH_race.json
grep -q '"passed": true' target/repro/BENCH_race.json
test -s target/repro/race_repro.json
echo "   target/repro/BENCH_race.json OK"

echo "== race report determinism (two runs, byte-identical JSON and reproducer)"
cp target/repro/BENCH_race.json target/repro/BENCH_race.first.json
cp target/repro/race_repro.json target/repro/race_repro.first.json
"$SPP" repro race --steps 1 >/dev/null
cmp target/repro/BENCH_race.first.json target/repro/BENCH_race.json
cmp target/repro/race_repro.first.json target/repro/race_repro.json
rm -f target/repro/BENCH_race.first.json target/repro/race_repro.first.json
echo "   BENCH_race.json and race_repro.json byte-identical across runs"

echo "== spp repro backend smoke run (5 steps: sweep, batched = scalar, trace replay)"
"$SPP" repro backend --steps 5 >/dev/null
echo "   backend experiment OK at 5 steps"

echo "== trace determinism (two runs, byte-identical timeline)"
cp target/repro/trace_timeline.json target/repro/trace_timeline.first.json
"$SPP" repro trace --steps 1 >/dev/null
cmp target/repro/trace_timeline.first.json target/repro/trace_timeline.json
rm -f target/repro/trace_timeline.first.json
echo "   trace_timeline.json byte-identical across runs"

echo "== spp repro insight smoke (attribution campaign, 4 apps x 3 protocols, 1 step)"
"$SPP" repro insight --steps 1 >/dev/null
test -s target/repro/BENCH_insight.json
grep -q '"passed": true' target/repro/BENCH_insight.json
# Every one of the 12 cells must carry a passing partition check.
test "$(grep -c '"heat_partition_check": true' target/repro/BENCH_insight.json)" -eq 12
! grep -q '"heat_partition_check": false' target/repro/BENCH_insight.json
! grep -q '"attribution_transparent": false' target/repro/BENCH_insight.json
echo "   target/repro/BENCH_insight.json OK (every cell partitions, attribution transparent)"

echo "== insight report determinism (two runs, byte-identical JSON)"
cp target/repro/BENCH_insight.json target/repro/BENCH_insight.first.json
"$SPP" repro insight --steps 1 >/dev/null
cmp target/repro/BENCH_insight.first.json target/repro/BENCH_insight.json
rm -f target/repro/BENCH_insight.first.json
echo "   BENCH_insight.json byte-identical across runs"

echo "== spp repro protocol smoke (DASH+SCI / MESI / Dragon x topology, 1 step)"
"$SPP" repro protocol --steps 1 >/dev/null
test -s target/repro/BENCH_protocol.json
grep -q '"experiment": "protocol"' target/repro/BENCH_protocol.json
grep -q '"protocol": "dragon"' target/repro/BENCH_protocol.json
echo "   target/repro/BENCH_protocol.json OK"

echo "== protocol report determinism (two runs, byte-identical JSON)"
cp target/repro/BENCH_protocol.json target/repro/BENCH_protocol.first.json
"$SPP" repro protocol --steps 1 >/dev/null
cmp target/repro/BENCH_protocol.first.json target/repro/BENCH_protocol.json
rm -f target/repro/BENCH_protocol.first.json
echo "   BENCH_protocol.json byte-identical across runs"

echo "== spp repro recovery smoke (protocol x transient fault kind, bit-identical recovery)"
"$SPP" repro recovery --steps 1 >/dev/null
test -s target/repro/BENCH_recovery.json
grep -q '"experiment": "recovery"' target/repro/BENCH_recovery.json
grep -q '"passed": true' target/repro/BENCH_recovery.json
! grep -q '"recoveries": 0[,}]' target/repro/BENCH_recovery.json
echo "   target/repro/BENCH_recovery.json OK (every cell recovered)"

echo "== recovery report determinism (two runs, byte-identical JSON)"
cp target/repro/BENCH_recovery.json target/repro/BENCH_recovery.first.json
"$SPP" repro recovery --steps 1 >/dev/null
cmp target/repro/BENCH_recovery.first.json target/repro/BENCH_recovery.json
rm -f target/repro/BENCH_recovery.first.json
echo "   BENCH_recovery.json byte-identical across runs"
cmp target/repro/all/BENCH_recovery.json target/repro/BENCH_recovery.json
echo "   BENCH_recovery.json byte-identical to target/repro/all/BENCH_recovery.json"

echo "== recovery scenario matrix (one golden-pinned rollback cell per protocol)"
# Each cell seeds transients that always exhaust the scrub budget
# (persistence 1.0), forcing checkpoint rollback-and-replay; the
# golden counters are the fault-free numbers, so recovery must be
# bit-identical and zero-cost, and every cell must actually roll back.
SPP_REPRO_DIR=target/repro/recovery-matrix "$SPP" run --workers 3 scenarios/matrix/kernel-recover-dashsci.toml \
  scenarios/matrix/kernel-recover-mesi.toml scenarios/matrix/kernel-recover-dragon.toml >/dev/null
grep -q '"all_as_expected": true' target/repro/recovery-matrix/BENCH_scenarios.json
test "$(grep -c '"rollbacks": [1-9]' target/repro/recovery-matrix/BENCH_scenarios.json)" -eq 3
echo "   all three protocols rolled back and matched their fault-free goldens"

echo "== protocol scenario matrix (one golden-pinned cell per protocol)"
SPP_REPRO_DIR=target/repro/protocol-matrix "$SPP" run --workers 3 scenarios/matrix/nbody-dashsci-32.toml \
  scenarios/matrix/kernel-mesi-32.toml scenarios/matrix/fem-dragon-8.toml >/dev/null
grep -q '"all_as_expected": true' target/repro/protocol-matrix/BENCH_scenarios.json
echo "   all three protocols match their golden counters"

echo "== scenario specs validate (every spec under scenarios/)"
"$SPP" validate scenarios/experiments scenarios/matrix scenarios/ci scenarios/serve >/dev/null
echo "   all specs parse and validate"

echo "== scenario fleet smoke (contained panic + hang + golden mismatch)"
# The ci matrix deliberately includes a panicking cell, a hanging
# cell, and a wrong-golden cell; the fleet must contain and classify
# all three (their specs declare those outcomes, so exit code is 0)
# and still write the report.
SPP_REPRO_DIR=target/repro "$SPP" run --workers 4 scenarios/ci >/dev/null
test -s target/repro/BENCH_scenarios.json
grep -q '"all_as_expected": true' target/repro/BENCH_scenarios.json
grep -q '"name": "ci-panic", "status": "fail"' target/repro/BENCH_scenarios.json
grep -q '"name": "ci-hang", "status": "timeout"' target/repro/BENCH_scenarios.json
grep -q '"name": "ci-golden-mismatch", "status": "golden-mismatch"' target/repro/BENCH_scenarios.json
# The live telemetry stream covers every cell (start + end at least).
test -s target/repro/scenarios_heartbeat.jsonl
grep -q '"event": "start"' target/repro/scenarios_heartbeat.jsonl
grep -q '"event": "end"' target/repro/scenarios_heartbeat.jsonl
echo "   panic/hang/golden-mismatch each contained and classified; heartbeats streamed"

echo "== scenario report determinism (two runs, byte-identical JSON)"
cp target/repro/BENCH_scenarios.json target/repro/BENCH_scenarios.first.json
SPP_REPRO_DIR=target/repro "$SPP" run --workers 2 scenarios/ci >/dev/null
cmp target/repro/BENCH_scenarios.first.json target/repro/BENCH_scenarios.json
rm -f target/repro/BENCH_scenarios.first.json
echo "   BENCH_scenarios.json byte-identical across runs and worker counts"

echo "== spp serve kill-torture (SIGKILL mid-flight, restart, byte-identical results)"
SERVE_REF=target/repro/serve-ref
SERVE_TOR=target/repro/serve-torture
rm -rf "$SERVE_REF" "$SERVE_TOR"
wait_file() { # wait_file PATH — poll up to 15s for a non-empty file
  for _ in $(seq 1 300); do [ -s "$1" ] && return 0; sleep 0.05; done
  echo "timed out waiting for $1" >&2
  return 1
}

# Reference: the same mixed batch run to completion, undisturbed.
"$SPP" serve --state-dir "$SERVE_REF" --workers 2 >/dev/null &
SERVE_PID=$!
wait_file "$SERVE_REF/endpoint"
"$SPP" submit --state-dir "$SERVE_REF" scenarios/serve/kernel-long.toml \
  scenarios/serve/kernel-short.toml scenarios/serve/noop-a.toml >/dev/null
"$SPP" drain --state-dir "$SERVE_REF" >/dev/null
for j in j1 j2 j3; do
  "$SPP" result --state-dir "$SERVE_REF" "$j" >"target/repro/serve-ref-$j.txt"
done
"$SPP" shutdown --state-dir "$SERVE_REF" >/dev/null
wait "$SERVE_PID" 2>/dev/null || true

# Torture: one worker, SIGKILL once the long job has checkpointed.
"$SPP" serve --state-dir "$SERVE_TOR" --workers 1 >/dev/null &
SERVE_PID=$!
wait_file "$SERVE_TOR/endpoint"
"$SPP" submit --state-dir "$SERVE_TOR" scenarios/serve/kernel-long.toml \
  scenarios/serve/kernel-short.toml scenarios/serve/noop-a.toml >/dev/null
wait_file "$SERVE_TOR/checkpoints/j1.step"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

# Restart on the same state dir: the journal re-enqueues everything,
# the long job resumes from its snapshot, and every result must be
# byte-identical to the undisturbed reference.
rm -f "$SERVE_TOR/endpoint"
"$SPP" serve --state-dir "$SERVE_TOR" --workers 1 >/dev/null &
SERVE_PID=$!
wait_file "$SERVE_TOR/endpoint"
"$SPP" health --state-dir "$SERVE_TOR" | grep -q '"interrupted_resumed": [1-9]'
"$SPP" drain --state-dir "$SERVE_TOR" >/dev/null
"$SPP" status --state-dir "$SERVE_TOR" j1 | grep -q '"resumed": true'
for j in j1 j2 j3; do
  "$SPP" result --state-dir "$SERVE_TOR" "$j" >"target/repro/serve-tor-$j.txt"
  cmp "target/repro/serve-ref-$j.txt" "target/repro/serve-tor-$j.txt"
done
# Resubmitting a finished spec is answered from the cache, not re-run.
"$SPP" submit --state-dir "$SERVE_TOR" scenarios/serve/kernel-long.toml \
  | grep -q '"cached": true'
"$SPP" shutdown --state-dir "$SERVE_TOR" >/dev/null
wait "$SERVE_PID" 2>/dev/null || true
rm -f target/repro/serve-ref-j*.txt target/repro/serve-tor-j*.txt
echo "   killed mid-run, resumed from checkpoint, results byte-identical, cache hit on repeat"

echo "== spp serve admission control (typed rejection under overload)"
SERVE_TINY=target/repro/serve-tiny
rm -rf "$SERVE_TINY"
# A hang occupies the only worker (not checkpointable, so the later
# high-priority arrival cannot preempt it, and the queue behind it
# cannot drain — the rejections below are deterministic).
"$SPP" serve --state-dir "$SERVE_TINY" --workers 1 --lane-cap 1 --total-cap 2 >/dev/null &
SERVE_PID=$!
wait_file "$SERVE_TINY/endpoint"
"$SPP" submit --state-dir "$SERVE_TINY" scenarios/serve/hang-a.toml >/dev/null
for _ in $(seq 1 300); do
  "$SPP" status --state-dir "$SERVE_TINY" j1 | grep -q '"state": "running"' && break
  sleep 0.05
done
"$SPP" submit --state-dir "$SERVE_TINY" scenarios/serve/kernel-short.toml >/dev/null
("$SPP" submit --state-dir "$SERVE_TINY" scenarios/serve/noop-a.toml || true) \
  | grep -q '"error": "queue-full"'
"$SPP" submit --state-dir "$SERVE_TINY" --priority high scenarios/serve/hang-b.toml >/dev/null
("$SPP" submit --state-dir "$SERVE_TINY" --priority high scenarios/serve/noop-b.toml || true) \
  | grep -q '"error": "overloaded"'
"$SPP" shutdown --state-dir "$SERVE_TINY" >/dev/null
wait "$SERVE_PID" 2>/dev/null || true
echo "   queue-full and overloaded answered with typed rejections; no hang, no panic"

echo "CI OK"
