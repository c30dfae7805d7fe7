#!/bin/bash
# Hermetic CI gate: formatting, offline release build, offline test suite.
# Must pass with no network and no registry access — the workspace has no
# external dependencies by policy (see DESIGN.md, "Hermetic builds").
set -e
cd "$(dirname "$0")"

echo "=== cargo fmt --check ==="
cargo fmt --check

echo "=== cargo clippy --offline -D warnings ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== cargo doc --offline -D warnings ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "=== cargo build --release --offline ==="
cargo build --release --offline

echo "=== cargo test -q --offline ==="
cargo test -q --offline

echo "=== release: differential + parallel + fast-forward + fault + selection golden + cache + prewarm golden + stall golden ==="
cargo test -q --release --offline -p fqms-memctrl \
  --test differential --test parallel_equivalence \
  --test fast_forward_equivalence --test fault_differential \
  --test checkpoint_differential --test retry_policy \
  --test select_differential --test hierarchy_conservation \
  --test blacklist_properties --test freerun_differential \
  --test rt_wcet --test overload_differential
cargo test -q --release --offline -p fqms-sim --test freerun_properties
cargo test -q --release --offline -p fqms-cpu --test cache_properties
cargo test -q --release --offline -p fqms --test prewarm_golden --test system_stall_golden

echo "=== perfbench smoke test: the benchmark still builds against crates/ ==="
# perfbench/ is a separate Cargo package (the repository benchmark, see
# BENCHMARK.json) with path dependencies on crates/*; an API removal in a
# crate must fail here, not silently at benchmark time.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "=== speedup smoke gate: free-run parallel never slower + >=5x over cycle-by-cycle ==="
# The speedup binary exits nonzero when the free-running parallel engine
# is slower than serial beyond tolerance at any >=4-channel / >=2-thread
# sweep point, when the 64-channel QoS-mix speedup over cycle-by-cycle
# falls below 5x, or when event-driven is ever slower than cycle-by-cycle
# (see crates/bench/src/bin/speedup.rs; tolerances recorded in the JSON).
SPEEDUP_TMP="$(mktemp -d)"
FQMS_RUNLEN=quick FQMS_BENCH_PR3="$SPEEDUP_TMP/BENCH_pr3.json" \
  FQMS_BENCH_PR8="$SPEEDUP_TMP/BENCH_pr8.json" \
  cargo run --release -q --offline -p fqms-bench --bin speedup \
  > "$SPEEDUP_TMP/speedup.tsv" 2> "$SPEEDUP_TMP/speedup.log" || {
  echo "speedup smoke gate FAILED:"; tail -5 "$SPEEDUP_TMP/speedup.log"
  rm -rf "$SPEEDUP_TMP"; exit 1; }
rm -rf "$SPEEDUP_TMP"
echo "speedup smoke gate OK"

echo "=== frontier smoke gate: fairness ordering + conservation ==="
# The frontier binary exits nonzero when FQ-VFTF, SD-VFTF or BLISS shows
# a higher max-slowdown than FR-FCFS on the adversarial mix, or when any
# scheduler violates conservation (see crates/bench/src/bin/frontier.rs).
FRONTIER_TMP="$(mktemp -d)"
FQMS_RUNLEN=quick FQMS_BENCH_PR7="$FRONTIER_TMP/BENCH_pr7.json" \
  cargo run --release -q --offline -p fqms-bench --bin frontier \
  > "$FRONTIER_TMP/frontier.tsv" 2> "$FRONTIER_TMP/frontier.log" || {
  echo "frontier smoke gate FAILED:"; tail -5 "$FRONTIER_TMP/frontier.log"
  rm -rf "$FRONTIER_TMP"; exit 1; }
rm -rf "$FRONTIER_TMP"
echo "frontier smoke gate OK"

echo "=== latency_cdf smoke gate: no WCET violation + conservation ==="
# The latency_cdf binary exits nonzero when any regulated real-time
# completion exceeds its analytic WCET bound (or the controller's own
# violation counter is nonzero), or when any mode violates conservation
# (see crates/bench/src/bin/latency_cdf.rs and DESIGN.md §18).
CDF_TMP="$(mktemp -d)"
FQMS_RUNLEN=quick FQMS_BENCH_PR9="$CDF_TMP/BENCH_pr9.json" \
  cargo run --release -q --offline -p fqms-bench --bin latency_cdf \
  > "$CDF_TMP/latency_cdf.tsv" 2> "$CDF_TMP/latency_cdf.log" || {
  echo "latency_cdf smoke gate FAILED:"; tail -5 "$CDF_TMP/latency_cdf.log"
  rm -rf "$CDF_TMP"; exit 1; }
rm -rf "$CDF_TMP"
echo "latency_cdf smoke gate OK"

echo "=== overload smoke gate: flood tail bounded + conservation + control effective ==="
# The overload binary exits nonzero when the QoS thread's p99 under the
# streaming flood exceeds the tail factor over its unloaded p99 (or is
# worse than the uncontrolled flood) with control on, when any cell
# violates `completed + dropped + rejected + shed + unsubmitted ==
# submitted`, or when a control-on cell never throttled/shed (see
# crates/bench/src/bin/overload.rs and DESIGN.md §19).
OVERLOAD_TMP="$(mktemp -d)"
FQMS_RUNLEN=quick FQMS_BENCH_PR10="$OVERLOAD_TMP/BENCH_pr10.json" \
  cargo run --release -q --offline -p fqms-bench --bin overload \
  > "$OVERLOAD_TMP/overload.tsv" 2> "$OVERLOAD_TMP/overload.log" || {
  echo "overload smoke gate FAILED:"; tail -5 "$OVERLOAD_TMP/overload.log"
  rm -rf "$OVERLOAD_TMP"; exit 1; }
rm -rf "$OVERLOAD_TMP"
echo "overload smoke gate OK"

echo "=== doc consistency: every scheduler + figure bin appears in README ==="
# The README's scheduler family table and figure index drift silently when
# a variant or binary is added; fail the build instead. Variants come from
# the enum itself, bins from run_figures.sh's DEFAULT_BINS.
DOC_FAIL=0
SCHEDULERS="$(sed -n '/^pub enum SchedulerKind/,/^}/p' \
  crates/memctrl/src/policy.rs | grep -oE '^    [A-Z][A-Za-z]+,' | tr -d ' ,')"
[ -n "$SCHEDULERS" ] || { echo "doc check FAILED: no SchedulerKind variants parsed"; exit 1; }
for v in $SCHEDULERS; do
  grep -qw "$v" README.md || {
    echo "doc check FAILED: SchedulerKind::$v missing from README.md"; DOC_FAIL=1; }
done
DOC_BINS="$(sed -n '/^DEFAULT_BINS=/,/"$/p' run_figures.sh \
  | sed -e 's/^DEFAULT_BINS="//' -e 's/\\$//' -e 's/"$//')"
[ -n "$DOC_BINS" ] || { echo "doc check FAILED: no DEFAULT_BINS parsed"; exit 1; }
for b in $DOC_BINS; do
  grep -qw "$b" README.md || {
    echo "doc check FAILED: figure bin '$b' missing from README.md"; DOC_FAIL=1; }
done
# The back-pressure taxonomy is API surface: every Nack variant must be
# documented in the README's overload-control section.
NACKS="$(sed -n '/^pub enum Nack/,/^}/p' crates/memctrl/src/buffers.rs \
  | grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')"
[ -n "$NACKS" ] || { echo "doc check FAILED: no Nack variants parsed"; exit 1; }
for n in $NACKS; do
  grep -qw "$n" README.md || {
    echo "doc check FAILED: Nack::$n missing from README.md"; DOC_FAIL=1; }
done
[ "$DOC_FAIL" = "0" ] || exit 1
echo "doc consistency OK"

echo "=== run_figures.sh --resume: interrupted sweeps resume bit-identically ==="
# Emulate an interrupted sweep deterministically: run a prefix of the
# binary list, then resume with the full list, and compare every output
# against an uninterrupted reference run. Logs are excluded (they carry
# wall-clock timings); the figure TSVs and metrics sidecars must match
# bit for bit.
RESUME_A="$(mktemp -d)"
RESUME_B="$(mktemp -d)"
KILLDIR="$(mktemp -d)"
trap 'rm -rf "$RESUME_A" "$RESUME_B" "$KILLDIR"' EXIT
FQMS_SKIP_CI=1 FQMS_RUNLEN=quick FQMS_RESULTS_DIR="$RESUME_A" \
  FQMS_BINS="tables fig1" ./run_figures.sh > /dev/null
FQMS_SKIP_CI=1 FQMS_RUNLEN=quick FQMS_RESULTS_DIR="$RESUME_A" \
  FQMS_BINS="tables fig1 faults" ./run_figures.sh --resume > "$RESUME_A/resume.out"
grep -q "tables (checkpointed, skipped)" "$RESUME_A/resume.out" || {
  echo "resume check FAILED: completed binary was re-run"; exit 1; }
FQMS_SKIP_CI=1 FQMS_RUNLEN=quick FQMS_RESULTS_DIR="$RESUME_B" \
  FQMS_BINS="tables fig1 faults" ./run_figures.sh > /dev/null
for f in tables fig1 faults; do
  cmp "$RESUME_A/$f.tsv" "$RESUME_B/$f.tsv"
  cmp "$RESUME_A/$f.metrics.tsv" "$RESUME_B/$f.metrics.tsv"
done
echo "resume check OK"

echo "=== SIGKILL mid-run + checkpoint resume: bit-identical figures ==="
# Kill a figure binary with SIGKILL once its first checkpoint lands, then
# rerun the identical command: the rerun auto-resumes from the snapshot
# and its outputs (figure TSV and metrics sidecar) must match an
# uninterrupted reference run bit for bit. The binary is invoked directly
# (not via `cargo run`) so the SIGKILL hits the simulator itself.
KR_BIN=./target/release/fig4
KR_ENV="FQMS_RUNLEN=quick FQMS_SEED=42"
env $KR_ENV FQMS_SIDECAR="$KILLDIR/ref.metrics.tsv" \
  "$KR_BIN" > "$KILLDIR/ref.tsv" 2> "$KILLDIR/ref.log"
mkdir -p "$KILLDIR/ckpt"
env $KR_ENV FQMS_SIDECAR="$KILLDIR/int.metrics.tsv" \
  FQMS_CHECKPOINT_DIR="$KILLDIR/ckpt" FQMS_CHECKPOINT_EVERY=5000 \
  "$KR_BIN" > "$KILLDIR/int.tsv" 2> "$KILLDIR/int.log" &
KR_PID=$!
for _ in $(seq 1 500); do
  [ -n "$(ls -A "$KILLDIR/ckpt" 2>/dev/null)" ] && break
  kill -0 "$KR_PID" 2>/dev/null || break
  sleep 0.02
done
if kill -9 "$KR_PID" 2>/dev/null; then
  :
else
  echo "warning: $KR_BIN finished before SIGKILL; resume path not exercised"
fi
wait "$KR_PID" 2>/dev/null || true
env $KR_ENV FQMS_SIDECAR="$KILLDIR/int.metrics.tsv" \
  FQMS_CHECKPOINT_DIR="$KILLDIR/ckpt" FQMS_CHECKPOINT_EVERY=5000 \
  "$KR_BIN" > "$KILLDIR/int.tsv" 2> "$KILLDIR/int.log"
grep -q "resumed from checkpoint" "$KILLDIR/int.log" \
  || echo "warning: rerun found no checkpoint to resume (run too short?)"
cmp "$KILLDIR/ref.tsv" "$KILLDIR/int.tsv" || {
  echo "kill-and-resume check FAILED: figure output diverged"; exit 1; }
cmp "$KILLDIR/ref.metrics.tsv" "$KILLDIR/int.metrics.tsv" || {
  echo "kill-and-resume check FAILED: metrics sidecar diverged"; exit 1; }
echo "kill-and-resume check OK"

echo "CI OK"
