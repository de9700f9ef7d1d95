#!/bin/bash
# Regenerates every table and figure of the paper into results/, plus the
# crash-site sweep, then consolidates everything into one JSON-Lines
# archive (results/BENCH_${BENCH_TAG}.json, one object per figure/table
# point) and diffs it against the previous archive with bench_trend.
#
# The archive tag names the PR being archived and has no default (a
# stale one silently overwrote an older archive): run as e.g.
# `BENCH_TAG=PR13 ./run_benches.sh`. Archiving is unconditional: every
# full run leaves a BENCH_<tag>.json for the trend guard to compare.
#
# Each binary runs once with --json (the structured superset of its CSV;
# run any binary without flags for the human-readable CSV instead).
# Every step runs even when one fails; the script exits nonzero and names
# each failed step at the end.
set -u
: "${BENCH_TAG:?set BENCH_TAG to the archive tag, e.g. BENCH_TAG=PR13 $0}"
# bench_trend orders archives by N in BENCH_PR<N>.json and refuses any
# other name, so a run under another tag would end in a failed diff.
if ! [[ "$BENCH_TAG" =~ ^PR[0-9]+$ ]]; then
  echo "BENCH_TAG must be PR<N> (bench_trend orders archives by N), got '$BENCH_TAG'" >&2
  exit 2
fi
cd "$(dirname "$0")"
mkdir -p results
BINS="fig3 fig8 phase_profile ablate ablation_trace_overhead shard_scaling recovery_bench"
FAILED=""
# step NAME OUT BIN ARGS...: run bench binary BIN with ARGS, stdout to
# results/OUT.jsonl and stderr to results/OUT.log, and log its exit status
# (captured before any other command can reset `$?`).
step() {
  local name=$1 out=$2 bin=$3
  shift 3
  echo "=== $name start $(date +%T) ==="
  cargo run -q --release -p bench --bin "$bin" -- "$@" > "results/$out.jsonl" 2> "results/$out.log"
  local rc=$?
  echo "=== $name done  $(date +%T) (rc=$rc) ==="
  [ "$rc" -eq 0 ] || FAILED="$FAILED $out"
}
for bin in $BINS; do
  step "$bin" "$bin" "$bin" --json
done
step crash_sites crash_sites crash_sites --max-sites 200 --json
step "crash_sites (sharded two-thread bank)" crash_sites_sharded crash_sites --workload group --shards 4 --max-sites 50 --json
step "crash_sites (cross-shard 2PC transfer)" crash_sites_transfer crash_sites --workload transfer --shards 2 --max-sites 24 --json
step trace_analyze trace_analyze trace_analyze --json
step obs_report obs_report obs_report --verify --json
# Only the files this run wrote: results/ also holds the output of
# binaries since deleted, which must not re-enter an archive.
for f in $BINS crash_sites crash_sites_sharded crash_sites_transfer trace_analyze obs_report; do
  cat "results/$f.jsonl"
done > "results/BENCH_${BENCH_TAG}.json"
echo "consolidated $(wc -l < "results/BENCH_${BENCH_TAG}.json") points into results/BENCH_${BENCH_TAG}.json"
echo "=== bench_trend start $(date +%T) ==="
cargo run -q --release -p bench --bin bench_trend 2>&1 | tee results/bench_trend.log
rc=${PIPESTATUS[0]}
echo "=== bench_trend done  $(date +%T) (rc=$rc) ==="
[ "$rc" -eq 0 ] || FAILED="$FAILED bench_trend"
if [ -n "$FAILED" ]; then
  echo "FAILED:$FAILED" >&2
  exit 1
fi
echo ALL_BENCHES_DONE
