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
set -u
: "${BENCH_TAG:?set BENCH_TAG to the archive tag, e.g. BENCH_TAG=PR13 $0}"
cd "$(dirname "$0")"
mkdir -p results
BINS="fig3 fig4 fig6 fig7 table1 table2 table3 fig8 algo_compare ablation_log_split ablation_flush_plan ablation_lite_budget ablation_orec ablation_htm ablation_index ablation_trace_overhead memstats latency shard_scaling recovery_bench"
for bin in $BINS; do
  echo "=== $bin start $(date +%T) ==="
  cargo run -q --release -p bench --bin $bin -- --json > results/$bin.jsonl 2> results/$bin.log
  echo "=== $bin done  $(date +%T) (rc=$?) ==="
done
echo "=== crash_sites start $(date +%T) ==="
cargo run -q --release -p bench --bin crash_sites -- --max-sites 200 --json > results/crash_sites.jsonl 2> results/crash_sites.log
echo "=== crash_sites done  $(date +%T) (rc=$?) ==="
echo "=== crash_sites (sharded group-commit) start $(date +%T) ==="
cargo run -q --release -p bench --bin crash_sites -- --workload group --shards 4 --max-sites 50 --json > results/crash_sites_sharded.jsonl 2> results/crash_sites_sharded.log
echo "=== crash_sites (sharded group-commit) done  $(date +%T) (rc=$?) ==="
echo "=== crash_sites (cross-shard 2PC transfer) start $(date +%T) ==="
cargo run -q --release -p bench --bin crash_sites -- --workload transfer --shards 2 --max-sites 24 --json > results/crash_sites_transfer.jsonl 2> results/crash_sites_transfer.log
echo "=== crash_sites (cross-shard 2PC transfer) done  $(date +%T) (rc=$?) ==="
echo "=== trace_analyze start $(date +%T) ==="
cargo run -q --release -p bench --bin trace_analyze -- --json > results/trace_analyze.jsonl 2> results/trace_analyze.log
echo "=== trace_analyze done  $(date +%T) (rc=$?) ==="
echo "=== obs_report start $(date +%T) ==="
cargo run -q --release -p bench --bin obs_report -- --verify --json > results/obs_report.jsonl 2> results/obs_report.log
echo "=== obs_report done  $(date +%T) (rc=$?) ==="
cat results/*.jsonl > "results/BENCH_${BENCH_TAG}.json"
echo "consolidated $(wc -l < "results/BENCH_${BENCH_TAG}.json") points into results/BENCH_${BENCH_TAG}.json"
echo "=== bench_trend start $(date +%T) ==="
cargo run -q --release -p bench --bin bench_trend 2>&1 | tee results/bench_trend.log
echo "=== bench_trend done  $(date +%T) (rc=$?) ==="
echo ALL_BENCHES_DONE
