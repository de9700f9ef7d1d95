#!/usr/bin/env bash
# Build and run the two-clock benchmark. Run from the repository root:
#
#   benchmark/run.sh                          all five workloads
#   benchmark/run.sh --workload tpcc_adr_1t   one workload
#   benchmark/run.sh --trace 1                the traced run (per-layer metrics, span files)
#   benchmark/run.sh --layers                 only the micro-probe pass
#   benchmark/run.sh --smoke                  tiny op counts, every check, seconds
#   benchmark/run.sh --sets 3                 the whole benchmark three times -> NOISE.md
#
# Other flags (--seed N, --seconds S) go to the program unchanged. With
# --workload, the last line of standard output is the result object of the
# benchmark contract (BENCHMARK.json at the repository root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"

# The driver points CARGO_TARGET_DIR into its checkout; by hand, share the
# repository's target/ so nothing new appears in the tree.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
case "$CARGO_TARGET_DIR" in
/*) ;;
*) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

workloads=(tpcc_adr_1t btree_eadr_1t tpcc_undo_adr_2t kv_open_2shard bank_crash_restart)
sets=0
single=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
    --sets)
        sets="${2:?--sets needs a count}"
        shift 2
        ;;
    --workload | --layers)
        single=1
        pass+=("$1")
        shift
        ;;
    *)
        pass+=("$1")
        shift
        ;;
    esac
done

# Build output goes to stderr: stdout carries results only. A failed build
# (for instance a checkout without the crates) ends the script here, with
# cargo's exit code and no result line.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/ptm-benchmark"

# One process per workload, in turn; then every per-workload result
# object of this invocation is gathered into results.json.
run_all() {
    local dir="$1"
    shift
    mkdir -p "$dir"
    local status=0
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --out "$dir" "$@" || status=$?
    done
    {
        printf '{"schema":1,"results":[\n'
        local first=1
        for w in "${workloads[@]}"; do
            [ -f "$dir/$w.json" ] || continue
            [ $first -eq 1 ] || printf ',\n'
            first=0
            tr -d '\n' <"$dir/$w.json"
        done
        printf '\n],"claim":null}\n'
    } >"$dir/results.json"
    echo "results: $dir/results.json" >&2
    return $status
}

if [ "$single" -eq 1 ]; then
    exec "$bin" --out "$out" ${pass[@]+"${pass[@]}"}
elif [ "$sets" -gt 0 ]; then
    # Sets run back to back, so host drift over minutes shows up as the
    # distance between set medians — which is what NOISE.md reports.
    for s in $(seq 1 "$sets"); do
        echo "== set $s of $sets" >&2
        run_all "$out/set$s" ${pass[@]+"${pass[@]}"}
    done
    python3 "$here/noise.py" "$out" "$sets" "$here/../BENCHMARK.json" >"$here/NOISE.md"
    echo "noise floor: $here/NOISE.md" >&2
else
    run_all "$out" ${pass[@]+"${pass[@]}"}
fi
