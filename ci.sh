#!/bin/bash
# CI gate: formatting, lints, the full test suite, and a smoke run of the
# phase profiler. Everything must pass for a change to land.
set -eu
cd "$(dirname "$0")"

echo "=== fmt ==="
cargo fmt --check

echo "=== clippy ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== test ==="
# --workspace: the root package's integration tests alone skip the ptm /
# pstructs / workloads unit suites.
cargo test -q --workspace

echo "=== algorithm seam check ==="
# The pluggable-algorithm refactor (PR 5) demands that the only dispatch
# on PtmConfig::algo is the registry in crates/ptm/src/algo/. A `match`
# on an `.algo` field anywhere else means someone re-grew a hard-coded
# algorithm switch outside the seam.
if grep -rn "match .*\.algo\b" crates examples tests --include='*.rs' \
    | grep -v "crates/ptm/src/algo/"; then
  echo "ERROR: algorithm dispatch outside ptm::algo registry (see above)" >&2
  exit 1
fi

echo "=== JSON seam check ==="
# All JSON is written and read by crates/trace/src/json.rs. A `push_kv`
# helper or a string literal opening a JSON object (`"{\"` / `"{{\"`)
# in any other source file means someone re-grew a hand-rolled emitter
# beside it. (Test fixtures that must spell JSON out use raw strings.)
if grep -rnE 'fn push_kv|"\{\{?\\"' crates/*/src src examples --include='*.rs' \
    | grep -v "^crates/trace/src/json.rs:"; then
  echo "ERROR: hand-rolled JSON outside trace::json (see above)" >&2
  exit 1
fi

echo "=== flush-shape seam check ==="
# Policies offer lines to TxAccess's flush window and close it; what an
# offer becomes is decided in crates/ptm/src/access.rs alone. A plan
# test in a policy file means a per-policy flush fork grew back, and an
# 11th PtmConfig field means a knob did (DESIGN.md §5 has one row per
# field with the result or test that justifies it).
if grep -nE 'combining\(\)|write_combining|FlushTiming|FlushPlan::' crates/ptm/src/algo/*.rs; then
  echo "ERROR: flush-shape decision inside a policy (see above)" >&2
  exit 1
fi
FIELDS=$(awk '/^pub struct PtmConfig/ { on = 1; next } on && /^}/ { exit } on && /^    pub / { n++ } END { print n + 0 }' \
  crates/ptm/src/config.rs)
if [ "$FIELDS" -ne 10 ]; then
  echo "ERROR: PtmConfig has $FIELDS pub fields, expected 10" >&2
  exit 1
fi

echo "=== hardware-path seam check ==="
# One hardware commit path, in crates/ptm/src/algo/htm.rs: it alone
# applies a write set in place without a log (inside the simulator's
# crash-atomic section, where the domain needs no flushes). A second
# `enter_atomic` caller, or one of the deleted hybrid's names, means an
# unlogged commit or its knobs grew back beside it.
if grep -rnE 'enter_atomic|htm_retries|htm_fastpath_threshold|try_advance' crates src tests examples --include='*.rs' \
    | grep -vE '^crates/(ptm/src/algo/htm\.rs|pmem-sim/)'; then
  echo "ERROR: unlogged hardware commit outside ptm::algo::htm (see above)" >&2
  exit 1
fi

echo "=== observer seam check ==="
# The flight recorder is the only observer a run arms and GaugeSet::apply
# the only event fold (DESIGN.md §5 decision 15). An `obs` dependency of
# the simulator core or the drivers, one of the deleted online-sampler or
# second-fold names, or a 30th bench binary means the online sampler
# stack (slot, run-config field, overhead ablation) grew back.
if grep -n '^obs' crates/pmem-sim/Cargo.toml crates/workloads/Cargo.toml; then
  echo "ERROR: pmem-sim / workloads must not depend on obs (see above)" >&2
  exit 1
fi
if grep -rnE 'attach_sampler|SampleRing|merge_samplers|TraceTotals' crates src tests examples; then
  echo "ERROR: online sampler or second event fold grew back (see above)" >&2
  exit 1
fi
BINS=$(ls crates/bench/src/bin/*.rs | wc -l)
if [ "$BINS" -ne 29 ]; then
  echo "ERROR: crates/bench/src/bin holds $BINS binaries, expected 29" >&2
  exit 1
fi

echo "=== session hot-path seam check ==="
# Everything a MemSession touches per access is owned by the session or
# read-only (DESIGN.md §5 decision 16). A `fetch_add` or a clone from
# `fn resolve` through `commit_pending` in session.rs (the access
# helpers, load/store, the flush and fence paths) means a locked
# read-modify-write (a shared counter, an `Arc` refcount) or a per-call
# copy is back on the access path; `min_cache` anywhere means the
# clock's shared minimum, read on every advance, is.
if awk '/fn resolve/ { on = 1 } /pub fn last_flush_accept/ { on = 0 }
        on && /fetch_add|\.clone\(\)|Arc::clone/ { print FILENAME ":" FNR ": " $0 }' \
    crates/pmem-sim/src/session.rs | grep .; then
  echo "ERROR: locked RMW or clone on the session access path (see above)" >&2
  exit 1
fi
# The transaction layer above it keeps the same rule: `TxAccess` and the
# driver borrow the heap through their own fields
# (`self.heap.free(&mut self.s, a)`); an `Arc::clone` there is two locked
# RMWs on a count every thread shares, once per commit.
if awk '/^#\[cfg\(test\)\]/ { nextfile } /Arc::clone/ { print FILENAME ":" FNR ": " $0 }' \
    crates/ptm/src/access.rs crates/ptm/src/txn.rs | grep .; then
  echo "ERROR: refcount traffic on the transaction access path (see above)" >&2
  exit 1
fi
if grep -rn 'min_cache' crates; then
  echo "ERROR: a shared clock-minimum cache grew back (see above)" >&2
  exit 1
fi

echo "=== unsafe budget check ==="
# Every crate's lib.rs (and the root's) carries `#![deny(unsafe_code)]`,
# so the compiler rejects `unsafe` anywhere but under an explicit allow;
# there are exactly two, both in pmem-sim/src/host.rs: on
# `pmem_sim::host::prefetch` (DESIGN.md §5 decision 17) and on
# `pmem_sim::host::zeroed_words` (decision 19). A third allow is a third
# thing to audit.
for f in crates/*/src/lib.rs src/lib.rs; do
  if ! grep -q '^#!\[deny(unsafe_code)\]' "$f"; then
    echo "ERROR: $f lacks #![deny(unsafe_code)]" >&2
    exit 1
  fi
done
ALLOWS=$(grep -rn 'allow(unsafe_code)' crates src tests examples || true)
GUARDED=$(awk '/allow\(unsafe_code\)/ { getline; print }' crates/pmem-sim/src/host.rs \
  | grep -oE 'fn [a-z_]+' | sort | tr '\n' ' ')
if [ "$(printf '%s' "$ALLOWS" | grep -c .)" -ne 2 ] \
    || printf '%s\n' "$ALLOWS" | grep -v '^crates/pmem-sim/src/host\.rs:' | grep -q . \
    || [ "$GUARDED" != "fn prefetch fn zeroed_words " ]; then
  echo "ERROR: the unsafe budget is two allow(unsafe_code), on host::prefetch and host::zeroed_words:" >&2
  echo "$ALLOWS" >&2
  exit 1
fi

echo "=== lazy memory seam check ==="
# Every table the modelled machine's size decides is built by
# `pmem_sim::host::zeroed_words`, so untouched words cost no host page
# (DESIGN.md §5 decision 19; crates/pmem-sim/tests/lazy_memory.rs measures
# it). `new_zeroed_slice` anywhere else may be handed an over-aligned
# element type, for which std zeroes with a memset; a
# `(0..n).map(|_| AtomicU64::new(0)).collect()` in non-test pmem-sim or
# ptm code (everything above a file's first `#[cfg(test)]`) writes every
# word up front again.
if grep -rn 'new_zeroed_slice' crates src tests examples --include='*.rs' \
    | grep -v '^crates/pmem-sim/src/host\.rs:'; then
  echo "ERROR: new_zeroed_slice outside pmem_sim::host::zeroed_words (see above)" >&2
  exit 1
fi
EAGER=$(for f in crates/pmem-sim/src/*.rs crates/ptm/src/*.rs crates/ptm/src/algo/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
      /AtomicU64::new\(0\)\)\.collect/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$EAGER" ]; then
  echo "ERROR: an eagerly zero-filled table (use pmem_sim::host::zeroed_words):" >&2
  echo "$EAGER" >&2
  exit 1
fi

echo "=== host-hint seam check ==="
# One instruction, one wrapper, three typed doors, one helper (DESIGN.md
# §5 decision 17): `_mm_prefetch` only in pmem-sim/src/host.rs;
# `host::prefetch` called only by `OrecTable::prefetch`,
# `CacheSim::prefetch` and `PmemPool::prefetch`; `Tx::expect_read` called
# only where DESIGN.md lists a benchmark workload that pays for it. The
# hint has no knob: its `allow(unsafe_code)` and the 10 `PtmConfig`
# fields are held by the checks above.
if grep -rn '_mm_prefetch' crates src tests examples --include='*.rs' \
    | grep -v '^crates/pmem-sim/src/host\.rs:'; then
  echo "ERROR: _mm_prefetch outside pmem_sim::host (see above)" >&2
  exit 1
fi
DOORS=$(grep -rn 'host::prefetch(' crates src tests examples --include='*.rs' | cut -d: -f1 | sort | tr '\n' ' ')
if [ "$DOORS" != "crates/pmem-sim/src/cache.rs crates/pmem-sim/src/pool.rs crates/ptm/src/orec.rs " ]; then
  echo "ERROR: host::prefetch callers are [$DOORS], expected one each in cache.rs, pool.rs, orec.rs" >&2
  exit 1
fi
if grep -rn '\.expect_read(' crates src examples --include='*.rs' \
    | grep -vE '^crates/(workloads/src/tpcc|pstructs/src/hashmap)\.rs:' \
    | grep -vE '^crates/ptm/src/(txn|engine_tests)\.rs:'; then
  echo "ERROR: Tx::expect_read call site not listed in DESIGN.md decision 17 (see above)" >&2
  exit 1
fi

echo "=== shard seam check ==="
# A database is its shards (DESIGN.md §5 decision 18): `ShardedEngine` is
# a `Vec<PtmDb>` plus its 2PC coordinator, and everything sharded is
# built from the single-shard stack. A `MachineSet` (or its uncalled
# `freeze_all` / `thaw_all`) means a parallel machine list grew back; a
# second copy of the routing multiply-shift means a driver sizes its
# shards with its own hash again; a `PHeap::format*` call in non-test,
# non-comment ptm / workloads code outside db.rs (everything above a
# file's first `#[cfg(test)]`; engine_tests.rs is all test) means a heap
# is formatted and a `Ptm` built beside `PtmDb::on_machine`. Examples and
# `recovery_bench`'s crafted image keep the raw API on purpose. The
# `PtmConfig` field count and the 29 bench binaries are held above.
if grep -rnE 'MachineSet|freeze_all|thaw_all' crates src tests examples; then
  echo "ERROR: a machine list beside ShardedEngine's Vec<PtmDb> grew back (see above)" >&2
  exit 1
fi
ROUTES=$(grep -rnF 'wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33' crates src tests examples || true)
if [ "$(printf '%s' "$ROUTES" | grep -c .)" -ne 1 ]; then
  echo "ERROR: expected the routing hash once (ShardedEngine::route), found:" >&2
  echo "$ROUTES" >&2
  exit 1
fi
FORMATS=$(for f in crates/ptm/src/*.rs crates/ptm/src/algo/*.rs crates/workloads/src/*.rs; do
  case "$f" in crates/ptm/src/engine_tests.rs | crates/ptm/src/db.rs) continue ;; esac
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
      /PHeap::format|format_with_media/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$FORMATS" ]; then
  echo "ERROR: a heap formatted outside PtmDb::on_machine (crates/ptm/src/db.rs):" >&2
  echo "$FORMATS" >&2
  exit 1
fi

echo "=== golden report lines ==="
# The --json report lines of thirteen deterministic runs, byte for byte
# against crates/bench/tests/golden/ — by name and first among the
# output checks, so a schema slip is reported as such and not as a
# smoke-step failure further down.
cargo test -q -p bench --test golden_json

echo "=== phase_profile smoke (4 algorithms x {ADR, eADR}) ==="
# phase_profile iterates the full {undo, redo, cow, htm-logged} x
# {ADR, eADR} matrix internally, so this one smoke run exercises every
# registered algorithm in both flush-required and flush-elided domains.
cargo run -q --release -p bench --bin phase_profile -- --threads 1 --ops 200 > /dev/null

echo "=== algo_compare smoke ==="
# Head-to-head {redo, undo, cow, htm-logged} comparison across all four
# durability domains (throughput / abort rate / persistence work).
cargo run -q --release -p bench --bin algo_compare -- --quick --threads 2 --ops 100 > /dev/null

echo "=== htm ablation smoke + §V guard ==="
# Redo vs HtmLogged on tatp / tpcc-hash / btree-mixed under eADR, PDRAM
# and ADR, 1 thread (deterministic). The binary's built-in guard exits
# nonzero unless, under eADR and PDRAM, every commit takes the hardware
# path and HtmLogged does not lose to software redo (the paper's §V
# expectation that TSX composes with eADR).
cargo run -q --release -p bench --bin ablation_htm -- --quick --threads 1 > /dev/null

echo "=== htm-logged ablation smoke + ADR crossover guard ==="
# Redo vs HtmLogged on the KV workload under ADR. The binary's built-in
# guard exits nonzero if the logged hardware path commits nothing or
# loses to software redo at low contention at 1-2 threads (the PR 8
# acceptance claim: back-end logging brings the HTM fast path to ADR).
cargo run -q --release -p bench --bin ablation_htm_logged -- --quick > /dev/null

echo "=== write-combining smoke + flush-elision guard ==="
# Quick naive-vs-combined ablation. The binary's built-in regression
# guard exits nonzero if the combined pipeline elides zero flushes on
# the redo ADR workload (i.e. the planner stopped deduplicating).
cargo run -q --release -p bench --bin ablation_write_combining -- --quick > /dev/null

echo "=== crash toolkit seam check ==="
# One enumerated driver and one restart sequence: a `_sharded` function
# in the crash harness means the second driver grew back, and a second
# `Machine::reboot` in non-test ptm code (everything above a file's
# first `#[cfg(test)]`; engine_tests.rs is all test) means someone
# hand-rolled reboot -> recover -> attach beside `ptm::db::restart`.
if grep -nE 'fn [a-z_]*_sharded' crates/ptm/src/crash_harness.rs; then
  echo "ERROR: a second (sharded) crash-sweep driver in crash_harness.rs (see above)" >&2
  exit 1
fi
REBOOTS=$(for f in crates/ptm/src/*.rs crates/ptm/src/algo/*.rs; do
  [ "$f" = crates/ptm/src/engine_tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /Machine::reboot\(/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ "$(printf '%s' "$REBOOTS" | grep -c .)" -ne 1 ]; then
  echo "ERROR: expected exactly one Machine::reboot call in non-test crates/ptm/src, found:" >&2
  echo "$REBOOTS" >&2
  exit 1
fi

echo "=== golden crash sweeps ==="
# The three sweeps smoke-run below (CSV and --json) and nine replays,
# byte for byte against
# crates/bench/tests/golden/crash_sites_* — site counts, violation
# counts and recovered-state digests — plus `obs_report --quick --json`
# under ADR and eADR against obs_report_quick_*.jsonl. By name and
# before the smoke steps, so a lost or renumbered crash site (or a moved
# series row) is reported as such.
# --release: the test is ignored in a debug build (minutes there).
cargo test -q --release -p bench --test golden_crash_sites

echo "=== crash_sites smoke sweep (4 algorithms x 4 domains) ==="
# Bounded deterministic crash-site sweep: every {algo x domain x policy}
# case — all four registered algorithms, including cow shadow and the
# htm-logged back-end ring — with 12 strided sites each. Exits nonzero
# on any invariant violation, printing CRASH-REPRO reproducer lines to
# stderr.
cargo run -q --release -p bench --bin crash_sites -- --quick > /dev/null

echo "=== shard_scaling smoke + scaling / group-commit / 2PC-cost guards ==="
# Quick 1 -> 4 shard sweep of the sharded multi-pool engine, plus the
# cross-shard transfer sweep at frac {0, 0.1} under ADR and eADR. The
# binary's built-in guards exit nonzero if aggregate throughput stops
# scaling (largest shard count must beat shards/2 x the 1-shard
# baseline), if group commit stops reducing fences per commit, or if
# cross-shard mean latency at frac=0.1 under ADR exceeds 2.5x the
# all-single-shard baseline.
cargo run -q --release -p bench --bin shard_scaling -- --quick > /dev/null

echo "=== per-shard crash sweep smoke (group-commit window workload) ==="
# 4 shards swept independently under derived seeds, crashing the
# two-thread group-commit bank inside open fence windows. Exits nonzero
# if any shard's recovery tears a joined window.
cargo run -q --release -p bench --bin crash_sites -- --quick --workload group --shards 4 > /dev/null

echo "=== cross-shard 2PC crash sweep smoke (transfer workload) ==="
# One 2-shard engine, one global site numbering across both shard
# machines: {redo, undo, cow} x 4 domains x adversary policies, a few
# strided sites each, asserting cross-shard transfers stay all-or-nothing
# and in-doubt resolution is idempotent.
cargo run -q --release -p bench --bin crash_sites -- --workload transfer --shards 2 --max-sites 4 > /dev/null

echo "=== restart seam check ==="
# Restart is one serial pipeline: log repair in pool order, then one
# header hop, one mark worklist and an address-order sweep behind
# PHeap::attach_online's single background thread (DESIGN.md §5 decision
# 12). A thread or a condition variable in non-test recovery.rs / gc.rs
# (everything above a file's first `#[cfg(test)]`), a read of the inert
# `RecoverOptions::workers` field, or one of the deleted parallel path's
# names means a worker-parallel restart grew back beside it.
THREADS=$(for f in crates/ptm/src/recovery.rs crates/palloc/src/gc.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
      /thread::scope|thread::spawn|Condvar/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$THREADS" ]; then
  echo "ERROR: thread or condvar in restart's log repair / GC scan+mark:" >&2
  echo "$THREADS" >&2
  exit 1
fi
if grep -rnE '[A-Za-z0-9_)]\.workers\b' crates src tests examples --include='*.rs'; then
  echo "ERROR: RecoverOptions::workers is inert and must be read nowhere (see above)" >&2
  exit 1
fi
if grep -rnE 'attach_with|recovery_worker_tid|gc_workers|recovery_workers' crates src tests examples; then
  echo "ERROR: a name of the deleted worker-parallel restart grew back (see above)" >&2
  exit 1
fi

echo "=== recovery_bench smoke + online-restart guard ==="
# Restart-latency sweep (pool size x dirtiness) on crafted
# committed-but-unretired log images. The binary's built-in guard exits
# nonzero if the first read through the online-GC epoch fence
# degenerates to waiting for the full sweep.
cargo run -q --release -p bench --bin recovery_bench -- --quick > /dev/null

echo "=== trace smoke ==="
# Record a short traced run, then re-derive its totals from the trace
# alone. trace_analyze exits nonzero if any trace-derived total diverges
# from the embedded counters or the Chrome JSON is structurally invalid.
TRACE_TMP=$(mktemp -d)
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run -q --release -p bench --bin phase_profile -- --quick --trace "$TRACE_TMP/smoke.trc" > /dev/null
cargo run -q --release -p bench --bin trace_analyze -- --file "$TRACE_TMP/smoke.trc" > /dev/null
# And the live self-run cross-check (4-thread tpcc-hash under ADR).
cargo run -q --release -p bench --bin trace_analyze -- --quick > /dev/null

echo "=== obs_report smoke (ADR series + eADR domain sanity) ==="
# Continuous-telemetry report on the sharded open-loop run. The binary's
# built-in checks exit nonzero if (a) the span decomposition fails to
# close against the driver's measured sojourn total within 1%, (b) the
# replayed run produces a different series (determinism), or (c) the
# series contradicts the domain: ADR must show fence + WPQ activity,
# eADR must show zero fence and zero WPQ sample rows.
cargo run -q --release -p bench --bin obs_report -- --quick --verify > /dev/null
cargo run -q --release -p bench --bin obs_report -- --quick --domain eadr > /dev/null

echo "=== two-clock benchmark smoke ==="
# All five benchmark workloads at tiny op counts with every check on
# (virtual-time determinism, zero failed operations, the model constants):
# seconds, and the only CI step that looks at both clocks. Builds with
# benchmark/'s own lock file, which cargo rewrites in place while it
# carries stale edges (ROADMAP item 2).
benchmark/run.sh --smoke > /dev/null

echo "=== bench_trend smoke ==="
# Diff consecutive results/BENCH_PR<N>.json archives. --quick tolerates
# an empty or single-archive history (fresh checkout) but still fails on
# unreadable/unparseable archives.
cargo run -q --release -p bench --bin bench_trend -- --quick > /dev/null

echo CI_OK
