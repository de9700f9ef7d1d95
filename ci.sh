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
# test in a policy file means a per-policy flush fork grew back, and a
# 9th PtmConfig field means a knob did (DESIGN.md §5 has one row per
# field with the result or test that justifies it).
if grep -nE 'combining\(\)|write_combining|FlushTiming|FlushPlan::' crates/ptm/src/algo/*.rs; then
  echo "ERROR: flush-shape decision inside a policy (see above)" >&2
  exit 1
fi
FIELDS=$(awk '/^pub struct PtmConfig/ { on = 1; next } on && /^}/ { exit } on && /^    pub / { n++ } END { print n + 0 }' \
  crates/ptm/src/config.rs)
if [ "$FIELDS" -ne 8 ]; then
  echo "ERROR: PtmConfig has $FIELDS pub fields, expected 8" >&2
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
# second-fold names, or a 12th bench binary means the online sampler
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
if [ "$BINS" -ne 11 ]; then
  echo "ERROR: crates/bench/src/bin holds $BINS binaries, expected 11" >&2
  exit 1
fi

echo "=== CLI seam check ==="
# Every bench binary reads its flags through bench::args::Args, whose
# `finish` rejects what the binary did not ask for and lists what it did
# (README.md's flag table; crates/bench/tests/cli.rs holds both). A
# `std::env::args` or an `unknown flag` message in non-test code under
# crates/ (everything above a file's first `#[cfg(test)]`) outside
# crates/bench/src/args.rs means a hand-rolled flag loop grew back.
CLI=$(for f in $(find crates -path '*/src/*' -name '*.rs' ! -path crates/bench/src/args.rs | sort); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
      /env::args|unknown flag/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$CLI" ]; then
  echo "ERROR: flag parsing outside bench::args:" >&2
  echo "$CLI" >&2
  exit 1
fi

echo "=== session hot-path seam check ==="
# Everything a MemSession touches per access is owned by the session or
# read-only (DESIGN.md §5 decision 16). A `fetch_add` or a clone from
# `fn resolve` through `journal_pending` in session.rs (the access
# helpers, load/store, the flush and fence paths) means a locked
# read-modify-write (a shared counter, an `Arc` refcount) or a per-call
# copy is back on the access path; `min_cache` anywhere means the
# clock's shared minimum, read on every advance, is.
if awk '/fn resolve/ { on = 1 } /pub fn persist_range/ { on = 0 }
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

echo "=== durability journal seam check ==="
# A fence's snapshots reach a pool's durable shadow through its
# durability journal, folded before anything reads the shadow (DESIGN.md
# §5 decision 21). The shadow's words and `applied` epochs are written
# only by `MediaShadow`'s fold and direct apply (`fold`, `apply_now`) and
# by a reboot (`restore_word`, called from `PmemPool::from_image` alone),
# and its fields are private to pool.rs. A `.store(` in another
# `MediaShadow` method, a `pub` field, or a `restore_word` call elsewhere
# is a second writer the journal's ordering argument does not cover. The
# deleted per-line `persist_line_snapshot` stays deleted, and the crash
# capture reads the shadow only through `freeze_applies`' guards: a
# folding `.shadow()` under a held guard deadlocks.
WRITERS=$(awk '/^[[:space:]]*\/\// { next }
    /^ *(pub(\([a-z]+\))? )?fn [a-z_]+/ { match($0, /fn [a-z_]+/); fn = substr($0, RSTART + 3, RLENGTH - 3) }
    /^impl MediaShadow \{/ { im = 1 } im && /^}/ { im = 0 }
    im && /\.store\(/ && fn !~ /^(fold|apply_now|restore_word)$/ { print FILENAME ":" FNR ": " $0 }
    /^pub struct MediaShadow \{/ { st = 1 } st && /^}/ { st = 0 }
    st && /^ +pub/ { print FILENAME ":" FNR ": " $0 }
    /restore_word\(/ && fn != "from_image" && fn != "restore_word" { print FILENAME ":" FNR ": " $0 }' \
  crates/pmem-sim/src/pool.rs)
OTHERS=$(grep -rn 'persist_line_snapshot' crates src tests examples tools || true)
CAPTURE=$(grep -Hn '\.shadow()' crates/pmem-sim/src/crash.rs || true)
if [ -n "$WRITERS$OTHERS$CAPTURE" ]; then
  echo "ERROR: a durable-shadow write or read around the durability journal:" >&2
  printf '%s\n' "$WRITERS" "$OTHERS" "$CAPTURE" | grep . >&2
  exit 1
fi

echo "=== host-hint seam check ==="
# One instruction, one wrapper, three typed doors, one helper (DESIGN.md
# §5 decision 17): `_mm_prefetch` only in pmem-sim/src/host.rs;
# `host::prefetch` called only by `OrecTable::prefetch`,
# `CacheSim::prefetch` and pool.rs's `prefetch_word` (behind
# `PmemPool::prefetch` and the durability journal's fold, decision 21);
# `Tx::expect_read` called
# only where DESIGN.md lists a benchmark workload that pays for it. The
# hint has no knob: its `allow(unsafe_code)` and the 8 `PtmConfig`
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
    | grep -vE '^crates/(workloads/src/tpcc|pstructs/src/(hashmap|bptree))\.rs:' \
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
# `PtmConfig` field count and the 11 bench binaries are held above.
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

echo "=== one window check ==="
# Every threaded run has one lag window, pmem_sim::clock::WINDOW_NS
# (DESIGN.md §5 decision 8): no run config, sharded engine or bench bin
# takes one. Fails on any `window_ns` under crates/workloads/src,
# crates/ptm/src/{shard,twopc}.rs or crates/bench. In non-test,
# non-comment crates/workloads/src code (everything above a file's first
# `#[cfg(test)]`), a `begin_run` passes WINDOW_NS, a `u64::MAX` appears
# only in 1-thread set-up (`begin_run(1, u64::MAX)`, which has no peer
# to lag), and no `ClockDomain` is built by hand. The `u64::MAX` window
# is for stepped runs (one OS thread alternating virtual threads), which
# only tests make.
WINDOWS=$(grep -rn 'window_ns' crates/workloads/src crates/ptm/src/shard.rs crates/ptm/src/twopc.rs crates/bench
for f in crates/workloads/src/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
      (/u64::MAX/ || /begin_run\(/) && !/begin_run\(1, u64::MAX\)/ && !/begin_run\([^,()]*, WINDOW_NS\)/ ||
      /ClockDomain/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$WINDOWS" ]; then
  echo "ERROR: a lag window other than WINDOW_NS outside pmem-sim and tests:" >&2
  echo "$WINDOWS" >&2
  exit 1
fi

echo "=== commit-sequence seam check ==="
# One commit sequence (DESIGN.md §5 decision 14): TxThread's commit steps
# in txn.rs acquire, validate and count for every path, and 2PC runs its
# participants through them. Each of these spellings in non-test ptm
# code (everything above a file's first `#[cfg(test)]`; engine_tests.rs
# is all test) once, in txn.rs, and `run_single` nowhere; a second hit
# means a private copy of the sequence grew back.
COMMIT_SEQ=$(for f in crates/ptm/src/*.rs crates/ptm/src/algo/*.rs; do
  [ "$f" = crates/ptm/src/engine_tests.rs ] && continue
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
done)
for step in '.pre_commit_acquire(' '.validate_reads(' 'stats.commits)' 'stats.aborts)'; do
  HITS=$(printf '%s\n' "$COMMIT_SEQ" | grep -F -- "$step" || true)
  if [ "$(printf '%s' "$HITS" | grep -c .)" -ne 1 ] || [ "${HITS#crates/ptm/src/txn.rs:}" = "$HITS" ]; then
    echo "ERROR: expected \`$step\` once in non-test crates/ptm/src, in txn.rs, found:" >&2
    echo "$HITS" >&2
    exit 1
  fi
done
if printf '%s\n' "$COMMIT_SEQ" | grep -F 'run_single'; then
  echo "ERROR: CrossShardTx::run_single grew back (see above)" >&2
  exit 1
fi

echo "=== orec protocol seam check ==="
# One orec protocol (DESIGN.md §5 decision 23): TxAccess in access.rs
# holds the lock loop, the spin past a held stripe, the read-set check,
# the release and the hardware section's uncharged lock, release and
# stripe check; policies and the driver only decide when to lock. An
# orec load, CAS or release, a lock-word test or the spin bound in
# non-test ptm code (everything above a file's first `#[cfg(test)]`;
# engine_tests.rs is all test) outside access.rs, orec.rs (the table)
# and config.rs (the bound) means a private copy of the protocol grew
# back. `orecs.index_of`, which only addresses trace events and hints,
# stays allowed.
OREC_SEQ=$(printf '%s\n' "$COMMIT_SEQ" \
  | grep -vE '^crates/ptm/src/(access|orec|config)\.rs:' \
  | grep -E 'orecs\.(load|try_lock|release)\(|is_locked\(|owner_of\(|LOCK_SPIN' || true)
if [ -n "$OREC_SEQ" ]; then
  echo "ERROR: orec protocol outside TxAccess (crates/ptm/src/access.rs):" >&2
  echo "$OREC_SEQ" >&2
  exit 1
fi

echo "=== stream seam check ==="
# The open-loop front-end draws its requests on demand (DESIGN.md §5
# decision 20): a shard's workers claim from a segment that one shared
# generator refills. A `partition`, or a `Vec<Request>` other than
# `gen_open_loop`'s own, in non-test, non-comment sharded.rs (everything
# above its first `#[cfg(test)]`), or a `gen_open_loop(` call in non-test
# code under crates/, means a run materialises its stream again: 24 B per
# request, live for the whole run.
STREAM=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
    /partition/ || (/Vec<Request>/ && !/^pub fn gen_open_loop\(/) { print FILENAME ":" FNR ": " $0 }' \
  crates/workloads/src/sharded.rs)
CALLS=$(for f in $(grep -rl 'gen_open_loop(' crates --include='*.rs' | grep '/src/'); do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
      /gen_open_loop\(/ && !/^pub fn gen_open_loop\(/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$STREAM$CALLS" ]; then
  echo "ERROR: a materialised request stream (see DESIGN.md decision 20):" >&2
  printf '%s\n' "$STREAM" "$CALLS" | grep . >&2
  exit 1
fi

echo "=== container seam check ==="
# pstructs holds only the containers a workload runs (DESIGN.md §3
# crate map). Every module crates/pstructs/src/lib.rs declares must be
# named — by a type it re-exports or by its `pstructs::` path — in
# non-test, non-comment code under crates/workloads/src (everything above
# a file's first `#[cfg(test)]`). A module no workload names is a
# container only its own tests call.
WORKLOAD_CODE=$(for f in $(find crates/workloads/src -name '*.rs'); do
  awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } { print }' "$f"
done)
UNRUN=""
for m in $(sed -nE 's/^(pub )?mod ([a-z_0-9]+);.*/\2/p' crates/pstructs/src/lib.rs); do
  PATTERN="pstructs::$m\\b"
  for t in $(sed -nE "s/^pub use $m::\\{?([A-Za-z_0-9, ]+)\\}?;.*/\\1/p" crates/pstructs/src/lib.rs | tr ',' ' '); do
    PATTERN="$PATTERN|\\b$t\\b"
  done
  printf '%s\n' "$WORKLOAD_CODE" | grep -qE "$PATTERN" || UNRUN="$UNRUN $m"
done
if [ -n "$UNRUN" ]; then
  echo "ERROR: pstructs modules no workload runs:$UNRUN" >&2
  exit 1
fi

echo "=== golden report lines ==="
# The --json report lines of thirteen deterministic runs and the whole
# `phase_profile --quick --json` output, byte for byte
# against crates/bench/tests/golden/ — by name and first among the
# output checks, so a schema slip is reported as such and not as a
# smoke-step failure further down.
cargo test -q -p bench --test golden_json

echo "=== phase_profile smoke (3 algorithms x {ADR, eADR, PDRAM, PDRAM-Lite}) ==="
# phase_profile iterates the full {redo, undo, htm-logged} x
# {ADR, eADR, PDRAM, PDRAM-Lite} matrix internally, so these runs
# exercise every registered algorithm in every durability domain, at one
# thread and at two (phase shares, throughput, abort rate, persistence
# work).
cargo run -q --release -p bench --bin phase_profile -- --threads 1 --ops 200 > /dev/null
cargo run -q --release -p bench --bin phase_profile -- --quick --threads 2 --ops 100 > /dev/null

echo "=== paper grid (Figures 3, 4, 6 and 7, each cell once) ==="
# `fig3` runs Scenario::paper_grid over the seven panel workloads: 7 x 11
# one-thread points, each (workload, scenario) pair once. Another count
# means a workload or a curve was dropped or added; a repeated pair means
# a curve runs twice. (Two labels for one configuration are caught by
# `paper_grid_runs_each_configuration_once`.)
cargo run -q --release -p bench --bin fig3 -- --quick --threads 1 --json | awk '
  { match($0, /"workload":"[^"]*"/); w = substr($0, RSTART, RLENGTH)
    match($0, /"scenario":"[^"]*"/); s = substr($0, RSTART, RLENGTH)
    n++; if (!seen[w "|" s]++) d++ }
  END {
    if (n != 77 || d != 77) {
      printf "ERROR: fig3 --quick --threads 1 printed %d points, %d distinct (workload, scenario) pairs; expected 77 and 77\n", n, d > "/dev/stderr"
      exit 1
    }
  }'

echo "=== ablations run no cell twice ==="
# `ablate` runs the side experiments as paper-grid cells with one knob
# turned; the base cells are fig3's. json_point_keys's
# ablate_runs_no_cell_twice runs `ablate --quick --threads 1,2 --ops 20`
# and `fig3 --quick --threads 1 --ops 20` and fails on a repeated key or
# on a 1-thread ablate line that measures what a fig3 line or another
# ablate line does (a row equal to its base cell). The §V, ADR-crossover
# and orec-geometry bounds are tests/shape_checks.rs tests, run above.
cargo test -q --release -p bench --test json_point_keys ablate_runs_no_cell_twice

echo "=== one fence path seam check ==="
# A commit's fence is its own sfence: cross-transaction group commit
# (fence joins inside a recency window) won in no measured closed-loop
# cell and lost at every shard_scaling point, and was deleted (DESIGN.md
# §5 decision 11). One of its names in the code,
# the tests or the scripts means the join path or its counters grew
# back. The bracketed characters keep this check from matching itself.
if grep -rnE 'group[_]commit|fence[_]join|Fence[J]oin|sfences[_]elided|group[_]commit_windows|GROUP[_]WINDOW_NS|fence[_]joins|join[_]wait_ns' \
    crates tests ci.sh run_benches.sh; then
  echo "ERROR: group-commit fence join or its counters grew back (see above)" >&2
  exit 1
fi

echo "=== no skip-list index seam check ==="
# TPCC's order index is the paper's B+Tree or hash table (DESIGN.md §5
# decision 7). The skip list, this repository's own third index, backed
# no claim that `tpcc-hash` does not already show and was deleted. One of
# its names in the code, the tests or the scripts means the container,
# its `IndexKind` or its `ablate` row grew back. The bracketed characters
# keep this check from matching itself.
if grep -rnE 'Skip[L]ist|skip[l]ist' crates tests examples ci.sh run_benches.sh; then
  echo "ERROR: the skip-list index grew back (see above)" >&2
  exit 1
fi

echo "=== no copy-on-write algorithm seam check ==="
# The PTM algorithms are the paper's orec-lazy (redo) and orec-eager
# (undo) plus durable HTM. The copy-on-write shadow algorithm backed no
# paper claim and won no measured cell, and was deleted (DESIGN.md §5
# decision 25); its persistent log tag 3 stays retired. One of its names
# in the code, the tests or the scripts means the policy, its access
# state, its recovery fields or its counters grew back. The bracketed
# characters keep this check from matching itself.
if grep -rnE 'Cow[S]hadow|Cow[P]olicy|ALGO[_]COW|cow[_](lines|map|words|published)|shadow[_]lines_(allocated|reclaimed)|publish[_]fences|PtmConfig::c[o]w|--algo c[o]w' \
    crates tests examples ci.sh run_benches.sh; then
  echo "ERROR: the copy-on-write algorithm grew back (see above)" >&2
  exit 1
fi

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

echo "=== crash_sites smoke sweep (3 algorithms x 4 domains) ==="
# Bounded deterministic crash-site sweep: every {algo x domain x policy}
# case — all three registered algorithms, including the htm-logged
# back-end ring — with 12 strided sites each. Exits nonzero
# on any invariant violation, printing CRASH-REPRO reproducer lines to
# stderr.
cargo run -q --release -p bench --bin crash_sites -- --quick > /dev/null

echo "=== shard_scaling smoke + scaling / 2PC-cost guards ==="
# Quick 1 -> 4 shard sweep of the sharded multi-pool engine, plus the
# cross-shard transfer sweep at frac {0, 0.1} under ADR and eADR. The
# binary's built-in guards exit nonzero if aggregate throughput stops
# scaling (largest shard count must beat shards/2 x the 1-shard
# baseline) or if cross-shard mean latency at frac=0.1 under ADR
# exceeds 2.5x the all-single-shard baseline.
cargo run -q --release -p bench --bin shard_scaling -- --quick > /dev/null

echo "=== per-shard crash sweep smoke (two-thread bank workload) ==="
# 4 shards swept independently under derived seeds, crashing the
# two-thread bank (two virtual threads stepped alternately on one OS
# thread). Exits nonzero if any shard's recovery leaves a thread's
# accounts off a committed prefix of its plan.
cargo run -q --release -p bench --bin crash_sites -- --quick --workload group --shards 4 > /dev/null

echo "=== cross-shard 2PC crash sweep (transfer workload, exhaustive) ==="
# One 2-shard engine, one global site numbering across both shard
# machines: {redo, undo} x 4 domains x adversary policies, every
# site of every case, asserting cross-shard transfers stay
# all-or-nothing and in-doubt resolution is idempotent. Exhaustive on
# purpose: a strided sweep stepped over the two sites where an undo
# decide-commit tore a transfer (crash_harness.rs's
# undo_decide_commit_does_not_tear_a_transfer).
cargo run -q --release -p bench --bin crash_sites -- --workload transfer --shards 2 > /dev/null

echo "=== restart seam check ==="
# Restart is one serial pipeline on the calling thread: machine by
# machine in shard order, log repair in pool order, then PHeap::attach's
# header hop, bitmap mark worklist and address-order sweep (DESIGN.md §5
# decision 12). A thread, a condition variable or an atomic flag in
# non-test palloc code or in ptm's db.rs / recovery.rs / shard.rs
# (everything above a file's first `#[cfg(test)]`), a read of the inert
# `RecoverOptions::workers` field, or a name of the deleted parallel
# path, online attach or recovery trace vocabulary means a
# worker-parallel or per-shard-threaded restart, a background GC or a
# restart tracer grew back beside it.
THREADS=$(for f in crates/palloc/src/*.rs crates/ptm/src/db.rs crates/ptm/src/recovery.rs \
    crates/ptm/src/shard.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
      /thread::scope|thread::spawn|Condvar|AtomicBool/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$THREADS" ]; then
  echo "ERROR: thread, condvar or atomic flag in restart's shard loop / log repair / heap attach / GC:" >&2
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
if grep -rnwE 'attach_online|OnlineGc|GcGate|wait_gc' crates src tests examples; then
  echo "ERROR: a name of the deleted online restart GC grew back (see above)" >&2
  exit 1
fi
if grep -rnE 'RECOVERY_TID|is_recovery_tid|RecoveryBegin|RecoveryApply|RecoveryEnd|RecoveryLog|GcPhase' \
    crates src tests examples; then
  echo "ERROR: a name of the deleted recovery trace vocabulary grew back (see above)" >&2
  exit 1
fi
# The GC marks through its start / mark bitmaps and validate streams the
# header chain against the sorted free entries (DESIGN.md §5 decision
# 22): a `binary_search`, `HashMap` or `HashSet` in non-test palloc code
# means a per-block table or a search per scanned word grew back (the
# block-vector GC lives on only as gc.rs's test oracle).
TABLES=$(for f in crates/palloc/src/*.rs; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next }
      /binary_search|HashMap|HashSet/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$TABLES" ]; then
  echo "ERROR: a per-block table or search in the restart GC / heap validation:" >&2
  echo "$TABLES" >&2
  exit 1
fi

echo "=== window-flatness check ==="
# Bandwidth servers serve in virtual-time order (DESIGN.md §5 decision
# 24), so throughput must not hang on how far the bounded-lag window
# lets threads drift apart. tests/shape_checks.rs's window_flatness
# sweeps windows of 0.5-8 us at 4 threads and asserts TATP max/min <= 1.25,
# tpcc-hash max/min <= 1.30 (1.95-2.15 and 1.33-1.41 while a lagging
# thread queued behind its peer's future) and no request too old for
# its server to place (bw_horizon_misses).
cargo test -q --release --test shape_checks -- --ignored window_flatness

echo "=== recovery_bench smoke ==="
# Restart-latency sweep (pool size x dirtiness) on crafted
# committed-but-unretired log images; must exit 0.
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
# carries stale edges (ROADMAP item 5).
benchmark/run.sh --smoke > /dev/null

echo "=== bench_trend smoke ==="
# Diff consecutive results/BENCH_PR<N>.json archives. --quick tolerates
# an empty or single-archive history (fresh checkout) but still fails on
# unreadable/unparseable archives.
cargo run -q --release -p bench --bin bench_trend -- --quick > /dev/null

echo CI_OK
