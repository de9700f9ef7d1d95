//! Golden byte-identity test for the `crash_sites` binary — the
//! refactoring oracle of the crash toolkit — and for `obs_report`, the
//! one reader of the offline time series.
//!
//! Three sweeps (the ones `ci.sh` smoke-runs), each as CSV and as
//! `--json`, must reproduce `tests/golden/crash_sites_*.{csv,jsonl}`
//! byte for byte: same site counts (no crash site lost or renumbered),
//! same sites run, same violation counts. Nine fixed replays must
//! reproduce the site total and the recovered-state digest in
//! `crash_sites_replays.txt`; of a replay's output only those two
//! values are compared, so its human-readable lines stay free to
//! change. Two `obs_report --quick --json` runs (ADR
//! and eADR: every series row, the sojourn decomposition and the
//! validation line) must reproduce `obs_report_quick_*.jsonl`.
//!
//! Every run is single-threaded in virtual time and so deterministic.
//! The sweeps take ~25 s optimised and minutes unoptimised, hence the
//! test is ignored in a debug build; `ci.sh` runs it with `--release`.
//!
//! After an *intended* change to the sweep, regenerate the goldens with
//!
//! ```text
//! cargo test --release -p bench --test golden_crash_sites -- --ignored regenerate_goldens
//! ```
//!
//! and review the diff of `tests/golden/` like any other change.

use std::path::PathBuf;
use std::process::Command;

const CRASH_SITES: &str = env!("CARGO_BIN_EXE_crash_sites");
const OBS_REPORT: &str = env!("CARGO_BIN_EXE_obs_report");

/// `(golden file stem, crash_sites flags)` for the sweeps; each runs
/// once bare (`.csv`) and once with `--json` (`.jsonl`).
const SWEEPS: [(&str, &str); 3] = [
    ("crash_sites_quick", "--quick"),
    (
        "crash_sites_group_4shards",
        "--quick --workload group --shards 4",
    ),
    (
        "crash_sites_transfer_2shards",
        "--workload transfer --shards 2 --max-sites 4",
    ),
];

/// Three replays per workload, each landing mid-run under the default
/// seed.
const REPLAYS: [&str; 9] = [
    "--workload bank --site 100 --algo redo --domain adr --policy per-word",
    "--workload bank --site 60 --algo undo --domain eadr --policy all-new",
    "--workload bank --site 200 --algo htm --domain adr --policy per-line",
    "--workload group --site 110 --algo redo --domain adr --policy per-word",
    "--workload group --site 130 --algo undo --domain adr --policy all-old",
    "--workload group --site 50 --algo undo --domain pdram-lite --policy all-new",
    "--workload transfer --shards 2 --site 150 --algo redo --domain adr --policy all-old",
    "--workload transfer --shards 2 --site 200 --algo undo --domain adr --policy per-word",
    "--workload transfer --shards 2 --site 80 --algo undo --domain eadr --policy per-line",
];

/// `(golden file, obs_report flags)`: one flush-bound and one flush-free
/// domain, so both arms of the series' domain sanity check are pinned.
const OBS_REPORTS: [(&str, &str); 2] = [
    ("obs_report_quick_adr.jsonl", "--quick --json"),
    (
        "obs_report_quick_eadr.jsonl",
        "--quick --json --domain eadr",
    ),
];

/// Standard output of one successful run of the bench binary at `exe`.
fn run(exe: &str, flags: &str) -> String {
    let out = Command::new(exe)
        .args(flags.split_whitespace())
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {flags} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// One line per replay: its flags, the dry-run site total (the `T` of
/// the `site=N/T` token) and the `state digest` line.
fn replay_lines() -> String {
    let mut lines = String::new();
    for flags in REPLAYS {
        let out = run(CRASH_SITES, flags);
        let total = out
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("site=")?.split_once('/'))
            .unwrap_or_else(|| panic!("no site=N/T token in:\n{out}"))
            .1;
        let digest = out
            .lines()
            .find(|l| l.starts_with("state digest: "))
            .unwrap_or_else(|| panic!("no state digest line in:\n{out}"));
        lines.push_str(&format!("{flags} total_sites={total} {digest}\n"));
    }
    lines
}

/// `(golden file name, emitted text)` for every golden.
fn cases() -> Vec<(String, String)> {
    let mut cases = vec![("crash_sites_replays.txt".to_string(), replay_lines())];
    for (stem, flags) in SWEEPS {
        cases.push((format!("{stem}.csv"), run(CRASH_SITES, flags)));
        cases.push((
            format!("{stem}.jsonl"),
            run(CRASH_SITES, &format!("{flags} --json")),
        ));
    }
    for (file, flags) in OBS_REPORTS {
        cases.push((file.to_string(), run(OBS_REPORT, flags)));
    }
    cases
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "minutes in a debug build; ci.sh runs it with --release"
)]
fn sweeps_and_replays_match_goldens_byte_for_byte() {
    for (file, text) in cases() {
        let path = golden_path(&file);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert_eq!(text, want, "{file}: output differs from {}", path.display());
    }
}

#[test]
#[ignore = "rewrites tests/golden/{crash_sites,obs_report}_*; run only to accept an intended change"]
fn regenerate_goldens() {
    for (file, text) in cases() {
        std::fs::write(golden_path(&file), text).expect("write golden");
    }
}
