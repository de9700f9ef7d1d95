//! The command-line surface of the bench binaries: every binary rejects
//! a flag it does not read before it runs anything, and README.md's flag
//! table lists exactly the flags each binary reads.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Every binary of this package, by its source file under `src/bin/`.
fn bins() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `name args` must fail as a usage error: exit status 2, nothing on
/// stdout, one line on stderr (no panic). Returns that line. Cargo builds
/// every binary of the package next to `fig3` before it runs this test.
fn usage_error(name: &str, args: &[&str]) -> String {
    let exe = Path::new(env!("CARGO_BIN_EXE_fig3"))
        .with_file_name(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    let out = Command::new(exe).args(args).output().expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stdout.is_empty(), "{name} {args:?} ran: {stdout}");
    assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
    stderr.trim_end().to_string()
}

/// The flags `name` reads, from its unknown-flag error.
fn flags_read(name: &str) -> BTreeSet<String> {
    let line = usage_error(name, &["--no-such-flag"]);
    let list = line
        .strip_prefix("error: unknown flag `--no-such-flag` (this binary reads: ")
        .and_then(|l| l.strip_suffix(')'))
        .unwrap_or_else(|| panic!("{name}: {line}"));
    list.split_whitespace().map(String::from).collect()
}

#[test]
fn every_binary_rejects_an_unknown_flag_before_running() {
    for name in bins() {
        assert!(!flags_read(&name).is_empty(), "{name} reads no flag");
    }
}

#[test]
fn flags_a_binary_does_not_read_are_rejected() {
    let trace = std::env::temp_dir().join(format!("cli-fig3-{}.trc", std::process::id()));
    usage_error("fig3", &["--quick", "--trace", trace.to_str().unwrap()]);
    assert!(!trace.exists(), "fig3 wrote {}", trace.display());
    for name in ["fig8", "latency", "ablation_trace_overhead"] {
        usage_error(name, &["--quick", "--threads", "2"]);
    }
    let line = usage_error("table3", &["--quick", "--threads", "1,2"]);
    assert!(line.contains("`1,2` for --threads"), "{line}");
}

#[test]
fn bad_values_and_cross_flag_checks_are_one_line_errors() {
    let line = usage_error("fig3", &["--ops", "lots"]);
    assert!(line.contains("`lots` for --ops"), "{line}");
    let line = usage_error("phase_profile", &["--trace"]);
    assert_eq!(line, "error: --trace needs a value");
    usage_error("crash_sites", &["--site", "3", "--algo", "redo"]);
    usage_error("crash_sites", &["--shards", "0"]);
    usage_error("crash_sites", &["--policy", "sometimes", "--site", "1"]);
    usage_error("shard_scaling", &["--cross-shard-frac", "0,1.5"]);
}

/// Each row of README.md's flag table (`| Binary | Flags it reads |`)
/// names binaries in backticks in its first cell and their flags in its
/// second; both must match what the binaries report, and every binary
/// must have a row.
#[test]
fn readme_flag_table_matches_binaries() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md");
    let mut listed = Vec::new();
    for row in readme
        .lines()
        .skip_while(|l| !l.starts_with("| Binary | Flags it reads |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
    {
        let cells: Vec<&str> = row.split('|').collect();
        let flags: BTreeSet<String> = cells[2]
            .split(|c: char| c == '`' || c.is_whitespace())
            .filter(|t| t.starts_with("--"))
            .map(String::from)
            .collect();
        for name in cells[1].split('`').skip(1).step_by(2) {
            assert_eq!(flags, flags_read(name), "README.md's flags for {name}");
            listed.push(name.to_string());
        }
    }
    listed.sort();
    assert_eq!(
        listed,
        bins(),
        "README.md's flag table lists each binary once"
    );
}
