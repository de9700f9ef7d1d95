//! `BENCHMARK.json` at the repository root and the registry in
//! `src/metrics.rs` describe the same benchmark: same workloads and
//! reasons, same metric names, units and directions, in the same order.

use ptm_benchmark::metrics::{END_TO_END, PER_LAYER};
use ptm_benchmark::suite::WorkloadId;
use ptm_benchmark::RUN_SECONDS;

/// The file with all whitespace outside string literals removed, so
/// fragments can be matched regardless of layout.
fn compact_benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    let mut out = String::with_capacity(text.len());
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else if c == '"' {
            in_string = true;
            out.push(c);
        } else if !c.is_whitespace() {
            out.push(c);
        }
    }
    out
}

/// `haystack` holds every fragment, in order, and exactly
/// `fragments.len()` occurrences of `counted`.
fn assert_in_order(haystack: &str, fragments: &[String], counted: &str) {
    let mut from = 0;
    for f in fragments {
        let at = haystack[from..]
            .find(f.as_str())
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks (or misorders) {f}"));
        from += at + f.len();
    }
    assert_eq!(
        haystack.matches(counted).count(),
        fragments.len(),
        "BENCHMARK.json has entries the registry does not know"
    );
}

fn section<'a>(json: &'a str, key: &str, next: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\":["))
        .unwrap_or_else(|| panic!("no {key}"));
    let end = json[start..].find(next).map_or(json.len(), |e| start + e);
    &json[start..end]
}

#[test]
fn workloads_match() {
    let json = compact_benchmark_json();
    let fragments: Vec<String> = WorkloadId::ALL
        .iter()
        .map(|w| {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "why of {}",
                w.name()
            );
            format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", w.name(), w.why())
        })
        .collect();
    assert_in_order(
        section(&json, "workloads", "\"end_to_end\""),
        &fragments,
        "\"why\":",
    );
}

#[test]
fn end_to_end_metrics_match_and_are_bounded() {
    let json = compact_benchmark_json();
    let body = section(&json, "end_to_end", "\"per_layer\"");
    let fragments: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":",
                d.name,
                d.unit,
                d.better.label()
            )
        })
        .collect();
    assert_in_order(body, &fragments, "\"name\":");
    // Every bound is a share in (0, 0.25]; set-up has the largest.
    let bounds: Vec<f64> = body
        .split("\"bound\":")
        .skip(1)
        .map(|rest| {
            let end = rest.find('}').expect("bound closes its object");
            rest[..end].parse().expect("bound is a number")
        })
        .collect();
    assert_eq!(bounds.len(), END_TO_END.len());
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25), "{bounds:?}");
    let setup = END_TO_END.iter().position(|d| d.name == "setup_s").unwrap();
    assert!(bounds.iter().all(|b| *b <= bounds[setup]));
}

#[test]
fn per_layer_metrics_match() {
    let json = compact_benchmark_json();
    let fragments: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                d.name,
                d.unit,
                d.better.label()
            )
        })
        .collect();
    assert_in_order(
        section(&json, "per_layer", "\"run_seconds\""),
        &fragments,
        "\"name\":",
    );
}

#[test]
fn command_paths_and_run_length_match() {
    let json = compact_benchmark_json();
    assert!(json.contains("\"command\":[\"bash\",\"benchmark/run.sh\"]"));
    assert!(json.contains("\"paths\":[\"benchmark\"]"));
    assert!(json.contains(&format!("\"run_seconds\":{RUN_SECONDS}")));
}
