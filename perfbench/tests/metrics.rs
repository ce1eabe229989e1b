//! Runs each workload briefly and checks that it prints exactly the
//! metrics `BENCHMARK.json` declares, with their units, and that the run
//! is correct.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository")
        .to_path_buf()
}

/// `(name, unit)` of every entry in one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').unwrap()].to_string();
            let unit_at = entry.find("\"unit\": \"").unwrap() + 9;
            let unit = entry[unit_at..unit_at + entry[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line, in order.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").unwrap() + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let m = m.trim_start_matches('{');
            let name = m[1..m[1..].find('"').unwrap() + 1].to_string();
            let unit_at = m.find("\"unit\": \"").unwrap() + 9;
            let unit = m[unit_at..unit_at + m[unit_at..].find('"').unwrap()].to_string();
            (name, unit)
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload);
    let out = Command::new(env!("CARGO_BIN_EXE_xpro-perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", trace])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{workload} --trace {trace} failed");
    let stdout = String::from_utf8(out.stdout).unwrap();
    stdout.lines().last().unwrap().to_string()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn each_workload_prints_exactly_its_named_metrics() {
    let end_to_end = sorted(declared("end_to_end"));
    let per_layer = sorted(declared("per_layer"));
    assert_eq!(end_to_end.len(), 5);
    assert_eq!(per_layer.len(), 40);
    for workload in ["fleet_large", "fleet_chaos", "plan_sweep"] {
        for (trace, want) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": ")
                    && line.contains("\"failed\": 0,"),
                "{workload} --trace {trace}: {line}"
            );
            assert_eq!(&sorted(printed(&line)), want, "{workload} --trace {trace}");
        }
    }
}
