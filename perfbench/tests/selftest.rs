//! Benchmark self-test: every workload at toy size prints every metric
//! `BENCHMARK.json` names, with its unit, and each output check can fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: &[&str] = &["mxv_sequential", "mxm_combining", "threads2", "server_jobs"];

/// `(name, unit)` of every metric in one array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array ends")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs the benchmark at toy size and returns the result line.
fn run(workload: &str, trace: u8, fault: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR")).args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        &trace.to_string(),
        "--toy",
    ]);
    if let Some(f) = fault {
        cmd.args(["--fault", f]);
    }
    let out = cmd.output().expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn count(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    line[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a whole number")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        for (trace, metrics) in [(0, &end_to_end), (1, &per_layer)] {
            let line = run(workload, trace, None);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            assert_eq!(count(&line, "failed"), 0, "{workload}: {line}");
            assert!(count(&line, "attempted") >= 1);
            for (name, unit) in metrics.iter() {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload} trace={trace}: no `{name}` in {line}"));
                let rest = &line[at + entry.len()..];
                let value_end = rest.find(',').expect("value then unit");
                rest[..value_end]
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("{name}: `{}` is not a number", &rest[..value_end]));
                assert!(
                    rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                    "{workload}: `{name}` lacks unit {unit}"
                );
            }
            assert_eq!(
                line.matches("\"unit\"").count(),
                metrics.len(),
                "{workload}: extra metrics"
            );
        }
    }
}

#[test]
fn checks_catch_corrupted_outputs() {
    for (workload, fault) in [
        ("mxv_sequential", "amp"),
        ("mxm_combining", "amp"),
        ("mxv_sequential", "mark"),
        ("threads2", "shot"),
        ("server_jobs", "shot"),
    ] {
        let line = run(workload, 0, Some(fault));
        assert!(
            count(&line, "failed") > 0,
            "{workload} --fault {fault} went unnoticed: {line}"
        );
        assert!(
            line.starts_with("{\"correct\": false, "),
            "{workload}: {line}"
        );
    }
}
