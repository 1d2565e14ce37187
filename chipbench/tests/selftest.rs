//! Reduced-size self-test of the benchmark: every workload runs once
//! untraced and once traced, and each run must print every metric that
//! `BENCHMARK.json` names, with its unit, fail no correctness check, and
//! repeat the deterministic results exactly across the two runs.
//!
//! Run with `cargo test --release --manifest-path chipbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

const SEED: &str = "7";

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to chipbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.as_object()
        .and_then(|o| o.get(list))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let m = m.as_object().expect("metric entries are objects");
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    result: Value,
    /// `det` lines: the deterministic results, by name.
    deterministic: BTreeMap<String, String>,
}

fn run(workload: &str, trace: &str) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_chipbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", trace, "--reduced"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    let deterministic = stdout
        .lines()
        .filter_map(|line| line.strip_prefix("det "))
        .filter_map(|rest| rest.split_once(" = "))
        .map(|(name, value)| (name.to_owned(), value.to_owned()))
        .collect();
    Run {
        result,
        deterministic,
    }
}

fn check_metrics(workload: &str, run: &Run, expected: &[(String, String)]) {
    let result = run.result.as_object().expect("result object");
    let field = |k: &str| {
        result
            .get(k)
            .unwrap_or_else(|| panic!("{workload}: no {k}"))
    };
    assert_eq!(
        field("correct").as_bool(),
        Some(true),
        "{workload}: not correct"
    );
    assert_eq!(
        field("failed").as_u64(),
        Some(0),
        "{workload}: error_rate is not 0"
    );
    assert!(
        field("attempted").as_u64().unwrap_or(0) >= 1,
        "{workload}: nothing attempted"
    );
    let metrics = field("metrics").as_object().expect("metrics object");
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in expected {
        let metric = metrics
            .get(name)
            .and_then(Value::as_object)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let value = metric.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: value of {name}"
        );
    }
}

#[test]
fn every_workload_prints_its_metrics_correctly_and_deterministically() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let workloads: Vec<String> = doc
        .as_object()
        .and_then(|o| o.get("workloads"))
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.as_object()
                .and_then(|o| o.get("name"))
                .and_then(Value::as_str)
                .expect("workload name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        let untraced = run(workload, "0");
        let traced = run(workload, "1");
        check_metrics(workload, &untraced, &end_to_end);
        check_metrics(workload, &traced, &per_layer);
        assert!(
            !untraced.deterministic.is_empty(),
            "{workload}: no deterministic results"
        );
        assert_eq!(
            untraced.deterministic, traced.deterministic,
            "{workload}: deterministic results differ between untraced and traced runs"
        );
    }
}
