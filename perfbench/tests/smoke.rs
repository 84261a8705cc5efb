//! Smoke test of the benchmark itself: every workload of `BENCHMARK.json`,
//! run at toy size, passes its output checks and emits exactly the metrics
//! `BENCHMARK.json` names, with their units.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::{Command, Output};

use onoc_telemetry::Json;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of `section`.
fn declared(document: &Json, section: &str) -> Vec<(String, String)> {
    document
        .get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_str)
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    let document = benchmark_json();
    let workloads = declared_workloads(&document);
    assert!(workloads.len() >= 2, "at least two workloads");
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench(&[
                "--workload",
                workload,
                "--seed",
                "1",
                "--seconds",
                "0.01",
                "--trace",
                trace,
                "--size",
                "toy",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}:\n{stderr}"
            );
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload} --trace {trace} failed its checks:\n{stderr}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, metric)| {
                    assert!(
                        metric.get("value").and_then(Json::as_f64).is_some(),
                        "{workload}: {name} has no numeric value"
                    );
                    let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                emitted,
                declared(&document, section),
                "{workload} --trace {trace} must emit every {section} metric, in order"
            );
        }
    }
}

fn declared_workloads(document: &Json) -> Vec<String> {
    document
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect()
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--workload", "variation_barrel", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
