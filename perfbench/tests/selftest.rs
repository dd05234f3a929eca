//! Tiny-size self-test of the benchmark: every workload, traced and
//! untraced, prints a result object whose metrics are exactly the catalog's,
//! each with its unit, and `BENCHMARK.json` declares the same metrics.

use std::path::Path;
use std::process::Command;

use perfbench::catalog::{self, Metric};
use perfbench::workload::Kind;
use serde::JsonValue;
use serde_json::parse;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("start the benchmark binary")
}

fn field<'a>(obj: &'a [(String, JsonValue)], key: &str) -> &'a JsonValue {
    &obj.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing key `{key}`"))
        .1
}

fn num(value: &JsonValue) -> f64 {
    match value {
        JsonValue::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn string(value: &JsonValue) -> &str {
    match value {
        JsonValue::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn keys(obj: &[(String, JsonValue)]) -> Vec<&str> {
    obj.iter().map(|(k, _)| k.as_str()).collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let out = run(&[
                "--workload",
                kind.name(),
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--size",
                "tiny",
            ]);
            assert!(out.status.success(), "{} trace {trace} failed", kind.name());
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the last line is JSON");
            let obj = result.as_object().expect("the result is an object");
            assert_eq!(keys(obj), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(obj, "correct"), &JsonValue::Bool(true), "{last}");
            assert!(num(field(obj, "attempted")) >= 1.0);
            assert_eq!(num(field(obj, "failed")), 0.0);

            let metrics = field(obj, "metrics").as_object().expect("metrics object");
            let expected = catalog::for_trace(trace == "1");
            assert_eq!(
                keys(metrics),
                expected.iter().map(|m| m.name).collect::<Vec<_>>()
            );
            for metric in expected {
                let entry = field(metrics, metric.name)
                    .as_object()
                    .expect("metric object");
                assert_eq!(keys(entry), ["value", "unit"]);
                assert_eq!(string(field(entry, "unit")), metric.unit, "{}", metric.name);
                assert!(num(field(entry, "value")).is_finite(), "{}", metric.name);
            }
        }
    }
}

#[test]
fn benchmark_json_declares_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    let obj = doc.as_object().expect("an object");
    for (key, metrics) in [
        ("end_to_end", catalog::END_TO_END),
        ("per_layer", catalog::PER_LAYER),
    ] {
        let JsonValue::Arr(declared) = field(obj, key) else {
            panic!("`{key}` is not an array");
        };
        assert_eq!(declared.len(), metrics.len(), "{key}");
        for (entry, Metric { name, unit, better }) in declared.iter().zip(metrics) {
            let entry = entry.as_object().expect("metric object");
            assert_eq!(string(field(entry, "name")), *name);
            assert_eq!(string(field(entry, "unit")), *unit, "{name}");
            assert_eq!(string(field(entry, "better")), *better, "{name}");
        }
    }
    let JsonValue::Arr(workloads) = field(obj, "workloads") else {
        panic!("`workloads` is not an array");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| string(field(w.as_object().expect("workload object"), "name")))
        .collect();
    assert_eq!(names, Kind::ALL.map(Kind::name));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "md", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "md",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
