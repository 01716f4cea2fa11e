//! Runs the benchmark binary end to end on `--smoke` inputs: every
//! workload, the traced run, the failure path and `compare`.

use saq_benchmark::json::Json;
use saq_benchmark::workload::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::Instant;

fn bench(out: &str, args: &[&str]) -> (Output, PathBuf) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_saq-benchmark"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    (output, out)
}

fn last_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("the run prints a result")).expect("a JSON last line")
}

#[test]
fn every_workload_runs_end_to_end_and_reports_every_metric() {
    let started = Instant::now();
    let (output, out) = bench("smoke-run", &["run", "--smoke", "--seed", "3"]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(started.elapsed().as_secs() < 30, "smoke took {:?}", started.elapsed());

    let result = Json::parse(&std::fs::read_to_string(out.join("result.json")).unwrap()).unwrap();
    for workload in &WORKLOADS {
        let run = result.get("workloads").and_then(|w| w.get(workload.name)).expect(workload.name);
        assert_eq!(run.get("failed").and_then(Json::as_f64), Some(0.0), "{}", workload.name);
        for metric in &END_TO_END {
            let value = run.get("metrics").and_then(|m| m.get(metric.name)).expect(metric.name);
            assert!(value.get("value").and_then(Json::as_f64).unwrap() > 0.0, "{}", metric.name);
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert!(stdout.contains(&format!("{} {} ", workload.name, metric.name)));
        }
        assert!(stdout.contains(&format!("{} failed_ops_share 0 ", workload.name)));
    }

    // A file compares clean against itself.
    let result = out.join("result.json");
    let (same, _) =
        bench("smoke-compare", &["compare", result.to_str().unwrap(), result.to_str().unwrap()]);
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stdout));
    assert!(!String::from_utf8_lossy(&same.stdout).contains("worse"));
}

#[test]
fn the_drivers_form_ends_with_exactly_the_contract_keys() {
    let (output, _) = bench(
        "smoke-driver",
        &["--workload", "feed_mixed", "--seed", "4", "--seconds", "2", "--trace", "0", "--smoke"],
    );
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stdout));
    let line = last_line(&output);
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let names: Vec<&str> =
        line.get("metrics").unwrap().members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.map(|m| m.name));
}

#[test]
fn the_traced_run_reports_every_layer_metric_and_writes_the_spans() {
    let (output, out) = bench(
        "smoke-trace",
        &["--workload", "ward_warm", "--seed", "5", "--seconds", "2", "--trace", "1", "--smoke"],
    );
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stdout));
    let line = last_line(&output);
    let names: Vec<&str> =
        line.get("metrics").unwrap().members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, PER_LAYER.map(|m| m.name));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));

    let trace =
        Json::parse(&std::fs::read_to_string(out.join("trace-ward_warm.json")).unwrap()).unwrap();
    let Some(Json::Arr(spans)) = trace.get("spans") else { panic!("no spans") };
    let named = |name: &str| {
        spans.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some(name)).count()
    };
    assert!(named("server.round_trip") > 0 && named("engine.run_requests") > 0);
    assert!(named("durable.backend.append") > 0, "counting-backend calls are spans too");
    assert!(trace.get("self_time_ns").and_then(|t| t.get("replay")).is_some());
}

#[test]
fn a_reply_that_disagrees_with_the_oracle_fails_the_run() {
    let (output, _) = bench(
        "smoke-corrupt",
        &[
            "--workload",
            "ward_warm",
            "--seed",
            "6",
            "--seconds",
            "2",
            "--trace",
            "0",
            "--smoke",
            "--corrupt-oracle",
        ],
    );
    assert!(!output.status.success(), "a corrupted expected id list must fail the command");
    let line = last_line(&output);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert!(line.get("failed").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(String::from_utf8_lossy(&output.stdout).contains("disagrees with the oracle"));
}

#[test]
fn the_catalogue_and_benchmark_json_name_the_same_things() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else { panic!("no `{key}`") };
        let field = |item: &Json, f: &str| {
            item.get(f).and_then(Json::as_str).unwrap_or_default().to_string()
        };
        items.iter().map(|item| (field(item, "name"), field(item, "unit"))).collect()
    };
    let pair = |name: &str, unit: &str| (name.to_string(), unit.to_string());
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| pair(m.name, m.unit)).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|m| pair(m.name, m.unit)).collect::<Vec<_>>()
    );
    assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| pair(w.name, "")).collect::<Vec<_>>());
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else { panic!() };
    for (item, metric) in metrics.iter().zip(&END_TO_END) {
        assert_eq!(item.get("bound").and_then(Json::as_f64), Some(metric.bound), "{}", metric.name);
        let better = if metric.higher_is_better { "higher" } else { "lower" };
        assert_eq!(item.get("better").and_then(Json::as_str), Some(better), "{}", metric.name);
    }
}
