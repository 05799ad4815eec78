//! The benchmark's own tests: a tiny-scale run of every workload emits
//! every metric `BENCHMARK.json` names, with its unit, and no routing
//! update fails.

use xbgp_obs::json::Value;
use xbgp_perfbench::{run, Report, Scale, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(report: &Report, expected: &[(String, String)], nonzero: bool, what: &str) {
    assert!(report.correct(), "{what}: not correct: {:#?}", report.notes);
    assert_eq!(report.failed, 0, "{what}: fail_frac must be 0: {:#?}", report.notes);
    assert_eq!(report.metrics.len(), expected.len(), "{what}: one value per metric");
    for (name, unit) in expected {
        let m = report.metric(name).unwrap_or_else(|| panic!("{what}: `{name}` missing"));
        assert_eq!(m.unit, unit, "{what}: unit of `{name}`");
        assert!(m.value.is_finite(), "{what}: `{name}` = {}", m.value);
        if nonzero {
            assert!(m.value > 0.0, "{what}: `{name}` = {}", m.value);
        }
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let expected = metrics("end_to_end");
    for w in Workload::ALL {
        let report = run(w, 7, 0.2, false, &Scale::TINY);
        check(&report, &expected, true, w.name());
    }
}

#[test]
fn every_traced_run_emits_every_per_layer_metric() {
    let expected = metrics("per_layer");
    for w in Workload::ALL {
        let report = run(w, 7, 0.2, true, &Scale::TINY);
        check(&report, &expected, false, w.name());
        for layer in [
            "fir.unattributed_ns",
            "wren.unattributed_ns",
            "fir.deliver_ns",
            "wren.deliver_ns",
        ] {
            assert!(report.metric(layer).is_some_and(|m| m.value > 0.0), "{}: {layer}", w.name());
        }
    }
}
