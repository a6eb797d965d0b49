//! Tiny-scale smoke test: every workload, untraced and traced, emits every
//! catalogued metric with its unit, answers correctly, and a second seed
//! yields the same metric set; the catalog matches `BENCHMARK.json`.

use std::process::Command;

#[path = "../src/metrics.rs"]
#[allow(dead_code)]
mod metrics;

const WORKLOADS: [&str; 3] = ["fleet_point", "scan_batch", "ingest_mixed"];

/// Run one tiny workload; returns the result line (the last stdout line).
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string(), "--tiny"])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("run perfbench");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2 && lines[lines.len() - 2].starts_with("{\"record\": "),
        "{workload}: the record line precedes the result"
    );
    lines[lines.len() - 1].to_string()
}

/// The metric names of a result line, checking each has a numeric value
/// and the catalogued unit.
fn metric_names(line: &str, catalog: &[(&str, &str)], context: &str) -> Vec<String> {
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{context}: {line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{context}: {line}");
    let mut names = Vec::new();
    for (name, unit) in catalog {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{context}: {name} missing"));
        let rest = &line[at + key.len()..];
        let (value, tail) = rest.split_once(", ").expect("value then unit");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("{context}: {name} = {value} is not a number"));
        assert!(
            tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{context}: {name} unit"
        );
        names.push(name.to_string());
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        catalog.len(),
        "{context}: exactly the catalogued metrics"
    );
    names
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        let first = metric_names(&run(workload, 1, 0), metrics::END_TO_END, workload);
        let second = metric_names(&run(workload, 2, 0), metrics::END_TO_END, workload);
        assert_eq!(
            first, second,
            "{workload}: a second seed, the same metric set"
        );
        metric_names(&run(workload, 1, 1), metrics::PER_LAYER, workload);
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        metrics::END_TO_END.len() + metrics::PER_LAYER.len(),
        "BENCHMARK.json lists exactly the catalogued metrics"
    );
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
}
