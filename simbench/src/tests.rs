//! The benchmark's own tests: the declared metrics match
//! `BENCHMARK.json`, every workload's smoke-sized run passes and emits
//! every metric, and a corrupted run result counts as a failure.

use std::path::PathBuf;

use dcn_experiments::campaign::store::RunRecord;
use dcn_experiments::{RunSpec, Stack, TrafficDir};
use dcn_telemetry::Json;
use dcn_topology::{ClosParams, FailureCase};

use crate::grid::check_record;
use crate::runs::{decompose, paper_bands};
use crate::stats::Tally;
use crate::{parse_args, result_json, run, Size, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(text.trim()).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn declared(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let doc = benchmark_json();
    assert_eq!(names(&doc, "end_to_end"), declared(END_TO_END));
    assert_eq!(names(&doc, "per_layer"), declared(PER_LAYER));
    let workloads: Vec<String> = names(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (name, unit) in declared(END_TO_END).into_iter().chain(declared(PER_LAYER)) {
        assert!(valid_name(&name), "metric name {name:?}");
        assert!(!unit.is_empty(), "metric {name} has no unit");
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "workload name {w:?}");
    }
}

fn smoke(workload: &str, trace: bool) {
    let tmp = PathBuf::from(format!(".simbench-tmp/smoke-{workload}-{}", trace as u8));
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = run(workload, 3, 1.0, trace, Size::Smoke, &tmp).expect("smoke run");
    let _ = std::fs::remove_dir_all(&tmp);
    assert_eq!(
        outcome.tally.failed, 0,
        "{workload}: {:?}",
        outcome.tally.problems
    );
    let json = result_json(&outcome, trace).expect("every declared metric emitted and finite");
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
    assert!(json.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = json.get("metrics").expect("metrics object");
    for &(name, unit) in if trace { PER_LAYER } else { END_TO_END } {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
    }
    if !trace {
        for &(name, _) in END_TO_END {
            assert!(
                outcome.metrics[name] > 0.0,
                "{workload}: end-to-end {name} is 0"
            );
        }
    }
}

#[test]
fn paper_grid_smoke_timed() {
    smoke("paper_grid", false);
}

#[test]
fn paper_grid_smoke_traced() {
    smoke("paper_grid", true);
}

#[test]
fn forwarding_soak_smoke_timed() {
    smoke("forwarding_soak", false);
}

#[test]
fn forwarding_soak_smoke_traced() {
    smoke("forwarding_soak", true);
}

#[test]
fn corrupted_run_results_count_as_failures() {
    let spec = RunSpec::new(ClosParams::two_pod(), Stack::Mrmtp)
        .failing(FailureCase::Tc2)
        .with_traffic(TrafficDir::NearToFar)
        .seeded(5);
    let reference = decompose(&spec, false);
    assert!(paper_bands(&spec, &reference.result).is_empty());
    let mut tally = Tally::default();
    let good = RunRecord {
        wall_ms: 12.5,
        ..reference.record.clone()
    };
    tally.check("intact", check_record(&good, Some(&reference.record)));
    let corrupt_digest = RunRecord {
        digest: reference.record.digest ^ 1,
        ..reference.record.clone()
    };
    tally.check(
        "digest",
        check_record(&corrupt_digest, Some(&reference.record)),
    );
    let corrupt_metric = RunRecord {
        blast_radius: reference.record.blast_radius + 1,
        ..reference.record.clone()
    };
    tally.check(
        "metric",
        check_record(&corrupt_metric, Some(&reference.record)),
    );
    let mut corrupt_result = reference.result.clone();
    corrupt_result.convergence_ms = Some(500.0);
    tally.check("band", paper_bands(&spec, &corrupt_result));
    assert_eq!((tally.attempted, tally.failed), (4, 3));
    assert_eq!(tally.fail_ratio(), 0.75);

    let outcome = crate::stats::Outcome {
        tally,
        digest: 0,
        metrics: END_TO_END
            .iter()
            .map(|&(n, _)| (n.to_string(), 1.0))
            .collect(),
        notes: Vec::new(),
    };
    let json = result_json(&outcome, false).expect("all metrics present");
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(3));
}

#[test]
fn arguments_are_validated() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert!(parse_args(&args(
        "--workload paper_grid --seed 1 --seconds 10 --trace 0"
    ))
    .is_ok());
    assert!(parse_args(&args("--workload nope --seed 1 --seconds 10 --trace 0")).is_err());
    assert!(parse_args(&args(
        "--workload paper_grid --seed 1 --seconds 10 --trace 2"
    ))
    .is_err());
    assert!(parse_args(&args("--workload paper_grid --seed 1 --trace 0")).is_err());
    assert!(parse_args(&args(
        "--workload paper_grid --seed x --seconds 10 --trace 0"
    ))
    .is_err());
    assert!(parse_args(&args("--bogus 1")).is_err());
}
