//! The catalogue in `BENCHMARK.json` and the metrics a run prints agree.

use rdns_benchmark::catalog::{valid_name, Catalog};
use rdns_benchmark::report::RunResult;
use rdns_benchmark::workload::WORKLOADS;
use std::collections::BTreeSet;
use std::process::Command;

fn catalog() -> Catalog {
    Catalog::parse(rdns_benchmark::CATALOG).expect("BENCHMARK.json parses")
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let c = catalog();
    let mut seen = BTreeSet::new();
    for m in c.end_to_end.iter().chain(&c.per_layer) {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(seen.insert(m.name.clone()), "{} is listed twice", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || "_/%.-".contains(ch)),
            "bad unit {:?} on {}",
            m.unit,
            m.name
        );
    }
    for w in &c.workloads {
        assert!(valid_name(w), "bad workload name {w:?}");
    }
    assert_eq!(
        c.workloads, WORKLOADS,
        "BENCHMARK.json lists the workloads run executes"
    );
    let bounds: Vec<f64> = c
        .end_to_end
        .iter()
        .map(|m| m.bound.expect("bounded"))
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    let setup = c
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.bound, bounds.iter().copied().reduce(f64::max));
}

#[test]
fn invalid_names_are_rejected() {
    for bad in ["", "_x", ".x", "a b", "a/b", "a{b}", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} must be rejected");
    }
    assert!(valid_name("dns.light.p999_us") && valid_name("9-lives"));
}

/// One smoke run of `workload`; returns its result line.
fn smoke(workload: &str, trace: bool) -> RunResult {
    let out = Command::new(env!("CARGO_BIN_EXE_rdns-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} smoke run failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    RunResult::parse(stdout.lines().last().expect("a result line")).expect("result line parses")
}

#[test]
fn smoke_runs_print_exactly_the_catalogued_metrics() {
    let c = catalog();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let result = smoke(workload, trace);
            assert!(result.correct, "{workload} smoke run failed its checks");
            assert!(result.attempted > 0);
            let printed: BTreeSet<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
            let listed: BTreeSet<&str> =
                c.reported(trace).iter().map(|m| m.name.as_str()).collect();
            assert_eq!(printed, listed, "{workload} trace={trace}");
            for m in &result.metrics {
                let spec = c
                    .reported(trace)
                    .iter()
                    .find(|s| s.name == m.name)
                    .expect("listed");
                assert_eq!(m.unit, spec.unit, "{}", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
            if !trace {
                assert!(
                    result.metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: end-to-end metrics are never 0: {:?}",
                    result.metrics
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "paper",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "paper", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rdns-benchmark"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
