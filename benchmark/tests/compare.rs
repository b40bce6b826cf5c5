//! `compare` verdicts on hand-made run sets.

use rdns_benchmark::catalog::{Better, Catalog, MetricSpec};
use rdns_benchmark::compare::{compare, verdict, Verdict};
use rdns_benchmark::report::{RunFile, RunResult};
use rdns_benchmark::workload::Measured;

fn lower(bound: f64) -> MetricSpec {
    MetricSpec {
        name: "p50_light_us".into(),
        unit: "us".into(),
        better: Better::Lower,
        bound: Some(bound),
    }
}

fn higher(bound: f64) -> MetricSpec {
    MetricSpec {
        better: Better::Higher,
        ..lower(bound)
    }
}

#[test]
fn verdicts_follow_the_bound_and_the_spread() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8];
    // Within the bound either way: same.
    let near = [101.0, 102.0, 100.0, 101.5, 100.5, 101.2, 100.8];
    assert_eq!(verdict(&lower(0.1), &base, &near), Verdict::Same);
    // 20% slower with a 10% bound: worse.
    let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
    assert_eq!(verdict(&lower(0.1), &base, &slow), Verdict::Worse);
    // 20% faster, every pair won: better.
    let fast: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
    assert_eq!(verdict(&lower(0.1), &base, &fast), Verdict::Better);
    // For a higher-is-better metric the same numbers read the other way.
    assert_eq!(verdict(&higher(0.1), &base, &slow), Verdict::Better);
    assert_eq!(verdict(&higher(0.1), &base, &fast), Verdict::Worse);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_separated() {
    let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
    let other = [70.0, 110.0, 130.0, 90.0, 100.0];
    assert_eq!(verdict(&lower(0.1), &noisy, &other), Verdict::Unresolved);
    // Every candidate run beats every baseline run: settled despite noise.
    let far = [10.0, 30.0, 20.0, 15.0, 25.0];
    assert_eq!(verdict(&lower(0.1), &noisy, &far), Verdict::Better);
    assert_eq!(verdict(&lower(0.1), &far, &noisy), Verdict::Worse);
}

#[test]
fn a_per_layer_metric_needs_a_clean_separation() {
    let count = MetricSpec {
        bound: None,
        ..lower(0.0)
    };
    assert_eq!(verdict(&count, &[7.0, 7.0], &[7.0, 7.0]), Verdict::Same);
    assert_eq!(verdict(&count, &[7.0, 8.0], &[5.0, 6.0]), Verdict::Better);
    assert_eq!(verdict(&count, &[5.0, 6.0], &[7.0, 8.0]), Verdict::Worse);
    assert_eq!(
        verdict(&count, &[5.0, 8.0], &[6.0, 7.0]),
        Verdict::Unresolved
    );
}

fn run_file(seed: u64, workload: &str, value: f64) -> RunFile {
    RunFile {
        seed,
        results: vec![(
            workload.into(),
            RunResult {
                correct: true,
                attempted: 1,
                failed: 0,
                metrics: vec![Measured {
                    name: "p50_light_us".into(),
                    value,
                    unit: "us".into(),
                }],
            },
        )],
    }
}

#[test]
fn the_report_covers_each_workload_and_flags_regressions() {
    let catalog = Catalog::parse(rdns_benchmark::CATALOG).expect("catalog");
    let workload = &catalog.workloads[0];
    let a: Vec<RunFile> = (0..5)
        .map(|s| run_file(s, workload, 300.0 + s as f64))
        .collect();
    let same: Vec<RunFile> = (0..5)
        .map(|s| run_file(s, workload, 301.0 + s as f64))
        .collect();
    let (report, worse) = compare(&catalog, &a, &same);
    assert!(!worse, "{report}");
    assert!(
        report.contains(workload) && report.contains("same"),
        "{report}"
    );
    let slow: Vec<RunFile> = (0..5)
        .map(|s| run_file(s, workload, 400.0 + s as f64))
        .collect();
    let (report, worse) = compare(&catalog, &a, &slow);
    assert!(worse && report.contains("worse"), "{report}");
}
