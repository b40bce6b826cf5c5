//! The `reproduce` command line: every documented experiment name runs and
//! prints the committed tiny transcript, and a name it does not know is an
//! error rather than an empty, successful run.

use std::process::{Command, Output};

/// Every experiment `reproduce` documents.
const EXPERIMENTS: [&str; 20] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "validation",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "ablation",
    "claims",
    "serve",
];

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

#[test]
fn unknown_experiment_exits_non_zero_and_lists_the_valid_names() {
    for args in [
        &["tiny", "fig99"][..],
        &["fig4", "tabel5"],
        &["tiny", "table2", "paper"],
    ] {
        let out = reproduce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited {}", out.status);
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let bad = args.last().expect("non-empty");
        assert!(
            stderr.contains(bad),
            "{args:?}: stderr does not name {bad}: {stderr}"
        );
        for name in EXPERIMENTS {
            assert!(
                stderr.contains(name),
                "{args:?}: stderr does not list {name}: {stderr}"
            );
        }
    }
}

#[test]
fn every_experiment_name_and_scale_word_is_accepted() {
    let mut args = vec!["tiny"];
    args.extend(EXPERIMENTS);
    let out = reproduce(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    // Everything `reproduce` prints to stdout is fixed by the seed, so the
    // whole tiny transcript is pinned.
    let golden = include_str!("reproduce_tiny.txt");
    let first_diff = stdout
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want);
    assert!(
        stdout == golden,
        "stdout differs from reproduce_tiny.txt; first differing line: {:?}",
        first_diff.map(|i| i + 1)
    );

    for scale in ["small", "paper"] {
        let out = reproduce(&[scale, "TABLE2"]);
        assert!(out.status.success(), "{scale}: exited {}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("Table 2 — reactive back-off schedule"),
            "{stdout}"
        );
    }
}
