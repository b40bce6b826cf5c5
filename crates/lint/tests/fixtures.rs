//! Self-tests: every rule family has a known-bad and a known-good fixture,
//! and the analyzer must report the bad ones at exactly the expected
//! `(line, rule)` locations and stay silent on the good ones. The fixtures
//! live as plain `.rs` data files under `tests/fixtures/` (outside any
//! `src/` tree, so the workspace walk never picks them up) and are analyzed
//! under a *virtual* path, which is what scopes the crate-specific rules.

use rdns_lint::{analyze_source, analyze_workspace_sources};

/// `(line, rule)` pairs of the findings for `src` analyzed at `path`.
fn findings(path: &str, src: &str) -> Vec<(u32, &'static str)> {
    analyze_source(path, src)
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

/// `(line, col, rule)` triples — the flow-rule fixtures pin exact columns.
fn findings_at(path: &str, src: &str) -> Vec<(u32, u32, &'static str)> {
    analyze_source(path, src)
        .into_iter()
        .map(|f| (f.line, f.col, f.rule))
        .collect()
}

/// Same, through the full two-pass pipeline under an inline `lint.toml`.
fn manifest_findings_at(
    manifest: &str,
    path: &str,
    src: &str,
) -> Vec<(u32, u32, &'static str)> {
    analyze_workspace_sources(manifest, &[(path, src)])
        .expect("fixture manifest parses")
        .into_iter()
        .map(|f| (f.line, f.col, f.rule))
        .collect()
}

#[test]
fn thread_rng_fixture() {
    let bad = include_str!("fixtures/bad_thread_rng.rs");
    assert_eq!(
        findings("crates/dns/src/bad.rs", bad),
        vec![(4, "thread-rng")]
    );
    let good = include_str!("fixtures/good_thread_rng.rs");
    assert_eq!(findings("crates/dns/src/good.rs", good), vec![]);
}

#[test]
fn entropy_fixture() {
    let bad = include_str!("fixtures/bad_entropy.rs");
    assert_eq!(
        findings("crates/model/src/bad.rs", bad),
        vec![(5, "entropy-source"), (9, "entropy-source")]
    );
    let good = include_str!("fixtures/good_entropy.rs");
    assert_eq!(findings("crates/model/src/good.rs", good), vec![]);
}

#[test]
fn entropy_rule_is_scoped_to_simulation_crates() {
    // The identical entropy-using source is legal in the wire-path crates,
    // where `from_entropy` is the sanctioned default behind a seed knob.
    let bad = include_str!("fixtures/bad_entropy.rs");
    assert_eq!(findings("crates/dns/src/ids.rs", bad), vec![]);
}

#[test]
fn std_sync_fixture() {
    let bad = include_str!("fixtures/bad_std_sync.rs");
    assert_eq!(
        findings("crates/scan/src/bad.rs", bad),
        vec![(1, "std-sync-lock"), (2, "std-sync-lock")]
    );
    let good = include_str!("fixtures/good_std_sync.rs");
    assert_eq!(findings("crates/scan/src/good.rs", good), vec![]);
}

#[test]
fn std_sync_rule_exempts_shims() {
    // The shims are the layer the policy primitives are built from.
    let bad = include_str!("fixtures/bad_std_sync.rs");
    assert_eq!(findings("shims/tokio/src/bad.rs", bad), vec![]);
}

#[test]
fn sleep_in_async_fixture() {
    let bad = include_str!("fixtures/bad_sleep.rs");
    assert_eq!(
        findings("crates/scan/src/bad.rs", bad),
        vec![(2, "sleep-in-async"), (7, "sleep-in-async")]
    );
    let good = include_str!("fixtures/good_sleep.rs");
    assert_eq!(findings("crates/scan/src/good.rs", good), vec![]);
}

#[test]
fn hash_iter_fixture() {
    let bad = include_str!("fixtures/bad_hash_iter.rs");
    assert_eq!(
        findings("crates/core/src/bad.rs", bad),
        vec![(4, "hash-iter-ordered"), (10, "hash-iter-ordered")]
    );
    let good = include_str!("fixtures/good_hash_iter.rs");
    assert_eq!(findings("crates/core/src/good.rs", good), vec![]);
}

#[test]
fn hash_iter_rule_is_scoped_to_output_crates() {
    // Outside data/core the snapshot/report byte-stability contract does not
    // apply, so the same source passes.
    let bad = include_str!("fixtures/bad_hash_iter.rs");
    assert_eq!(findings("crates/netsim/src/bad.rs", bad), vec![]);
}

#[test]
fn pii_escape_fixture() {
    // The fixture declares its own `lint:taint(source)` fn; the taint flows
    // through a `let` into two formatting sinks — once interpolated (the
    // finding lands on the string literal) and once as a direct argument.
    let bad = include_str!("fixtures/bad_pii_escape.rs");
    assert_eq!(
        findings_at("crates/core/src/bad.rs", bad),
        vec![(7, 14, "pii-escape"), (8, 28, "pii-escape")]
    );
    // Wrapping in `Pii` sanctions the sink; a justified allow covers the
    // operator-only audit line.
    let good = include_str!("fixtures/good_pii_escape.rs");
    assert_eq!(findings_at("crates/core/src/good.rs", good), vec![]);
}

#[test]
fn pii_unwrap_fixture() {
    // `.reveal()` on a binding that holds a `Pii`-wrapped value.
    let bad = include_str!("fixtures/bad_pii_unwrap.rs");
    assert_eq!(
        findings_at("crates/core/src/bad.rs", bad),
        vec![(7, 13, "pii-escape")]
    );
}

#[test]
fn pii_escape_rule_respects_manifest_allowlist() {
    // The identical escaping source is legal in a module `lint.toml`
    // allowlists with a written reason (disclosure is that module's job).
    let manifest = "[[pii_allow]]\n\
                    path = \"crates/netsim/src/synth.rs\"\n\
                    reason = \"hostname synthesis is the studied leak\"\n";
    let bad = include_str!("fixtures/bad_pii_escape.rs");
    assert_eq!(
        manifest_findings_at(manifest, "crates/netsim/src/synth.rs", bad),
        vec![]
    );
}

const HOT_MANIFEST: &str = "[[hot_path]]\n\
                            file = \"crates/dns/src/hot.rs\"\n\
                            panic_fns = [\"handle\"]\n\
                            alloc_fns = [\"dispatch\"]\n";

#[test]
fn panic_in_hot_path_fixture() {
    // Indexing, `.unwrap()`, `panic!`, and unchecked `-` inside the one fn
    // the manifest declares hot.
    let bad = include_str!("fixtures/bad_panic_hot.rs");
    assert_eq!(
        manifest_findings_at(HOT_MANIFEST, "crates/dns/src/hot.rs", bad),
        vec![
            (2, 16, "panic-in-hot-path"),
            (3, 25, "panic-in-hot-path"),
            (4, 26, "panic-in-hot-path"),
            (5, 17, "panic-in-hot-path"),
        ]
    );
    // Slice patterns, `.get()`, and `saturating_sub` pass; the non-hot
    // `setup` fn may index and unwrap freely.
    let good = include_str!("fixtures/good_panic_hot.rs");
    assert_eq!(
        manifest_findings_at(HOT_MANIFEST, "crates/dns/src/hot.rs", good),
        vec![]
    );
}

#[test]
fn alloc_in_hot_path_fixture() {
    // `.to_vec()`, `format!`, and `Vec::new` inside the declared
    // alloc-free fn.
    let bad = include_str!("fixtures/bad_alloc_hot.rs");
    assert_eq!(
        manifest_findings_at(HOT_MANIFEST, "crates/dns/src/hot.rs", bad),
        vec![
            (2, 24, "alloc-in-hot-path"),
            (3, 15, "alloc-in-hot-path"),
            (4, 19, "alloc-in-hot-path"),
        ]
    );
    // Scratch-buffer reuse passes; the non-hot `setup` fn may allocate.
    let good = include_str!("fixtures/good_alloc_hot.rs");
    assert_eq!(
        manifest_findings_at(HOT_MANIFEST, "crates/dns/src/hot.rs", good),
        vec![]
    );
}

const STABLE_MANIFEST: &str = "[[seed_stable]]\n\
                               file = \"crates/core/src/export.rs\"\n\
                               fns = [\"render\"]\n";

#[test]
fn determinism_flow_fixture() {
    // `Instant::now()`, a read of a WallClock-registered metric binding,
    // and `.elapsed()` inside the declared seed-stable export fn.
    let bad = include_str!("fixtures/bad_determinism.rs");
    assert_eq!(
        manifest_findings_at(STABLE_MANIFEST, "crates/core/src/export.rs", bad),
        vec![
            (6, 23, "determinism-flow"),
            (7, 26, "determinism-flow"),
            (8, 38, "determinism-flow"),
        ]
    );
    // Reads of a SeedStable-registered metric pass, and the non-stable
    // `dashboard` fn may read the clock.
    let good = include_str!("fixtures/good_determinism.rs");
    assert_eq!(
        manifest_findings_at(STABLE_MANIFEST, "crates/core/src/export.rs", good),
        vec![]
    );
}

#[test]
fn baseline_ratchet_fixture() {
    // A finding whose count fits the committed baseline warns; the same
    // finding against an empty baseline denies; a baseline entry above the
    // current count is stale (the file can only shrink).
    use rdns_lint::report::{baseline_of, parse_baseline, ratchet, Ratchet};
    let bad = include_str!("fixtures/bad_panic_hot.rs");
    let findings: Vec<_> =
        analyze_workspace_sources(HOT_MANIFEST, &[("crates/dns/src/hot.rs", bad)])
            .expect("fixture manifest parses");
    let current = baseline_of(&findings);

    let exact = ratchet(&current, &current);
    assert!(exact
        .iter()
        .all(|(_, _, s)| matches!(s, Ratchet::Baselined { .. })));

    let empty = parse_baseline("{}").unwrap();
    let fresh = ratchet(&current, &empty);
    assert!(fresh.iter().all(|(_, _, s)| matches!(
        s,
        Ratchet::New {
            count: 4,
            allowed: 0
        }
    )));

    let inflated =
        parse_baseline("{\"crates/dns/src/hot.rs\": {\"panic-in-hot-path\": 9}}").unwrap();
    let stale = ratchet(&current, &inflated);
    assert!(stale
        .iter()
        .all(|(_, _, s)| matches!(s, Ratchet::Stale { .. })));
}

#[test]
fn allow_fixture() {
    // A suppression without justification is itself a finding and suppresses
    // nothing; an unknown rule name likewise.
    let bad = include_str!("fixtures/bad_allow.rs");
    assert_eq!(
        findings("crates/dns/src/bad.rs", bad),
        vec![
            (2, "allow-malformed"),
            (3, "thread-rng"),
            (4, "allow-malformed"),
        ]
    );
    // A well-formed allow (rule + `--` justification) suppresses its line
    // and the next.
    let good = include_str!("fixtures/good_allow.rs");
    assert_eq!(findings("crates/dns/src/good.rs", good), vec![]);
}

#[test]
fn raw_atomic_fixture() {
    let bad = include_str!("fixtures/bad_raw_atomic.rs");
    assert_eq!(
        findings("crates/scan/src/bad.rs", bad),
        vec![(1, "raw-atomic-stats"), (4, "raw-atomic-stats")]
    );
    // Registry-backed counters pass; a justified allow covers the one
    // atomic that is genuinely not a statistic.
    let good = include_str!("fixtures/good_raw_atomic.rs");
    assert_eq!(findings("crates/scan/src/good.rs", good), vec![]);
}

#[test]
fn raw_atomic_rule_exempts_telemetry_and_shims() {
    // crates/telemetry implements the counter primitives; shims sit below
    // the policy layer entirely.
    let bad = include_str!("fixtures/bad_raw_atomic.rs");
    assert_eq!(findings("crates/telemetry/src/bad.rs", bad), vec![]);
    assert_eq!(findings("shims/tokio/src/bad.rs", bad), vec![]);
}

#[test]
fn snapshot_clone_fixture() {
    let bad = include_str!("fixtures/bad_snapshot_clone.rs");
    assert_eq!(
        findings("crates/core/src/bad.rs", bad),
        vec![
            (4, "snapshot-clone"),
            (10, "snapshot-clone"),
            (15, "snapshot-clone")
        ]
    );
    // Streaming consumption and a justified allow both pass.
    let good = include_str!("fixtures/good_snapshot_clone.rs");
    assert_eq!(findings("crates/core/src/good.rs", good), vec![]);
}

#[test]
fn snapshot_clone_rule_exempts_the_representation_layer() {
    // crates/data implements the snapshot types; its internal clones (delta
    // base materialization, columnar conversion) are the representation.
    let bad = include_str!("fixtures/bad_snapshot_clone.rs");
    assert_eq!(findings("crates/data/src/bad.rs", bad), vec![]);
}

#[test]
fn every_rule_is_exercised_by_a_fixture() {
    // Guards against adding a rule without fixture coverage.
    let covered = ["thread-rng", "entropy-source", "std-sync-lock",
        "sleep-in-async", "hash-iter-ordered", "pii-escape",
        "raw-atomic-stats", "snapshot-clone", "panic-in-hot-path",
        "alloc-in-hot-path", "determinism-flow"];
    for rule in rdns_lint::ALL_RULES {
        assert!(covered.contains(rule), "rule `{rule}` has no fixture");
    }
}
