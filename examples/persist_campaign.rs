//! Persisting and reloading measurement artifacts — the reproducibility
//! workflow of §9 ("we retain the data from our supplemental measurement"):
//! run a campaign, write the CSV pair + the daily snapshot JSON to disk,
//! reload them cold, and verify the analysis reproduces bit-for-bit.
//!
//! ```text
//! cargo run --release --example persist_campaign
//! ```

use rdns_core::experiments::harness::{collect_series, run_supplemental, FaultMix};
use rdns_core::timing::{build_groups, GroupFunnel};
use rdns_data::{load_scan_log, load_series, save_scan_log, save_series};
use rdns_model::Date;
use rdns_netsim::{spec::presets, World, WorldConfig};

fn main() {
    let from = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: 0xB51A17,
        shards: 0,
        start: from,
        networks: vec![presets::academic_a(0.08)],
    });

    // One day of supplemental measurement + one week of daily snapshots.
    println!("measuring ...");
    let run = run_supplemental(&mut world, &["Academic-A"], from, 1, FaultMix::realistic(), 4);
    let series = collect_series(&mut world, from.plus_days(1), from.plus_days(7));

    let dir = std::env::temp_dir().join("rdns-privacy-campaign");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    save_scan_log(&run.log, &dir, "supplemental").expect("write CSVs");
    save_series(&series, &dir.join("daily.json")).expect("write series");
    println!("artifacts written to {}", dir.display());
    for entry in std::fs::read_dir(&dir).expect("list dir") {
        let entry = entry.expect("dir entry");
        println!(
            "  {:>9} bytes  {}",
            entry.metadata().map(|m| m.len()).unwrap_or(0),
            entry.file_name().to_string_lossy()
        );
    }

    // Cold reload: a different analyst, a different day.
    let log = load_scan_log(&dir, "supplemental").expect("reload CSVs");
    let reloaded_series = load_series(&dir.join("daily.json")).expect("reload series");
    assert_eq!(log, run.log, "CSV round-trip must be lossless");
    assert_eq!(reloaded_series, series, "JSON round-trip must be lossless");

    // And the analysis over reloaded data matches the original.
    let funnel_live = GroupFunnel::compute(&build_groups(&run.log));
    let funnel_cold = GroupFunnel::compute(&build_groups(&log));
    assert_eq!(funnel_live, funnel_cold);
    println!(
        "\nanalysis over reloaded artifacts matches: {} groups, {} reliable",
        funnel_cold.all, funnel_cold.reliable
    );
    println!(
        "snapshot series: {} days, {} total responses",
        reloaded_series.len(),
        reloaded_series.total_responses()
    );

    std::fs::remove_dir_all(&dir).ok();
}
