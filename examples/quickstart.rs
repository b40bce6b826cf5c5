//! Quickstart: build a small campus, run a week, and walk the paper's
//! pipeline end to end — dynamicity detection, leak identification, and a
//! peek at what an outside observer learns.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rdns_core::dynamicity::{identify_dynamic, DynamicityParams};
use rdns_core::names::match_given_names;
use rdns_core::suffix::{identify_leaking_suffixes, LeakParams};
use rdns_data::{Cadence, DeltaSeries, SnapshotDatasetStats, Snapshotter};
use rdns_model::{Date, SimTime};
use rdns_netsim::spec::presets;
use rdns_netsim::{World, WorldConfig};

fn main() {
    // 1. A world with one leaky campus network.
    let start = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: 7,
        shards: 0,
        start,
        networks: vec![presets::academic_a(0.1)],
    });
    println!(
        "world: {} devices across Academic-A",
        world.device_count()
    );

    // 2. Daily rDNS snapshots for three weeks (what OpenINTEL would see).
    let snapper = Snapshotter::new(world.store().clone());
    let mut series = DeltaSeries::new(Cadence::Daily);
    for offset in 0..21 {
        let day = start.plus_days(offset);
        world.step_until(SimTime::from_date_hms(day, 14, 0, 0));
        series.push(snapper.take(day));
    }
    let columnar = series.to_columnar();
    let dataset = SnapshotDatasetStats::from_columnar("daily", &columnar, Cadence::Daily);
    println!(
        "collected {} snapshots, {} PTR responses, {} unique hostnames",
        columnar.len(),
        dataset.total_responses,
        dataset.unique_ptrs
    );

    // 3. §4.1: which /24s behave dynamically?
    let params = DynamicityParams {
        min_daily_addrs: 3,
        ..DynamicityParams::default()
    };
    let dynamicity = identify_dynamic(&columnar.counts_matrix(), &params);
    println!(
        "dynamicity: {} of {} /24s labelled dynamic",
        dynamicity.dynamic.len(),
        dynamicity.total
    );

    // 4. §5.1: which networks leak identities?
    let observations = columnar.observations();
    let (stats, identified) = identify_leaking_suffixes(
        observations.iter().map(|(a, h)| (*a, h)),
        &dynamicity.dynamic,
        &LeakParams::scaled(3),
    );
    for s in &stats {
        println!(
            "suffix {:<24} records={:<5} unique names={:<3} ratio={:.2}",
            s.suffix,
            s.records,
            s.unique_names.len(),
            s.ratio()
        );
    }
    println!("identified leaking networks: {identified:?}");

    // 5. What the outsider reads: hostnames with given names in them.
    let mut examples: Vec<String> = observations
        .iter()
        .filter(|(_, h)| !match_given_names(h).is_empty())
        .map(|(addr, h)| format!("  {addr}  ->  {h}"))
        .collect();
    examples.sort();
    examples.dedup();
    println!("\nsample of leaked records ({} total):", examples.len());
    for line in examples.iter().take(10) {
        println!("{line}");
    }
}
