//! Shard-count invariance: the headline contract of the sharded simulator.
//!
//! Parallelism must be an execution detail, never an input. Three pins:
//!
//! 1. A fixed multi-network world stepped at `shards` ∈ {1, 2, 8} produces
//!    **byte-identical** snapshot JSON — every day exactly as
//!    [`Snapshotter::take`] returned it, not merely equal sets but the same
//!    serialized bytes.
//! 2. A property test sweeps small random world specs (network mix, scale,
//!    seed, window) and asserts snapshot-series and `online_count`
//!    trajectories agree across shard settings.
//! 3. The preserved pre-sharding engine ([`MonolithWorld`]: one global
//!    event queue, coarse-locked store, clone-heavy dispatch) is a
//!    differential oracle: it must publish the exact same records as the
//!    sharded engine for the same config.

use proptest::prelude::*;
use rdns_data::{DailySnapshot, Snapshotter};
use rdns_model::{Date, SimTime};
use rdns_netsim::spec::presets;
use rdns_netsim::{MonolithWorld, NetworkSpec, World, WorldConfig};

fn network_mix(choice: u8, scale: f64) -> Vec<NetworkSpec> {
    match choice % 4 {
        0 => vec![presets::academic_a(scale)],
        1 => vec![presets::academic_a(scale), presets::enterprise_a(scale)],
        2 => vec![presets::enterprise_b(scale), presets::isp_a(scale)],
        _ => vec![
            presets::academic_b(scale),
            presets::enterprise_c(scale),
            presets::isp_b(scale),
        ],
    }
}

/// Run a world at the given shard setting: per-midnight snapshot series
/// (serialized to JSON) plus the online-count trajectory.
fn run_world(
    networks: Vec<NetworkSpec>,
    seed: u64,
    start: Date,
    days: i64,
    shards: usize,
) -> (String, Vec<usize>) {
    let mut world = World::new(WorldConfig {
        seed,
        shards,
        start,
        networks,
    });
    let snapper = Snapshotter::new(world.store().clone());
    let mut series: Vec<DailySnapshot> = Vec::new();
    let mut online = Vec::new();
    world.run_days(start.plus_days(days - 1), |w, date| {
        series.push(snapper.take(date));
        online.push(w.online_count());
    });
    // One more mid-day probe so the trajectory sees intra-day state too.
    world.step_until(SimTime::from_date_hms(start.plus_days(days), 12, 0, 0));
    online.push(world.online_count());
    world.check_invariants();
    (serde_json::to_string(&series).expect("days serialize"), online)
}

/// Pin 1: byte-identical snapshot series across shard counts on a fixed
/// three-network world.
#[test]
fn snapshot_series_bytes_invariant_across_shard_counts() {
    let networks = || {
        vec![
            presets::academic_a(0.05),
            presets::enterprise_a(0.2),
            presets::isp_a(0.3),
        ]
    };
    let start = Date::from_ymd(2021, 11, 1);
    let (json1, online1) = run_world(networks(), 0xB51A17, start, 3, 1);
    let (json2, online2) = run_world(networks(), 0xB51A17, start, 3, 2);
    let (json8, online8) = run_world(networks(), 0xB51A17, start, 3, 8);
    assert_eq!(json1, json2, "1-shard vs 2-shard JSON bytes diverge");
    assert_eq!(json1, json8, "1-shard vs 8-shard JSON bytes diverge");
    assert_eq!(online1, online2);
    assert_eq!(online1, online8);
    assert!(
        !online1.iter().all(|&n| n == 0),
        "trajectory must have signal for the comparison to mean anything"
    );
}

/// Pin 3: the monolith oracle publishes the same records as the sharded
/// engine, and its snapshots (taken through the same generic Snapshotter
/// over the coarse store) serialize to the same bytes.
#[test]
fn monolith_oracle_agrees_with_sharded_engine() {
    let networks = || vec![presets::academic_a(0.05), presets::enterprise_a(0.2)];
    let start = Date::from_ymd(2021, 11, 1);
    let config = |nets: Vec<NetworkSpec>| WorldConfig {
        seed: 0xB51A17,
        shards: 0,
        start,
        networks: nets,
    };

    let mut sharded = World::new(config(networks()));
    let sharded_snapper = Snapshotter::new(sharded.store().clone());
    let mut sharded_series: Vec<DailySnapshot> = Vec::new();
    let mut sharded_online = Vec::new();
    sharded.run_days(start.plus_days(1), |w, date| {
        sharded_series.push(sharded_snapper.take(date));
        sharded_online.push(w.online_count());
    });

    let mut mono = MonolithWorld::new(config(networks()));
    let mono_snapper = Snapshotter::new(mono.store().clone());
    let mut mono_series: Vec<DailySnapshot> = Vec::new();
    let mut mono_online = Vec::new();
    mono.run_days(start.plus_days(1), |w, date| {
        mono_series.push(mono_snapper.take(date));
        mono_online.push(w.online_count());
    });

    assert_eq!(sharded_online, mono_online);
    assert_eq!(
        serde_json::to_string(&sharded_series).unwrap(),
        serde_json::to_string(&mono_series).unwrap(),
        "monolith and sharded engines must publish identical series"
    );
}

proptest! {
    /// Pin 2: shard-count invariance over randomly drawn small world specs.
    /// Case count follows `PROPTEST_CASES` (shim default: 64); each case is
    /// three runs of a tiny 1–2 day world, so the default stays fast.
    #[test]
    fn prop_shard_count_invariant(
        choice in 0u8..4,
        seed in 0u64..1_000,
        days in 1i64..3,
    ) {
        let scale = 0.03;
        let start = Date::from_ymd(2021, 11, 1);
        let (json1, online1) =
            run_world(network_mix(choice, scale), seed, start, days, 1);
        let (json2, online2) =
            run_world(network_mix(choice, scale), seed, start, days, 2);
        let (json8, online8) =
            run_world(network_mix(choice, scale), seed, start, days, 8);
        prop_assert_eq!(&json1, &json2);
        prop_assert_eq!(&json1, &json8);
        prop_assert_eq!(&online1, &online2);
        prop_assert_eq!(&online1, &online8);
    }
}
