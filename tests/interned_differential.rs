//! Differential pins for the interned fast paths (this PR's tentpole).
//!
//! Two representation changes must be observationally invisible:
//!
//! 1. **PTR interning** — the sharded engine answers reverse lookups from
//!    `PtrTable` columns behind the `rev24` index; the preserved monolith
//!    answers from the general `Zone` record map through the coarse store.
//!    A per-address sweep over every dynamic-pool address must render the
//!    exact same bytes from both, at every shard count.
//! 2. **Delta encoding** — a window collected straight into a
//!    [`DeltaSeries`](rdns_data::DeltaSeries) (day 0 + adds/renames/removes)
//!    must reproduce, once materialized, every day exactly as
//!    [`Snapshotter::take`] returned it — day by day and as serialized JSON,
//!    at every shard count.

use rdns_core::experiments::harness::{collect_series, SNAPSHOT_HOUR};
use rdns_data::{DailySnapshot, Snapshotter};
use rdns_model::{Date, SimTime};
use rdns_netsim::spec::presets;
use rdns_netsim::{MonolithWorld, NetworkSpec, World, WorldConfig};

const SEED: u64 = 0xD1FF;

fn networks() -> Vec<NetworkSpec> {
    vec![
        presets::academic_a(0.05),
        presets::enterprise_a(0.2),
        presets::isp_a(0.3),
    ]
}

fn config(shards: usize, start: Date) -> WorldConfig {
    WorldConfig {
        seed: SEED,
        shards,
        start,
        networks: networks(),
    }
}

/// Pin 1: interned `PtrTable` answers are byte-identical to the legacy
/// `Zone`-map oracle for every pool address, at shards 1, 2 and 8.
#[test]
fn interned_sweep_matches_legacy_oracle_per_query() {
    let start = Date::from_ymd(2021, 11, 1);
    let probe_at = SimTime::from_date_hms(start.plus_days(1), SNAPSHOT_HOUR, 0, 0);

    // Legacy engine: coarse store, general Zone record maps.
    let mut mono = MonolithWorld::new(config(1, start));
    mono.step_until(probe_at);

    for shards in [1usize, 2, 8] {
        let mut world = World::new(config(shards, start));
        world.step_until(probe_at);
        let targets = world.all_scan_targets();
        assert!(
            targets.len() > 500,
            "sweep universe too small to mean anything: {}",
            targets.len()
        );
        let mut answered = 0usize;
        for addr in targets {
            let interned = world.store().get_ptr(addr).map(|n| n.to_string());
            let legacy = mono.store().get_ptr(addr).map(|n| n.to_string());
            assert_eq!(
                interned, legacy,
                "PTR answer diverged at {addr} with {shards} shard(s)"
            );
            answered += usize::from(interned.is_some());
        }
        assert!(answered > 0, "no PTRs answered at {shards} shard(s)");
    }
}

/// Every day of `[from, to]` at [`SNAPSHOT_HOUR`], exactly as the
/// snapshotter takes it.
fn take_days(world: &mut World, from: Date, to: Date) -> Vec<DailySnapshot> {
    let snapper = Snapshotter::new(world.store().clone());
    let mut days = Vec::new();
    let mut day = from;
    while day <= to {
        world.step_until(SimTime::from_date_hms(day, SNAPSHOT_HOUR, 0, 0));
        days.push(snapper.take(day));
        day = day.succ();
    }
    days
}

/// Pin 2: a delta-collected window reproduces the days as taken exactly —
/// same JSON bytes, same per-day materialization — at shards 1, 2 and 8.
#[test]
fn delta_series_matches_eager_series_across_shard_counts() {
    let start = Date::from_ymd(2021, 11, 1);
    let end = start.plus_days(2);
    let mut reference_json: Option<String> = None;

    for shards in [1usize, 2, 8] {
        let mut eager_world = World::new(config(shards, start));
        let eager = take_days(&mut eager_world, start, end);
        assert!(
            eager.iter().any(|day| !day.is_empty()),
            "window must have signal"
        );

        let mut delta_world = World::new(config(shards, start));
        let delta = collect_series(&mut delta_world, start, end);

        // Whole-window bytes.
        let eager_json = serde_json::to_string(&eager).expect("days serialize");
        let mut materialized = Vec::new();
        delta.for_each_day(|day| materialized.push(day.clone()));
        let delta_json = serde_json::to_string(&materialized).expect("days serialize");
        assert_eq!(
            eager_json, delta_json,
            "delta round-trip diverged at {shards} shard(s)"
        );

        // Day-by-day lazy materialization.
        assert_eq!(delta.len(), eager.len());
        for (i, snap) in eager.iter().enumerate() {
            let materialized = delta.materialize(i).expect("day index in range");
            assert_eq!(
                &materialized, snap,
                "day {i} materialization diverged at {shards} shard(s)"
            );
        }

        // And the window itself is shard-invariant.
        match &reference_json {
            None => reference_json = Some(eager_json),
            Some(r) => assert_eq!(r, &eager_json, "shard count changed the window"),
        }
    }
}
