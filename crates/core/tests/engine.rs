//! Parallel-engine guarantees: the columnar view must hold exactly the days
//! the snapshotter took, and the rayon fan-out must be deterministic at any
//! thread count.

use rdns_core::dynamicity::{identify_dynamic, identify_dynamic_par, DynamicityParams};
use rdns_core::experiments::harness::{run_supplemental, FaultMix, SNAPSHOT_HOUR};
use rdns_core::experiments::Scale;
use rdns_core::timing::{build_groups, par_build_groups};
use rdns_data::{Cadence, ColumnarSeries, DailySnapshot, DeltaSeries, Snapshotter};
use rdns_model::{Date, Hostname, SimTime};
use rdns_netsim::spec::presets;
use rdns_netsim::{World, WorldConfig};
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// Two weeks of campus days exactly as `Snapshotter::take` returned them,
/// and the columnar view of the same days.
fn campus_days() -> (Vec<DailySnapshot>, ColumnarSeries) {
    let scale = Scale::tiny();
    let from = Date::from_ymd(2021, 1, 1);
    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        shards: 0,
        start: from,
        networks: vec![presets::academic_a(scale.focus_scale)],
    });
    let snapper = Snapshotter::new(world.store().clone());
    let mut series = DeltaSeries::new(Cadence::Daily);
    let mut days = Vec::new();
    for offset in 0..14 {
        let day = from.plus_days(offset);
        world.step_until(SimTime::from_date_hms(day, SNAPSHOT_HOUR, 0, 0));
        let taken = snapper.take(day);
        series.push(taken.clone());
        days.push(taken);
    }
    (days, series.to_columnar())
}

#[test]
fn columnar_view_equals_row_view() {
    let (days, columnar) = campus_days();

    // Every day's columns hold exactly the records as taken.
    assert_eq!(columnar.len(), days.len());
    for (day, taken) in columnar.days.iter().zip(&days) {
        assert_eq!(day.date, taken.date);
        let records: BTreeMap<Ipv4Addr, Hostname> = day
            .addrs
            .iter()
            .zip(&day.names)
            .map(|(a, id)| (Ipv4Addr::from(*a), Hostname::new(columnar.pool.get(*id))))
            .collect();
        assert_eq!(records, taken.records);
    }

    // The counts matrix — the §4.1 input — holds each day's per-/24 counts.
    let matrix = columnar.counts_matrix();
    for (i, taken) in days.iter().enumerate() {
        let counts = taken.counts_by_slash24();
        assert!(counts.keys().all(|block| matrix.contains_key(block)));
        for (block, column) in &matrix {
            assert_eq!(column[i], counts.get(block).copied().unwrap_or(0));
        }
    }

    // Observations are the same set, in deterministic ascending order.
    let mut expected: HashSet<(Ipv4Addr, Hostname)> = HashSet::new();
    for taken in &days {
        for (addr, host) in &taken.records {
            expected.insert((*addr, host.clone()));
        }
    }
    let got = columnar.observations();
    assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    assert_eq!(got.into_iter().collect::<HashSet<_>>(), expected);
}

#[test]
fn dynamicity_par_equals_sequential() {
    let matrix = campus_days().1.counts_matrix();
    let params = DynamicityParams {
        min_daily_addrs: Scale::tiny().min_daily_addrs,
        ..DynamicityParams::default()
    };
    assert_eq!(
        identify_dynamic_par(&matrix, &params),
        identify_dynamic(&matrix, &params)
    );
}

#[test]
fn group_building_par_equals_sequential() {
    let scale = Scale::tiny();
    let from = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        shards: 0,
        start: from,
        networks: vec![presets::academic_a(scale.focus_scale)],
    });
    let run = run_supplemental(
        &mut world,
        &["Academic-A"],
        from,
        2,
        FaultMix::realistic(),
        scale.seed,
    );
    let seq = build_groups(&run.log);
    let par = par_build_groups(&run.log);
    assert!(!seq.is_empty(), "campus must produce activity groups");
    assert_eq!(seq, par);
}

/// The fan-out reductions must not depend on the worker count: pin the pool
/// to one thread, then to several, and require identical output. The rayon
/// layer re-reads `RAYON_NUM_THREADS` on every call, so flipping the
/// variable mid-process exercises genuinely different shard schedules.
#[test]
fn results_identical_at_any_thread_count() {
    let (_, columnar) = campus_days();
    let params = DynamicityParams {
        min_daily_addrs: Scale::tiny().min_daily_addrs,
        ..DynamicityParams::default()
    };

    let scale = Scale::tiny();
    let from = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        shards: 0,
        start: from,
        networks: vec![presets::academic_a(scale.focus_scale)],
    });
    let run = run_supplemental(
        &mut world,
        &["Academic-A"],
        from,
        2,
        FaultMix::realistic(),
        scale.seed,
    );

    let run_all = || {
        (
            columnar.counts_matrix(),
            columnar.observations(),
            identify_dynamic_par(&columnar.counts_matrix(), &params),
            par_build_groups(&run.log),
        )
    };

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single = run_all();
    std::env::set_var("RAYON_NUM_THREADS", "7");
    let many = run_all();
    std::env::remove_var("RAYON_NUM_THREADS");
    let default = run_all();

    assert_eq!(single, many);
    assert_eq!(single, default);
}
