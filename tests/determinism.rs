//! Reproducibility: everything in the workspace must be bit-deterministic
//! for a fixed seed — EXPERIMENTS.md quotes concrete numbers and they must
//! hold on re-runs.

use rdns_core::experiments::section5::LeakStudy;
use rdns_core::experiments::{table1, Scale};
use rdns_core::experiments::harness::{run_supplemental, FaultMix};
use rdns_model::Date;
use rdns_netsim::{spec::presets, World, WorldConfig};

#[test]
fn leak_study_is_deterministic() {
    let a = LeakStudy::run(&Scale::tiny());
    let b = LeakStudy::run(&Scale::tiny());
    assert_eq!(a.identified, b.identified);
    assert_eq!(a.dynamicity.dynamic, b.dynamicity.dynamic);
    assert_eq!(table1(&a), table1(&b));
}

#[test]
fn different_seeds_diverge() {
    let mut s1 = Scale::tiny();
    s1.seed = 1;
    let mut s2 = Scale::tiny();
    s2.seed = 2;
    let a = LeakStudy::run(&s1);
    let b = LeakStudy::run(&s2);
    // Same structure, different concrete records.
    assert_ne!(
        table1(&a).daily.total_responses,
        table1(&b).daily.total_responses
    );
}

#[test]
fn supplemental_campaign_is_deterministic() {
    let run = || {
        let from = Date::from_ymd(2021, 11, 1);
        let mut world = World::new(WorldConfig {
            seed: 77,
            shards: 0,
            start: from,
            networks: vec![presets::isp_a(0.2)],
        });
        let r = run_supplemental(&mut world, &["ISP-A"], from, 1, FaultMix::realistic(), 77);
        (
            r.log.icmp.len(),
            r.log.rdns.len(),
            r.stats.triggers,
            r.log.unique_ptrs(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn world_state_is_deterministic_across_runs() {
    let fingerprint = |seed: u64| {
        let from = Date::from_ymd(2021, 11, 1);
        let mut world = World::new(WorldConfig {
            seed,
            shards: 0,
            start: from,
            networks: vec![presets::academic_c(0.1)],
        });
        world.step_until(rdns_model::SimTime::from_date_hms(
            from.plus_days(2),
            17,
            30,
            0,
        ));
        let mut records: Vec<String> = Vec::new();
        world
            .store()
            .for_each_ptr(|addr, name| records.push(format!("{addr} {name}")));
        records.sort();
        (world.online_count(), records)
    };
    assert_eq!(fingerprint(9), fingerprint(9));
    assert_ne!(fingerprint(9).1, fingerprint(10).1);
}
