//! Integration tests of the supplemental measurement (§6) against the
//! simulated Table-4 networks, asserting the paper's key quantitative
//! claims at test scale.

use rdns_core::experiments::section6::{fig7, SupplementalStudy};
use rdns_core::experiments::Scale;
use rdns_core::timing::RemovalDelays;
use rdns_model::Slash24;
use std::collections::HashSet;

fn study() -> SupplementalStudy {
    SupplementalStudy::run(&Scale::tiny())
}

#[test]
fn funnel_is_monotone_and_nonempty() {
    let s = study();
    let f = s.funnel;
    assert!(f.all > 0);
    assert!(f.successful <= f.all);
    assert!(f.ptr_reverted <= f.successful);
    assert!(f.reliable <= f.ptr_reverted);
    assert!(f.reliable > 0, "funnel: {f:?}");
    // The paper's Table 5: nearly every successful group shows the PTR
    // reverting (99.9%). Require a strong majority here.
    assert!(
        f.ptr_reverted * 10 >= f.successful * 8,
        "reverted {} of {}",
        f.ptr_reverted,
        f.successful
    );
}

#[test]
fn records_linger_at_most_an_hour_in_most_cases() {
    let s = study();
    let delays = RemovalDelays::from_groups(&s.groups);
    assert!(delays.len() > 5, "need delay mass, got {}", delays.len());
    // §6.2 headline: ~9 in 10 within 60 minutes; we accept ≥70% at tiny
    // scale (plus 5-minute probe granularity) and check 65 min too.
    assert!(
        delays.cdf_at(65.0) > 0.7,
        "cdf(65) = {:.2}",
        delays.cdf_at(65.0)
    );
    // Nothing can be removed before the client left.
    assert!(delays.minutes.iter().all(|m| *m >= 0.0));
}

#[test]
fn icmp_blocking_hides_hosts_but_not_records() {
    // The paper's central escalation: even networks that block pings leak
    // presence through rDNS.
    let s = study();
    let blocked: Vec<_> = s.networks.iter().filter(|n| n.icmp_blocked).collect();
    assert!(!blocked.is_empty());
    for meta in &blocked {
        // No ICMP-alive record can exist for a blocked network...
        let alive = s
            .run
            .log
            .icmp
            .iter()
            .filter(|r| r.alive && meta.contains(r.addr))
            .count();
        assert_eq!(alive, 0, "{} must be ping-dark", meta.name);
    }
    // ...yet their PTR records are in the global DNS: verify via a fresh
    // world snapshot that Enterprise-B publishes records at peak time.
    use rdns_core::experiments::harness::collect_series;
    use rdns_model::Date;
    use rdns_netsim::{spec::presets, World, WorldConfig};
    let from = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: 5,
        shards: 0,
        start: from,
        networks: vec![presets::enterprise_b(0.1)],
    });
    let series = collect_series(&mut world, from, from.plus_days(2));
    assert!(
        series.total_responses() > 0,
        "ping-dark network must still expose PTR records"
    );
}

#[test]
fn academic_b_records_linger_longer() {
    // §6.2: Academic-B's longer leases make records linger. Compare its
    // delay distribution with Academic-A's. Academic-B blocks ICMP, so we
    // measure through ground-truth-assisted worlds instead: compare lease
    // times directly from the presets plus delays of open networks.
    use rdns_netsim::spec::presets;
    let a = presets::academic_a(1.0);
    let b = presets::academic_b(1.0);
    assert!(b.lease_time.as_secs() >= 4 * a.lease_time.as_secs());

    // And for open networks, observed delays must be bounded by ~lease +
    // probe slack.
    let s = study();
    let f7 = fig7(&s);
    for (name, cdf) in &f7.cdfs {
        assert!(
            cdf[3] > 0.9,
            "{name}: nearly all removals within two hours, got {cdf:?}"
        );
    }
}

#[test]
fn group_addresses_lie_inside_targets() {
    let s = study();
    let target_blocks: HashSet<Slash24> = s
        .networks
        .iter()
        .flat_map(|n| n.targets.iter().flat_map(|p| p.slash24s()))
        .collect();
    for g in &s.groups {
        assert!(
            target_blocks.contains(&Slash24::containing(g.addr)),
            "group at {} outside scan targets",
            g.addr
        );
    }
}

#[test]
fn sweeps_run_hourly_for_the_whole_campaign() {
    let s = study();
    let expected = s.run.days as u64 * 24;
    assert!(
        s.run.stats.sweeps >= expected - 1 && s.run.stats.sweeps <= expected + 1,
        "sweeps {} vs expected {}",
        s.run.stats.sweeps,
        expected
    );
}
