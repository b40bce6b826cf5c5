//! Mitigation ablation (§8): rerun the observer's pipeline against the same
//! campus under four IPAM policies and show exactly what each one hides.
//!
//! | policy      | identity leak | presence leak |
//! |-------------|---------------|---------------|
//! | carry-over  | yes           | yes           |
//! | hashed      | no            | yes           |
//! | fixed-form  | no            | no            |
//! | no-update   | no            | no            |
//!
//! ```text
//! cargo run --release --example mitigation
//! ```
//!
//! This is the single-policy ablation; the quantitative version — the full
//! naming × TTL × lease grid scored against the sequence tracker — is
//! `cargo run --release --example mitigation_matrix` (see `MITIGATIONS.md`).
//!
//! Sample leaked records are printed through the [`Pii`] redaction boundary:
//! the owner-derived name never reaches stdout, only its stable
//! `[pii:xxxxxxxx]` fingerprint, which stays joinable across policies.

use rdns_core::dynamicity::{identify_dynamic, DynamicityParams};
use rdns_core::names::match_given_names;
use rdns_core::redact::Pii;
use rdns_data::{Cadence, DeltaSeries, Snapshotter};
use rdns_model::{Date, SimTime};
use rdns_netsim::spec::{DynDnsMode, SubnetRole};
use rdns_netsim::{spec::presets, World, WorldConfig};

fn run_policy(label: &str, dns_mode: Option<DynDnsMode>) {
    // Academic-A with all dynamic pools switched to the policy under test;
    // None means "fixed-form" (role change instead of DNS-mode change).
    let mut spec = presets::academic_a(0.08);
    for subnet in &mut spec.subnets {
        if let SubnetRole::DynamicClients {
            persons,
            person_kind,
            dns,
        } = &mut subnet.role
        {
            match dns_mode {
                Some(mode) => *dns = mode,
                None => {
                    subnet.role = SubnetRole::FixedFormDhcp {
                        persons: *persons,
                        person_kind: *person_kind,
                    };
                }
            }
        }
    }
    spec.seed_persons.clear(); // keep populations comparable

    let start = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: 99,
        shards: 0,
        start,
        networks: vec![spec],
    });
    let snapper = Snapshotter::new(world.store().clone());
    let mut series = DeltaSeries::new(Cadence::Daily);
    for offset in 0..21 {
        let day = start.plus_days(offset);
        world.step_until(SimTime::from_date_hms(day, 14, 0, 0));
        series.push(snapper.take(day));
    }
    let columnar = series.to_columnar();

    // What does the observer learn?
    let params = DynamicityParams {
        min_daily_addrs: 3,
        ..DynamicityParams::default()
    };
    let dynamicity = identify_dynamic(&columnar.counts_matrix(), &params);
    let records = columnar.observations();
    // BTreeSet so the redacted sample below is deterministic.
    let mut named_hosts = std::collections::BTreeSet::new();
    let mut named_records = 0usize;
    for (_, host) in &records {
        if !match_given_names(host).is_empty() {
            named_records += 1;
            named_hosts.insert(host.to_string());
        }
    }
    println!(
        "{label:<34} dynamic /24s: {:>2}   records w/ given names: {:>4}   unique records: {:>5}",
        dynamicity.dynamic.len(),
        named_records,
        records.len()
    );
    // Never print the names themselves: route every owner-derived string
    // through the Pii boundary and show only the joinable fingerprints.
    if !named_hosts.is_empty() {
        let sample: Vec<String> = named_hosts
            .iter()
            .take(3)
            .map(|h| Pii::new(h).to_string())
            .collect();
        println!("{:<34} sample (redacted): {}", "", sample.join(" "));
    }
}

fn main() {
    println!("observer's view of the same campus under four IPAM policies:\n");
    run_policy("carry-over (the observed default)", Some(DynDnsMode::CarryOver));
    run_policy("hashed labels (paper's suggestion)", Some(DynDnsMode::Hashed));
    run_policy("fixed-form rDNS (static names)", None);
    run_policy("no DNS updates", Some(DynDnsMode::NoUpdate));
    println!(
        "\nreading: hashing kills identity but presence dynamics remain;\n\
         fixed-form and no-update also hide dynamics (at the cost of less\n\
         informative or absent reverse mapping)."
    );
}
