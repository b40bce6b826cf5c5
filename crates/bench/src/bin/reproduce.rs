//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p rdns-bench --release --bin reproduce -- [tiny|small|paper] [experiment ...]
//! ```
//!
//! With no experiment arguments, everything runs. Experiment names:
//! `table1 fig1 fig2 fig3 fig4 validation table2 table3 table4 table5
//! fig6 fig7a fig7b fig8 fig9 fig10 fig11 ablation claims serve`. An
//! unknown name exits with status 2 and lists the valid ones on stderr.

use rdns_bench::parse_scale;
use rdns_core::experiments::{
    check_claims, fig1, fig10, fig11, fig2, fig3, fig4, fig6, fig7, fig8, fig9, lease_ablation,
    release_ablation, table1, table2, table3, table4, table5, validation, Scale,
};
use rdns_core::experiments::section5::LeakStudy;
use rdns_core::experiments::section6::SupplementalStudy;
use rdns_model::Date;
use rdns_telemetry::{Determinism, Registry};
use std::collections::HashSet;
use std::time::Instant;

/// The scale words `reproduce` takes as its first argument.
const SCALES: [&str; 3] = ["tiny", "small", "paper"];

/// Every experiment name `reproduce` accepts (case-insensitively).
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

fn wanted(selected: &HashSet<String>, name: &str) -> bool {
    selected.is_empty() || selected.contains(name)
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// The production-service demo: a seeded world publishes its reverse zones
/// through a sharded UDP front while the open-loop generator plays a
/// resolver population against it. Prints the latency SLO view.
fn serve_stage(scale: &Scale, registry: &Registry) {
    use rdns_dns::{FaultConfig, ShardedUdpServer};
    use rdns_loadgen::{ArrivalProcess, LoadConfig, LoadGenerator};
    use rdns_netsim::{spec::presets, World, WorldConfig};
    use std::time::Duration;

    let (rate_qps, secs, shards) = match scale {
        s if *s == Scale::paper() => (10_000.0, 5.0, 4usize),
        s if *s == Scale::small() => (5_000.0, 2.0, 4),
        _ => (1_000.0, 0.5, 2),
    };
    let start = Date::from_ymd(2021, 11, 1);
    let mut world = World::new(WorldConfig {
        seed: 0x5E27E,
        shards: 0,
        start,
        networks: vec![
            presets::academic_a(0.1),
            presets::isp_a(0.2),
            presets::enterprise_b(0.1),
        ],
    });
    world.run_days(start.plus_days(2), |_, _| {});
    let targets = world.all_scan_targets();
    println!(
        "world: {} scannable addresses, {} PTRs live",
        targets.len(),
        world.ptr_count()
    );

    let rt = tokio::runtime::Builder::new_multi_thread()
        .build()
        .expect("runtime");
    let (addrs, shutdown) = rt.block_on(async {
        let server = ShardedUdpServer::bind(
            "127.0.0.1:0".parse().unwrap(),
            world.store().clone(),
            FaultConfig::default(),
            shards,
        )
        .await
        .expect("bind sharded server")
        .with_registry(registry)
        .with_workers(1);
        let addrs = server.addrs().expect("shard addrs");
        let shutdown = server.shutdown_handle();
        tokio::spawn(server.run());
        (addrs, shutdown)
    });

    let report = LoadGenerator::new(LoadConfig {
        seed: 0x10AD,
        rate_qps,
        duration: Duration::from_secs_f64(secs),
        process: ArrivalProcess::Poisson,
        clients: 1000,
        workers: 2,
        rate_ceiling: None,
        drain_grace: Duration::from_secs(3),
    })
    .with_registry(registry)
    .run(&addrs, &targets)
    .expect("serve load");
    shutdown.shutdown();

    // The offered side is seed-stable (stdout, diffable across thread
    // counts); the observed side is wall-clock and goes to stderr like the
    // stage timings. The outcome counts are observed too: a query that
    // misses its deadline on a busy host fails instead of being answered.
    println!("offered {rate_qps:.0} q/s for {secs:.1} s over {shards} shards");
    eprintln!(
        "[serve wall-clock: {} sent, {} answered, {} nxdomain, {} failed; \
         {:.0} q/s achieved, p50 {}µs p99 {}µs p999 {}µs, peak in-flight {}]",
        report.sent,
        report.answered,
        report.nxdomain,
        report.failed(),
        report.offered_qps,
        report.p50_us.unwrap_or(0),
        report.p99_us.unwrap_or(0),
        report.p999_us.unwrap_or(0),
        report.max_in_flight
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale_arg, names) = match args.split_first() {
        Some((first, rest)) if SCALES.contains(&first.as_str()) => (Some(first.as_str()), rest),
        _ => (None, args.as_slice()),
    };
    let scale = parse_scale(scale_arg);
    let selected: HashSet<String> = names.iter().map(|s| s.to_ascii_lowercase()).collect();
    let mut unknown: Vec<&str> = selected
        .iter()
        .map(String::as_str)
        .filter(|name| !EXPERIMENTS.contains(name))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        eprintln!("reproduce: unknown experiment(s): {}", unknown.join(" "));
        eprintln!("usage: reproduce [{}] [experiment ...]", SCALES.join("|"));
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    println!("# rdns-privacy reproduction — scale {scale:?}");
    let t0 = Instant::now();
    // Stage timings land in a wall-clock histogram; set RDNS_METRICS=1 to
    // dump the exposition to stderr at exit (see OBSERVABILITY.md).
    let registry = Registry::new();
    let stage_wall = registry.histogram(
        "rdns_bench_stage_wall_us",
        "Wall-clock time per reproduction stage, microseconds.",
        Determinism::WallClock,
    );

    // §4/§5 study feeds Table 1 and Figs. 1–4.
    let leak_names = ["table1", "fig1", "fig2", "fig3", "fig4"];
    if leak_names.iter().any(|n| wanted(&selected, n)) {
        let started = Instant::now();
        let study = LeakStudy::run(&scale);
        stage_wall.observe_duration(started.elapsed());
        eprintln!("[leak study: {:?}]", started.elapsed());
        if wanted(&selected, "table1") {
            banner("Table 1 — dataset statistics");
            print!("{}", table1(&study).render());
        }
        if wanted(&selected, "fig1") {
            banner("Figure 1 — dynamic /24 fraction per announced prefix size");
            print!("{}", fig1(&study).render());
        }
        if wanted(&selected, "fig2") {
            banner("Figure 2 — given names in rDNS (all vs filtered)");
            print!("{}", fig2(&study).render());
        }
        if wanted(&selected, "fig3") {
            banner("Figure 3 — device terms alongside given names");
            print!("{}", fig3(&study).render());
        }
        if wanted(&selected, "fig4") {
            banner("Figure 4 — identified networks by type");
            let b = fig4(&study);
            for (class, count, pct) in b.rows() {
                println!("{:<12} {:>4}  {:>5.1}%", class.label(), count, pct);
            }
            println!("total identified: {}", b.total());
        }
    }

    if wanted(&selected, "validation") {
        banner("§4.1 validation — campus ground truth");
        print!("{}", validation(&scale).render());
    }

    if wanted(&selected, "table2") {
        banner("Table 2 — reactive back-off schedule");
        print!("{}", table2());
    }

    // §6 study feeds Tables 3–5 and Figs. 6–7.
    let supp_names = ["table3", "table4", "table5", "fig6", "fig7a", "fig7b"];
    if supp_names.iter().any(|n| wanted(&selected, n)) {
        let started = Instant::now();
        let study = SupplementalStudy::run(&scale);
        stage_wall.observe_duration(started.elapsed());
        eprintln!("[supplemental study: {:?}]", started.elapsed());
        if wanted(&selected, "table3") {
            banner("Table 3 — supplemental measurement statistics");
            print!("{}", table3(&study));
        }
        if wanted(&selected, "table4") {
            banner("Table 4 — targeted networks and ICMP observability");
            print!("{}", table4(&study));
        }
        if wanted(&selected, "table5") {
            banner("Table 5 — group funnel");
            print!("{}", table5(&study));
        }
        if wanted(&selected, "fig6") {
            banner("Figure 6 — DNS errors per day");
            let f6 = fig6(&study);
            print!("{}", f6.render());
            println!("error fraction: {:.2}%", f6.error_fraction() * 100.0);
        }
        if wanted(&selected, "fig7a") || wanted(&selected, "fig7b") {
            banner("Figure 7 — PTR removal timing");
            print!("{}", fig7(&study).render());
        }
    }

    if wanted(&selected, "fig8") {
        banner("Figure 8 — six weeks in the Life of Brian(s)");
        print!("{}", fig8(&scale).render());
    }

    if wanted(&selected, "fig9") {
        banner("Figure 9 — longitudinal presence around COVID-19");
        // Paper window: early 2020 through end of 2021. Tiny/small scales
        // shorten the window to keep runtimes sane.
        let (from, to) = match scale {
            s if s == Scale::paper() => (Date::from_ymd(2020, 2, 17), Date::from_ymd(2021, 12, 1)),
            s if s == Scale::small() => (Date::from_ymd(2020, 2, 17), Date::from_ymd(2020, 12, 31)),
            _ => (Date::from_ymd(2020, 2, 17), Date::from_ymd(2020, 6, 30)),
        };
        print!("{}", fig9(&scale, from, to).render());
    }

    if wanted(&selected, "fig10") {
        banner("Figure 10 — Academic-C education vs housing");
        let (weekly_from, daily_from, to) = match scale {
            s if s == Scale::paper() => (
                Date::from_ymd(2019, 10, 1),
                Date::from_ymd(2020, 2, 17),
                Date::from_ymd(2021, 1, 31),
            ),
            _ => (
                Date::from_ymd(2020, 1, 6),
                Date::from_ymd(2020, 2, 17),
                Date::from_ymd(2020, 6, 30),
            ),
        };
        let f10 = fig10(&scale, weekly_from, daily_from, to);
        print!("{}", f10.render());
        if let Some(lead) = f10.housing_leads_on(Date::from_ymd(2020, 4, 15)) {
            println!("housing leads education on 2020-04-15: {lead}");
        }
    }

    if wanted(&selected, "fig11") {
        banner("Figure 11 — when to stage a heist");
        print!("{}", fig11(&scale).render());
    }

    if wanted(&selected, "claims") {
        banner("Contribution checklist (paper §1)");
        let report = check_claims(&scale);
        print!("{}", report.render());
        println!(
            "\nverdict: {}",
            if report.all_passed() {
                "all five contributions reproduced"
            } else {
                "SOME CLAIMS FAILED — inspect evidence above"
            }
        );
    }

    if wanted(&selected, "ablation") {
        banner("Ablation — does withholding DHCP RELEASE defend? (§10)");
        print!("{}", release_ablation(&scale).render());
        banner("Ablation — lease time vs record lingering (§6.2)");
        print!("{}", lease_ablation(&scale).render());
    }

    if wanted(&selected, "serve") {
        banner("Serve path — sharded authoritative front under open-loop load");
        let started = Instant::now();
        serve_stage(&scale, &registry);
        stage_wall.observe_duration(started.elapsed());
        eprintln!("[serve stage: {:?}]", started.elapsed());
    }

    if std::env::var_os("RDNS_METRICS").is_some() {
        eprint!("{}", registry.render_prometheus());
    }
    eprintln!("\n[total: {:?}]", t0.elapsed());
}
