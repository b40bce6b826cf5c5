//! The two workloads and the pipeline both run.
//!
//! A run is the whole system on one world:
//!
//! 1. `setup` — build the world, several times; the median counts.
//! 2. `collect` — the researcher's daily collection: step the world to the
//!    observation hour, snapshot the store, push the day into a delta series.
//! 3. `analysis` — tabulate the window (columnar view and /24 counts
//!    matrix); the `paper` workload also runs the paper reproduction.
//! 4. `setup` again — start the sharded UDP server on the world's zone
//!    store, several times (the median counts), then a `warmup` pass per
//!    shard.
//! 5. `light`, `heavy`, `capacity` — resolvers query the served zone:
//!    open-loop Poisson traffic at two fixed rates, then a closed loop.
//! 6. `sweep` — a wire sweep of part of the served space.
//!
//! A traced run adds `probe` (single-thread DNS answer and zone-write
//! costs) and, for `paper`, one `reproduce` child per experiment group.

use crate::compare::median;
use crate::load::{closed_loop, open_loop, poisson, sample, PhaseReport, Rng, Walk};
use crate::reproduce;
use crate::sys::{self, threads_cpu};
use crate::trace::Tracer;
use rdns_core::experiments::population::{generate_population, PopulationConfig};
use rdns_data::{Cadence, DeltaSeries, Snapshotter};
use rdns_dns::{
    answer_from_store, DnsName, FaultConfig, Message, PipelinedConfig, PipelinedResolver,
    ServerStats, ShardedShutdownHandle, ShardedUdpServer, ZoneStore,
};
use rdns_model::{Date, Hostname, SimTime};
use rdns_netsim::spec::{presets, NetworkSpec};
use rdns_netsim::{World, WorldConfig};
use rdns_scan::{SweepConfig, WireSweeper};
use rdns_telemetry::Registry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tokio::runtime::Runtime;
use tokio::task::JoinHandle;

/// Socket shards of the served front, one worker each: with the load
/// generator's single thread that is one busy thread per core on a
/// two-core machine.
const SHARDS: usize = 2;
/// In-flight window per shard for closed loops. Much deeper windows
/// overflow the server sockets' receive buffers.
const WINDOW: u64 = 64;
/// Closed-loop capacity rounds; the median is reported. One round's rate
/// swings by a fifth with how the server's 500 µs executor park happens to
/// line up with the client.
const CAPACITY_ROUNDS: usize = 8;
/// Times the window tabulation is repeated; the median is reported.
const TABULATIONS: usize = 5;
/// Queries in flight per sweep. The sweep uses one server shard, whose
/// ~200 KB receive buffer holds fewer than 256 queries: at 256 a stall of
/// the server drops datagrams, and the sweep runs at half the rate of 128.
const SWEEP_CONCURRENCY: usize = 128;
/// Resolver attempts per swept address (the default is 2), so that a
/// datagram lost while the shared host stalls is retried, not a timeout.
const SWEEP_ATTEMPTS: u32 = 4;
/// How long an open-loop phase waits for stragglers after its last dispatch.
const GRACE: Duration = Duration::from_secs(2);
/// A closed loop gives up after this long without an answer.
const STALL: Duration = Duration::from_secs(2);
/// Name the tokio shim gives the threads that run the server's tasks.
const SERVER_THREAD: &str = "tokio-shim-task";

/// Stream tags, so every random choice a seed makes is independent.
const TRAFFIC_STREAM: u64 = 1;
const SCHEDULE_STREAM: u64 = 2;
const HOT_SET_STREAM: u64 = 3;

/// What a run should do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the two open-loop phases together.
    pub seconds: f64,
    /// Whether this is the traced run that reports per-layer metrics.
    pub trace: bool,
    /// Run at about a twentieth of the size.
    pub smoke: bool,
}

/// The workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 2] = ["paper", "scale"];

/// The inputs that make the workloads differ.
struct Plan {
    networks: Vec<NetworkSpec>,
    /// First simulated day.
    start: Date,
    /// World builds timed in set-up; the median is reported.
    setups: usize,
    collect_days: i64,
    observe_hour: u8,
    /// `reproduce` scale argument for the paper run, if the workload has one.
    reproduce: Option<&'static str>,
    /// `Some(n)`: traffic draws with repeats from a seeded sample of `n`
    /// addresses (hot). `None`: every query asks a new address (cold).
    hot_set: Option<usize>,
    light_qps: f64,
    heavy_qps: f64,
    capacity_queries: usize,
    /// Cold warm-up queries (a hot warm-up asks the whole hot set once).
    cold_warmup: usize,
    sweep_rounds: usize,
    /// Addresses per sweep round; `None` sweeps the hot set.
    sweep_size: Option<usize>,
    probe_queries: usize,
}

impl Plan {
    fn named(name: &str, seed: u64, smoke: bool) -> Result<Plan, String> {
        // Divide a size by twenty in smoke runs.
        let s = |n: usize| if smoke { n / 20 } else { n };
        match name {
            // The researcher's run: the paper reproduction, plus the world of
            // its §4/§5 study built in process from the run's seed —
            // `Scale::paper()`'s 120 background organisations and the
            // Table 4 networks at focus scale 0.5, collected daily at 14:00
            // over the 90-day window from 2021-01-01, as `reproduce` does.
            // Resolvers ask about a popular set of 4,096 of its addresses,
            // so after the warm-up every answer is a response-cache hit.
            "paper" => {
                let (orgs, focus, days) = if smoke { (6, 0.08, 21) } else { (120, 0.5, 90) };
                let mut networks = generate_population(&PopulationConfig::new(seed, orgs));
                networks.extend(presets::table4_networks(focus));
                Ok(Plan {
                    networks,
                    start: Date::from_ymd(2021, 1, 1),
                    // A build takes ~25 ms, and bursts of host contention
                    // last ~100 ms: the median of 15 rides them out.
                    setups: 15,
                    collect_days: days,
                    observe_hour: 14,
                    reproduce: Some(if smoke { "tiny" } else { "paper" }),
                    hot_set: Some(4_096),
                    light_qps: 10_000.0,
                    heavy_qps: 25_000.0,
                    capacity_queries: s(400_000),
                    cold_warmup: 0,
                    sweep_rounds: if smoke { 1 } else { 10 },
                    sweep_size: None,
                    probe_queries: s(200_000),
                })
            }
            // The provider's run: a fleet of 100 ISP /16s (25,600 carry-over
            // /24 pools, about 290k devices), observed at 21:00 when leases
            // churn, then served cold — 6.5M addresses, each asked once.
            "scale" => Ok(Plan {
                networks: presets::scale_fleet(if smoke { 5 } else { 100 }, 256, 4),
                start: Date::from_ymd(2021, 11, 1),
                setups: 3,
                collect_days: if smoke { 2 } else { 6 },
                observe_hour: 21,
                reproduce: None,
                hot_set: None,
                light_qps: 10_000.0,
                heavy_qps: 15_000.0,
                capacity_queries: s(200_000),
                cold_warmup: s(10_000),
                sweep_rounds: 4,
                sweep_size: Some(s(32_768)),
                probe_queries: s(200_000),
            }),
            other => Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            )),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

/// Everything a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<Measured>,
    /// Operations attempted: queries, sweep probes, simulated days, runs.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    /// Lines for a human reader.
    pub notes: Vec<String>,
    /// The spans, as JSON (traced runs).
    pub trace_json: Option<String>,
}

impl Outcome {
    fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.end_to_end.push(Measured {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.per_layer.push(Measured {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
            self.failed += 1;
        }
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// FNV-1a over a /24 counts matrix: prefix, then each day's count.
fn matrix_digest(matrix: &BTreeMap<rdns_model::Slash24, Vec<u32>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (block, counts) in matrix {
        eat(&u32::from(block.network()).to_le_bytes());
        for c in counts {
            eat(&c.to_le_bytes());
        }
    }
    h
}

/// Sum of every sample of a counter family in a Prometheus exposition.
fn family_total(exposition: &str, family: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(name, _)| {
            name.strip_prefix(family)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

/// The simulation counters read through the world's registry.
const SIM_COUNTERS: [(&str, &str); 8] = [
    ("netsim.events", "rdns_netsim_events_total"),
    ("dhcp.grants", "rdns_dhcp_grants_total"),
    ("dhcp.renews", "rdns_dhcp_renews_total"),
    ("dhcp.releases", "rdns_dhcp_releases_total"),
    ("dhcp.expiries", "rdns_dhcp_expiries_total"),
    ("ipam.added", "rdns_ipam_added_total"),
    ("ipam.removed", "rdns_ipam_removed_total"),
    ("ipam.suppressed", "rdns_ipam_suppressed_total"),
];

fn sim_counters(registry: &Registry) -> [u64; 8] {
    let text = registry.render_prometheus();
    SIM_COUNTERS.map(|(_, family)| family_total(&text, family))
}

/// Server-side counters summed over shards, plus the CPU time of the
/// server's threads.
#[derive(Debug, Default, Clone, Copy)]
struct ServeCounters {
    hits: u64,
    misses: u64,
    invalidations: u64,
    wakeups: u64,
    datagrams: u64,
    cpu: Duration,
}

impl ServeCounters {
    fn read(stats: &[Arc<ServerStats>]) -> ServeCounters {
        let mut c = ServeCounters {
            cpu: threads_cpu(SERVER_THREAD),
            ..ServeCounters::default()
        };
        for s in stats {
            let snap = s.snapshot();
            c.hits += snap.cache_hits;
            c.misses += snap.cache_misses;
            c.invalidations += snap.cache_invalidations;
            c.wakeups += s.batch_size.count();
            c.datagrams += s.batch_size.sum();
        }
        c
    }

    fn since(self, before: ServeCounters) -> ServeCounters {
        ServeCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            invalidations: self.invalidations - before.invalidations,
            wakeups: self.wakeups - before.wakeups,
            datagrams: self.datagrams - before.datagrams,
            cpu: self.cpu.saturating_sub(before.cpu),
        }
    }

    /// Per-layer metrics of the DNS server for one phase.
    fn report(&self, out: &mut Outcome, phase: &str) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.layer(
            &format!("dns.{phase}.cache_hit_rate"),
            ratio(self.hits, self.hits + self.misses),
            "fraction",
        );
        out.layer(
            &format!("dns.{phase}.invalidations"),
            self.invalidations as f64,
            "count",
        );
        out.layer(
            &format!("dns.{phase}.mean_batch"),
            ratio(self.datagrams, self.wakeups),
            "count",
        );
        out.layer(
            &format!("dns.{phase}.cpu_us_per_query"),
            self.cpu.as_secs_f64() * 1e6 / self.datagrams.max(1) as f64,
            "us",
        );
    }
}

/// Run one workload end to end.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut b = Bench {
        plan: Plan::named(&opts.workload, opts.seed, opts.smoke)?,
        seed: opts.seed,
        trace: opts.trace,
        out: Outcome::default(),
        tr: Tracer::new(&opts.workload, opts.trace),
    };
    // Built before anything is timed.
    let reproduce_bin = match b.plan.reproduce {
        Some(_) => Some(reproduce::ensure_built()?),
        None => None,
    };

    let (mut world, build_s) = b.build_world();
    let (series, truth) = b.collect(&mut world);
    let child_rss = b.analyse(&series, reproduce_bin.as_deref())?;
    drop(series);

    // The served zone is the last collected day: nothing steps the world
    // from here on.
    let store = world.store().clone();
    let universe = world.all_scan_targets();
    let sweep_date = b.plan.start.plus_days(b.plan.collect_days);
    drop(world);
    let phase_len = Duration::from_secs_f64(opts.seconds / 2.0);
    let mut walk = b.walk(universe, phase_len);
    let rt = tokio::runtime::Builder::new_multi_thread()
        .build()
        .map_err(|e| format!("runtime: {e}"))?;
    let (front, start_s) = b.start_front(&rt, &store)?;
    b.out.e2e("setup_s", build_s + start_s, "s");
    b.warm_up(&front, &mut walk)?;
    b.open_phases(&front, &mut walk, &truth, phase_len)?;
    b.capacity(&front, &mut walk, &truth)?;
    b.sweep(&rt, front.addrs[0], &mut walk, &truth, sweep_date)?;
    front.stop(&rt, &mut b.out);

    if b.trace {
        b.tr.phase("probe");
        probe_answer(
            &store,
            &mut walk,
            b.plan.probe_queries,
            &mut b.tr,
            &mut b.out,
        );
        probe_set_ptr(&store, &truth, b.plan.probe_queries, &mut b.tr, &mut b.out);
    }
    b.out
        .e2e("peak_rss_mb", sys::peak_rss_mb().max(child_rss), "MB");
    if b.trace {
        b.out.trace_json = Some(b.tr.to_json());
        for (name, secs) in b.tr.self_seconds() {
            b.out.note(format!("self {name} {secs:.6} s"));
        }
    }
    Ok(b.out)
}

/// One run in progress: its inputs, its results so far and its spans.
struct Bench {
    plan: Plan,
    seed: u64,
    trace: bool,
    out: Outcome,
    tr: Tracer,
}

impl Bench {
    /// Set-up, first part: build the world `plan.setups` times and keep the
    /// last one. Returns it with the median build time.
    fn build_world(&mut self) -> (World, f64) {
        self.tr.phase("setup");
        let config = WorldConfig {
            seed: self.seed,
            shards: 0,
            start: self.plan.start,
            networks: self.plan.networks.clone(),
        };
        let mut builds = Vec::with_capacity(self.plan.setups);
        let mut world = None;
        for _ in 0..self.plan.setups {
            drop(world.take());
            let (w, took) = self.tr.time("netsim.build", || World::new(config.clone()));
            builds.push(took.as_secs_f64());
            world = Some(w);
        }
        let build_s = median(&builds);
        self.out.layer("netsim.build_s", build_s, "s");
        self.out.layer("mem.setup_rss_mb", sys::rss_mb(), "MB");
        (world.expect("at least one set-up"), build_s)
    }

    /// One snapshot a day at the observation hour. Returns the window and
    /// the last day's records.
    fn collect(&mut self, world: &mut World) -> (DeltaSeries, BTreeMap<Ipv4Addr, Hostname>) {
        self.tr.phase("collect");
        let registry = Registry::new();
        world.attach_registry(&registry);
        let counters_before = sim_counters(&registry);
        let snapper = Snapshotter::new(world.store().clone());
        let mut series = DeltaSeries::new(Cadence::Daily);
        let (mut step_s, mut snapshot_s, mut push_s) = (0.0, 0.0, 0.0);
        let mut day_times = Vec::with_capacity(self.plan.collect_days as usize);
        let mut records = 0u64;
        let mut last_day = BTreeMap::new();
        for d in 0..self.plan.collect_days {
            let day = self.plan.start.plus_days(d);
            let at = SimTime::from_date_hms(day, self.plan.observe_hour, 0, 0);
            let ((), step) = self.tr.time("netsim.step", || world.step_until(at));
            let (snap, took) = self.tr.time("data.snapshot", || snapper.take(day));
            records += snap.len() as u64;
            if d + 1 == self.plan.collect_days {
                last_day = snap.records.clone();
            }
            let ((), push) = self.tr.time("data.delta_push", || series.push(snap));
            step_s += step.as_secs_f64();
            snapshot_s += took.as_secs_f64();
            push_s += push.as_secs_f64();
            day_times.push((step + took + push).as_secs_f64());
            self.out.attempted += 1;
        }
        let counters_after = sim_counters(&registry);
        for ((name, _), (after, before)) in SIM_COUNTERS
            .iter()
            .zip(counters_after.iter().zip(counters_before))
        {
            self.out.layer(name, (after - before) as f64, "count");
        }
        let out = &mut self.out;
        out.layer("collect.day_s", median(&day_times), "s");
        out.layer("netsim.step_s", step_s, "s");
        out.layer("data.snapshot_s", snapshot_s, "s");
        out.layer("data.snapshot_records", records as f64, "count");
        out.layer("data.delta_push_s", push_s, "s");
        out.layer("data.delta_changes", series.total_changes() as f64, "count");

        world.check_invariants();
        let materialized = series
            .materialize(series.len() - 1)
            .map(|day| day.records)
            .unwrap_or_default();
        out.check(materialized == last_day, || {
            "the delta series does not materialize its last day".into()
        });
        (series, last_day)
    }

    /// Tabulate the window — deterministic, so repeated and the median kept
    /// — and run the paper reproduction if the workload has one. Returns the
    /// child's peak resident set.
    fn analyse(&mut self, series: &DeltaSeries, bin: Option<&Path>) -> Result<f64, String> {
        self.tr.phase("analysis");
        let cpu_before = sys::self_usage().cpu;
        let mut tabulations = Vec::with_capacity(TABULATIONS);
        let mut digests = Vec::with_capacity(TABULATIONS);
        for _ in 0..TABULATIONS {
            let (digest, took) = self.tr.time("data.columnar", || {
                matrix_digest(&series.to_columnar().counts_matrix())
            });
            tabulations.push(took.as_secs_f64());
            digests.push(digest);
        }
        let mut cpu = (sys::self_usage().cpu - cpu_before) / TABULATIONS as u32;
        self.out
            .check(digests.windows(2).all(|w| w[0] == w[1]), || {
                format!("the window tabulation is not deterministic: {digests:x?}")
            });
        self.out.note(format!(
            "window digest {:016x} over {} days",
            digests[0],
            series.len()
        ));
        let columnar_s = median(&tabulations);
        self.out.layer("data.columnar_s", columnar_s, "s");
        let mut wall = columnar_s;
        let mut child_rss = 0.0;
        if let (Some(bin), Some(scale)) = (bin, self.plan.reproduce) {
            let (run, _) = self.tr.time("experiments.reproduce", || {
                reproduce::run(bin, scale, &reproduce::experiments())
            });
            let run = run?;
            self.out.attempted += 1;
            let verdict = if scale == "paper" {
                reproduce::golden()
                    .map_err(|e| format!("cannot read reproduce_paper_output.txt: {e}"))
                    .and_then(|golden| reproduce::check_paper_output(&run.stdout, &golden))
            } else if run.stdout.contains(reproduce::VERDICT_OK) {
                Ok(())
            } else {
                Err(format!(
                    "reproduce {scale} did not print {:?}",
                    reproduce::VERDICT_OK
                ))
            };
            if let Err(e) = verdict {
                self.out.check(false, || e);
            }
            wall += run.wall.as_secs_f64();
            cpu += run.usage.cpu;
            child_rss = run.usage.maxrss_mb;
            if self.trace {
                attribute_groups(bin, scale, run.wall, &mut self.tr, &mut self.out)?;
            }
        }
        self.out.layer("analysis.wall_s", wall, "s");
        self.out.layer("analysis.cpu_s", cpu.as_secs_f64(), "s");
        Ok(child_rss)
    }

    /// The workload's query order over `universe`: draws from a hot set, or
    /// a cold shuffle long enough for every query of the run.
    fn walk(&self, universe: Vec<Ipv4Addr>, phase_len: Duration) -> Walk {
        let p = &self.plan;
        let traffic = Rng::new(self.seed, TRAFFIC_STREAM);
        match p.hot_set {
            Some(n) => Walk::hot(
                sample(universe, n, Rng::new(self.seed, HOT_SET_STREAM)),
                traffic,
            ),
            None => {
                // Poisson counts stay within a few per mille of the mean over
                // phases this long; a quarter of slack is ample.
                let phases = (p.light_qps + p.heavy_qps) * phase_len.as_secs_f64() * 1.25;
                let needed = p.cold_warmup
                    + phases as usize
                    + p.capacity_queries
                    + p.sweep_rounds * p.sweep_size.unwrap_or(0)
                    + p.probe_queries;
                Walk::cold(universe, needed, traffic)
            }
        }
    }

    /// Set-up, second part: start the served front as often as the world
    /// was built and keep the last one. Returns it with the median start
    /// time.
    fn start_front(&mut self, rt: &Runtime, store: &ZoneStore) -> Result<(Front, f64), String> {
        self.tr.phase("setup");
        let mut starts = Vec::with_capacity(self.plan.setups);
        let mut front: Option<Front> = None;
        for _ in 0..self.plan.setups {
            if let Some(old) = front.take() {
                old.stop(rt, &mut self.out);
            }
            let (started, took) = self.tr.time("dns.serve_setup", || Front::start(rt, store));
            starts.push(took.as_secs_f64());
            front = Some(started?);
        }
        Ok((front.expect("at least one set-up"), median(&starts)))
    }

    /// One pass per shard so that the phases measure a steady state: each
    /// shard has a response cache of its own, and the phases send any
    /// address to either shard. It is not set-up time: its closed loop swings
    /// with the executor's timing.
    fn warm_up(&mut self, front: &Front, walk: &mut Walk) -> Result<(), String> {
        self.tr.phase("warmup");
        let warm: Vec<Ipv4Addr> = match self.plan.hot_set {
            Some(_) => walk.universe().to_vec(),
            None => walk.take(self.plan.cold_warmup),
        };
        for shard in &front.addrs {
            let (warmup, _) = self.tr.time("loadgen.closed_loop", || {
                closed_loop(std::slice::from_ref(shard), &warm, WINDOW, STALL)
            });
            let warmup = warmup.map_err(|e| format!("warm-up: {e}"))?;
            self.out.attempted += warmup.sent;
            self.out.check(
                warmup.failed == 0 && warmup.sent == warm.len() as u64,
                || {
                    format!(
                        "warm-up: {} of {} queries failed",
                        warmup.failed,
                        warm.len()
                    )
                },
            );
        }
        Ok(())
    }

    /// Open-loop Poisson traffic at the light and the heavy rate.
    fn open_phases(
        &mut self,
        front: &Front,
        walk: &mut Walk,
        truth: &BTreeMap<Ipv4Addr, Hostname>,
        phase_len: Duration,
    ) -> Result<(), String> {
        let mut schedule_rng = Rng::new(self.seed, SCHEDULE_STREAM);
        // p99 is taken per second of a phase, and the median second reported.
        let windows = phase_len.as_secs().max(1) as usize;
        for (phase, rate) in [
            ("light", self.plan.light_qps),
            ("heavy", self.plan.heavy_qps),
        ] {
            self.tr.phase(phase);
            let schedule = poisson(&mut schedule_rng, rate, phase_len, walk);
            let expected = schedule
                .iter()
                .filter(|e| truth.contains_key(&e.target))
                .count() as u64;
            let before = ServeCounters::read(&front.stats);
            let (report, _) = self.tr.time("loadgen.open_loop", || {
                open_loop(&front.addrs, &schedule, GRACE)
            });
            let server = ServeCounters::read(&front.stats).since(before);
            let r = report.map_err(|e| format!("{phase} phase: {e}"))?;
            let out = &mut self.out;
            check_phase(out, phase, &r, expected);
            out.e2e(&format!("p50_{phase}_us"), r.quantile_us(0.50), "us");
            out.e2e(
                &format!("p99_{phase}_us"),
                r.windowed_quantile_us(0.99, windows),
                "us",
            );
            for (metric, value, unit) in [
                ("sent", r.sent as f64, "count"),
                (
                    "late_frac",
                    r.late as f64 / r.sent.max(1) as f64,
                    "fraction",
                ),
                ("resent", r.resent as f64, "count"),
                ("max_in_flight", r.max_in_flight as f64, "count"),
                ("p999_us", r.quantile_us(0.999), "us"),
            ] {
                out.layer(&format!("loadgen.{phase}.{metric}"), value, unit);
            }
            server.report(out, phase);
        }
        Ok(())
    }

    /// Closed-loop capacity, in rounds of fresh targets; the median round.
    fn capacity(
        &mut self,
        front: &Front,
        walk: &mut Walk,
        truth: &BTreeMap<Ipv4Addr, Hostname>,
    ) -> Result<(), String> {
        self.tr.phase("capacity");
        let before = ServeCounters::read(&front.stats);
        let mut rates = Vec::with_capacity(CAPACITY_ROUNDS);
        for round in 0..CAPACITY_ROUNDS {
            let targets = walk.take(self.plan.capacity_queries / CAPACITY_ROUNDS);
            let expected = targets.iter().filter(|a| truth.contains_key(a)).count() as u64;
            let (r, _) = self.tr.time("loadgen.closed_loop", || {
                closed_loop(&front.addrs, &targets, WINDOW, STALL)
            });
            let r = r.map_err(|e| format!("capacity phase: {e}"))?;
            self.out.attempted += r.sent;
            self.out.failed += r.failed;
            self.out.check(r.failed == 0 && r.answered == expected, || {
                format!(
                    "capacity round {round}: {} answered (expected {expected}), {} nxdomain, {} failed of {}",
                    r.answered,
                    r.nxdomain,
                    r.failed,
                    targets.len()
                )
            });
            rates.push(r.qps());
        }
        let server = ServeCounters::read(&front.stats).since(before);
        self.out.layer("dns.capacity_qps", median(&rates), "q/s");
        server.report(&mut self.out, "capacity");
        Ok(())
    }

    /// The researcher's full-sweep client stack against one shard.
    fn sweep(
        &mut self,
        rt: &Runtime,
        server: SocketAddr,
        walk: &mut Walk,
        truth: &BTreeMap<Ipv4Addr, Hostname>,
        date: Date,
    ) -> Result<(), String> {
        self.tr.phase("sweep");
        let mut resolver = PipelinedConfig::new(server);
        resolver.max_in_flight = SWEEP_CONCURRENCY;
        resolver.attempts = SWEEP_ATTEMPTS;
        let resolver = rt
            .block_on(PipelinedResolver::new(resolver))
            .map_err(|e| format!("sweeper: {e}"))?;
        let sweeper = WireSweeper::new(resolver, SweepConfig::new(SWEEP_CONCURRENCY));
        let (mut rates, mut answered, mut timeouts) = (Vec::new(), 0u64, 0u64);
        for round in 0..self.plan.sweep_rounds {
            let slice = match self.plan.sweep_size {
                Some(n) => walk.take(n),
                None => walk.universe().to_vec(),
            };
            let (report, took) = self
                .tr
                .time("scan.sweep", || rt.block_on(sweeper.sweep(&slice, date)));
            let expected: BTreeMap<Ipv4Addr, Hostname> = slice
                .iter()
                .filter_map(|a| truth.get(a).map(|h| (*a, h.clone())))
                .collect();
            self.out.attempted += report.queried;
            self.out.failed += report.timeouts + report.failures;
            self.out.check(
                report.timeouts == 0 && report.failures == 0 && report.snapshot.records == expected,
                || {
                    format!(
                        "sweep round {round}: {} answered (expected {}), {} timeouts, {} failures",
                        report.answered,
                        expected.len(),
                        report.timeouts,
                        report.failures
                    )
                },
            );
            answered += report.answered;
            timeouts += report.timeouts;
            rates.push(report.queried as f64 / took.as_secs_f64().max(f64::EPSILON));
        }
        self.out.layer("scan.sweep_qps", median(&rates), "q/s");
        self.out
            .layer("scan.sweep.answered", answered as f64, "count");
        self.out
            .layer("scan.sweep.timeouts", timeouts as f64, "count");
        Ok(())
    }
}

/// The served front: a sharded UDP server on its own task.
struct Front {
    addrs: Vec<SocketAddr>,
    stats: Vec<Arc<ServerStats>>,
    shutdown: ShardedShutdownHandle,
    task: JoinHandle<std::io::Result<()>>,
}

impl Front {
    /// Bind `SHARDS` loopback sockets with one worker each over `store`.
    fn start(rt: &Runtime, store: &ZoneStore) -> Result<Front, String> {
        rt.block_on(async {
            let server = ShardedUdpServer::bind(
                "127.0.0.1:0".parse().expect("loopback address"),
                store.clone(),
                FaultConfig::default(),
                SHARDS,
            )
            .await?
            .with_workers(1);
            Ok::<_, std::io::Error>(Front {
                addrs: server.addrs()?,
                stats: server.stats(),
                shutdown: server.shutdown_handle(),
                task: tokio::spawn(server.run()),
            })
        })
        .map_err(|e| format!("cannot start the server: {e}"))
    }

    /// Shut the server down and wait until every shard has exited.
    fn stop(self, rt: &Runtime, out: &mut Outcome) {
        self.shutdown.shutdown();
        match rt.block_on(self.task) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.check(false, || format!("server failed: {e}")),
            Err(e) => out.check(false, || format!("server task: {e}")),
        }
    }
}

/// Account one open-loop phase: every scheduled query must be answered, and
/// exactly the scheduled addresses that hold a PTR must get one.
fn check_phase(out: &mut Outcome, phase: &str, r: &PhaseReport, expected: u64) {
    out.attempted += r.scheduled;
    out.failed += r.failed;
    out.check(r.answered + r.nxdomain + r.failed == r.scheduled, || {
        format!(
            "{phase}: outcomes do not add up to the {} scheduled",
            r.scheduled
        )
    });
    out.check(r.failed == 0 && r.unmatched == 0, || {
        format!(
            "{phase}: {} of {} queries failed, {} stray responses",
            r.failed, r.scheduled, r.unmatched
        )
    });
    out.check(r.failed > 0 || r.answered == expected, || {
        format!(
            "{phase}: {} answered, {expected} scheduled targets hold a PTR",
            r.answered
        )
    });
}

/// Single-thread cost of the uncached answer path: decode, answer from the
/// store, encode.
fn probe_answer(store: &ZoneStore, walk: &mut Walk, n: usize, tr: &mut Tracer, out: &mut Outcome) {
    let queries: Vec<Vec<u8>> = walk
        .take(n)
        .into_iter()
        .enumerate()
        .map(|(i, addr)| {
            let mut pkt = Vec::new();
            crate::load::encode_ptr_query(i as u16, addr, &mut pkt);
            pkt
        })
        .collect();
    let (bytes, took) = tr.time("dns.answer", || {
        let mut bytes = 0usize;
        for q in &queries {
            let query = Message::decode(q).expect("the benchmark's queries decode");
            bytes += black_box(answer_from_store(store, &query).encode()).len();
        }
        bytes
    });
    out.check(bytes > 0, || "answer probe produced no responses".into());
    out.layer(
        "dns.answer_ns",
        took.as_secs_f64() * 1e9 / n.max(1) as f64,
        "ns",
    );
}

/// Single-thread cost of renaming existing PTRs in the live store.
fn probe_set_ptr(
    store: &ZoneStore,
    truth: &BTreeMap<Ipv4Addr, Hostname>,
    n: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let renames: Vec<(Ipv4Addr, DnsName)> = truth
        .keys()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, a)| {
            let name = format!("probe-{i}.bench.example")
                .parse()
                .expect("valid name");
            (*a, name)
        })
        .collect();
    let (written, took) = tr.time("dns.set_ptr", || {
        renames
            .iter()
            .filter(|(addr, name)| store.set_ptr(*addr, name.clone(), 300))
            .count()
    });
    out.check(written == renames.len(), || {
        format!(
            "set_ptr probe: {written} of {} writes landed",
            renames.len()
        )
    });
    if let Some((addr, name)) = renames.last() {
        out.check(store.get_ptr(*addr).as_ref() == Some(name), || {
            "set_ptr probe: the last rename is not visible".into()
        });
    }
    out.layer(
        "dns.set_ptr_ns",
        took.as_secs_f64() * 1e9 / n.max(1) as f64,
        "ns",
    );
}

/// Time each experiment group of the paper run in a child of its own. The
/// groups re-run the studies they share, so their sum exceeds the
/// end-to-end run by the shared work, reported as `experiments.shared_s`.
fn attribute_groups(
    bin: &Path,
    scale: &str,
    whole: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut isolated = 0.0;
    for (group, experiments) in reproduce::GROUPS {
        let (run, _) = tr.time(&format!("experiments.{group}"), || {
            reproduce::run(bin, scale, experiments)
        });
        let run = run?;
        out.attempted += 1;
        let s = run.wall.as_secs_f64();
        isolated += s;
        out.note(format!(
            "experiments.{group} {s:.3} s, {:.3} s CPU, {:.1} MB peak",
            run.usage.cpu.as_secs_f64(),
            run.usage.maxrss_mb
        ));
    }
    out.note(format!(
        "experiments.shared_s {:.3} s (isolated groups {isolated:.3} s, whole run {:.3} s)",
        isolated - whole.as_secs_f64(),
        whole.as_secs_f64()
    ));
    Ok(())
}
