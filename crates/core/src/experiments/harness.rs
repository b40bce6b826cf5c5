//! Shared drivers: building worlds, collecting snapshot series, and running
//! the supplemental measurement against a live world.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rdns_data::{Cadence, DeltaSeries, Snapshotter};
use rdns_model::{Date, SimDuration, SimTime};
use rdns_netsim::World;
use rdns_scan::{Prober, RdnsOutcome, ReactiveConfig, ReactiveScanner, ScanLog};
use std::net::Ipv4Addr;

/// Snapshot local time of day — mid-afternoon, when office/campus
/// populations peak, matching how daytime measurement reflects occupancy.
pub const SNAPSHOT_HOUR: u8 = 14;

/// Run the world through `[from, to]`, taking one snapshot a day at
/// [`SNAPSHOT_HOUR`]. Each day is pushed straight into a [`DeltaSeries`], so
/// the collection never holds more than one full day plus the churn; the
/// weekly (Rapid7-like) dataset is the [`Cadence::Weekly`] sample of the
/// same days.
pub fn collect_series(world: &mut World, from: Date, to: Date) -> DeltaSeries {
    let snapper = Snapshotter::new(world.store().clone());
    let mut series = DeltaSeries::new(Cadence::Daily);
    let mut day = from;
    while day <= to {
        world.step_until(SimTime::from_date_hms(day, SNAPSHOT_HOUR, 0, 0));
        series.push(snapper.take(day));
        day = day.succ();
    }
    series
}

/// Fault probabilities for fast-mode supplemental runs (Fig. 6's error mix).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// P(rDNS lookup → name-server failure).
    pub servfail: f64,
    /// P(rDNS lookup → timeout).
    pub timeout: f64,
    /// P(echo reply lost).
    pub ping_loss: f64,
}

impl FaultMix {
    /// The low error rates the paper reports ("the number of errors is low
    /// relative to the number of queries").
    pub fn realistic() -> FaultMix {
        FaultMix {
            servfail: 0.002,
            timeout: 0.004,
            ping_loss: 0.005,
        }
    }

    /// No faults.
    pub fn none() -> FaultMix {
        FaultMix {
            servfail: 0.0,
            timeout: 0.0,
            ping_loss: 0.0,
        }
    }
}

/// A prober over a borrowed world snapshot plus persistent fault state.
struct WorldProber<'a> {
    world: &'a World,
    rng: &'a mut SmallRng,
    faults: FaultMix,
}

impl Prober for WorldProber<'_> {
    fn ping(&mut self, addr: Ipv4Addr) -> bool {
        let alive = self.world.ping(addr);
        if alive && self.rng.gen::<f64>() < self.faults.ping_loss {
            return false;
        }
        alive
    }

    fn rdns(&mut self, addr: Ipv4Addr) -> RdnsOutcome {
        let roll: f64 = self.rng.gen();
        if roll < self.faults.servfail {
            return RdnsOutcome::NameserverFailure;
        }
        if roll < self.faults.servfail + self.faults.timeout {
            return RdnsOutcome::Timeout;
        }
        match self.world.store().get_ptr(addr) {
            Some(name) => RdnsOutcome::Ptr(name.to_hostname()),
            None => RdnsOutcome::NxDomain,
        }
    }
}

/// Result of a supplemental campaign.
#[derive(Debug)]
pub struct SupplementalRun {
    /// The measurement log.
    pub log: ScanLog,
    /// Scanner counters.
    pub stats: rdns_scan::reactive::ReactiveStats,
    /// First day of the campaign.
    pub from: Date,
    /// Days measured.
    pub days: u32,
}

/// Drive a reactive scanner against the world for `days` days, interleaving
/// world events and scheduled probes at 5-minute resolution.
pub fn run_supplemental(
    world: &mut World,
    networks: &[&str],
    from: Date,
    days: u32,
    faults: FaultMix,
    seed: u64,
) -> SupplementalRun {
    let targets: Vec<rdns_model::Ipv4Net> = networks
        .iter()
        .flat_map(|n| world.scan_targets(n))
        .collect();
    let start = SimTime::from_date(from);
    let end = start + SimDuration::days(days as u64);
    let mut scanner = ReactiveScanner::new(ReactiveConfig::standard(targets), start);
    let mut fault_rng = SmallRng::seed_from_u64(seed ^ 0xFA17);

    let mut t = start;
    while t < end {
        world.step_until(t);
        let mut prober = WorldProber {
            world,
            rng: &mut fault_rng,
            faults,
        };
        scanner.run_due(t, &mut prober);
        t += SimDuration::mins(5);
    }
    SupplementalRun {
        stats: scanner.stats(),
        log: scanner.into_log(),
        from,
        days,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdns_netsim::spec::presets;
    use rdns_netsim::WorldConfig;

    fn small_world(start: Date) -> World {
        World::new(WorldConfig {
            seed: 3,
            shards: 0,
            start,
            networks: vec![presets::academic_a(0.05)],
        })
    }

    #[test]
    fn daily_series_collection() {
        let from = Date::from_ymd(2021, 11, 1);
        let mut world = small_world(from);
        let series = collect_series(&mut world, from, from.plus_days(4));
        assert_eq!(series.len(), 5);
        assert_eq!(series.end_date(), Some(from.plus_days(4)));
        // Afternoon snapshots of a campus should contain client PTRs.
        assert!(series.total_responses() > 0);
    }

    #[test]
    fn supplemental_run_produces_groups_material() {
        let from = Date::from_ymd(2021, 11, 1);
        let mut world = small_world(from);
        let run = run_supplemental(
            &mut world,
            &["Academic-A"],
            from,
            1,
            FaultMix::none(),
            7,
        );
        assert!(run.stats.sweeps >= 24);
        assert!(run.stats.triggers > 0, "campus clients must be discovered");
        assert!(!run.log.icmp.is_empty());
        assert!(!run.log.rdns.is_empty());
        assert!(run.log.unique_ptrs() > 0);
    }

    #[test]
    fn faults_show_up_in_log() {
        let from = Date::from_ymd(2021, 11, 1);
        let mut world = small_world(from);
        let faults = FaultMix {
            servfail: 0.3,
            timeout: 0.3,
            ping_loss: 0.0,
        };
        let run = run_supplemental(&mut world, &["Academic-A"], from, 1, faults, 7);
        let servfails = run
            .log
            .rdns
            .iter()
            .filter(|r| r.outcome == RdnsOutcome::NameserverFailure)
            .count();
        let timeouts = run
            .log
            .rdns
            .iter()
            .filter(|r| r.outcome == RdnsOutcome::Timeout)
            .count();
        assert!(servfails > 0);
        assert!(timeouts > 0);
    }

    #[test]
    fn determinism() {
        let from = Date::from_ymd(2021, 11, 1);
        let run = |seed| {
            let mut world = World::new(WorldConfig {
                seed,
                shards: 0,
                start: from,
                networks: vec![presets::academic_a(0.05)],
            });
            let r = run_supplemental(
                &mut world,
                &["Academic-A"],
                from,
                1,
                FaultMix::realistic(),
                seed,
            );
            (r.log.icmp.len(), r.log.rdns.len(), r.stats.triggers)
        };
        assert_eq!(run(5), run(5));
    }
}
