//! §7 experiments: the case studies (Figs. 8–11).

use crate::casestudies::brian::{track_devices, DeviceTimeline};
use crate::casestudies::heist::{hourly_activity, quietest_hour, HourlyActivity};
use crate::casestudies::wfh::{percent_of_max, NormalizedSeries};
use crate::experiments::harness::{collect_series, run_supplemental, FaultMix};
use crate::experiments::Scale;
use rdns_data::Cadence;
use rdns_model::{Date, Ipv4Net};
use rdns_netsim::spec::presets;
use rdns_netsim::{BuildingTag, World, WorldConfig};

/// Fig. 8 output: six weeks of Brian devices on Academic-A.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// The tracked timeline.
    pub timeline: DeviceTimeline,
    /// First calendar day of the rendering window (a Monday).
    pub from: Date,
    /// Last day (a Sunday, six weeks later).
    pub to: Date,
    /// First sighting of the Galaxy Note 9, if observed.
    pub galaxy_first_seen: Option<Date>,
}

impl Fig8 {
    /// Render the presence matrix.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Six weeks in the Life of Brian(s), {} .. {}\n",
            self.from, self.to
        );
        out.push_str(&self.timeline.render(self.from, self.to));
        if let Some(d) = self.galaxy_first_seen {
            out.push_str(&format!("galaxy first observed: {d}\n"));
        }
        out
    }
}

/// Run Fig. 8: supplemental measurement on Academic-A across the six weeks
/// around Thanksgiving 2021 (weeks of 2021-10-25 through 2021-12-05, as in
/// the paper's Fig. 8 window).
pub fn fig8(scale: &Scale) -> Fig8 {
    let from = Date::from_ymd(2021, 10, 25); // Monday of week 1
    let weeks = 6u32;
    let to = from.plus_days((weeks * 7 - 1) as i64);
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
        weeks * 7,
        FaultMix::realistic(),
        scale.seed,
    );
    let timeline = track_devices(&run.log, "brian");
    // The case-study device: the seeded Note 9 bought on Cyber Monday.
    let galaxy_first_seen = timeline
        .hosts
        .iter()
        .find(|h| h.contains("galaxy-note9"))
        .map(|h| timeline.active_days(h))
        .and_then(|days| days.first().copied());
    Fig8 {
        timeline,
        from,
        to,
        galaxy_first_seen,
    }
}

/// Fig. 9 output: longitudinal percent-of-max series for five networks.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// One series per selected network.
    pub series: Vec<NormalizedSeries>,
}

impl Fig9 {
    /// The series for one network.
    pub fn series_for(&self, label: &str) -> Option<&NormalizedSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render monthly means per network.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            out.push_str(&format!("{}:\n", s.label));
            let mut month = None;
            let mut acc: (f64, u32) = (0.0, 0);
            for (d, p) in &s.points {
                let key = (d.year(), d.month());
                if month != Some(key) {
                    if let Some((y, m)) = month {
                        out.push_str(&format!(
                            "  {y:04}-{m:02}  {:>5.1}%  {}\n",
                            acc.0 / acc.1 as f64,
                            crate::report::bar(acc.0 / acc.1 as f64, 100.0, 40)
                        ));
                    }
                    month = Some(key);
                    acc = (0.0, 0);
                }
                acc.0 += p;
                acc.1 += 1;
            }
            if let (Some((y, m)), true) = (month, acc.1 > 0) {
                out.push_str(&format!(
                    "  {y:04}-{m:02}  {:>5.1}%  {}\n",
                    acc.0 / acc.1 as f64,
                    crate::report::bar(acc.0 / acc.1 as f64, 100.0, 40)
                ));
            }
        }
        out
    }
}

/// Run Fig. 9 over `[from, to]` (paper: 2020-02 .. 2021-12): the three
/// academic networks plus Enterprises B and C.
pub fn fig9(scale: &Scale, from: Date, to: Date) -> Fig9 {
    let specs = vec![
        presets::academic_a(scale.focus_scale),
        presets::academic_b(scale.focus_scale),
        presets::academic_c(scale.focus_scale),
        presets::enterprise_b(scale.focus_scale),
        presets::enterprise_c(scale.focus_scale),
    ];
    let meta: Vec<(String, Vec<Ipv4Net>)> = specs
        .iter()
        .map(|s| (s.name.clone(), s.announced.clone()))
        .collect();
    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        shards: 0,
        start: from,
        networks: specs,
    });
    let series = collect_series(&mut world, from, to);
    drop(world);
    // One shared columnar view serves all five per-network scans.
    let columnar = series.to_columnar();
    Fig9 {
        series: meta
            .iter()
            .map(|(name, prefixes)| percent_of_max(name, &columnar, prefixes))
            .collect(),
    }
}

/// Fig. 10 output: Academic-C education vs housing, daily and weekly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// Education buildings, daily (OpenINTEL-like).
    pub education_daily: NormalizedSeries,
    /// Student housing, daily.
    pub housing_daily: NormalizedSeries,
    /// Education buildings, weekly (Rapid7-like, longer window).
    pub education_weekly: NormalizedSeries,
    /// Student housing, weekly.
    pub housing_weekly: NormalizedSeries,
}

impl Fig10 {
    /// The crossover check: housing above education at `date`?
    pub fn housing_leads_on(&self, date: Date) -> Option<bool> {
        let h = self.housing_daily.at(date)?;
        let e = self.education_daily.at(date)?;
        Some(h > e)
    }

    /// Render monthly means of both daily series (single days would land on
    /// weekends and mislead).
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 10 — Academic-C education vs housing (monthly mean, % of max):\n");
        let monthly = |s: &NormalizedSeries| -> Vec<((i32, u8), f64)> {
            let mut acc: Vec<((i32, u8), (f64, u32))> = Vec::new();
            for (d, p) in &s.points {
                let key = (d.year(), d.month());
                match acc.last_mut() {
                    Some((k, (sum, n))) if *k == key => {
                        *sum += p;
                        *n += 1;
                    }
                    _ => acc.push((key, (*p, 1))),
                }
            }
            acc.into_iter()
                .map(|(k, (sum, n))| (k, sum / n as f64))
                .collect()
        };
        let edu = monthly(&self.education_daily);
        let housing = monthly(&self.housing_daily);
        for ((y, m), e) in &edu {
            let h = housing
                .iter()
                .find(|((hy, hm), _)| hy == y && hm == m)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            out.push_str(&format!("  {y:04}-{m:02}  edu {e:>5.1}%  housing {h:>5.1}%\n"));
        }
        out
    }
}

/// Run Fig. 10: weekly data from `weekly_from` (paper: 2019-10-01, Rapid7's
/// start) and daily data from `daily_from` (paper: 2020-02-17, OpenINTEL's
/// start), both until `to`.
pub fn fig10(scale: &Scale, weekly_from: Date, daily_from: Date, to: Date) -> Fig10 {
    let spec = presets::academic_c(scale.focus_scale);
    let education: Vec<Ipv4Net> = spec
        .subnets
        .iter()
        .filter(|s| s.building == BuildingTag::Education)
        .map(|s| s.prefix)
        .collect();
    let housing: Vec<Ipv4Net> = spec
        .subnets
        .iter()
        .filter(|s| s.building == BuildingTag::Housing)
        .map(|s| s.prefix)
        .collect();
    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        shards: 0,
        start: weekly_from,
        networks: vec![spec],
    });
    let series = collect_series(&mut world, weekly_from, to);
    drop(world);
    let columnar = series.to_columnar();
    let totals = |prefixes: &[Ipv4Net]| {
        columnar.daily_totals_where(|addr| prefixes.iter().any(|p| p.contains(addr)))
    };
    let (education, housing) = (totals(&education), totals(&housing));
    // The daily (OpenINTEL-like) dataset only exists from `daily_from`; the
    // weekly (Rapid7-like) one is the Tuesdays of the whole window. Each is
    // normalised to its own maximum.
    let daily = |label: &str, totals: &[(Date, usize)]| {
        let days = totals.iter().copied().filter(|(d, _)| *d >= daily_from);
        NormalizedSeries::from_totals(label, days)
    };
    let weekly = |label: &str, totals: &[(Date, usize)]| {
        let days = totals
            .iter()
            .copied()
            .filter(|(d, _)| Cadence::Weekly.samples(*d));
        NormalizedSeries::from_totals(label, days)
    };
    Fig10 {
        education_daily: daily("education (daily)", &education),
        housing_daily: daily("housing (daily)", &housing),
        education_weekly: weekly("education (weekly)", &education),
        housing_weekly: weekly("housing (weekly)", &housing),
    }
}

/// Fig. 11 output: one week of hourly activity on Academic-A.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// Hourly counts.
    pub activity: HourlyActivity,
    /// The recommended (quietest) hour of day, from rDNS data alone.
    pub quietest_hour: u8,
}

impl Fig11 {
    /// Render the aggregate hour-of-day profile.
    pub fn render(&self) -> String {
        let by_hour = self.activity.by_hour_of_day();
        let max = by_hour.iter().map(|(_, r)| *r).max().unwrap_or(1);
        let mut out = String::from("Fig 11 — hour-of-day activity (ICMP / rDNS):\n");
        for (h, (icmp, rdns)) in by_hour.iter().enumerate() {
            out.push_str(&format!(
                "  {h:02}:00  icmp {icmp:>6}  rdns {rdns:>6}  {}\n",
                crate::report::bar(*rdns as f64, max as f64, 40)
            ));
        }
        out.push_str(&format!(
            "\nquietest hour (heist recommendation): {:02}:00\n",
            self.quietest_hour
        ));
        out
    }
}

/// Run Fig. 11: one week of supplemental data from Academic-A (paper:
/// 2021-11-01 through 2021-11-07).
pub fn fig11(scale: &Scale) -> Fig11 {
    let from = Date::from_ymd(2021, 11, 1);
    let days = 7u32;
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
        days,
        FaultMix::realistic(),
        scale.seed,
    );
    let activity = hourly_activity(&run.log, from, days);
    Fig11 {
        quietest_hour: quietest_hour(&activity),
        activity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_finds_nighttime_quiet() {
        let f = fig11(&Scale::tiny());
        assert_eq!(f.activity.hours.len(), 7 * 24);
        // Night / early morning must be the quiet zone on a campus (the
        // paper's data hinted at ~06:00; at tiny scale any overnight hour
        // can win).
        assert!(
            f.quietest_hour <= 9,
            "quietest hour {} not at night / early morning",
            f.quietest_hour
        );
        // Midday rDNS activity must exceed the quiet hour's.
        let by_hour = f.activity.by_hour_of_day();
        assert!(by_hour[13].1 > by_hour[f.quietest_hour as usize].1);
        assert!(f.render().contains("quietest hour"));
    }

    #[test]
    fn fig10_shows_crossover_during_lockdown() {
        let scale = Scale::tiny();
        // Window spanning the March 2020 lockdown.
        let f = fig10(
            &scale,
            Date::from_ymd(2020, 1, 6),
            Date::from_ymd(2020, 2, 17),
            Date::from_ymd(2020, 4, 30),
        );
        // Before lockdown: education at/above its max relative level...
        let before = f
            .education_daily
            .mean_over(Date::from_ymd(2020, 2, 17), Date::from_ymd(2020, 3, 8))
            .unwrap();
        let during = f
            .education_daily
            .mean_over(Date::from_ymd(2020, 3, 23), Date::from_ymd(2020, 4, 26))
            .unwrap();
        assert!(
            during < before - 5.0,
            "education must drop: before={before:.1} during={during:.1}"
        );
        // Housing holds or rises relative to its own max.
        let h_during = f
            .housing_daily
            .mean_over(Date::from_ymd(2020, 3, 23), Date::from_ymd(2020, 4, 26))
            .unwrap();
        assert!(h_during > during, "housing must lead education during lockdown");
        // Weekly series exists from before the daily series.
        assert!(f.education_weekly.points.first().unwrap().0 < f.education_daily.points.first().unwrap().0);
        assert!(f.render().contains("Academic-C"));
    }
}
