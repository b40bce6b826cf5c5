//! §7.2 — Working from Home.
//!
//! Daily PTR totals per network, normalized to the maximum observed (the
//! y-axis of Figs. 9–10). Even day-granularity snapshots expose lockdowns,
//! recoveries, holidays and the education-vs-housing crossover.

use rdns_data::ColumnarSeries;
use rdns_model::{Date, Ipv4Net};
use serde::{Deserialize, Serialize};

/// A labelled percent-of-max series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizedSeries {
    /// Display label (network or building set).
    pub label: String,
    /// `(date, percent of maximum)` points in date order.
    pub points: Vec<(Date, f64)>,
}

impl NormalizedSeries {
    /// Normalise `(date, count)` totals to percent of their maximum; all
    /// zero when every count is 0.
    pub fn from_totals(
        label: &str,
        totals: impl IntoIterator<Item = (Date, usize)>,
    ) -> NormalizedSeries {
        let totals: Vec<(Date, usize)> = totals.into_iter().collect();
        let max = totals.iter().map(|(_, n)| *n).max().unwrap_or(0);
        let points = totals
            .into_iter()
            .map(|(d, n)| {
                let pct = if max == 0 {
                    0.0
                } else {
                    n as f64 / max as f64 * 100.0
                };
                (d, pct)
            })
            .collect();
        NormalizedSeries {
            label: label.to_string(),
            points,
        }
    }

    /// The percentage on a given date, if sampled.
    pub fn at(&self, date: Date) -> Option<f64> {
        self.points
            .iter()
            .find(|(d, _)| *d == date)
            .map(|(_, p)| *p)
    }

    /// Mean percentage over an inclusive date range.
    pub fn mean_over(&self, from: Date, to: Date) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(d, _)| *d >= from && *d <= to)
            .map(|(_, p)| *p)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// The minimum point (date of the deepest dip).
    pub fn min_point(&self) -> Option<(Date, f64)> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("percentages are finite"))
    }
}

/// Build a percent-of-max series from each day's record count restricted
/// to a set of prefixes. The per-day address columns are scanned with rayon
/// fan-out.
pub fn percent_of_max(
    label: &str,
    series: &ColumnarSeries,
    prefixes: &[Ipv4Net],
) -> NormalizedSeries {
    let totals = series.daily_totals_where(|addr| prefixes.iter().any(|p| p.contains(addr)));
    NormalizedSeries::from_totals(label, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdns_data::{Cadence, DailySnapshot, DeltaSeries};
    use rdns_model::Hostname;
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    fn snapshot(date: Date, count: u8) -> DailySnapshot {
        let mut records = BTreeMap::new();
        for i in 0..count {
            records.insert(
                Ipv4Addr::new(10, 0, 0, i + 1),
                Hostname::new(&format!("h{i}.example.edu")),
            );
        }
        DailySnapshot { date, records }
    }

    fn series() -> ColumnarSeries {
        let mut s = DeltaSeries::new(Cadence::Daily);
        s.push(snapshot(Date::from_ymd(2020, 3, 1), 100));
        s.push(snapshot(Date::from_ymd(2020, 3, 2), 80));
        s.push(snapshot(Date::from_ymd(2020, 3, 3), 40));
        s.to_columnar()
    }

    #[test]
    fn normalization_to_max() {
        let ns = percent_of_max("edu", &series(), &["10.0.0.0/24".parse().unwrap()]);
        assert_eq!(ns.points.len(), 3);
        assert_eq!(ns.at(Date::from_ymd(2020, 3, 1)), Some(100.0));
        assert_eq!(ns.at(Date::from_ymd(2020, 3, 2)), Some(80.0));
        assert_eq!(ns.at(Date::from_ymd(2020, 3, 3)), Some(40.0));
        assert_eq!(ns.at(Date::from_ymd(2020, 4, 1)), None);
    }

    #[test]
    fn prefix_restriction() {
        let ns = percent_of_max("other", &series(), &["192.0.2.0/24".parse().unwrap()]);
        assert!(ns.points.iter().all(|(_, p)| *p == 0.0));
    }

    #[test]
    fn min_point_finds_dip() {
        let ns = percent_of_max("edu", &series(), &["10.0.0.0/24".parse().unwrap()]);
        let (date, pct) = ns.min_point().unwrap();
        assert_eq!(date, Date::from_ymd(2020, 3, 3));
        assert_eq!(pct, 40.0);
    }

    #[test]
    fn mean_over_range() {
        let ns = percent_of_max("edu", &series(), &["10.0.0.0/24".parse().unwrap()]);
        let m = ns
            .mean_over(Date::from_ymd(2020, 3, 2), Date::from_ymd(2020, 3, 3))
            .unwrap();
        assert!((m - 60.0).abs() < 1e-9);
        assert!(ns
            .mean_over(Date::from_ymd(2021, 1, 1), Date::from_ymd(2021, 1, 2))
            .is_none());
    }

    #[test]
    fn empty_series_is_all_zero() {
        let s = DeltaSeries::new(Cadence::Daily).to_columnar();
        let ns = percent_of_max("x", &s, &["10.0.0.0/24".parse().unwrap()]);
        assert!(ns.points.is_empty());
        assert!(ns.min_point().is_none());
    }
}
