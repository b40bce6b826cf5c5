//! Dataset summary statistics (Table 1 and Table 3 shapes).

use crate::columnar::{ColumnarDay, ColumnarSeries};
use crate::snapshot::Cadence;
use rdns_scan::ScanLog;
use rdns_model::Date;
use serde::{Deserialize, Serialize};

/// Table-1-shaped statistics for a snapshot series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotDatasetStats {
    /// Dataset label (e.g. "OpenINTEL-like daily").
    pub label: String,
    /// First snapshot date.
    pub start: Option<Date>,
    /// Last snapshot date.
    pub end: Option<Date>,
    /// Total PTR responses across all snapshots.
    pub total_responses: u64,
    /// Unique PTR hostnames.
    pub unique_ptrs: usize,
}

impl SnapshotDatasetStats {
    /// Compute over the days of `series` that a dataset at `cadence`
    /// samples — every day for the daily (OpenINTEL-like) dataset, the
    /// Tuesdays for the weekly (Rapid7-like) one. The unique-PTR count walks
    /// the interned name pool instead of hashing every hostname string.
    pub fn from_columnar(
        label: &str,
        series: &ColumnarSeries,
        cadence: Cadence,
    ) -> SnapshotDatasetStats {
        let days: Vec<&ColumnarDay> = series
            .days
            .iter()
            .filter(|d| cadence.samples(d.date))
            .collect();
        let mut used = vec![false; series.pool.len()];
        for day in &days {
            for id in &day.names {
                used[id.0 as usize] = true;
            }
        }
        SnapshotDatasetStats {
            label: label.to_string(),
            start: days.first().map(|d| d.date),
            end: days.last().map(|d| d.date),
            total_responses: days.iter().map(|d| d.len() as u64).sum(),
            unique_ptrs: used.iter().filter(|u| **u).count(),
        }
    }

    /// One row of a Table-1-style report.
    pub fn row(&self) -> String {
        format!(
            "{:<24} {:>10} {:>10} {:>14} {:>12}",
            self.label,
            self.start.map_or("-".into(), |d| d.to_string()),
            self.end.map_or("-".into(), |d| d.to_string()),
            self.total_responses,
            self.unique_ptrs
        )
    }
}

/// Table-3-shaped statistics for a supplemental measurement log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanDatasetStats {
    /// ICMP responses recorded.
    pub icmp_responses: u64,
    /// Unique addresses in ICMP data.
    pub icmp_unique_addrs: usize,
    /// rDNS responses recorded.
    pub rdns_responses: u64,
    /// Unique addresses in rDNS data.
    pub rdns_unique_addrs: usize,
    /// Unique PTR values observed.
    pub unique_ptrs: usize,
}

impl ScanDatasetStats {
    /// Compute from a scan log.
    pub fn from_log(log: &ScanLog) -> ScanDatasetStats {
        ScanDatasetStats {
            icmp_responses: log.icmp.len() as u64,
            icmp_unique_addrs: log.unique_icmp_addrs(),
            rdns_responses: log.rdns.len() as u64,
            rdns_unique_addrs: log.unique_rdns_addrs(),
            unique_ptrs: log.unique_ptrs(),
        }
    }

    /// Two rows of a Table-3-style report.
    pub fn rows(&self) -> Vec<String> {
        vec![
            format!(
                "ICMP {:>14} responses {:>10} unique addrs {:>10}",
                self.icmp_responses, self.icmp_unique_addrs, "-"
            ),
            format!(
                "rDNS {:>14} responses {:>10} unique addrs {:>10} unique PTRs",
                self.rdns_responses, self.rdns_unique_addrs, self.unique_ptrs
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DailySnapshot, DeltaSeries};
    use rdns_model::Hostname;
    use rdns_model::SimTime;
    use rdns_scan::RdnsOutcome;
    use std::collections::BTreeMap;

    /// Monday 2021-11-01 through Wednesday 2021-11-10, one more record
    /// each day, with the hostname of `192.0.2.1` renamed on the Tuesdays.
    fn ten_days() -> ColumnarSeries {
        let monday = Date::from_ymd(2021, 11, 1);
        let mut series = DeltaSeries::new(Cadence::Daily);
        let mut records = BTreeMap::new();
        for i in 0..10u8 {
            let date = monday.plus_days(i64::from(i));
            records.insert(
                std::net::Ipv4Addr::new(192, 0, 2, 10 + i),
                Hostname::new(&format!("h{i}.example")),
            );
            let first = if Cadence::Weekly.samples(date) {
                "tue.example"
            } else {
                "a.example"
            };
            records.insert("192.0.2.1".parse().unwrap(), Hostname::new(first));
            series.push(DailySnapshot {
                date,
                records: records.clone(),
            });
        }
        series.to_columnar()
    }

    #[test]
    fn daily_stats_cover_every_day() {
        let stats =
            SnapshotDatasetStats::from_columnar("OpenINTEL-like", &ten_days(), Cadence::Daily);
        assert_eq!(stats.start, Some(Date::from_ymd(2021, 11, 1)));
        assert_eq!(stats.end, Some(Date::from_ymd(2021, 11, 10)));
        // Day i holds 192.0.2.1 plus i + 1 numbered hosts.
        assert_eq!(stats.total_responses, (2..=11).sum::<u64>());
        assert_eq!(stats.unique_ptrs, 10 + 2);
        assert!(stats.row().contains("OpenINTEL-like"));
    }

    #[test]
    fn weekly_stats_sample_the_tuesdays() {
        let stats =
            SnapshotDatasetStats::from_columnar("Rapid7-like", &ten_days(), Cadence::Weekly);
        assert_eq!(stats.start, Some(Date::from_ymd(2021, 11, 2)));
        assert_eq!(stats.end, Some(Date::from_ymd(2021, 11, 9)));
        // Tuesday 2 holds 3 records, Tuesday 9 holds 10.
        assert_eq!(stats.total_responses, 3 + 10);
        // h0..h8 plus the Tuesday name; "a.example" appears on no Tuesday.
        assert_eq!(stats.unique_ptrs, 9 + 1);
    }

    #[test]
    fn empty_series_stats() {
        let series = DeltaSeries::new(Cadence::Daily).to_columnar();
        let stats = SnapshotDatasetStats::from_columnar("empty", &series, Cadence::Weekly);
        assert_eq!(stats.start, None);
        assert_eq!(stats.total_responses, 0);
        assert!(stats.row().contains('-'));
    }

    #[test]
    fn scan_stats() {
        let mut log = ScanLog::new();
        let t = SimTime::from_date(Date::from_ymd(2021, 10, 27));
        log.push_icmp(t, "10.0.0.1".parse().unwrap(), true);
        log.push_icmp(t, "10.0.0.2".parse().unwrap(), true);
        log.push_rdns(t, "10.0.0.1".parse().unwrap(), RdnsOutcome::Ptr(Hostname::new("x.example")));
        log.push_rdns(t, "10.0.0.1".parse().unwrap(), RdnsOutcome::NxDomain);
        let stats = ScanDatasetStats::from_log(&log);
        assert_eq!(stats.icmp_responses, 2);
        assert_eq!(stats.icmp_unique_addrs, 2);
        assert_eq!(stats.rdns_responses, 2);
        assert_eq!(stats.rdns_unique_addrs, 1);
        assert_eq!(stats.unique_ptrs, 1);
        assert_eq!(stats.rows().len(), 2);
    }
}
