//! Delta-encoded snapshot series — the one way a study collects a window.
//!
//! Between consecutive days of real rDNS data almost everything is
//! identical — the paper's churn analyses (§4, Fig. 7) exist precisely
//! because only a small fraction of records move per day — so storing every
//! day as a full `address → hostname` map would store each stable record
//! ~90 times over a 90-day window.
//!
//! [`DeltaSeries`] stores day 0 in full plus one [`DeltaSnapshot`] per
//! subsequent day: the *adds* (addresses that gained a PTR), *renames*
//! (addresses whose hostname changed) and *removes* (addresses that lost
//! their PTR) against the previous day. Days are materialised lazily —
//! [`DeltaSeries::materialize`] for one day, [`DeltaSeries::for_each_day`]
//! to stream the whole window holding only a single day in memory — and
//! [`DeltaSeries::to_columnar`] builds the columnar view the §4–§7 analyses
//! read, without ever holding the window in row form.
//!
//! The determinism contract is byte identity: materialising day `i` yields
//! exactly the [`DailySnapshot`] that was pushed as day `i`.

use crate::columnar::{ColumnarDay, ColumnarSeries, NamePool};
use crate::snapshot::{Cadence, DailySnapshot};
use rdns_model::{Date, Hostname};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// One day's change against the previous day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaSnapshot {
    /// The day this delta produces.
    pub date: Date,
    /// Addresses that gained a PTR, with the new hostname, ascending.
    pub adds: Vec<(Ipv4Addr, Hostname)>,
    /// Addresses whose PTR changed hostname, with the new hostname,
    /// ascending.
    pub renames: Vec<(Ipv4Addr, Hostname)>,
    /// Addresses whose PTR disappeared, ascending.
    pub removes: Vec<Ipv4Addr>,
}

impl DeltaSnapshot {
    /// Total changed records.
    pub fn len(&self) -> usize {
        self.adds.len() + self.renames.len() + self.removes.len()
    }

    /// Whether the day was identical to its predecessor.
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.renames.is_empty() && self.removes.is_empty()
    }

    /// Diff `next` against `prev` — one sorted merge over both maps.
    pub fn between(prev: &DailySnapshot, next: &DailySnapshot) -> DeltaSnapshot {
        let mut adds = Vec::new();
        let mut renames = Vec::new();
        let mut removes = Vec::new();
        let mut old = prev.records.iter().peekable();
        let mut new = next.records.iter().peekable();
        loop {
            match (old.peek(), new.peek()) {
                (Some(&(oa, _)), Some(&(na, nh))) if oa == na => {
                    let (_, oh) = old.next().expect("peeked");
                    new.next();
                    if oh != nh {
                        renames.push((*na, nh.clone()));
                    }
                }
                (Some(&(oa, _)), Some(&(na, _))) if oa < na => {
                    removes.push(*oa);
                    old.next();
                }
                (Some(_), Some(&(na, nh))) => {
                    adds.push((*na, nh.clone()));
                    new.next();
                }
                (Some(&(oa, _)), None) => {
                    removes.push(*oa);
                    old.next();
                }
                (None, Some(&(na, nh))) => {
                    adds.push((*na, nh.clone()));
                    new.next();
                }
                (None, None) => break,
            }
        }
        DeltaSnapshot {
            date: next.date,
            adds,
            renames,
            removes,
        }
    }

    /// Apply this delta to `records`, turning the previous day into this one.
    pub fn apply(&self, records: &mut BTreeMap<Ipv4Addr, Hostname>) {
        for addr in &self.removes {
            records.remove(addr);
        }
        for (addr, host) in self.adds.iter().chain(&self.renames) {
            records.insert(*addr, host.clone());
        }
    }
}

/// A longitudinal series stored as day 0 plus per-day deltas.
///
/// Push full [`DailySnapshot`]s as the snapshotter takes them; only the
/// changed records are retained. The `tail` cursor (the latest day, kept
/// materialised) makes each push a single sorted merge, O(day size), with no
/// re-materialisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaSeries {
    /// Collection cadence.
    pub cadence: Cadence,
    /// Day 0, stored in full.
    base: Option<DailySnapshot>,
    /// Deltas: `deltas[i]` turns day `i` into day `i + 1`.
    deltas: Vec<DeltaSnapshot>,
    /// The latest day, kept materialised as the diff target for `push`.
    tail: BTreeMap<Ipv4Addr, Hostname>,
    /// Running per-day record counts (for O(1) series statistics).
    day_lens: Vec<u64>,
}

impl DeltaSeries {
    /// An empty series.
    pub fn new(cadence: Cadence) -> DeltaSeries {
        DeltaSeries {
            cadence,
            base: None,
            deltas: Vec::new(),
            tail: BTreeMap::new(),
            day_lens: Vec::new(),
        }
    }

    /// Append a day, keeping date order. Only the delta against the
    /// previous day is retained (day 0 is kept in full).
    pub fn push(&mut self, snapshot: DailySnapshot) {
        self.day_lens.push(snapshot.len() as u64);
        match &self.base {
            None => {
                self.tail = snapshot.records.clone();
                self.base = Some(snapshot);
            }
            Some(base) => {
                debug_assert!(
                    self.deltas.last().map_or(base.date, |d| d.date) < snapshot.date,
                    "snapshots must be pushed in date order"
                );
                let prev = DailySnapshot {
                    date: snapshot.date,
                    records: std::mem::take(&mut self.tail),
                };
                self.deltas.push(DeltaSnapshot::between(&prev, &snapshot));
                self.tail = snapshot.records;
            }
        }
    }

    /// Number of days.
    pub fn len(&self) -> usize {
        self.day_lens.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_none()
    }

    /// First day's date.
    pub fn start_date(&self) -> Option<Date> {
        self.base.as_ref().map(|s| s.date)
    }

    /// Last day's date.
    pub fn end_date(&self) -> Option<Date> {
        self.deltas
            .last()
            .map(|d| d.date)
            .or_else(|| self.start_date())
    }

    /// Total PTR responses across all days (Table 1's "Total # responses").
    pub fn total_responses(&self) -> u64 {
        self.day_lens.iter().sum()
    }

    /// Changed records (adds + renames + removes) across all deltas — the
    /// quantity the encoding stores instead of `total_responses`.
    pub fn total_changes(&self) -> u64 {
        self.deltas.iter().map(|d| d.len() as u64).sum()
    }

    /// Materialise day `i` (0-based). O(sum of deltas up to `i`).
    pub fn materialize(&self, i: usize) -> Option<DailySnapshot> {
        if i >= self.len() {
            return None;
        }
        let base = self.base.as_ref().expect("non-empty series has a base");
        let mut day = base.clone();
        for delta in &self.deltas[..i] {
            delta.apply(&mut day.records);
            day.date = delta.date;
        }
        Some(day)
    }

    /// Stream every day in date order, holding exactly one materialised day
    /// at a time — the bounded-memory path the analysis drivers consume.
    pub fn for_each_day<F: FnMut(&DailySnapshot)>(&self, mut f: F) {
        let Some(base) = &self.base else {
            return;
        };
        let mut day = base.clone();
        f(&day);
        for delta in &self.deltas {
            delta.apply(&mut day.records);
            day.date = delta.date;
            f(&day);
        }
    }

    /// Build the columnar analysis view in one streaming pass: sorted
    /// address columns plus an interned hostname pool, without ever holding
    /// more than one row-form day.
    pub fn to_columnar(&self) -> ColumnarSeries {
        let mut pool = NamePool::new();
        let mut days = Vec::with_capacity(self.len());
        self.for_each_day(|snap| {
            let mut addrs = Vec::with_capacity(snap.records.len());
            let mut names = Vec::with_capacity(snap.records.len());
            for (addr, host) in &snap.records {
                addrs.push(u32::from(*addr));
                names.push(pool.intern(host.as_str()));
            }
            days.push(ColumnarDay {
                date: snap.date,
                addrs,
                names,
            });
        });
        ColumnarSeries {
            cadence: self.cadence,
            pool,
            days,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day(date: Date, records: &[(&str, &str)]) -> DailySnapshot {
        DailySnapshot {
            date,
            records: records
                .iter()
                .map(|(a, h)| (a.parse().unwrap(), Hostname::new(h)))
                .collect(),
        }
    }

    /// Three days exactly as a `Snapshotter` would return them.
    fn fixture() -> Vec<DailySnapshot> {
        let d1 = Date::from_ymd(2021, 1, 1);
        vec![
            day(
                d1,
                &[
                    ("10.0.1.5", "a.example.edu"),
                    ("10.0.1.9", "b.example.edu"),
                    ("10.0.2.7", "c.example.edu"),
                ],
            ),
            // Day 2: .9 removed, .7 renamed, new record appears.
            day(
                d1.succ(),
                &[
                    ("10.0.1.5", "a.example.edu"),
                    ("10.0.2.7", "d.example.edu"),
                    ("192.168.0.1", "e.example.org"),
                ],
            ),
            // Day 3: identical to day 2.
            day(
                d1.plus_days(2),
                &[
                    ("10.0.1.5", "a.example.edu"),
                    ("10.0.2.7", "d.example.edu"),
                    ("192.168.0.1", "e.example.org"),
                ],
            ),
        ]
    }

    fn delta_of(days: &[DailySnapshot]) -> DeltaSeries {
        let mut delta = DeltaSeries::new(Cadence::Daily);
        for day in days {
            delta.push(day.clone());
        }
        delta
    }

    fn materialized(delta: &DeltaSeries) -> Vec<DailySnapshot> {
        let mut days = Vec::new();
        delta.for_each_day(|day| days.push(day.clone()));
        days
    }

    #[test]
    fn delta_classifies_adds_renames_removes() {
        let days = fixture();
        let delta = DeltaSnapshot::between(&days[0], &days[1]);
        assert_eq!(delta.removes, vec!["10.0.1.9".parse::<Ipv4Addr>().unwrap()]);
        assert_eq!(
            delta.renames,
            vec![("10.0.2.7".parse().unwrap(), Hostname::new("d.example.edu"))]
        );
        assert_eq!(
            delta.adds,
            vec![("192.168.0.1".parse().unwrap(), Hostname::new("e.example.org"))]
        );
    }

    #[test]
    fn quiet_day_is_an_empty_delta() {
        let days = fixture();
        let delta = DeltaSnapshot::between(&days[1], &days[2]);
        assert!(delta.is_empty());
        assert_eq!(delta.len(), 0);
    }

    #[test]
    fn delta_series_reproduces_the_pushed_days() {
        let days = fixture();
        let delta = delta_of(&days);
        assert_eq!(materialized(&delta), days);
        assert_eq!(delta.len(), days.len());
        assert_eq!(delta.start_date(), Some(days[0].date));
        assert_eq!(delta.end_date(), Some(days[2].date));
        assert_eq!(delta.total_responses(), 9);
        // 3 days × 3 records stored as 3 + the 3 changed records of day 2.
        assert_eq!(delta.total_changes(), 3);
    }

    #[test]
    fn lazy_materialization_matches_each_day() {
        let days = fixture();
        let delta = delta_of(&days);
        for (i, snap) in days.iter().enumerate() {
            assert_eq!(delta.materialize(i).as_ref(), Some(snap));
        }
        assert_eq!(delta.materialize(3), None);
    }

    #[test]
    fn streaming_visits_days_in_order() {
        let days = fixture();
        let delta = delta_of(&days);
        let mut dates = Vec::new();
        let mut lens = Vec::new();
        delta.for_each_day(|d| {
            dates.push(d.date);
            lens.push(d.len());
        });
        assert_eq!(dates, days.iter().map(|s| s.date).collect::<Vec<_>>());
        assert_eq!(lens, vec![3, 3, 3]);
    }

    #[test]
    fn columnar_view_holds_each_day() {
        let days = fixture();
        let col = delta_of(&days).to_columnar();
        assert_eq!(col.len(), days.len());
        for (day, taken) in col.days.iter().zip(&days) {
            assert_eq!(day.date, taken.date);
            let addrs: Vec<u32> = taken.records.keys().map(|a| u32::from(*a)).collect();
            assert_eq!(day.addrs, addrs);
            let names: Vec<&str> = day.names.iter().map(|id| col.pool.get(*id)).collect();
            let expected: Vec<&str> = taken.records.values().map(|h| h.as_str()).collect();
            assert_eq!(names, expected);
        }
    }

    #[test]
    fn empty_series_behaves() {
        let delta = DeltaSeries::new(Cadence::Weekly);
        assert!(delta.is_empty());
        assert_eq!(delta.len(), 0);
        assert_eq!(delta.materialize(0), None);
        let mut called = false;
        delta.for_each_day(|_| called = true);
        assert!(!called);
        assert!(delta.to_columnar().is_empty());
    }

    #[test]
    fn json_round_trip() {
        let delta = delta_of(&fixture());
        let json = serde_json::to_string(&delta).unwrap();
        let back: DeltaSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        assert_eq!(materialized(&back), fixture());
    }
}
