//! Columnar snapshot-series representation.
//!
//! [`ColumnarSeries`] is the analysis-side layout, built from a collected
//! window by [`DeltaSeries::to_columnar`](crate::DeltaSeries::to_columnar).
//! A row-form day (`BTreeMap<Ipv4Addr, Hostname>`) is expensive as analysis
//! input: every §4/§5 pass would walk pointer-chasing tree nodes, and every
//! day would own its own copy of every hostname string.
//!
//! Here each day is two parallel columns: a sorted `Vec<u32>` of addresses
//! and a `Vec<NameId>` of indices into a [`NamePool`] shared by all days, so
//! a hostname that appears on 90 days is stored once. Because the address
//! column is sorted, per-/24 aggregation is a run-length scan (`addr >> 8`
//! changes ⇒ new block) with no per-address hashing, and day columns are
//! independent — the natural shard for rayon fan-out. Reductions merge
//! per-day results in day order, so output is identical at any thread
//! count.

use crate::snapshot::Cadence;
use rayon::prelude::*;
use rdns_model::{Date, Hostname, Slash24};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Index of an interned hostname in a [`NamePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(pub u32);

/// Interned hostname table: each distinct hostname is stored once and
/// addressed by [`NameId`].
#[derive(Debug, Clone, Default)]
pub struct NamePool {
    names: Vec<Arc<str>>,
    index: HashMap<Arc<str>, NameId>,
}

impl NamePool {
    /// An empty pool.
    pub fn new() -> NamePool {
        NamePool::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(id) = self.index.get(name) {
            return *id;
        }
        let id = NameId(self.names.len() as u32);
        let shared: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&shared));
        self.index.insert(shared, id);
        id
    }

    /// The string for `id`. Panics on a foreign id.
    pub fn get(&self, id: NameId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Shared handle to the string for `id`.
    pub fn get_arc(&self, id: NameId) -> Arc<str> {
        Arc::clone(&self.names[id.0 as usize])
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One day of PTR records in columnar form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarDay {
    /// Snapshot date.
    pub date: Date,
    /// Addresses with a PTR, ascending.
    pub addrs: Vec<u32>,
    /// `names[i]` is the hostname of `addrs[i]`.
    pub names: Vec<NameId>,
}

impl ColumnarDay {
    /// Number of PTR records.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the day has no records.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Per-/24 record counts as `(block prefix, count)`, ascending by
    /// prefix — a single run-length pass over the sorted address column.
    pub fn slash24_runs(&self) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &addr in &self.addrs {
            let prefix = addr >> 8;
            match runs.last_mut() {
                Some((p, n)) if *p == prefix => *n += 1,
                _ => runs.push((prefix, 1)),
            }
        }
        runs
    }

    /// Records satisfying an address predicate.
    pub fn count_where<F: Fn(Ipv4Addr) -> bool>(&self, pred: F) -> usize {
        self.addrs.iter().filter(|a| pred(Ipv4Addr::from(**a))).count()
    }
}

/// A full series in columnar form. Build with
/// [`DeltaSeries::to_columnar`](crate::DeltaSeries::to_columnar).
#[derive(Debug, Clone)]
pub struct ColumnarSeries {
    /// Collection cadence, carried over from the source series.
    pub cadence: Cadence,
    /// Hostname table shared by all days.
    pub pool: NamePool,
    /// Day columns in date order.
    pub days: Vec<ColumnarDay>,
}

impl ColumnarSeries {
    /// Number of days.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Distinct /24 blocks with at least one PTR anywhere in the series.
    pub fn unique_slash24s(&self) -> usize {
        let mut prefixes: Vec<u32> = self
            .days
            .par_iter()
            .flat_map(|d| d.slash24_runs().into_iter().map(|(p, _)| p).collect::<Vec<_>>())
            .collect();
        prefixes.sort_unstable();
        prefixes.dedup();
        prefixes.len()
    }

    /// Per-/24 daily count matrix aligned with `self.days` — the §4.1
    /// heuristic's input: column `i` holds day `i`'s
    /// [`DailySnapshot::counts_by_slash24`](crate::DailySnapshot::counts_by_slash24),
    /// with 0 where a block has no records that day. Day columns are scanned
    /// in parallel; the merge walks per-day runs in day order, so the result
    /// is thread-count independent.
    pub fn counts_matrix(&self) -> BTreeMap<Slash24, Vec<u32>> {
        let days = self.days.len();
        let per_day: Vec<Vec<(u32, u32)>> =
            self.days.par_iter().map(|d| d.slash24_runs()).collect();
        let mut out: BTreeMap<Slash24, Vec<u32>> = BTreeMap::new();
        for (i, runs) in per_day.into_iter().enumerate() {
            for (prefix, count) in runs {
                let block = Slash24::containing(Ipv4Addr::from(prefix << 8));
                out.entry(block).or_insert_with(|| vec![0; days])[i] = count;
            }
        }
        out
    }

    /// Daily totals filtered by an address predicate (Fig. 9/10 series).
    pub fn daily_totals_where<F: Fn(Ipv4Addr) -> bool + Sync>(
        &self,
        pred: F,
    ) -> Vec<(Date, usize)> {
        self.days
            .par_iter()
            .map(|d| (d.date, d.count_where(&pred)))
            .collect()
    }

    /// Unique `(address, hostname)` observations across the series, in
    /// ascending `(address, name id)` order — a deterministic replacement
    /// for hash-set deduplication over the row representation.
    pub fn observations(&self) -> Vec<(Ipv4Addr, Hostname)> {
        let mut pairs: Vec<(u32, NameId)> = self
            .days
            .par_iter()
            .flat_map(|d| {
                d.addrs
                    .iter()
                    .zip(&d.names)
                    .map(|(a, id)| (*a, *id))
                    .collect::<Vec<_>>()
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(a, id)| (Ipv4Addr::from(a), Hostname::new(self.pool.get(id))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DailySnapshot, DeltaSeries};
    use std::collections::BTreeSet;

    /// Two days exactly as a `Snapshotter` would return them.
    fn days_fixture() -> Vec<DailySnapshot> {
        let day = |date, records: &[(&str, &str)]| DailySnapshot {
            date,
            records: records
                .iter()
                .map(|(a, h)| (a.parse().unwrap(), Hostname::new(h)))
                .collect(),
        };
        vec![
            day(
                Date::from_ymd(2021, 1, 1),
                &[
                    ("10.0.1.5", "a.example.edu"),
                    ("10.0.1.9", "b.example.edu"),
                    ("10.0.2.7", "c.example.edu"),
                ],
            ),
            day(
                Date::from_ymd(2021, 1, 2),
                &[
                    ("10.0.1.5", "a.example.edu"), // same record persists
                    ("10.0.2.7", "d.example.edu"), // same addr, new name
                    ("192.168.0.1", "e.example.org"),
                ],
            ),
        ]
    }

    fn columnar(days: &[DailySnapshot]) -> ColumnarSeries {
        let mut series = DeltaSeries::new(Cadence::Daily);
        for day in days {
            series.push(day.clone());
        }
        series.to_columnar()
    }

    #[test]
    fn interning_shares_names_across_days() {
        let col = columnar(&days_fixture());
        // 5 distinct hostnames despite 6 records.
        assert_eq!(col.pool.len(), 5);
        assert_eq!(col.days[0].names[0], col.days[1].names[0]);
    }

    #[test]
    fn unique_slash24s_match_row_representation() {
        let days = days_fixture();
        let blocks: BTreeSet<Slash24> = days
            .iter()
            .flat_map(|d| d.counts_by_slash24().into_keys())
            .collect();
        assert_eq!(columnar(&days).unique_slash24s(), blocks.len());
    }

    #[test]
    fn counts_matrix_matches_row_representation() {
        let days = days_fixture();
        let matrix = columnar(&days).counts_matrix();
        for (i, day) in days.iter().enumerate() {
            let counts = day.counts_by_slash24();
            assert!(counts.keys().all(|block| matrix.contains_key(block)));
            for (block, column) in &matrix {
                let expected = counts.get(block).copied().unwrap_or(0);
                assert_eq!(column[i], expected, "{block:?} on day {i}");
            }
        }
    }

    #[test]
    fn slash24_runs_are_run_length_counts() {
        let col = columnar(&days_fixture());
        let runs = col.days[0].slash24_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].1, 2); // 10.0.1.0/24
        assert_eq!(runs[1].1, 1); // 10.0.2.0/24
        assert!(runs[0].0 < runs[1].0);
    }

    #[test]
    fn observations_sorted_and_unique() {
        let col = columnar(&days_fixture());
        let obs = col.observations();
        // 5 unique (addr, hostname) pairs; 10.0.1.5→a appears on both days.
        assert_eq!(obs.len(), 5);
        let mut sorted = obs.clone();
        sorted.sort();
        assert_eq!(obs.len(), sorted.len());
        for w in obs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn daily_totals_with_predicate() {
        let days = days_fixture();
        let net: rdns_model::Ipv4Net = "10.0.0.0/16".parse().unwrap();
        let expected: Vec<(Date, usize)> = days
            .iter()
            .map(|d| (d.date, d.count_where(|a| net.contains(a))))
            .collect();
        assert_eq!(
            columnar(&days).daily_totals_where(|a| net.contains(a)),
            expected
        );
    }
}
