//! rDNS snapshots: one day of PTR records, and the snapshotter that takes
//! it from a DNS store.

use rdns_dns::{DnsStore, ZoneStore};
use rdns_model::{Date, Hostname, Slash24, Weekday};
use rdns_telemetry::{Counter, Determinism, Gauge, Registry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Measurement cadence of a series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cadence {
    /// One snapshot per day (OpenINTEL).
    Daily,
    /// One snapshot per week (Rapid7 Sonar, "a single weekday every week"):
    /// the Tuesdays of a daily window.
    Weekly,
}

impl Cadence {
    /// Whether a dataset at this cadence has a snapshot on `date`.
    pub fn samples(&self, date: Date) -> bool {
        match self {
            Cadence::Daily => true,
            Cadence::Weekly => date.weekday() == Weekday::Tuesday,
        }
    }
}

/// All PTR records visible on one date.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailySnapshot {
    /// Snapshot date.
    pub date: Date,
    /// `address → hostname` for every PTR present.
    pub records: BTreeMap<Ipv4Addr, Hostname>,
}

impl DailySnapshot {
    /// Adopt a wire-mode sweep result. A [`rdns_scan::WireSnapshot`] carries
    /// exactly the `(date, ip → ptr)` shape of a daily observation, so the
    /// wire path and the fast path feed the same longitudinal analyses.
    pub fn from_wire(wire: rdns_scan::WireSnapshot) -> DailySnapshot {
        DailySnapshot {
            date: wire.date,
            records: wire.records,
        }
    }

    /// Number of PTR records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Per-/24 record counts as `(block prefix, count)`, ascending by
    /// prefix. The `BTreeMap` keys are already address-sorted, so this is a
    /// single run-length pass (`addr >> 8` changes ⇒ new block) with no
    /// per-address map lookups — the same shape as
    /// [`crate::ColumnarDay::slash24_runs`].
    pub fn slash24_runs(&self) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for addr in self.records.keys() {
            let prefix = u32::from(*addr) >> 8;
            match runs.last_mut() {
                Some((p, n)) if *p == prefix => *n += 1,
                _ => runs.push((prefix, 1)),
            }
        }
        runs
    }

    /// Unique addresses-with-PTR per /24 block, in block order.
    pub fn counts_by_slash24(&self) -> BTreeMap<Slash24, u32> {
        self.slash24_runs()
            .into_iter()
            .map(|(prefix, count)| {
                (Slash24::containing(Ipv4Addr::from(prefix << 8)), count)
            })
            .collect()
    }

    /// Records within a predicate over addresses (e.g. one subnet).
    pub fn count_where<F: Fn(Ipv4Addr) -> bool>(&self, pred: F) -> usize {
        self.records.keys().filter(|a| pred(**a)).count()
    }
}

impl From<rdns_scan::WireSnapshot> for DailySnapshot {
    fn from(wire: rdns_scan::WireSnapshot) -> DailySnapshot {
        DailySnapshot::from_wire(wire)
    }
}

/// Takes snapshots of a DNS store.
///
/// Works over any [`DnsStore`]; the default is the lock-striped
/// [`ZoneStore`], where [`Snapshotter::take`] sweeps zone by zone — only
/// one stripe is locked at any moment, so concurrent writers (sim shards,
/// DHCP-driven IPAM updates) are never blocked for the duration of a full
/// address-space sweep.
#[derive(Debug, Clone)]
pub struct Snapshotter<S: DnsStore = ZoneStore> {
    store: S,
    metrics: SnapMetrics,
}

/// Telemetry cells for [`Snapshotter`]. Unregistered (free-floating) by
/// default; [`Snapshotter::attach_registry`] swaps in registry-backed cells.
#[derive(Debug, Clone, Default)]
struct SnapMetrics {
    snapshots: Counter,
    last_records: Gauge,
}

impl SnapMetrics {
    fn with_registry(registry: &Registry) -> SnapMetrics {
        SnapMetrics {
            snapshots: registry.counter(
                "rdns_data_snapshots_total",
                "Full-store snapshots taken.",
                Determinism::SeedStable,
            ),
            last_records: registry.gauge(
                "rdns_data_last_snapshot_records",
                "PTR records in the most recent snapshot.",
                Determinism::SeedStable,
            ),
        }
    }
}

impl<S: DnsStore> Snapshotter<S> {
    /// Observe `store`.
    pub fn new(store: S) -> Snapshotter<S> {
        Snapshotter {
            store,
            metrics: SnapMetrics::default(),
        }
    }

    /// Report snapshot metrics (`rdns_data_*`) to `registry`. Call once,
    /// before taking snapshots; prior counts carry over. Clones made after
    /// attaching share the same metric cells.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let metrics = SnapMetrics::with_registry(registry);
        metrics.snapshots.absorb(&self.metrics.snapshots);
        metrics.last_records.set(self.metrics.last_records.get());
        self.metrics = metrics;
    }

    /// Take a full snapshot dated `date`.
    pub fn take(&self, date: Date) -> DailySnapshot {
        let mut records = BTreeMap::new();
        // The hostname visit lends the interned PTR text directly (no
        // intermediate `DnsName` materialisation on the fast path).
        self.store.visit_ptr_hostnames(&mut |addr, name| {
            records.insert(addr, Hostname::new(name));
        });
        self.metrics.snapshots.inc();
        self.metrics.last_records.set(records.len() as i64);
        DailySnapshot { date, records }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeltaSeries, SnapshotDatasetStats};

    fn store_with(records: &[(&str, &str)]) -> ZoneStore {
        let store = ZoneStore::new();
        for (addr, host) in records {
            let a: Ipv4Addr = addr.parse().unwrap();
            store.ensure_reverse_zone(a);
            store.set_ptr(a, host.parse().unwrap(), 300);
        }
        store
    }

    #[test]
    fn snapshot_captures_store_state() {
        let store = store_with(&[
            ("192.0.2.1", "a.example.edu"),
            ("192.0.2.2", "b.example.edu"),
            ("198.51.100.9", "c.example.org"),
        ]);
        let snap = Snapshotter::new(store.clone()).take(Date::from_ymd(2021, 1, 1));
        assert_eq!(snap.len(), 3);
        assert_eq!(
            snap.records[&"192.0.2.1".parse::<Ipv4Addr>().unwrap()],
            Hostname::new("a.example.edu")
        );
        // Mutating the store afterwards must not affect the snapshot.
        store.remove_ptr("192.0.2.1".parse().unwrap());
        assert_eq!(snap.len(), 3);
    }

    #[test]
    fn counts_by_slash24() {
        let store = store_with(&[
            ("192.0.2.1", "a.example"),
            ("192.0.2.2", "b.example"),
            ("198.51.100.9", "c.example"),
        ]);
        let snap = Snapshotter::new(store).take(Date::from_ymd(2021, 1, 1));
        let counts = snap.counts_by_slash24();
        assert_eq!(counts[&Slash24::from_octets(192, 0, 2)], 2);
        assert_eq!(counts[&Slash24::from_octets(198, 51, 100)], 1);
    }

    #[test]
    fn series_statistics() {
        let store = store_with(&[("192.0.2.1", "a.example"), ("192.0.2.2", "b.example")]);
        let snapper = Snapshotter::new(store.clone());
        let mut series = DeltaSeries::new(Cadence::Daily);
        series.push(snapper.take(Date::from_ymd(2021, 1, 1)));
        store.set_ptr("192.0.2.3".parse().unwrap(), "c.example".parse().unwrap(), 300);
        series.push(snapper.take(Date::from_ymd(2021, 1, 2)));
        assert_eq!(series.len(), 2);
        assert_eq!(series.total_responses(), 2 + 3);
        assert_eq!(series.start_date(), Some(Date::from_ymd(2021, 1, 1)));
        assert_eq!(series.end_date(), Some(Date::from_ymd(2021, 1, 2)));
        let columnar = series.to_columnar();
        let stats = SnapshotDatasetStats::from_columnar("daily", &columnar, Cadence::Daily);
        assert_eq!(stats.unique_ptrs, 3);
        assert_eq!(columnar.unique_slash24s(), 1);
    }

    #[test]
    fn counts_matrix_alignment() {
        let store = store_with(&[("192.0.2.1", "a.example")]);
        let snapper = Snapshotter::new(store.clone());
        let mut series = DeltaSeries::new(Cadence::Daily);
        series.push(snapper.take(Date::from_ymd(2021, 1, 1)));
        // Day 2: record gone; a different block appears.
        store.remove_ptr("192.0.2.1".parse().unwrap());
        store.ensure_reverse_zone("198.51.100.1".parse().unwrap());
        store.set_ptr("198.51.100.1".parse().unwrap(), "x.example".parse().unwrap(), 300);
        series.push(snapper.take(Date::from_ymd(2021, 1, 2)));

        let matrix = series.to_columnar().counts_matrix();
        assert_eq!(matrix[&Slash24::from_octets(192, 0, 2)], vec![1, 0]);
        assert_eq!(matrix[&Slash24::from_octets(198, 51, 100)], vec![0, 1]);
    }

    #[test]
    fn count_with_predicate() {
        let store = store_with(&[
            ("192.0.2.1", "a.example"),
            ("198.51.100.1", "b.example"),
        ]);
        let snap = Snapshotter::new(store).take(Date::from_ymd(2021, 1, 1));
        let net: rdns_model::Ipv4Net = "192.0.2.0/24".parse().unwrap();
        assert_eq!(snap.count_where(|a| net.contains(a)), 1);
    }

    #[test]
    fn json_roundtrip() {
        let store = store_with(&[("192.0.2.1", "a.example")]);
        let snap = Snapshotter::new(store).take(Date::from_ymd(2021, 1, 1));
        let json = serde_json::to_string(&snap).unwrap();
        let back: DailySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn wire_snapshot_converts_losslessly() {
        let date = Date::from_ymd(2021, 11, 1);
        let mut records = BTreeMap::new();
        records.insert(
            "192.0.2.1".parse::<Ipv4Addr>().unwrap(),
            Hostname::new("a.example.edu"),
        );
        let wire = rdns_scan::WireSnapshot {
            date,
            records: records.clone(),
        };
        let snap: DailySnapshot = wire.into();
        assert_eq!(snap.date, date);
        assert_eq!(snap.records, records);
        // A converted snapshot slots straight into a series.
        let mut series = DeltaSeries::new(Cadence::Daily);
        series.push(snap);
        assert_eq!(series.total_responses(), 1);
    }

    #[test]
    fn cadence_samples() {
        let monday = Date::from_ymd(2021, 11, 1);
        let week: Vec<Date> = (0..7).map(|i| monday.plus_days(i)).collect();
        assert!(week.iter().all(|d| Cadence::Daily.samples(*d)));
        let weekly: Vec<Date> = week
            .into_iter()
            .filter(|d| Cadence::Weekly.samples(*d))
            .collect();
        assert_eq!(weekly, vec![monday.succ()]);
    }
}
