//! # rdns-data
//!
//! The dataset layer: stand-ins for the three data sources of §3.
//!
//! * [`snapshot`] — full-address-space rDNS snapshots. A [`Snapshotter`]
//!   plays the role of OpenINTEL by dumping all PTR records from the shared
//!   [`ZoneStore`](rdns_dns::ZoneStore) once a day; Rapid7 Project Sonar's
//!   weekly dataset is the [`Cadence::Weekly`] sample (the Tuesdays) of the
//!   same days.
//! * [`delta`] — the collection layout: day 0 in full plus per-day
//!   adds/renames/removes, with lazy materialization and a bounded-memory
//!   streaming walk, so a long window costs churn, not days × records.
//! * [`columnar`] — the analysis layout every §4/§5/§7.2 study reads:
//!   sorted address columns plus an interned hostname pool shared across
//!   days, sharded per day for rayon fan-out, built from a [`DeltaSeries`]
//!   in one streaming pass.
//! * [`features`] — windowed behavioural features: per-address hostname
//!   [`PresenceTrack`]s with day-presence bitmasks, the content-blind input
//!   the `rdns-lab` tracker consumes.
//! * [`stats`] — summary statistics in the shape of Table 1 and Table 3.
//! * [`persist`] — on-disk storage: delta series as JSON, scan logs as CSV
//!   pairs.

pub mod columnar;
pub mod delta;
pub mod features;
pub mod persist;
pub mod snapshot;
pub mod stats;

pub use columnar::{ColumnarDay, ColumnarSeries, NameId, NamePool};
pub use delta::{DeltaSeries, DeltaSnapshot};
pub use features::{PresenceTrack, TrackExtractor, TrackSet};
pub use persist::{load_scan_log, load_series, save_scan_log, save_series, PersistError};
pub use snapshot::{Cadence, DailySnapshot, Snapshotter};
pub use stats::{ScanDatasetStats, SnapshotDatasetStats};
