//! On-disk persistence for datasets.
//!
//! The paper retains its supplemental data "in encrypted form on our
//! institution's servers" for reproducibility (§9); this module provides the
//! plumbing: delta-encoded snapshot series as JSON, scan logs as the same
//! CSV pair the measurement tools write.

use crate::delta::DeltaSeries;
use rdns_scan::ScanLog;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// CSV parse failure.
    Csv(rdns_scan::records::CsvError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o: {e}"),
            PersistError::Json(e) => write!(f, "json: {e}"),
            PersistError::Csv(e) => write!(f, "csv: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

impl From<rdns_scan::records::CsvError> for PersistError {
    fn from(e: rdns_scan::records::CsvError) -> Self {
        PersistError::Csv(e)
    }
}

/// Write a snapshot series as JSON.
pub fn save_series(series: &DeltaSeries, path: &Path) -> Result<(), PersistError> {
    fs::write(path, serde_json::to_string(series)?)?;
    Ok(())
}

/// Load a snapshot series from JSON.
pub fn load_series(path: &Path) -> Result<DeltaSeries, PersistError> {
    Ok(serde_json::from_str(&fs::read_to_string(path)?)?)
}

/// Write a scan log as the measurement tools' CSV pair:
/// `<stem>.icmp.csv` and `<stem>.rdns.csv`.
pub fn save_scan_log(log: &ScanLog, dir: &Path, stem: &str) -> Result<(), PersistError> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{stem}.icmp.csv")), log.icmp_csv())?;
    fs::write(dir.join(format!("{stem}.rdns.csv")), log.rdns_csv())?;
    Ok(())
}

/// Load a scan log from its CSV pair.
pub fn load_scan_log(dir: &Path, stem: &str) -> Result<ScanLog, PersistError> {
    let icmp = fs::read_to_string(dir.join(format!("{stem}.icmp.csv")))?;
    let rdns = fs::read_to_string(dir.join(format!("{stem}.rdns.csv")))?;
    Ok(ScanLog::from_csv(&icmp, &rdns)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Cadence, DailySnapshot};
    use rdns_model::{Date, Hostname, SimTime};
    use rdns_scan::RdnsOutcome;
    use std::collections::BTreeMap;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rdns-data-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn series_roundtrip_via_disk() {
        let dir = scratch_dir("series");
        let mut series = DeltaSeries::new(Cadence::Daily);
        let mut records = BTreeMap::new();
        records.insert(
            "192.0.2.1".parse().unwrap(),
            Hostname::new("brians-air.example.edu"),
        );
        series.push(DailySnapshot {
            date: Date::from_ymd(2021, 11, 1),
            records,
        });
        let path = dir.join("daily.json");
        save_series(&series, &path).unwrap();
        let back = load_series(&path).unwrap();
        assert_eq!(back, series);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_log_roundtrip_via_disk() {
        let dir = scratch_dir("scanlog");
        let mut log = ScanLog::new();
        let t = SimTime::from_date(Date::from_ymd(2021, 11, 1));
        log.push_icmp(t, "10.0.0.1".parse().unwrap(), true);
        log.push_rdns(
            t,
            "10.0.0.1".parse().unwrap(),
            RdnsOutcome::Ptr(Hostname::new("emmas-ipad.example.edu")),
        );
        log.push_rdns(t, "10.0.0.2".parse().unwrap(), RdnsOutcome::Timeout);
        save_scan_log(&log, &dir, "campaign").unwrap();
        let back = load_scan_log(&dir, "campaign").unwrap();
        assert_eq!(back, log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_files_error_cleanly() {
        let dir = scratch_dir("missing");
        assert!(matches!(
            load_series(&dir.join("nope.json")),
            Err(PersistError::Io(_))
        ));
        assert!(matches!(
            load_scan_log(&dir, "nope"),
            Err(PersistError::Io(_))
        ));
        // Corrupt content surfaces as the right error class.
        fs::write(dir.join("bad.json"), "{not json").unwrap();
        assert!(matches!(
            load_series(&dir.join("bad.json")),
            Err(PersistError::Json(_))
        ));
        fs::write(dir.join("bad.icmp.csv"), "ts,addr,alive\nbroken").unwrap();
        fs::write(dir.join("bad.rdns.csv"), "h\n").unwrap();
        assert!(matches!(
            load_scan_log(&dir, "bad"),
            Err(PersistError::Csv(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
