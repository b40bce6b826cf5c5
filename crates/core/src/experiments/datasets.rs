//! Table 1: dataset statistics for the two snapshot series.

use crate::experiments::section5::LeakStudy;
use crate::report::TextTable;
use rdns_data::{Cadence, SnapshotDatasetStats};

/// Table 1 contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// Weekly (Rapid7-like) dataset row.
    pub weekly: SnapshotDatasetStats,
    /// Daily (OpenINTEL-like) dataset row.
    pub daily: SnapshotDatasetStats,
}

impl Table1 {
    /// Render like the paper's Table 1.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "dataset",
            "start",
            "end",
            "total responses",
            "unique PTRs",
        ]);
        for s in [&self.weekly, &self.daily] {
            t.row([
                s.label.clone(),
                s.start.map_or("-".into(), |d| d.to_string()),
                s.end.map_or("-".into(), |d| d.to_string()),
                s.total_responses.to_string(),
                s.unique_ptrs.to_string(),
            ]);
        }
        t.render()
    }
}

/// Compute Table 1 from a leak study's window: the daily dataset is every
/// day of it, the weekly one its Tuesdays.
pub fn table1(study: &LeakStudy) -> Table1 {
    let stats =
        |label, cadence| SnapshotDatasetStats::from_columnar(label, &study.columnar, cadence);
    Table1 {
        weekly: stats("Rapid7-like weekly", Cadence::Weekly),
        daily: stats("OpenINTEL-like daily", Cadence::Daily),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Scale;
    use rdns_model::Weekday;

    #[test]
    fn table1_shapes() {
        let study = LeakStudy::run(&Scale::tiny());
        let t1 = table1(&study);
        assert!(t1.daily.total_responses > t1.weekly.total_responses);
        assert!(t1.daily.unique_ptrs > 0);
        assert_eq!(t1.daily.start, Some(study.columnar.days[0].date));
        let tuesdays = study
            .columnar
            .days
            .iter()
            .filter(|d| d.date.weekday() == Weekday::Tuesday);
        assert_eq!(t1.weekly.start, tuesdays.clone().next().map(|d| d.date));
        assert_eq!(
            t1.weekly.total_responses,
            tuesdays.map(|d| d.len() as u64).sum::<u64>()
        );
        let rendered = t1.render();
        assert!(rendered.contains("OpenINTEL-like daily"));
        assert!(rendered.contains("Rapid7-like weekly"));
    }
}
