//! §4 experiments: Fig. 1 and the ground-truth validation.

use crate::dynamicity::{
    identify_dynamic_par, prefix_dynamicity, summarize_fractions, ConfusionMatrix,
    DynamicityParams, FractionSummary,
};
use crate::experiments::harness::collect_series;
use crate::experiments::section5::LeakStudy;
use crate::experiments::Scale;
use crate::report::TextTable;
use rdns_model::{Date, Slash24};
use rdns_netsim::spec::{presets, DynDnsMode, SubnetRole};
use rdns_netsim::{World, WorldConfig};
use std::collections::HashSet;

/// Fig. 1 contents: dynamic-fraction distribution per announced-prefix size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// Summary rows, smallest prefix length first.
    pub rows: Vec<FractionSummary>,
    /// Total /24s seen and labelled dynamic (the §4.2 headline numbers).
    pub total_slash24s: usize,
    /// Count labelled dynamic.
    pub dynamic_slash24s: usize,
}

impl Fig1 {
    /// Render like the paper's Fig. 1 (min/median/max ticks per size).
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["announced size", "prefixes", "min", "median", "max"]);
        for r in &self.rows {
            t.row([
                format!("/{}", r.prefix_len),
                r.prefixes.to_string(),
                format!("{:.1}%", r.min * 100.0),
                format!("{:.1}%", r.median * 100.0),
                format!("{:.1}%", r.max * 100.0),
            ]);
        }
        format!(
            "{}\n{} of {} /24s labelled dynamic\n",
            t.render(),
            self.dynamic_slash24s,
            self.total_slash24s
        )
    }
}

/// Compute Fig. 1 from a leak study.
pub fn fig1(study: &LeakStudy) -> Fig1 {
    let rows = summarize_fractions(&prefix_dynamicity(
        &study.dynamicity.dynamic,
        &study.announced,
    ));
    Fig1 {
        rows,
        total_slash24s: study.dynamicity.total,
        dynamic_slash24s: study.dynamicity.dynamic.len(),
    }
}

/// The §4.1 campus validation: run the heuristic against a network with a
/// known numbering plan and compare with ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Validation {
    /// Confusion matrix over the campus /24s.
    pub matrix: ConfusionMatrix,
    /// /24s flagged dynamic.
    pub flagged: usize,
    /// /24s with dynamic addressing but fixed-form rDNS (must NOT be
    /// flagged — the 83-prefix observation).
    pub fixed_form_flagged: usize,
}

impl Validation {
    /// Render a short report.
    pub fn render(&self) -> String {
        format!(
            "flagged dynamic: {}\ntrue positives: {}  false positives: {}\n\
             false negatives: {}  true negatives: {}\n\
             precision: {:.2}  recall: {:.2}\n\
             fixed-form (DHCP, static rDNS) prefixes flagged: {}\n",
            self.flagged,
            self.matrix.true_positives,
            self.matrix.false_positives,
            self.matrix.false_negatives,
            self.matrix.true_negatives,
            self.matrix.precision(),
            self.matrix.recall(),
            self.fixed_form_flagged
        )
    }
}

/// Run the validation at the given scale against Academic-C (our campus,
/// which mixes carry-over pools, fixed-form pools and static space).
pub fn validation(scale: &Scale) -> Validation {
    let spec = presets::academic_c(scale.focus_scale.max(0.1));
    let from = Date::from_ymd(2021, 1, 1);
    let to = from.plus_days(scale.window_days as i64 - 1);

    // Ground truth from the numbering plan.
    let mut truth_dynamic: HashSet<Slash24> = HashSet::new();
    let mut fixed_form: HashSet<Slash24> = HashSet::new();
    let mut universe: HashSet<Slash24> = HashSet::new();
    for sn in &spec.subnets {
        for block in sn.prefix.slash24s() {
            universe.insert(block);
            match &sn.role {
                SubnetRole::DynamicClients {
                    dns:
                        DynDnsMode::CarryOver
                        | DynDnsMode::Hashed
                        | DynDnsMode::HashedRotating { .. },
                    ..
                } => {
                    truth_dynamic.insert(block);
                }
                SubnetRole::FixedFormDhcp { .. } => {
                    fixed_form.insert(block);
                }
                _ => {}
            }
        }
    }

    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        shards: 0,
        start: from,
        networks: vec![spec],
    });
    // Delta-collected, then streamed into the columnar view: the whole
    // window is never held in row form.
    let series = collect_series(&mut world, from, to);
    let matrix = series.to_columnar().counts_matrix();
    let params = DynamicityParams {
        min_daily_addrs: scale.min_daily_addrs,
        ..DynamicityParams::default()
    };
    let result = identify_dynamic_par(&matrix, &params);

    let fixed_form_flagged = fixed_form
        .iter()
        .filter(|b| result.dynamic.contains(b))
        .count();
    Validation {
        matrix: ConfusionMatrix::compute(&universe, &result.dynamic, &truth_dynamic),
        flagged: result.dynamic.len(),
        fixed_form_flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_matches_paper_narrative() {
        let v = validation(&Scale::tiny());
        // All carry-over pools detected, nothing else flagged.
        assert_eq!(v.matrix.false_positives, 0, "{v:?}");
        assert!(v.matrix.recall() > 0.8, "{v:?}");
        assert_eq!(
            v.fixed_form_flagged, 0,
            "fixed-form DHCP pools must read as static"
        );
        assert!(v.flagged > 0);
        assert!(v.render().contains("precision"));
    }

    #[test]
    fn fig1_rows_consistent() {
        let study = LeakStudy::run(&Scale::tiny());
        let f1 = fig1(&study);
        assert!(f1.dynamic_slash24s > 0);
        assert!(f1.dynamic_slash24s <= f1.total_slash24s);
        for r in &f1.rows {
            assert!(r.min <= r.median && r.median <= r.max);
            assert!(r.max <= 1.0);
            assert!(r.prefixes > 0);
        }
        // Generally only part of an announced prefix is dynamic (Fig. 1's
        // point): the median fraction over all sizes must be below 100%.
        let any_partial = f1.rows.iter().any(|r| r.median < 1.0);
        assert!(any_partial, "{:?}", f1.rows);
        assert!(f1.render().contains("announced size"));
    }
}
