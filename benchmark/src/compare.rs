//! `compare A.json… -- B.json…`: for each workload and end-to-end metric,
//! each side's median and quartiles and a verdict under the metric's bound.

use crate::catalog::{Better, Catalog, MetricSpec};
use crate::report::RunFile;

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` (the
    /// default "exclusive" method) computes them. Needs two or more values;
    /// a single value is its own quartiles.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut d = values.to_vec();
        d.sort_by(f64::total_cmp);
        let len = d.len();
        assert!(len > 0, "quartiles of nothing");
        if len == 1 {
            return Quartiles {
                q1: d[0],
                median: d[0],
                q3: d[0],
            };
        }
        let m = len + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// How the second side compares with the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond the first side's own run-to-run spread.
    Better,
    /// Neither better nor worse by more than the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// One side's spread is wider than the bound, and the runs overlap.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare baseline runs `a` with candidate runs `b` of one metric.
///
/// * If either side's interquartile spread exceeds the bound, the verdict
///   is `unresolved` — unless every run of one side beats every run of the
///   other, which settles it either way.
/// * `worse` when the candidate median is worse than the baseline median
///   by more than the bound.
/// * `better` when the candidate median is better by more than the
///   baseline's interquartile distance and the candidate wins at least nine
///   tenths of all (baseline, candidate) pairs.
/// * Otherwise `same`.
///
/// A per-layer metric has no bound: it is `better` or `worse` only when
/// every run of one side beats every run of the other, `same` when every
/// pair ties, and `unresolved` otherwise.
pub fn verdict(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    // Signed improvement of `y` over `x`: positive is better.
    let gain = |x: f64, y: f64| match spec.better {
        Better::Lower => x - y,
        Better::Higher => y - x,
    };
    let pairs = (a.len() * b.len()) as f64;
    let wins = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| gain(x, y)))
        .filter(|g| *g > 0.0)
        .count() as f64;
    let losses = a
        .iter()
        .flat_map(|&x| b.iter().map(move |&y| gain(x, y)))
        .filter(|g| *g < 0.0)
        .count() as f64;
    let Some(bound) = spec.bound else {
        return if wins == pairs {
            Verdict::Better
        } else if losses == pairs {
            Verdict::Worse
        } else if wins + losses == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    };
    if qa.spread() > bound || qb.spread() > bound {
        return if wins == pairs {
            Verdict::Better
        } else if losses == pairs {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = gain(qa.median, qb.median) / qa.median.abs().max(f64::MIN_POSITIVE);
    if change < -bound {
        Verdict::Worse
    } else if gain(qa.median, qb.median) > qa.q3 - qa.q1 && wins >= 0.9 * pairs {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Render the comparison of two sets of run files, every catalogued metric
/// that both sides measured (per-layer ones come from traced runs). Returns
/// the report and whether any end-to-end metric came out `worse`.
pub fn compare(catalog: &Catalog, a: &[RunFile], b: &[RunFile]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    out.push_str(&format!(
        "{:<8} {:<30} {:>12} {:>25} {:>12} {:>25}  verdict\n",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3"
    ));
    for workload in &catalog.workloads {
        for spec in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            let values = |files: &[RunFile]| -> Vec<f64> {
                files
                    .iter()
                    .flat_map(|f| f.results.iter())
                    .filter(|(w, _)| w == workload)
                    .filter_map(|(_, r)| r.get(&spec.name))
                    .collect()
            };
            let (va, vb) = (values(a), values(b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (qa, qb) = (Quartiles::of(&va), Quartiles::of(&vb));
            let v = verdict(spec, &va, &vb);
            any_worse |= v == Verdict::Worse && spec.bound.is_some();
            let bound = spec
                .bound
                .map_or("no bound".to_string(), |b| format!("bound {b}"));
            out.push_str(&format!(
                "{:<8} {:<30} {:>12.4} {:>12.4}..{:<11.4} {:>12.4} {:>12.4}..{:<11.4}  {} ({bound}, spread {:.3}/{:.3})\n",
                workload,
                spec.name,
                qa.median,
                qa.q1,
                qa.q3,
                qb.median,
                qb.q1,
                qb.q3,
                v.label(),
                qa.spread(),
                qb.spread()
            ));
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }
}
