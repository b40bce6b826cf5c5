//! The metric catalogue in `BENCHMARK.json`: which workloads exist, which
//! metrics each run reports, their units, directions and regression bounds.

use serde::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics every untraced run reports.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics every traced run reports.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then up to 63 letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, String> {
    match v {
        Value::Str(s) => Ok(s),
        _ => Err(format!("{what} must be a string")),
    }
}

fn as_seq<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], String> {
    match v {
        Value::Seq(items) => Ok(items),
        _ => Err(format!("{what} must be a list")),
    }
}

fn metrics(v: &Value, what: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    as_seq(v, what)?
        .iter()
        .map(|m| {
            let name = as_str(m.field("name"), "metric name")?.to_string();
            let better = match as_str(m.field("better"), "better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, not {other}"
                    ))
                }
            };
            let bound = if bounded {
                Some(as_f64(m.field("bound")).ok_or(format!("{name}: bound must be a number"))?)
            } else {
                None
            };
            Ok(MetricSpec {
                unit: as_str(m.field("unit"), "unit")?.to_string(),
                name,
                better,
                bound,
            })
        })
        .collect()
}

impl Catalog {
    /// Parse a `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let workloads = as_seq(root.field("workloads"), "workloads")?
            .iter()
            .map(|w| as_str(w.field("name"), "workload name").map(str::to_string))
            .collect::<Result<_, _>>()?;
        Ok(Catalog {
            workloads,
            end_to_end: metrics(root.field("end_to_end"), "end_to_end", true)?,
            per_layer: metrics(root.field("per_layer"), "per_layer", false)?,
            run_seconds: as_f64(root.field("run_seconds")).ok_or("run_seconds must be a number")?
                as u64,
        })
    }

    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn reported(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
