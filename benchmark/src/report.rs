//! The result line each run prints last, and the run files `run --out`
//! writes and `compare` reads.

use crate::trace::json_str;
use crate::workload::Measured;
use serde::Value;

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output check held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Measured>,
}

/// A metric value as JSON: every digit Rust's shortest round-trip form
/// keeps. JSON has no infinity; a latency quantile that falls on a failed
/// query (only in a run that is already incorrect) is written as the
/// largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

impl RunResult {
    /// One-line JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_number(m.value),
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a result object.
    pub fn from_value(v: &Value) -> Result<RunResult, String> {
        let count = |key: &str| match v.field(key) {
            Value::U64(n) => Ok(*n),
            _ => Err(format!("result field {key} must be a whole number")),
        };
        let Value::Bool(correct) = v.field("correct") else {
            return Err("result field correct must be a boolean".into());
        };
        let Value::Map(entries) = v.field("metrics") else {
            return Err("result field metrics must be an object".into());
        };
        let metrics = entries
            .iter()
            .map(|(k, m)| {
                let Value::Str(name) = k else {
                    return Err("metric names must be strings".to_string());
                };
                let value = match m.field("value") {
                    Value::U64(n) => *n as f64,
                    Value::I64(n) => *n as f64,
                    Value::F64(f) => *f,
                    _ => return Err(format!("{name}: value must be a number")),
                };
                let Value::Str(unit) = m.field("unit") else {
                    return Err(format!("{name}: unit must be a string"));
                };
                Ok(Measured {
                    name: name.clone(),
                    value,
                    unit: unit.clone(),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(RunResult {
            correct: *correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// Parse a result line.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v: Value = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
        RunResult::from_value(&v)
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// A run file: the seed and one result per workload.
#[derive(Debug, Clone)]
pub struct RunFile {
    /// Seed of the run.
    pub seed: u64,
    /// `(workload, result)` pairs.
    pub results: Vec<(String, RunResult)>,
}

impl RunFile {
    /// Pretty-enough JSON: one workload per line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .results
            .iter()
            .map(|(w, r)| format!("    {}: {}", json_str(w), r.to_json()))
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"results\": {{\n{}\n  }}\n}}\n",
            self.seed,
            body.join(",\n")
        )
    }

    /// Parse a run file.
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::U64(seed) = v.field("seed") else {
            return Err("run file needs a whole-number seed".into());
        };
        let Value::Map(entries) = v.field("results") else {
            return Err("run file needs a results object".into());
        };
        let results = entries
            .iter()
            .map(|(k, r)| match k {
                Value::Str(w) => Ok((w.clone(), RunResult::from_value(r)?)),
                _ => Err("workload names must be strings".to_string()),
            })
            .collect::<Result<_, _>>()?;
        Ok(RunFile {
            seed: *seed,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![Measured {
                name: "p50_light_us".into(),
                value: 312.125,
                unit: "us".into(),
            }],
        };
        let line = r.to_json();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"p50_light_us": {"value": 312.125, "unit": "us"}}}"#
        );
        assert_eq!(RunResult::parse(&line), Ok(r.clone()));
        let file = RunFile {
            seed: 3,
            results: vec![("paper".into(), r)],
        };
        let back = RunFile::parse(&file.to_json()).expect("run file parses");
        assert_eq!(back.seed, 3);
        assert_eq!(back.results, file.results);
    }
}
