//! `rdns-benchmark`: one ruler for the whole system.
//!
//! ```text
//! rdns-benchmark --workload <paper|scale> --seed N --seconds S --trace 0|1 [--smoke]
//! rdns-benchmark run [--seed N] [--seconds S] [--out run.json] [--trace trace.json] [--smoke]
//! rdns-benchmark compare A.json... -- B.json...
//! ```
//!
//! The first form runs one workload and prints, last, one JSON line with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `run` runs every workload in a child process of its own
//! and prints `workload metric value unit` lines. `compare` sets two groups
//! of run files side by side.

use rdns_benchmark::catalog::Catalog;
use rdns_benchmark::compare::compare;
use rdns_benchmark::report::{RunFile, RunResult};
use rdns_benchmark::trace::json_str;
use rdns_benchmark::workload::{self, Options, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  rdns-benchmark --workload <paper|scale> --seed N --seconds S --trace 0|1 [--smoke]
  rdns-benchmark run [--seed N] [--seconds S] [--out run.json] [--trace trace.json] [--smoke]
  rdns-benchmark compare A.json... -- B.json...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = match Catalog::parse(rdns_benchmark::CATALOG) {
        Ok(c) => c,
        Err(e) => return fail(&format!("BENCHMARK.json: {e}")),
    };
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&catalog, &args[1..]),
        Some("compare") => compare_files(&catalog, &args[1..]),
        Some(_) => run_one(&catalog, &args),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("rdns-benchmark: {message}");
    ExitCode::from(2)
}

/// `--flag value` pairs after the subcommand.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}")))
            .transpose()
    }

    /// Reject any argument that is not a flag of `with_value` (followed by
    /// its value) or of `bare`.
    fn only(&self, with_value: &[&str], bare: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while let Some(a) = self.0.get(i) {
            if with_value.contains(&a.as_str()) {
                if self.0.get(i + 1).is_none() {
                    return Err(format!("{a} needs a value\n{USAGE}"));
                }
                i += 2;
            } else if bare.contains(&a.as_str()) {
                i += 1;
            } else {
                return Err(format!("unexpected argument {a:?}\n{USAGE}"));
            }
        }
        Ok(())
    }
}

/// Run one workload in this process; the contract form.
fn run_one(catalog: &Catalog, args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    flags.only(
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--smoke"],
    )?;
    let workload = flags
        .value("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let seconds = flags
        .parsed::<f64>("--seconds")?
        .unwrap_or(catalog.run_seconds as f64);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let opts = Options {
        workload: workload.to_string(),
        seed: flags.parsed("--seed")?.unwrap_or(1),
        seconds,
        trace,
        smoke: flags.has("--smoke"),
    };
    let outcome = workload::run(&opts)?;
    for note in &outcome.notes {
        println!("{workload} note {note}");
    }
    if let Some(spans) = &outcome.trace_json {
        println!("{workload} trace {spans}");
    }
    let measured = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut metrics = Vec::new();
    for spec in catalog.reported(trace) {
        let m = measured
            .iter()
            .find(|m| m.name == spec.name)
            .ok_or_else(|| format!("workload {workload} did not measure {}", spec.name))?;
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
        metrics.push(m.clone());
    }
    if let Some(extra) = measured
        .iter()
        .find(|m| !catalog.reported(trace).iter().any(|s| s.name == m.name))
    {
        return Err(format!(
            "{} is measured but not in BENCHMARK.json",
            extra.name
        ));
    }
    for failure in &outcome.failures {
        eprintln!("check failed: {failure}");
    }
    let result = RunResult {
        correct: outcome.failures.is_empty(),
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    };
    println!("{}", result.to_json());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload run in a child process: its result and its other lines.
struct ChildResult {
    result: RunResult,
    lines: Vec<String>,
    wall_s: f64,
}

fn spawn_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let started = Instant::now();
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run workload {workload}: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("workload {workload} printed nothing ({})", output.status))?;
    let result = RunResult::parse(&last).map_err(|e| {
        format!(
            "workload {workload} ({}): bad result line: {e}",
            output.status
        )
    })?;
    Ok(ChildResult {
        result,
        lines,
        wall_s,
    })
}

/// `run`: every workload, each in its own child process.
fn run_all(catalog: &Catalog, args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    flags.only(&["--seed", "--seconds", "--out", "--trace"], &["--smoke"])?;
    let seed = flags.parsed::<u64>("--seed")?.unwrap_or(1);
    let seconds = flags
        .parsed::<f64>("--seconds")?
        .unwrap_or(catalog.run_seconds as f64);
    let smoke = flags.has("--smoke");
    let mut all_correct = true;
    let mut file = RunFile {
        seed,
        results: Vec::new(),
    };
    let mut traces = Vec::new();
    for workload in WORKLOADS {
        let mut plain = spawn_workload(workload, seed, seconds, false, smoke)?;
        for m in &plain.result.metrics {
            println!("{workload} {} {} {}", m.name, m.value, m.unit);
        }
        if flags.has("--trace") {
            let traced = spawn_workload(workload, seed, seconds, true, smoke)?;
            for line in &traced.lines {
                if let Some(spans) = line.strip_prefix(&format!("{workload} trace ")) {
                    traces.push(format!(
                        "{{\"workload\":{},\"overhead_s\":{:.3},\"trace\":{spans}}}",
                        json_str(workload),
                        traced.wall_s - plain.wall_s
                    ));
                } else {
                    println!("{line}");
                }
            }
            for m in &traced.result.metrics {
                println!("{workload} {} {} {}", m.name, m.value, m.unit);
            }
            println!(
                "{workload} tracing_overhead_s {:.3} s (traced {:.3} s, untraced {:.3} s)",
                traced.wall_s - plain.wall_s,
                traced.wall_s,
                plain.wall_s
            );
            // One result per workload in the run file: the end-to-end
            // metrics of the untraced run and the per-layer ones of the
            // traced run.
            plain.result.correct &= traced.result.correct;
            plain.result.attempted += traced.result.attempted;
            plain.result.failed += traced.result.failed;
            plain.result.metrics.extend(traced.result.metrics);
        }
        all_correct &= plain.result.correct;
        file.results.push((workload.to_string(), plain.result));
    }
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, file.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = flags.value("--trace") {
        let body = format!(
            "{{\"seed\":{seed},\"workloads\":[\n{}\n]}}\n",
            traces.join(",\n")
        );
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if !all_correct {
        eprintln!("rdns-benchmark: an output check failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `compare A.json... -- B.json...`.
fn compare_files(catalog: &Catalog, args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or_else(|| format!("compare needs `--` between the two sides\n{USAGE}"))?;
    let load = |paths: &[String]| -> Result<Vec<RunFile>, String> {
        paths
            .iter()
            .map(|p| {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                RunFile::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("each side of compare needs at least one run file".into());
    }
    let (report, _) = compare(catalog, &a, &b);
    print!("{report}");
    Ok(ExitCode::SUCCESS)
}
