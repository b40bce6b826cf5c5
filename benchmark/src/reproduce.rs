//! The researcher's end-to-end run: `reproduce` as a child process, with its
//! output checked against the committed paper-scale result.

use crate::sys::{wait_child, Usage};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Every experiment `reproduce` knows except `serve`, grouped as it
/// computes them: one group per shared study or standalone figure. The
/// serve lane is left out because it is a fixed-length load test whose
/// printed counts depend on wall-clock timing, and the benchmark measures
/// the serve path itself. The traced run times each group in a child of its
/// own to attribute the end-to-end time.
pub const GROUPS: [(&str, &[&str]); 9] = [
    (
        "leak",
        &["table1", "fig1", "fig2", "fig3", "fig4", "table2"],
    ),
    ("validation", &["validation"]),
    (
        "supplemental",
        &["table3", "table4", "table5", "fig6", "fig7a", "fig7b"],
    ),
    ("fig8", &["fig8"]),
    ("fig9", &["fig9"]),
    ("fig10", &["fig10"]),
    ("fig11", &["fig11"]),
    ("claims", &["claims"]),
    ("ablation", &["ablation"]),
];

/// Every experiment of [`GROUPS`].
pub fn experiments() -> Vec<&'static str> {
    GROUPS.iter().flat_map(|(_, e)| e.iter().copied()).collect()
}

/// The verdict line `reproduce` prints when every paper claim holds.
pub const VERDICT_OK: &str = "verdict: all five contributions reproduced";

/// The repository root: the benchmark package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark package lives inside the repository")
        .to_path_buf()
}

/// Build `reproduce` in release mode with the repository's own manifest and
/// return the executable's path. Cargo leaves it in `CARGO_TARGET_DIR` (taken
/// relative to the repository root) or in `target/`.
pub fn ensure_built() -> Result<PathBuf, String> {
    let root = repo_root();
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "rdns-bench",
            "--bin",
            "reproduce",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build reproduce: {e}"))?;
    if !status.success() {
        return Err(format!("building reproduce failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("reproduce");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "reproduce was built but {} is missing",
            bin.display()
        ))
    }
}

/// One finished `reproduce` child.
#[derive(Debug)]
pub struct ChildRun {
    /// Everything it printed on standard output.
    pub stdout: String,
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Its own CPU time and peak resident set.
    pub usage: Usage,
}

/// Run `reproduce <scale> <experiments...>` to completion.
pub fn run(bin: &Path, scale: &str, experiments: &[&str]) -> Result<ChildRun, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .arg(scale)
        .args(experiments)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let (status, usage) = wait_child(&child).map_err(|e| format!("waiting for reproduce: {e}"))?;
    let wall = started.elapsed();
    read.map_err(|e| format!("reading reproduce output: {e}"))?;
    if !status.success() {
        return Err(format!("reproduce {scale} exited with {status}"));
    }
    Ok(ChildRun {
        stdout,
        wall,
        usage,
    })
}

/// The lines of a `reproduce` transcript that are a pure function of the
/// seed: bracketed lines carry wall-clock timings and are dropped.
fn seeded_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.starts_with('['))
}

/// Check a paper-scale transcript without the serve lane against the
/// committed one (`reproduce_paper_output.txt`), which ends with that lane:
/// every seeded line before the serve banner must match exactly.
pub fn check_paper_output(stdout: &str, golden: &str) -> Result<(), String> {
    let golden: Vec<&str> = seeded_lines(golden).collect();
    let banner = golden
        .iter()
        .position(|l| l.starts_with("Serve path"))
        .ok_or("the committed transcript has no serve banner")?;
    // The banner is preceded by a blank line and a rule.
    let expected = &golden[..banner.saturating_sub(2)];
    let got: Vec<&str> = seeded_lines(stdout).collect();
    if let Some(i) = (0..expected.len().max(got.len())).find(|&i| expected.get(i) != got.get(i)) {
        return Err(format!(
            "paper output differs from reproduce_paper_output.txt at seeded line {}: expected {:?}, got {:?}",
            i + 1,
            expected.get(i).copied().unwrap_or("<end>"),
            got.get(i).copied().unwrap_or("<end>")
        ));
    }
    Ok(())
}

/// Read the committed paper-scale transcript.
pub fn golden() -> io::Result<String> {
    std::fs::read_to_string(repo_root().join("reproduce_paper_output.txt"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = "# header\n[leak study: 1s]\n\n====\nTable 1\n====\nrow 1\n\n====\nServe path — x\n====\noffered\n[total: 2s]\n";

    #[test]
    fn matching_transcript_passes_and_timings_are_ignored() {
        let run = "# header\n\n====\nTable 1\n====\n[leak study: 9s]\nrow 1\n[total: 5s]\n";
        assert_eq!(check_paper_output(run, GOLDEN), Ok(()));
    }

    #[test]
    fn missing_or_extra_lines_fail() {
        assert!(check_paper_output("# header\n\n====\nTable 1\n====\n", GOLDEN).is_err());
        let extra = "# header\n\n====\nTable 1\n====\nrow 1\nrow 2\n";
        assert!(check_paper_output(extra, GOLDEN).is_err());
    }
}
