//! End-to-end benchmark of the rdns-privacy system.
//!
//! See `README.md` in this directory for the workloads, the metric
//! catalogue and how to read a trace. The catalogue itself is
//! `BENCHMARK.json` at the repository root, compiled in as [`CATALOG`].

pub mod catalog;
pub mod compare;
pub mod load;
pub mod report;
pub mod reproduce;
pub mod sys;
pub mod trace;
pub mod workload;

/// The repository's `BENCHMARK.json`.
pub const CATALOG: &str = include_str!("../../BENCHMARK.json");
