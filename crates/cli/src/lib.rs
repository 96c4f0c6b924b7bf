#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Scenario-driven command-line front end for the `pmor` stack.
//!
//! The DATE 2005 paper's value proposition is an end-to-end flow —
//! assemble a varying interconnect system, reduce it **once**, then
//! evaluate thousands of parameter/frequency points cheaply. This crate
//! packages that flow behind one binary, `pmor`, driven by declarative
//! TOML **scenario files** (see [`scenario`] and the ready-made files
//! under `scenarios/`):
//!
//! ```text
//! pmor run    <scenario.toml>   # reduce + analyze + BENCH_*.json [+ ROMs]
//! pmor reduce <scenario.toml>   # reduce only, persist every method's ROM
//! pmor eval   <model.rom> …     # frequency sweep on a persisted ROM
//! pmor mc     <model.rom> …     # Monte-Carlo statistics on a persisted ROM
//! pmor info   <model.rom>       # describe a persisted ROM
//! pmor list                     # registered generators, methods, analyses
//! ```
//!
//! Scenarios reuse the rest of the workspace unchanged: generators from
//! `pmor-circuits`, methods through `pmor::reducer_by_name` over one
//! shared [`pmor::ReductionContext`], analyses from `pmor-variation`,
//! and `BENCH_*.json` records from `pmor-bench`. ROM persistence is
//! `pmor::rom::save`/`load` — reloaded models evaluate bit-for-bit
//! identically to the originals.

pub mod bench_cmd;
pub mod cache;
pub mod exec;
pub mod lint_cmd;
pub mod scenario;
pub mod serve_cmd;
pub mod vet_cmd;
pub use pmor_bench::toml;

pub use exec::{reduce_scenario, run_scenario, ExecReport};
pub use pmor_variation::analysis::{AnalysisConfig, AnalysisKind, ErrorMetric};
pub use scenario::{AnalysisSpec, OutputSpec, Scenario, SystemSpec};

use std::fmt;
use std::path::Path;

/// Top-level CLI error: every failure the binary reports.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Filesystem failure (reading scenarios, writing outputs).
    Io(String),
    /// Scenario schema violation or invalid request.
    Invalid(String),
    /// A reduction/analysis kernel failed.
    Pmor(String),
    /// Command-line usage error (unknown subcommand, bad flag).
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(msg) => write!(f, "i/o error: {msg}"),
            CliError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            CliError::Pmor(msg) => write!(f, "computation failed: {msg}"),
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<crate::toml::TomlError> for CliError {
    fn from(e: crate::toml::TomlError) -> Self {
        CliError::Invalid(e.to_string())
    }
}

/// Re-reads a report this run just wrote and checks it with one of the
/// `validate_*_json` validators, so a writer defect fails the run that
/// made it.
pub(crate) fn recheck_written(
    path: &Path,
    validate: fn(&str) -> Result<(), String>,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("re-reading {}: {e}", path.display())))?;
    validate(&text)
        .map_err(|e| CliError::Invalid(format!("{} failed validation: {e}", path.display())))
}

/// Validates every file in `paths` with the validator `pick` chooses
/// for its path, printing one verdict per file. Every file is checked
/// before the verdict: the error names *all* invalid files, not just
/// the first, so one broken report cannot hide the rest.
pub(crate) fn validate_all(
    paths: &[String],
    flag: &str,
    pick: impl Fn(&str) -> fn(&str) -> Result<(), String>,
) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(CliError::Usage(format!("{flag} needs at least one file")));
    }
    let mut failures = Vec::new();
    for path in paths {
        let verdict = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| {
                pick(path)(&text).map_err(|e| format!("{path} failed validation: {e}"))
            });
        match verdict {
            Ok(()) => println!("# {path}: ok"),
            Err(msg) => {
                println!("# {path}: INVALID");
                failures.push(msg);
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CliError::Invalid(format!(
            "{} of {} files failed validation:\n  {}",
            failures.len(),
            paths.len(),
            failures.join("\n  ")
        )))
    }
}
