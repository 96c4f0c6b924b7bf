#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Process-variation analysis on top of the `pmor` reduction stack.
//!
//! The paper's §5.3 experiments draw metal-width variations from scaled
//! normal distributions ("we independently vary the three metal line widths
//! up to 30% (3σ variations) of the nominal values according to the normal
//! distribution"), evaluate full and reduced models at every sampled
//! instance, and report the distribution of relative pole errors. This
//! crate packages that protocol:
//!
//! * [`dist`] — parameter distributions (normal with 3σ truncation,
//!   uniform),
//! * [`montecarlo`] — the instance sampler and the per-instance
//!   pole-error kernel,
//! * [`sweep`] — deterministic spacing and grid helpers,
//! * [`stats`] — summary statistics and histogram binning,
//! * [`analysis`] — the **one analysis path**: the [`Analysis`] trait
//!   run against two `TransferModel`s on a batched `EvalEngine`, and the
//!   [`AnalysisKind`] registry (symmetric to `pmor`'s
//!   `Reducer`/`ReducerKind`) front ends dispatch by name. Monte-Carlo,
//!   corner-sweep (the right-hand plots of Figs 5–6) and yield error
//!   computations live only here, with [`yield_analysis`] holding the
//!   registry's `yield` entry.

pub mod analysis;
pub mod dist;
pub mod montecarlo;
pub mod stats;
pub mod sweep;
pub mod yield_analysis;

pub use analysis::{
    analysis_by_name, Analysis, AnalysisConfig, AnalysisKind, AnalysisReport, ErrorMetric,
};
pub use dist::ParameterDistribution;
pub use montecarlo::{MonteCarlo, PoleErrorReport};
pub use stats::{histogram, Summary};
