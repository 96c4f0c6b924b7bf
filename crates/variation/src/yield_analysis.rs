//! Monte-Carlo parametric yield at reduced-model cost — the `yield`
//! entry of the [`AnalysisKind`] registry.
//!
//! Given a bandwidth specification ("the dominant pole magnitude must stay
//! above a floor"), estimate the fraction of manufactured instances that
//! pass. Only the reduced model is evaluated per instance, which is what
//! makes Monte-Carlo yield sweeps affordable in the first place.
//!
//! # Example
//!
//! ```
//! use pmor::eval::FullModel;
//! use pmor::{EvalEngine, Reducer};
//! use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
//! use pmor_variation::analysis::Analysis;
//! use pmor_variation::yield_analysis::YieldAnalysis;
//!
//! # fn main() -> Result<(), pmor::PmorError> {
//! let sys = clock_tree(&ClockTreeConfig { num_nodes: 30, ..Default::default() }).assemble();
//! let rom = pmor::reducer_by_name("lowrank", &sys).unwrap().reduce_once(&sys)?;
//! // Bandwidth floor so loose that every ±30% instance passes.
//! let analysis = YieldAnalysis {
//!     instances: 25,
//!     sigma: 0.1,
//!     seed: 0x3C0,
//!     min_pole_rad_s: Some(1.0),
//!     margin: 0.5,
//! };
//! let report = analysis.run(&EvalEngine::serial(), &FullModel::new(&sys), &rom)?;
//! assert_eq!(report.metric_value("yield_fraction"), Some(1.0));
//! assert_eq!(report.metric_value("instances"), Some(25.0));
//! # Ok(())
//! # }
//! ```

use crate::analysis::{invalid, sampler, Analysis, AnalysisKind, AnalysisReport};
use pmor::{EvalEngine, Result, TransferModel};
use std::time::Instant; // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"

/// Monte-Carlo parametric yield at reduced-model cost: the fraction of
/// sampled instances whose dominant pole magnitude stays above a
/// bandwidth floor (absolute, or relative to the reduced model's nominal
/// bandwidth).
#[derive(Debug, Clone, PartialEq)]
pub struct YieldAnalysis {
    /// Number of sampled instances.
    pub instances: usize,
    /// Per-parameter sigma of the ±3σ-truncated normal.
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
    /// Absolute pass threshold, rad/s. `None` = `margin` × nominal.
    pub min_pole_rad_s: Option<f64>,
    /// Relative threshold used when `min_pole_rad_s` is absent.
    pub margin: f64,
}

impl Analysis for YieldAnalysis {
    fn name(&self) -> &'static str {
        AnalysisKind::Yield.name()
    }

    fn run(
        &self,
        engine: &EvalEngine,
        full: &dyn TransferModel,
        rom: &dyn TransferModel,
    ) -> Result<AnalysisReport> {
        // pmor-lint: allow(det-wallclock) reason="wall-clock here is measurement output (elapsed/speedup report metadata), never an input to numerics"
        let start = Instant::now();
        let np = full.num_params();
        let threshold = match self.min_pole_rad_s {
            Some(v) => v,
            None => {
                // Spec relative to this model's nominal bandwidth: pass
                // while the dominant pole stays within `margin` of nominal.
                let nominal = rom.dominant_poles(&vec![0.0; np], 1)?;
                let Some(first) = nominal.first() else {
                    return Err(invalid(
                        "model has no finite poles to build a yield spec from",
                    ));
                };
                self.margin * first.abs()
            }
        };
        let points = sampler(np, self.instances, self.sigma, self.seed).sample_points();
        let passes: Vec<bool> = engine.map(&points, |p, _ws| {
            let poles = rom.dominant_poles(p, 1)?;
            Ok(poles.first().is_some_and(|z| z.abs() >= threshold))
        })?;
        let n = passes.len();
        let pass = passes.iter().filter(|&&b| b).count();
        let y = pass as f64 / n.max(1) as f64;
        let std_error = (y * (1.0 - y) / n.max(1) as f64).sqrt();
        let mut report = AnalysisReport::new(self.name())
            .metric("instances", n as f64)
            .metric("yield_fraction", y)
            .metric("yield_std_error", std_error)
            .metric("threshold_rad_s", threshold);
        report.lines.push(format!(
            "yield {:.1}% ± {:.1}% over {n} instances (|λ₁| ≥ {threshold:.3e} rad/s)",
            100.0 * y,
            100.0 * std_error
        ));
        let secs = start.elapsed().as_secs_f64();
        Ok(report.stamp(engine, full, rom, n, n, secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor::eval::FullModel;
    use pmor::lowrank::{LowRankOptions, LowRankPmor};
    use pmor::{ParametricRom, Reducer};
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::ParametricSystem;

    fn tree() -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: 40,
            ..Default::default()
        })
        .assemble()
    }

    fn rom(sys: &ParametricSystem) -> ParametricRom {
        LowRankPmor::new(LowRankOptions {
            s_order: 5,
            param_order: 2,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(sys)
        .unwrap()
    }

    /// The paper's protocol (±30 % 3σ metal widths) against an absolute
    /// bandwidth floor; returns `(yield, std error, instances)`.
    fn estimate(
        sys: &ParametricSystem,
        rom: &ParametricRom,
        instances: usize,
        min: f64,
    ) -> (f64, f64, f64) {
        let report = YieldAnalysis {
            instances,
            sigma: 0.1,
            seed: 0x3C0,
            min_pole_rad_s: Some(min),
            margin: 0.5,
        }
        .run(&EvalEngine::new(2), &FullModel::new(sys), rom)
        .unwrap();
        let m = |name| report.metric_value(name).unwrap();
        (m("yield_fraction"), m("yield_std_error"), m("instances"))
    }

    #[test]
    fn trivially_loose_spec_yields_one() {
        let sys = tree();
        let rom = rom(&sys);
        assert_eq!(estimate(&sys, &rom, 30, 1.0), (1.0, 0.0, 30.0));
    }

    #[test]
    fn impossible_spec_yields_zero() {
        let sys = tree();
        let rom = rom(&sys);
        assert_eq!(estimate(&sys, &rom, 30, 1e30), (0.0, 0.0, 30.0));
    }

    #[test]
    fn marginal_spec_yields_strictly_between() {
        // Put the threshold at the nominal dominant-pole magnitude: roughly
        // half the instances should pass.
        let sys = tree();
        let rom = rom(&sys);
        let nominal = rom.dominant_poles(&[0.0; 3], 1).unwrap()[0].abs();
        let (y, std_error, instances) = estimate(&sys, &rom, 120, nominal);
        assert!(y > 0.15 && y < 0.85, "yield {y} not marginal");
        assert!(std_error > 0.0);
        assert_eq!(instances, 120.0);
    }
}
