//! Monte-Carlo accuracy analysis of parametric reduced models.
//!
//! Reproduces the paper's §5.3 protocol: draw parameter instances from the
//! configured distributions, evaluate the `n` most dominant poles of the
//! perturbed **full** model and of the **reduced** parametric model at each
//! instance, and collect the relative errors ("the error distribution in
//! these poles across all the instances is plotted in Fig. 5").
//!
//! Both models are consumed as [`TransferModel`]s, so the ROM is reduced
//! once up front and analyzed many times. Instance evaluation is
//! embarrassingly parallel and runs on the batched [`EvalEngine`] —
//! deterministic, because the sample points are pre-drawn by
//! [`MonteCarlo::sample_points`] and the engine stitches results back in
//! sample order regardless of thread count. The registry-dispatched form
//! every front end shares, [`crate::analysis::MonteCarloAnalysis`], runs
//! on this same sampler and pole kernel.
//!
//! # Example
//!
//! ```
//! use pmor::eval::FullModel;
//! use pmor::lowrank::LowRankPmor;
//! use pmor::Reducer;
//! use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
//! use pmor_variation::MonteCarlo;
//!
//! # fn main() -> Result<(), pmor::PmorError> {
//! let sys = clock_tree(&ClockTreeConfig { num_nodes: 30, ..Default::default() })
//!     .assemble();
//! let rom = LowRankPmor::with_defaults().reduce_once(&sys)?;
//! // The paper's ±30% (3σ) metal-width protocol over all 3 parameters.
//! let mc = MonteCarlo::paper_protocol(sys.num_params(), 5);
//! let report = mc.pole_errors(&mc.engine(), &FullModel::new(&sys), &rom, 2)?;
//! assert_eq!(report.errors_percent.len(), 5 * 2); // instances × poles
//! assert!(report.max_percent() < 1.0); // sub-percent dominant-pole error
//! # Ok(())
//! # }
//! ```

use crate::dist::ParameterDistribution;
use crate::stats::{histogram, Bin, Summary};
use pmor::eval::pole_errors;
use pmor::{EvalEngine, Result, TransferModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarlo {
    /// One distribution per variational parameter.
    pub distributions: Vec<ParameterDistribution>,
    /// Number of sampled circuit instances.
    pub instances: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for instance evaluation; `0` means use the
    /// machine's available parallelism.
    pub threads: usize,
}

impl MonteCarlo {
    /// The paper's metal-width protocol over `np` parameters: ±30 % at 3σ.
    pub fn paper_protocol(np: usize, instances: usize) -> Self {
        MonteCarlo {
            distributions: vec![ParameterDistribution::paper_metal_width(); np],
            instances,
            seed: 0x3C0,
            threads: 0,
        }
    }

    /// Draws the deterministic sample-point list.
    pub fn sample_points(&self) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.instances)
            .map(|_| {
                self.distributions
                    .iter()
                    .map(|d| d.sample(&mut rng))
                    .collect()
            })
            .collect()
    }

    /// The batched evaluation engine this configuration runs on.
    pub fn engine(&self) -> EvalEngine {
        EvalEngine::new(self.threads)
    }

    /// The effective worker count: the configured `threads`, or available
    /// parallelism when 0, never more than one worker per instance.
    pub fn worker_count(&self) -> usize {
        self.engine().worker_count(self.instances)
    }

    /// Compares the `num_poles` most dominant poles of the full and
    /// reduced models at every sampled instance, evaluated on `engine`.
    ///
    /// # Errors
    ///
    /// Fails when a sampled instance is singular or an eigensolve stalls.
    pub fn pole_errors(
        &self,
        engine: &EvalEngine,
        full: &dyn TransferModel,
        rom: &dyn TransferModel,
        num_poles: usize,
    ) -> Result<PoleErrorReport> {
        let points = self.sample_points();
        let per_instance = engine.map(&points, |p, _ws| {
            instance_pole_errors(full, rom, p, num_poles)
        })?;
        let per_instance_max = per_instance
            .iter()
            .map(|percents| percents.iter().copied().fold(0.0, f64::max))
            .collect();
        Ok(PoleErrorReport {
            errors_percent: per_instance.into_iter().flatten().collect(),
            per_instance_max,
            num_poles,
        })
    }
}

/// Relative errors, in percent, of the `num_poles` most dominant full-model
/// poles at `p` against their nearest reduced-model partners — the one
/// per-instance pole kernel every analysis shares.
pub(crate) fn instance_pole_errors(
    full: &dyn TransferModel,
    rom: &dyn TransferModel,
    p: &[f64],
    num_poles: usize,
) -> Result<Vec<f64>> {
    let reference = full.dominant_poles(p, num_poles)?;
    // Give the matcher a deeper candidate list than the reference so
    // near-degenerate reference poles both find their partner.
    let candidate = rom.dominant_poles(p, 2 * num_poles + 4)?;
    Ok(pole_errors(&reference, &candidate)
        .into_iter()
        .map(|e| 100.0 * e)
        .collect())
}

/// Collected pole-error data (all values in **percent**).
#[derive(Debug, Clone, PartialEq)]
pub struct PoleErrorReport {
    /// One relative error per (instance × tracked pole).
    pub errors_percent: Vec<f64>,
    /// Worst pole error per instance.
    pub per_instance_max: Vec<f64>,
    /// Number of dominant poles tracked.
    pub num_poles: usize,
}

impl PoleErrorReport {
    /// Summary statistics of the pooled errors.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.errors_percent)
    }

    /// Histogram of the pooled errors (the paper's Fig 5/6 left plots).
    pub fn histogram(&self, nbins: usize) -> Vec<Bin> {
        histogram(&self.errors_percent, nbins)
    }

    /// Largest relative error over every pole and instance, in percent —
    /// the "maximum error out of 1000 poles" headline of §5.3.
    pub fn max_percent(&self) -> f64 {
        self.errors_percent.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmor::eval::FullModel;
    use pmor::lowrank::{LowRankOptions, LowRankPmor};
    use pmor::Reducer;
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};
    use pmor_circuits::ParametricSystem;

    fn tree(n: usize) -> ParametricSystem {
        clock_tree(&ClockTreeConfig {
            num_nodes: n,
            ..Default::default()
        })
        .assemble()
    }

    #[test]
    fn sample_points_deterministic_and_bounded() {
        let mc = MonteCarlo::paper_protocol(3, 50);
        let a = mc.sample_points();
        let b = mc.sample_points();
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for p in &a {
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|x| x.abs() <= 0.3));
        }
    }

    #[test]
    fn lowrank_rom_pole_errors_are_small() {
        let sys = tree(40);
        let rom = LowRankPmor::new(LowRankOptions {
            s_order: 8,
            param_order: 3,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap();
        let mc = MonteCarlo::paper_protocol(3, 10);
        let report = mc
            .pole_errors(&mc.engine(), &FullModel::new(&sys), &rom, 5)
            .unwrap();
        assert_eq!(report.errors_percent.len(), 50);
        assert_eq!(report.per_instance_max.len(), 10);
        // The paper reports sub-percent dominant-pole errors.
        assert!(
            report.max_percent() < 1.0,
            "max pole error {}%",
            report.max_percent()
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sys = tree(30);
        let full = FullModel::new(&sys);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let mc = MonteCarlo::paper_protocol(3, 9);
        let serial = mc.pole_errors(&EvalEngine::new(1), &full, &rom, 3).unwrap();
        let parallel = mc.pole_errors(&EvalEngine::new(4), &full, &rom, 3).unwrap();
        assert_eq!(serial, parallel);
        // More workers than instances is fine too.
        let oversubscribed = mc
            .pole_errors(&EvalEngine::new(64), &full, &rom, 3)
            .unwrap();
        assert_eq!(serial, oversubscribed);
    }

    #[test]
    fn report_histogram_covers_all_errors() {
        let sys = tree(30);
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let mc = MonteCarlo::paper_protocol(3, 8);
        let report = mc
            .pole_errors(&mc.engine(), &FullModel::new(&sys), &rom, 3)
            .unwrap();
        let bins = report.histogram(10);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, report.errors_percent.len());
    }
}
