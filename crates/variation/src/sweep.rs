//! Deterministic sweep grids.
//!
//! The right-hand plots of the paper's Figs 5–6 show "the error in the most
//! dominant pole as a function of M5 and M6 metal line widths (within -30%
//! to 30% of their nominal values)" — a 2-D grid sweep with the remaining
//! parameters pinned. [`crate::analysis::CornerSweepAnalysis`] runs that
//! grid; this module holds the spacing helpers it and the frequency sweeps
//! share.
//!
//! # Example
//!
//! ```
//! use pmor_variation::sweep::{linspace, logspace};
//!
//! assert_eq!(linspace(0.0, 1.0, 3), vec![0.0, 0.5, 1.0]);
//! assert_eq!(logspace(1e7, 1e10, 4)[0], 1e7);
//! ```

/// Logarithmically spaced values over `[lo, hi]`, inclusive (`lo > 0`).
///
/// # Panics
///
/// Panics unless `0 < lo < hi`.
pub fn logspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "logspace: bad range");
    if count == 0 {
        return Vec::new();
    }
    if count == 1 {
        return vec![lo];
    }
    let (l0, l1) = (lo.log10(), hi.log10());
    (0..count)
        .map(|i| 10f64.powf(l0 + (l1 - l0) * i as f64 / (count - 1) as f64))
        .collect()
}

/// Evenly spaced values over `[lo, hi]`, inclusive.
pub fn linspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    if count == 0 {
        return Vec::new();
    }
    if count == 1 {
        return vec![0.5 * (lo + hi)];
    }
    (0..count)
        .map(|i| lo + (hi - lo) * i as f64 / (count - 1) as f64)
        .collect()
}

/// Every point of the `values × values` grid over parameters `param_a`
/// (rows) and `param_b` (columns), row-major, with the other parameters
/// held at `base`.
pub(crate) fn grid_points(
    base: &[f64],
    param_a: usize,
    param_b: usize,
    values: &[f64],
) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(values.len() * values.len());
    for &va in values {
        for &vb in values {
            let mut p = base.to_vec();
            p[param_a] = va;
            p[param_b] = vb;
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, CornerSweepAnalysis, ErrorMetric};
    use pmor::eval::FullModel;
    use pmor::lowrank::LowRankPmor;
    use pmor::{EvalEngine, Reducer};
    use pmor_circuits::generators::{clock_tree, ClockTreeConfig};

    #[test]
    fn linspace_endpoints() {
        let v = linspace(-0.3, 0.3, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] + 0.3).abs() < 1e-15);
        assert!((v[4] - 0.3).abs() < 1e-15);
        assert!(v[2].abs() < 1e-15);
        assert_eq!(linspace(0.0, 1.0, 1), vec![0.5]);
        assert!(linspace(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn points_cover_grid_and_pin_base() {
        let pts = grid_points(&[9.0, 7.0, 9.0], 0, 2, &[-0.1, 0.2]);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert_eq!(p[1], 7.0); // untouched parameter keeps base value
        }
        // Row-major: the second parameter varies fastest.
        assert_eq!(pts[1], vec![-0.1, 7.0, 0.2]);
        assert!(pts.iter().any(|p| p[0] == 0.2 && p[2] == -0.1));
    }

    #[test]
    fn pole_error_grid_small_for_lowrank_rom() {
        let sys = clock_tree(&ClockTreeConfig {
            num_nodes: 30,
            ..Default::default()
        })
        .assemble();
        let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
        let sweep = CornerSweepAnalysis {
            param_a: 0,
            param_b: 1,
            lo: -0.3,
            hi: 0.3,
            points_per_axis: 3,
            metric: ErrorMetric::Poles { num_poles: 1 },
        };
        let report = sweep
            .run(&EvalEngine::default(), &FullModel::new(&sys), &rom)
            .unwrap();
        let grid = report.grid.unwrap();
        assert_eq!(grid.values.len(), 3);
        for row in &grid.values {
            assert_eq!(row.len(), 3);
            for &err in row {
                assert!(err < 1.0, "dominant pole error {err}% too large");
            }
        }
    }
}
