//! End-to-end integration: generator → MNA assembly → reduction →
//! evaluation, across every workload family and every reducer.

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::multipoint::{MultiPointOptions, MultiPointPmor};
use pmor::prima::{Prima, PrimaOptions};
use pmor::{EvalEngine, Reducer, ReducerKind, ReductionContext};
use pmor_circuits::generators::{
    clock_tree, rc_mesh, rc_random, rcnet_a, rlc_bus, ClockTreeConfig, RcMeshConfig,
    RcRandomConfig, RlcBusConfig,
};
use pmor_circuits::ParametricSystem;
use pmor_num::Complex64;
use pmor_variation::analysis::CornerSweepAnalysis;
use pmor_variation::{Analysis, ErrorMetric, MonteCarlo};

fn workloads() -> Vec<(&'static str, ParametricSystem, Vec<f64>, f64)> {
    vec![
        (
            "rc_random",
            rc_random(&RcRandomConfig {
                num_nodes: 150,
                ..Default::default()
            })
            .assemble(),
            vec![0.4, -0.4],
            1e9,
        ),
        (
            "rlc_bus",
            rlc_bus(&RlcBusConfig {
                segments: 30,
                ..Default::default()
            })
            .assemble(),
            vec![0.25, -0.2],
            1e10,
        ),
        (
            "clock_tree",
            clock_tree(&ClockTreeConfig {
                num_nodes: 90,
                ..Default::default()
            })
            .assemble(),
            vec![0.3, -0.3, 0.2],
            1e9,
        ),
    ]
}

#[test]
fn lowrank_tracks_full_model_on_every_workload() {
    for (name, sys, p, f_hz) in workloads() {
        let rom = LowRankPmor::new(LowRankOptions {
            s_order: 8,
            param_order: 3,
            rank: 2,
            ..Default::default()
        })
        .reduce_once(&sys)
        .unwrap_or_else(|e| panic!("{name}: reduction failed: {e}"));
        assert!(rom.size() < sys.dim(), "{name}: no reduction achieved");
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
        let hf = full.transfer(&p, s).unwrap();
        let hr = rom.transfer(&p, s).unwrap();
        let err = hf.sub_mat(&hr).max_abs() / hf.max_abs();
        assert!(err < 1e-2, "{name}: error {err}");
    }
}

#[test]
fn multipoint_tracks_full_model_on_every_workload() {
    for (name, sys, p, f_hz) in workloads() {
        let np = sys.num_params();
        let opts = MultiPointOptions::grid(&vec![(-0.4, 0.4); np], 2, 6);
        let rom = MultiPointPmor::new(opts)
            .reduce_once(&sys)
            .unwrap_or_else(|e| panic!("{name}: reduction failed: {e}"));
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
        let hf = full.transfer(&p, s).unwrap();
        let hr = rom.transfer(&p, s).unwrap();
        let err = hf.sub_mat(&hr).max_abs() / hf.max_abs();
        assert!(err < 2e-2, "{name}: error {err}");
    }
}

#[test]
fn prima_is_exact_at_nominal_low_frequency() {
    for (name, sys, _, f_hz) in workloads() {
        let rom = Prima::new(PrimaOptions {
            num_block_moments: 10,
        })
        .reduce_once(&sys)
        .unwrap();
        let p = vec![0.0; sys.num_params()];
        let full = FullModel::new(&sys);
        let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz * 0.01);
        let hf = full.transfer(&p, s).unwrap();
        let hr = rom.transfer(&p, s).unwrap();
        let err = hf.sub_mat(&hr).max_abs() / hf.max_abs();
        assert!(err < 1e-6, "{name}: nominal error {err}");
    }
}

#[test]
fn reduced_poles_are_stable_across_corners() {
    // Congruence reduction of a passive net must not produce unstable
    // reduced poles anywhere in the variation box.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 60,
        ..Default::default()
    })
    .assemble();
    let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
    for corner in [
        [0.3, 0.3, 0.3],
        [-0.3, -0.3, -0.3],
        [0.3, -0.3, 0.3],
        [-0.3, 0.3, -0.3],
    ] {
        for z in rom.poles(&corner).unwrap() {
            assert!(z.re < 0.0, "unstable reduced pole {z} at {corner:?}");
        }
    }
}

#[test]
fn projection_expands_reduced_states_to_node_voltages() {
    // The stored projection maps reduced DC solutions back to physical
    // node voltages.
    let sys = clock_tree(&ClockTreeConfig {
        num_nodes: 40,
        ..Default::default()
    })
    .assemble();
    let rom = LowRankPmor::with_defaults().reduce_once(&sys).unwrap();
    let p = vec![0.0; 3];
    // Reduced DC solve: G̃ x̃ = B̃.
    let lu = pmor_num::lu::LuFactors::factor(&rom.g_at(&p)).unwrap();
    let xr = lu.solve(&rom.b.col(0)).unwrap();
    let x_nodes = rom.projection.mul_vec(&xr);
    // Full DC solve.
    let slu = pmor_sparse::SparseLu::factor(&sys.g0, None).unwrap();
    let xf = slu.solve(&sys.b.col(0)).unwrap();
    assert!(pmor_num::vecops::rel_err(&x_nodes, &xf) < 1e-8);
}

/// A 32×32 RC mesh whose jittered element values once stalled the
/// one-sided Jacobi SVD inside the low-rank sketch: one column pair
/// flipped between two states a rounding error above ε until the sweep
/// cap. The SVD now accepts that state at LAPACK's √m·ε tolerance, and
/// the reduced model must still track the full model.
#[test]
fn lowrank_reduces_the_mesh_that_stalled_the_jacobi_svd() {
    let sys = rc_mesh(&RcMeshConfig {
        rows: 32,
        cols: 32,
        num_regions: 4,
        seed: 0xe4c5_dc34_1c2c_87d6,
        ..Default::default()
    })
    .assemble();
    let mut ctx = ReductionContext::new();
    let rom = ReducerKind::LowRank
        .build(&sys)
        .reduce(&sys, &mut ctx)
        .unwrap_or_else(|e| panic!("lowrank on the stalling mesh: {e}"));
    let full = FullModel::new(&sys);
    let mut worst = 0.0f64;
    for p in [[0.0; 4], [0.1, -0.1, 0.05, -0.05], [-0.1, 0.1, -0.1, 0.1]] {
        for f_hz in [1e8, 1e9, 5e9] {
            let s = Complex64::jw(2.0 * std::f64::consts::PI * f_hz);
            let hf = full.transfer(&p, s).unwrap();
            let hr = rom.transfer(&p, s).unwrap();
            worst = worst.max(hf.sub_mat(&hr).max_abs() / hf.max_abs());
        }
    }
    assert!(
        worst <= 1e-3,
        "q = {}: worst relative error {worst:e}",
        rom.size()
    );
}

/// The paper's Fig 5 shape (§5.3) on RCNetA with the figure's low-rank
/// options: the Monte-Carlo dominant-pole errors and the M5 × M6 corner
/// grid both stay negligible (under 0.2 %).
#[test]
fn fig5_rcnet_a_pole_errors_are_negligible() {
    let sys = rcnet_a().assemble();
    let rom = LowRankPmor::new(LowRankOptions {
        s_order: 5,
        param_order: 2,
        rank: 2,
        include_transpose_subspaces: true,
        ..Default::default()
    })
    .reduce_once(&sys)
    .unwrap();
    let full = FullModel::new(&sys);
    let engine = EvalEngine::default();
    let mc = MonteCarlo::paper_protocol(sys.num_params(), 20);
    let report = mc.pole_errors(&engine, &full, &rom, 5).unwrap();
    assert_eq!(report.errors_percent.len(), 20 * 5);
    let mc_max = report.max_percent();
    let grid = CornerSweepAnalysis {
        param_a: 0,
        param_b: 1,
        lo: -0.3,
        hi: 0.3,
        points_per_axis: 5,
        metric: ErrorMetric::Poles { num_poles: 1 },
    }
    .run(&engine, &full, &rom)
    .unwrap()
    .grid
    .unwrap();
    assert_eq!(grid.values.len(), 5);
    let grid_max = grid.values.iter().flatten().copied().fold(0.0f64, f64::max);
    assert!(mc_max < 0.2, "Monte-Carlo max pole error {mc_max}%");
    assert!(grid_max < 0.2, "corner-grid max pole error {grid_max}%");
}
