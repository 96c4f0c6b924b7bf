//! Figure 5 — pole accuracy of a parametric ROM on RCNetA (paper §5.3).
//!
//! RCNetA stand-in: 78-node clock-tree RC net routed on M5/M6/M7 with the
//! three metal-layer widths as variational parameters. The paper reduces
//! to 29 states matching s-moments to 4th order and the remaining
//! multi-parameter moments to 2nd order, then reports:
//!
//! * (left)  the distribution of relative errors in the 5 most dominant
//!   poles across Monte-Carlo instances (widths varied ±30 % = 3σ, normal),
//! * (right) the relative error of the most dominant pole over an M5 × M6
//!   sweep (±30 %), M7 nominal.
//!
//! The reduction method is selected by registry name as the first CLI
//! argument (default `lowrank`, figure-tuned). The histogram comes from
//! `MonteCarlo::pole_errors`, the grid from the registry's
//! `CornerSweepAnalysis`, both against the one prebuilt ROM.
//!
//! Run: `cargo run --release -p pmor-bench --bin fig5_rcneta [method]`

use pmor::eval::FullModel;
use pmor::lowrank::{LowRankOptions, LowRankPmor};
use pmor::{reducer_by_name, Reducer, ReductionContext};
use pmor_bench::{print_grid, timed, write_bench_json, BenchRecord};
use pmor_circuits::generators::rcnet_a;
use pmor_circuits::ParametricSystem;
use pmor_variation::analysis::CornerSweepAnalysis;
use pmor_variation::{Analysis, ErrorMetric, MonteCarlo};

/// The figure-tuned method table. The paper's RCNetA model is size 29 at
/// rank 1; our synthetic net needs rank 2 (its leaf layer has a flatter
/// sensitivity spectrum than the industrial net; see table_sv_decay),
/// giving ~40 states.
fn figure_reducer(name: &str, sys: &ParametricSystem) -> Box<dyn Reducer> {
    match name {
        "lowrank" => Box::new(LowRankPmor::new(LowRankOptions {
            s_order: 5,
            param_order: 2,
            rank: 2,
            include_transpose_subspaces: true,
            ..Default::default()
        })),
        other => reducer_by_name(other, sys)
            .unwrap_or_else(|| panic!("unknown reduction method {other:?}")),
    }
}

fn main() {
    let sys = rcnet_a().assemble();
    let method = std::env::args().nth(1).unwrap_or_else(|| "lowrank".into());
    println!(
        "# Fig 5 reproduction: RCNetA clock tree, {} nodes, {} metal-width parameters, method {method}",
        sys.dim(),
        sys.num_params()
    );
    let reducer = figure_reducer(&method, &sys);

    // Reduce once up front (so the size/time are reported); both plots
    // analyze that one ROM.
    let mut ctx = ReductionContext::new();
    let (rom, t_red) = timed(|| reducer.reduce(&sys, &mut ctx).expect("reduction"));
    println!(
        "# reduced model: {} states (paper: 29); reduction time {t_red:.3}s; {} real factorization(s)",
        rom.size(),
        ctx.real_factorizations()
    );

    // --- Left plot: Monte-Carlo pole-error histogram ------------------------
    let instances = 200;
    let mc = MonteCarlo::paper_protocol(sys.num_params(), instances);
    let engine = mc.engine();
    let full = FullModel::new(&sys);
    let (report, t_mc) = timed(|| {
        mc.pole_errors(&engine, &full, &rom, 5)
            .expect("Monte Carlo")
    });
    let s = report.summary();
    println!(
        "# MC: {} instances x 5 dominant poles = {} errors in {t_mc:.1}s ({} worker threads)",
        instances,
        report.errors_percent.len(),
        mc.worker_count()
    );
    println!(
        "# pole error [%]: mean={:.2e} median={:.2e} max={:.2e}",
        s.mean, s.median, s.max
    );
    println!("bin_lo_pct,bin_hi_pct,count");
    for b in report.histogram(12) {
        println!("{:.5e},{:.5e},{}", b.lo, b.hi, b.count);
    }

    // --- Right plot: dominant-pole error over the M5 x M6 sweep -------------
    let sweep = CornerSweepAnalysis {
        param_a: 0, // M5
        param_b: 1, // M6
        lo: -0.3,
        hi: 0.3,
        points_per_axis: 5,
        metric: ErrorMetric::Poles { num_poles: 1 },
    };
    let grid = sweep
        .run(&engine, &full, &rom)
        .expect("sweep grid")
        .grid
        .expect("corner sweeps report a grid");
    print_grid(
        "Fig 5 (right): dominant-pole relative error [%] vs M5 (rows) x M6 (cols) width variation [fraction]",
        "M5\\M6",
        &grid.row_values,
        &grid.col_values,
        &grid.values,
    );
    let grid_max = grid.values.iter().flatten().copied().fold(0.0f64, f64::max);

    let record = BenchRecord::new(&method, format!("rcnet_a({})", sys.dim()), t_red)
        .metric("size", rom.size() as f64)
        .metric("mc_instances", instances as f64)
        .metric("mc_seconds", t_mc)
        .metric("pole_err_mean_pct", s.mean)
        .metric("pole_err_max_pct", s.max)
        .metric("sweep_err_max_pct", grid_max);
    match write_bench_json("fig5", &[record]) {
        Ok(path) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# BENCH_fig5.json not written: {e}"),
    }

    println!(
        "# paper shape check: MC dominant-pole errors negligible (max {:.3}% < 0.2%): {}; sweep errors bounded (max {:.3}% < 0.2%): {}",
        s.max,
        s.max < 0.2,
        grid_max,
        grid_max < 0.2
    );
}
