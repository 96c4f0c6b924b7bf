//! The RC-mesh workloads: `mesh_signoff` (Monte-Carlo sign-off, where the
//! full-model reference dominates) and `rom_sweep` (ROM-only frequency
//! sweeps, where many frequencies share each parameter point). Both
//! reduce the same mesh with the paper's low-rank method.

use crate::harness::{self, Checked, Opts, Outcome, Rng, Setups};
use crate::trace::{self, span, TracedModel};
use pmor::engine::{EvalEngine, EvalPoint, TransferModel};
use pmor::eval::FullModel;
use pmor::{ParametricRom, ReducerKind, ReductionContext};
use pmor_circuits::generators::{rc_mesh, RcMeshConfig};
use pmor_circuits::ParametricSystem;
use pmor_variation::analysis::MonteCarloAnalysis;
use pmor_variation::{Analysis, ErrorMetric};
use std::time::Instant;

/// Relative error the ROM must stay within against the full model.
const TOLERANCE: f64 = 1e-3;

/// The mesh the mesh workloads reduce: the `rc_mesh_stress` scenario's
/// 32×32 nodes with four regional width parameters and the generator's
/// default element values. The circuit is fixed so every seed costs the
/// same work; `--seed` draws the parameter and frequency points.
pub fn mesh_config(opts: &Opts) -> RcMeshConfig {
    let side = opts.pick(32, 8);
    RcMeshConfig {
        rows: side,
        cols: side,
        num_regions: 4,
        ..RcMeshConfig::default()
    }
}

/// Generates and assembles the mesh, then reduces it with the low-rank
/// method on a cold single-threaded context.
///
/// # Errors
///
/// A failed reduction.
pub fn build_and_reduce(cfg: &RcMeshConfig) -> Result<(ParametricSystem, ParametricRom), String> {
    let net = span("circuits.generate", || rc_mesh(cfg));
    let sys = span("circuits.assemble", || net.assemble());
    let mut ctx = ReductionContext::new();
    ctx.set_threads(1);
    let reducer = ReducerKind::LowRank.build(&sys);
    let rom = span("reduce.lowrank", || reducer.reduce(&sys, &mut ctx))
        .map_err(|e| format!("lowrank: {e}"))?;
    trace::fact("reduce.lowrank_q", rom.size() as f64);
    Ok((sys, rom))
}

/// `mesh_signoff`: one Monte-Carlo transfer analysis per pass on a
/// serial engine. The full-model reference factors from scratch at every
/// `(p, s)` and is most of the pass.
pub fn signoff(opts: &Opts) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, 2);
    let cfg = mesh_config(opts);
    let mut setups = Setups::new(
        opts.pick(9, 2),
        opts.pick(2, 1),
        || {
            let (sys, rom) = build_and_reduce(&cfg)?;
            std::hint::black_box(span("full.new", || FullModel::new(&sys)));
            Ok((sys, rom))
        },
        |_| Ok(()),
    );
    let (sys, rom) = setups.sample()?;

    let full = FullModel::new(&sys);
    let analysis = MonteCarloAnalysis {
        instances: opts.pick(24, 4),
        sigma: 0.1,
        seed: rng.next_u64(),
        metric: ErrorMetric::Transfer {
            freqs_hz: vec![1e8, 1e9, 5e9],
        },
    };
    let engine = EvalEngine::new(1);
    let mut first: Option<u64> = None;
    let mut outcome = Outcome::default();
    harness::run_passes(
        opts,
        opts.pick(3, 2),
        true,
        &mut outcome,
        &mut setups,
        || {
            let (traced_full, traced_rom);
            let (full, rom): (&dyn TransferModel, &dyn TransferModel) = if trace::enabled() {
                traced_full = TracedModel::new(&full, "full.eval");
                traced_rom = TracedModel::new(&rom, "rom.eval");
                (&traced_full, &traced_rom)
            } else {
                (&full, &rom)
            };
            span("variation.mc", || analysis.run(&engine, full, rom)).map_err(|e| e.to_string())
        },
        |report| {
            let worst = report
                .metric_value("worst_rel_transfer_err")
                .unwrap_or(f64::NAN);
            let same = *first.get_or_insert(worst.to_bits()) == worst.to_bits();
            Checked::one(harness::within(worst, TOLERANCE) && same)
        },
    )?;
    setups.finish(&mut outcome);
    Ok(outcome)
}

/// `rom_sweep`: `S` parameter points × 100 log-spaced frequencies through
/// `EvalEngine::transfer_batch` on a ROM that went through the `.rom`
/// byte format, as `pmor eval <model.rom>` loads it.
pub fn sweep(opts: &Opts) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, 3);
    let cfg = mesh_config(opts);
    let mut setups = Setups::new(
        opts.pick(9, 2),
        opts.pick(2, 1),
        || {
            let (sys, rom) = build_and_reduce(&cfg)?;
            let bytes = span("rom.encode", || pmor::rom::to_bytes(&rom));
            let loaded = span("rom.decode", || pmor::rom::from_bytes(&bytes))
                .map_err(|e| format!("from_bytes: {e}"))?;
            Ok((sys, rom, loaded))
        },
        |_| Ok(()),
    );
    let (sys, original, loaded) = setups.sample()?;

    let freqs = harness::log_space(1e7, 1e10, 100);
    let np = sys.num_params();
    let points: Vec<EvalPoint> = (0..opts.pick(8, 2))
        .flat_map(|_| EvalPoint::sweep(&rng.params(np, 0.3), &freqs))
        .collect();
    // Probes: a few frequencies of the first parameter point, checked
    // against the full model and, bitwise, against the ROM before its
    // byte round trip.
    let full = FullModel::new(&sys);
    let probe_idx = [0usize, 33, 66, 99];
    let mut refs = Vec::with_capacity(probe_idx.len());
    for &i in &probe_idx {
        let pt = &points[i];
        let f = full
            .transfer(&pt.params, pt.s)
            .map_err(|e| format!("full model: {e}"))?;
        let r = original
            .transfer(&pt.params, pt.s)
            .map_err(|e| format!("rom: {e}"))?;
        refs.push((f, r));
    }

    let engine = EvalEngine::new(1);
    let mut outcome = Outcome::default();
    harness::run_passes(
        opts,
        opts.pick(5, 2),
        true,
        &mut outcome,
        &mut setups,
        || {
            let traced;
            let model: &dyn TransferModel = if trace::enabled() {
                traced = TracedModel::new(&loaded, "rom.eval");
                &traced
            } else {
                &loaded
            };
            span("engine.batch", || engine.transfer_batch(model, &points))
                .map_err(|e| e.to_string())
        },
        |mut out| {
            if opts.fault == Some(harness::Fault::PerturbResponse) {
                let v = &mut out[0][(0, 0)];
                v.re = f64::from_bits(v.re.to_bits() ^ 1);
            }
            let ok = out.len() == points.len()
                && probe_idx.iter().zip(&refs).all(|(&i, (f, r))| {
                    harness::within(harness::rel_err(&out[i], f), TOLERANCE)
                        && harness::same_bits(out[i].as_slice(), r.as_slice())
                });
            Checked::one(ok)
        },
    )?;
    setups.finish(&mut outcome);

    if opts.trace {
        // Layer probes outside the passes: ROM fingerprinting, and the
        // same batch at one and at two engine threads (reported only).
        for _ in 0..opts.pick(20, 2) {
            span("rom.fingerprint", || {
                std::hint::black_box(pmor::rom::fingerprint(&loaded))
            });
        }
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        for _ in 0..opts.pick(5, 1) {
            for (threads, times) in [(1, &mut t1), (2, &mut t2)] {
                let t = Instant::now();
                EvalEngine::new(threads)
                    .transfer_batch(&loaded, &points)
                    .map_err(|e| e.to_string())?;
                times.push(t.elapsed().as_secs_f64());
            }
        }
        let (m1, m2) = (crate::stats::median(&t1), crate::stats::median(&t2));
        trace::fact("engine.batch_1t_s", m1);
        trace::fact("engine.batch_2t_s", m2);
        trace::fact("engine.speedup_2t", m1 / m2);
    }
    Ok(outcome)
}
