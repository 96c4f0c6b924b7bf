//! `grid_reduce`: reduction only, on a two-layer power grid read from a
//! SPICE deck. Sparse ordering, factorization and solves plus dense
//! orthonormalization and SVD do nearly all the work; no ROM is
//! evaluated inside a pass.

use crate::harness::{self, jw, Checked, Opts, Outcome, Rng, Setups};
use crate::trace::{self, span};
use pmor::eval::FullModel;
use pmor::{OrderingChoice, ParametricRom, ReducerKind, ReductionContext};
use pmor_circuits::generators::{power_grid, PowerGridConfig};
use pmor_circuits::spice::{parse_spice, to_spice};
use pmor_num::{Complex64, Matrix};

/// The reducers a pass runs, in order, with their span and size names.
const METHODS: [(ReducerKind, &str, &str); 3] = [
    (ReducerKind::LowRank, "reduce.lowrank", "reduce.lowrank_q"),
    (ReducerKind::Prima, "reduce.prima", "reduce.prima_q"),
    (
        ReducerKind::MultiPoint,
        "reduce.multipoint",
        "reduce.multipoint_q",
    ),
];

/// Relative error every ROM must stay within at the probe points.
const TOLERANCE: f64 = 1e-3;

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut rng = Rng::new(opts.seed, 1);
    let side = opts.pick(48, 12);
    let net = power_grid(&PowerGridConfig {
        rows: side,
        cols: side,
        pitch: opts.pick(8, 4),
        num_regions: 4,
        num_pads: 4,
        ..PowerGridConfig::default()
    });
    let deck = to_spice(&net, "grid_reduce");

    // Set-up: parse the deck and assemble the parametric system. One is a
    // few milliseconds, so each sample times a group back to back.
    let mut setups = Setups::new(
        opts.pick(9, 3),
        opts.pick(12, 2),
        || {
            let net = span("circuits.parse", || parse_spice(&deck)).map_err(|e| e.to_string())?;
            Ok(span("circuits.assemble", || net.assemble()))
        },
        |_| Ok(()),
    );
    let sys = setups.sample()?;

    // Probe points and their full-model references (not timed). PRIMA
    // matches moments at the nominal point only, so it is probed there.
    let np = sys.num_params();
    let full = FullModel::new(&sys);
    let nominal = vec![0.0; np];
    let varied = rng.params(np, 0.1);
    let mut probes: Vec<(Vec<f64>, Complex64, bool)> = Vec::new();
    for f in [1e7, 1e8, 1e9] {
        probes.push((nominal.clone(), jw(f), true));
        probes.push((varied.clone(), jw(f), false));
    }
    let refs: Vec<Matrix<Complex64>> = probes
        .iter()
        .map(|(p, s, _)| full.transfer(p, *s))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("full-model reference: {e}"))?;

    let reducers: Vec<_> = METHODS.iter().map(|(k, _, _)| k.build(&sys)).collect();
    let mut first: Option<Vec<Vec<Matrix<Complex64>>>> = None;
    let mut outcome = Outcome::default();
    harness::run_passes(
        opts,
        opts.pick(3, 2),
        true,
        &mut outcome,
        &mut setups,
        || -> Result<Vec<ParametricRom>, String> {
            let mut ctx = ReductionContext::with_ordering(OrderingChoice::Amd);
            ctx.set_threads(1);
            span("sparse.order", || ctx.ordering_used(&sys));
            span("sparse.factor_g0", || ctx.factor_g0(&sys)).map_err(|e| e.to_string())?;
            let mut roms = Vec::with_capacity(METHODS.len());
            for ((kind, name, q_name), reducer) in METHODS.iter().zip(&reducers) {
                let rom = span(name, || reducer.reduce(&sys, &mut ctx))
                    .map_err(|e| format!("{}: {e}", kind.name()))?;
                trace::fact(q_name, rom.size() as f64);
                roms.push(rom);
            }
            if let Some(prov) = ctx.provenance_ready(&sys) {
                trace::fact("sparse.factor_nnz", prov.factor_nnz as f64);
                trace::fact("sparse.fill_ratio", prov.fill_ratio());
            }
            trace::fact(
                "sparse.real_factorizations",
                ctx.real_factorizations() as f64,
            );
            trace::fact("sparse.cache_hits", ctx.cache_hits() as f64);
            Ok(roms)
        },
        |roms| {
            // Accuracy against the full model, and bitwise agreement with
            // the first pass: reduction is deterministic.
            let mut ok = true;
            let mut values = Vec::with_capacity(roms.len());
            for ((kind, _, _), rom) in METHODS.iter().zip(&roms) {
                let mut vals = Vec::with_capacity(probes.len());
                for ((p, s, nominal_only), reference) in probes.iter().zip(&refs) {
                    let Ok(h) = rom.transfer(p, *s) else {
                        ok = false;
                        continue;
                    };
                    let checked = *kind != ReducerKind::Prima || *nominal_only;
                    if checked && !harness::within(harness::rel_err(&h, reference), TOLERANCE) {
                        ok = false;
                    }
                    vals.push(h);
                }
                values.push(vals);
            }
            match &first {
                None => first = Some(values),
                Some(f) => {
                    ok &= f
                        .iter()
                        .flatten()
                        .zip(values.iter().flatten())
                        .all(|(a, b)| harness::same_bits(a.as_slice(), b.as_slice()))
                }
            }
            Checked::one(ok)
        },
    )?;
    setups.finish(&mut outcome);
    Ok(outcome)
}
