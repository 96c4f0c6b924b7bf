//! The span summarizer: reads a traced run's span file and derives every
//! per-layer metric from it — each layer's self time (its spans minus the
//! part their children cover), counts, ratios with their bases, and the
//! tracing overhead.

use crate::stats::{median, percentile};
use crate::trace::{Span, Trace};
use std::collections::{BTreeMap, HashMap};

/// One metric with its unit and, for ratios and derived values, the base
/// it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared metric name.
    pub name: &'static str,
    /// Measured value (0 where the workload does not run the layer).
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the value was derived.
    pub base: String,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Number of spans.
    pub spans: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Summed operation counts.
    pub count: u64,
    /// Summed allocations.
    pub allocs: u64,
}

/// Self time of each span: its duration minus the union of its
/// children's intervals (clipped to it). Children on other threads may
/// overlap each other; the union counts shared time once.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&j| (spans[j].t0.max(s.t0), spans[j].t1.min(s.t1)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut end = 0u64;
            for (a, b) in iv {
                let a = a.max(end);
                if b > a {
                    covered += b - a;
                    end = b;
                }
            }
            (s.t1 - s.t0 - covered) as f64 * 1e-9
        })
        .collect()
}

/// The root span each span descends from (itself for a root).
fn roots(spans: &[Span]) -> Vec<usize> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    spans
        .iter()
        .enumerate()
        .map(|(mut i, _)| {
            while let Some(&p) = index.get(&spans[i].parent) {
                i = p;
            }
            i
        })
        .collect()
}

/// Everything the summarizer derives from one trace.
pub struct Summary {
    /// Per-layer aggregates over the whole run, by span name.
    pub layers: BTreeMap<String, Layer>,
    /// Per-layer aggregates of spans inside traced passes only.
    pub in_pass: BTreeMap<String, Layer>,
    /// Every declared per-layer metric.
    pub metrics: Vec<Metric>,
}

/// Summarizes a trace.
pub fn summarize(trace: &Trace) -> Summary {
    let spans = &trace.spans;
    let selfs = self_times(spans);
    let root = roots(spans);
    let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
    let mut in_pass: BTreeMap<String, Layer> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let pass_rooted = spans[root[i]].name == "pass";
        for table in [Some(&mut layers), pass_rooted.then_some(&mut in_pass)]
            .into_iter()
            .flatten()
        {
            let l = table.entry(s.name.clone()).or_default();
            l.spans += 1;
            l.total_s += s.secs();
            l.self_s += selfs[i];
            l.count += s.count;
            l.allocs += s.allocs;
        }
    }

    let durations = |name: &str, pass_only: bool| -> Vec<f64> {
        spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && (!pass_only || spans[root[*i]].name == "pass"))
            .map(|(_, s)| s.secs())
            .collect()
    };
    let med = |name: &str| {
        let d = durations(name, false);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let med_pass = |name: &str| {
        let d = durations(name, true);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let get = |t: &BTreeMap<String, Layer>, name: &str| t.get(name).cloned().unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let pass = get(&layers, "pass");
    let untraced = durations("pass.untraced", false);
    let traced = durations("pass", false);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str, base: String| {
        m.push(Metric {
            name,
            value,
            unit,
            base,
        })
    };
    let n_of = |name: &str| get(&layers, name).spans;

    for (metric, span) in [
        ("circuits.parse_s", "circuits.parse"),
        ("circuits.assemble_s", "circuits.assemble"),
        ("sparse.order_s", "sparse.order"),
        ("sparse.factor_g0_s", "sparse.factor_g0"),
        ("reduce.lowrank_s", "reduce.lowrank"),
        ("reduce.prima_s", "reduce.prima"),
        ("reduce.multipoint_s", "reduce.multipoint"),
        ("engine.batch_s", "engine.batch"),
    ] {
        put(
            metric,
            med(span),
            "s",
            format!("median of {} {span} spans", n_of(span)),
        );
    }
    for name in [
        "sparse.factor_nnz",
        "sparse.real_factorizations",
        "sparse.cache_hits",
        "reduce.lowrank_q",
        "reduce.prima_q",
        "reduce.multipoint_q",
    ] {
        put(
            name,
            trace.fact(name).unwrap_or(0.0),
            "count",
            "recorded count".into(),
        );
    }
    let fill = trace.fact("sparse.fill_ratio").unwrap_or(0.0);
    put(
        "sparse.fill_ratio",
        fill,
        "ratio",
        "factor nnz / matrix nnz of G0".into(),
    );
    let (lr, pr) = (med("reduce.lowrank"), med("reduce.prima"));
    put(
        "reduce.lowrank_over_prima",
        ratio(lr, pr),
        "ratio",
        format!("lowrank {lr:.4} s / prima {pr:.4} s"),
    );

    // Model evaluations inside traced passes. The daemon's ROM
    // evaluations are not wrapped; their time comes from its per-reply
    // provenance instead.
    let passes = pass.spans.max(1) as f64;
    for (prefix, span) in [("full", "full.eval"), ("rom", "rom.eval")] {
        let mut l = get(&in_pass, span);
        let mut how = format!("{span} spans in {} traced passes", pass.spans);
        if prefix == "rom" && l.spans == 0 && trace.fact("serve.rom_evals").is_some() {
            l.total_s = trace.fact_sum("serve.rom_eval_s");
            l.count = trace.fact_sum("serve.rom_evals") as u64;
            how = format!("daemon eval_seconds over {} traced passes", pass.spans);
        }
        let (eval_us, calls, share, allocs) = match prefix {
            "full" => (
                "full.eval_us",
                "full.calls",
                "full.share",
                "full.allocs_per_eval",
            ),
            _ => (
                "rom.eval_us",
                "rom.calls",
                "rom.share",
                "rom.allocs_per_eval",
            ),
        };
        put(
            eval_us,
            ratio(l.total_s * 1e6, l.count as f64),
            "us",
            format!("{:.4} s / {} evaluations, {how}", l.total_s, l.count),
        );
        put(
            calls,
            l.count as f64 / passes,
            "count",
            format!("{} evaluations / {} passes", l.count, pass.spans),
        );
        put(
            share,
            ratio(l.total_s, pass.total_s),
            "ratio",
            format!(
                "{:.4} s of {:.4} s traced pass time",
                l.total_s, pass.total_s
            ),
        );
        let wrapped = get(&in_pass, span);
        put(
            allocs,
            ratio(wrapped.allocs as f64, wrapped.count as f64),
            "count",
            format!(
                "{} allocations / {} evaluations",
                wrapped.allocs, wrapped.count
            ),
        );
    }
    for (metric, span) in [
        ("rom.decode_us", "rom.decode"),
        ("rom.encode_us", "rom.encode"),
        ("rom.fingerprint_us", "rom.fingerprint"),
    ] {
        put(
            metric,
            med(span) * 1e6,
            "us",
            format!("median of {} {span} spans", n_of(span)),
        );
    }
    let speedup = trace.fact("engine.speedup_2t").unwrap_or(0.0);
    put(
        "engine.speedup_2t",
        speedup,
        "ratio",
        format!(
            "batch at 1 thread {:.4} s / at 2 threads {:.4} s",
            trace.fact("engine.batch_1t_s").unwrap_or(0.0),
            trace.fact("engine.batch_2t_s").unwrap_or(0.0)
        ),
    );
    let mc: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "variation.mc")
        .map(|(_, &t)| t)
        .collect();
    put(
        "variation.mc_self_s",
        if mc.is_empty() { 0.0 } else { median(&mc) },
        "s",
        format!(
            "median self time of {} variation.mc spans (minus full/rom children)",
            mc.len()
        ),
    );

    let evals = durations("serve.eval", true);
    let p99 = if evals.is_empty() {
        0.0
    } else {
        percentile(&evals, 99.0)
    };
    let beyond = evals.iter().filter(|&&v| v > p99).count();
    put(
        "serve.eval_p50_ms",
        med_pass("serve.eval") * 1e3,
        "ms",
        format!("median of {} eval round trips", evals.len()),
    );
    put(
        "serve.eval_p99_ms",
        p99 * 1e3,
        "ms",
        format!(
            "{} eval round trips, {beyond} beyond it{}",
            evals.len(),
            if beyond < 10 {
                " (fewer than 10: not a steady tail)"
            } else {
                ""
            }
        ),
    );
    put(
        "serve.eval_samples",
        evals.len() as f64,
        "count",
        "eval round trips in traced passes".into(),
    );
    for (metric, span) in [
        ("serve.json_eval_p50_ms", "serve.json_eval"),
        ("serve.load_rom_p50_ms", "serve.load_rom"),
        ("serve.connect_ms", "serve.connect"),
    ] {
        put(
            metric,
            med_pass(span) * 1e3,
            "ms",
            format!(
                "median of {} {span} spans in passes",
                durations(span, true).len()
            ),
        );
    }
    for (metric, span) in [
        ("serve.encode_us", "serve.encode"),
        ("serve.decode_us", "serve.decode"),
    ] {
        put(
            metric,
            med_pass(span) * 1e6,
            "us",
            format!(
                "median of {} {span} spans in passes",
                durations(span, true).len()
            ),
        );
    }
    put(
        "serve.faults",
        trace.fact_sum("serve.faults"),
        "count",
        "fault responses in traced passes".into(),
    );
    let requests = trace.fact_sum("serve.requests");
    put(
        "serve.allocs_per_request",
        ratio(pass.allocs as f64, requests),
        "count",
        format!(
            "{} process allocations in traced passes / {requests} requests",
            pass.allocs
        ),
    );

    let (mt, mu) = (
        if traced.is_empty() {
            0.0
        } else {
            median(&traced)
        },
        if untraced.is_empty() {
            0.0
        } else {
            median(&untraced)
        },
    );
    put(
        "trace.overhead",
        if mu > 0.0 { mt / mu - 1.0 } else { 0.0 },
        "ratio",
        format!("median traced pass {mt:.6} s / median untraced pass {mu:.6} s - 1"),
    );
    put(
        "bench.self_share",
        ratio(pass.self_s, pass.total_s),
        "ratio",
        format!(
            "{:.4} s of {:.4} s traced pass time in no named layer",
            pass.self_s, pass.total_s
        ),
    );

    Summary {
        layers,
        in_pass,
        metrics: m,
    }
}

/// Renders the self-time table and every metric with its base.
pub fn render(s: &Summary) -> Vec<String> {
    let mut out = vec![format!(
        "# {:<22} {:>7} {:>11} {:>11} {:>10} {:>12}",
        "layer (whole run)", "spans", "total s", "self s", "count", "allocs"
    )];
    for (name, l) in &s.layers {
        out.push(format!(
            "# {name:<22} {:>7} {:>11.6} {:>11.6} {:>10} {:>12}",
            l.spans, l.total_s, l.self_s, l.count, l.allocs
        ));
    }
    if let Some(pass) = s.in_pass.get("pass") {
        out.push(format!(
            "# inside {} traced passes ({:.6} s):",
            pass.spans, pass.total_s
        ));
        let mut covered = 0.0;
        for (name, l) in &s.in_pass {
            covered += l.self_s;
            let who = if name == "pass" {
                "(benchmark self)".to_string()
            } else {
                name.clone()
            };
            out.push(format!(
                "#   {who:<22} self {:>10.6} s  {:>6.2}% of pass time",
                l.self_s,
                100.0 * l.self_s / pass.total_s.max(1e-12)
            ));
        }
        out.push(format!(
            "#   layers + benchmark self = {covered:.6} s of {:.6} s ({:.1}%; above 100% only where client threads overlap)",
            pass.total_s,
            100.0 * covered / pass.total_s.max(1e-12)
        ));
    }
    for m in &s.metrics {
        out.push(format!(
            "# {} = {} {}  [{}]",
            m.name, m.value, m.unit, m.base
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, t0: u64, t1: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            t0,
            t1,
            count: 1,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A 100 ns pass with two client spans overlapping on 40..60 and a
        // grandchild inside the first: the pass's children cover 10..90.
        let spans = vec![
            span(1, 0, "pass", 0, 100),
            span(2, 1, "serve.client", 10, 60),
            span(3, 1, "serve.client", 40, 90),
            span(4, 2, "serve.eval", 20, 30),
        ];
        let selfs = self_times(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(
            selfs.iter().map(|&s| ns(s)).collect::<Vec<_>>(),
            vec![20, 40, 50, 10]
        );
        assert_eq!(roots(&spans), vec![0, 0, 0, 0]);
    }

    #[test]
    fn overhead_compares_traced_with_untraced_passes() {
        let trace = Trace {
            spans: vec![
                span(1, 0, "pass.untraced", 0, 100),
                span(2, 0, "pass", 100, 210),
                span(3, 2, "rom.eval", 110, 200),
            ],
            facts: Vec::new(),
        };
        let s = summarize(&trace);
        let get = |n: &str| s.metrics.iter().find(|m| m.name == n).map(|m| m.value);
        assert!((get("trace.overhead").unwrap() - 0.1).abs() < 1e-12);
        assert!((get("rom.share").unwrap() - 90.0 / 110.0).abs() < 1e-12);
        assert_eq!(get("full.share"), Some(0.0));
    }
}
