//! The benchmark's own tests: every workload runs at a tiny size and
//! prints every metric `BENCHMARK.json` declares, with its unit; injected
//! defects are counted as failed operations; the summarizer reads the
//! span file a traced run wrote.

use pmor_serve::json::{parse_json, Json};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["grid_reduce", "mesh_signoff", "rom_sweep", "serve_scatter"];

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = manifest().get(section).cloned() else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

/// Runs the benchmark and returns its exit code and parsed last line.
fn run(args: &[&str]) -> (i32, Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmorbench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse_json(last).unwrap_or_else(|e| {
        panic!(
            "last line is not JSON ({e}):\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), result, stdout)
}

fn num(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("{key}: expected a number, got {other:?}"),
    }
}

fn tiny(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> (i32, Json, String) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--size",
        "tiny",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

#[test]
fn every_workload_prints_every_declared_metric_and_is_correct() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(section);
        for (i, w) in WORKLOADS.iter().enumerate() {
            let seed = (100 + i).to_string();
            let (code, result, stdout) = tiny(w, &seed, trace, &[]);
            assert_eq!(code, 0, "{w} trace={trace}:\n{stdout}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(num(&result, "attempted") >= 1.0, "{w}");
            assert_eq!(num(&result, "failed"), 0.0, "{w}");
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| match (m.get("value"), m.get("unit")) {
                    (Some(Json::Num(v)), Some(Json::Str(u))) => {
                        assert!(v.is_finite(), "{w} {name}");
                        (name.clone(), u.clone())
                    }
                    other => panic!("{w} {name}: malformed {other:?}"),
                })
                .collect();
            assert_eq!(
                got, want,
                "{w} trace={trace}: metrics differ from {section}"
            );
            if trace == "0" {
                for (name, _) in &got {
                    let v = num(
                        result
                            .get("metrics")
                            .and_then(|m| m.get(name))
                            .expect("metric"),
                        "value",
                    );
                    assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_rom_byte_is_a_failed_operation() {
    let (code, result, stdout) = tiny("serve_scatter", "201", "0", &["--fault", "corrupt-rom"]);
    assert_eq!(code, 1, "{stdout}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert!(num(&result, "failed") >= 1.0, "{stdout}");
}

#[test]
fn a_perturbed_response_is_a_failed_operation() {
    for (w, seed) in [("serve_scatter", "202"), ("rom_sweep", "203")] {
        let (code, result, stdout) = tiny(w, seed, "0", &["--fault", "perturb-response"]);
        assert_eq!(code, 1, "{w}:\n{stdout}");
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{w}");
        // Every pass (at least two) carries one perturbed value.
        assert!(num(&result, "failed") >= 2.0, "{w}:\n{stdout}");
    }
}

#[test]
fn the_summarizer_reads_a_traced_runs_span_file() {
    let (code, _, stdout) = tiny("mesh_signoff", "204", "1", &[]);
    assert_eq!(code, 0, "{stdout}");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out/spans-mesh_signoff-204.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_pmorbench"))
        .arg("--summarize")
        .arg(&path)
        .output()
        .expect("summarizer runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "full.eval",
        "rom.eval",
        "variation.mc_self_s",
        "trace.overhead",
        "full.share",
    ] {
        assert!(text.contains(needle), "summary lacks {needle}:\n{text}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "rom_sweep",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "rom_sweep", "--seed", "1", "--seconds", "1"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmorbench"))
            .args(args)
            .output()
            .expect("benchmark runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
