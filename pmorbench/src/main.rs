//! `pmorbench`: the end-to-end benchmark of the pmor workspace.
//!
//! ```text
//! pmorbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--fault corrupt-rom|perturb-response]
//! pmorbench --summarize <span file>
//! ```
//!
//! One workload per invocation. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) records spans around
//! every call into a layer, writes them under `pmorbench/out/`, reads the
//! file back and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Every pass runs each layer on one thread; see `README.md`.

mod alloc;
mod grid_reduce;
mod harness;
mod mesh;
mod serve_scatter;
mod stats;
mod summary;
mod trace;

use harness::{Fault, Opts, Outcome, Size};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A workload: runs its set-ups and passes and reports what it measured.
type Workload = fn(&Opts) -> Result<Outcome, String>;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [(&str, Workload); 4] = [
    ("grid_reduce", grid_reduce::run),
    ("mesh_signoff", mesh::signoff),
    ("rom_sweep", mesh::sweep),
    ("serve_scatter", serve_scatter::run),
];

/// Threads each layer runs on in a timed pass (printed in the header).
const THREADS: &str = "engine=1 reduction=1 serve_engine=1 clients=2";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: pmorbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|tiny] [--fault corrupt-rom|perturb-response]\n       \
         pmorbench --summarize <span file>",
        names.join("|")
    )
}

enum Command {
    Run(Opts),
    Summarize(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut fault = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--summarize" => return Ok(Command::Summarize(PathBuf::from(value()?))),
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size must be full or tiny, got {other:?}")),
                }
            }
            "--fault" => {
                fault = Some(match value()?.as_str() {
                    "corrupt-rom" => Fault::CorruptRom,
                    "perturb-response" => Fault::PerturbResponse,
                    other => return Err(format!("unknown --fault {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Command::Run(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        fault,
    }))
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// FNV-1a over every library source file and manifest (sorted paths
/// and contents), so two runs can show they measured the same code.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} over {} files", files.len())
}

/// The checked-out commit, when `root` itself is a git checkout (a
/// parent directory's repository would name the wrong code).
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn run(opts: &Opts) -> Result<bool, String> {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# pmorbench workload={} seed={} seconds={} trace={} size={:?}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.size
    );
    println!(
        "# commit={} source_digest={} nproc={nproc} threads: {THREADS} rustc={}",
        commit(&root),
        source_digest(&root),
        env!("PMORBENCH_RUSTC")
    );

    trace::set_enabled(opts.trace);
    let work = WORKLOADS
        .iter()
        .find(|(n, _)| *n == opts.workload)
        .map(|(_, f)| *f)
        .ok_or("unknown workload")?;
    let outcome = work(opts)?;
    trace::set_enabled(false);
    let peak_rss_mb = alloc::peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;

    let (s1, setup_s, s3) = stats::quartiles(&outcome.setup_s);
    let (p1, pass_s, p3) = stats::quartiles(&outcome.pass_s);
    println!(
        "# setup_s: median {setup_s:.6} s (q1 {s1:.6}, q3 {s3:.6}; wall median {:.6} s) over {} samples of {} set-ups",
        stats::median(&outcome.setup_wall),
        outcome.setup_s.len(),
        outcome.setup_group
    );
    println!(
        "# pass_s: median {pass_s:.6} s (q1 {p1:.6}, q3 {p3:.6}; wall median {:.6} s) over {} untraced passes",
        stats::median(&outcome.pass_wall),
        outcome.pass_s.len()
    );
    println!("# peak_rss_mb: {peak_rss_mb:.3}");
    println!(
        "# operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );

    let metrics: Vec<String> = if opts.trace {
        let path = root
            .join("pmorbench")
            .join("out")
            .join(format!("spans-{}-{}.jsonl", opts.workload, opts.seed));
        trace::write(&trace::snapshot(), &path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# spans written to {}",
            path.strip_prefix(&root).unwrap_or(&path).display()
        );
        let summary = summary::summarize(&trace::read(&path)?);
        for line in summary::render(&summary) {
            println!("{line}");
        }
        summary
            .metrics
            .iter()
            .map(|m| json_metric(m.name, m.value, m.unit))
            .collect()
    } else {
        vec![
            json_metric("setup_s", setup_s, "s"),
            json_metric("pass_s", pass_s, "s"),
            json_metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pmorbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Summarize(path) => match trace::read(&path) {
            Ok(t) => {
                for line in summary::render(&summary::summarize(&t)) {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pmorbench: {e}");
                ExitCode::from(2)
            }
        },
        Command::Run(opts) => match run(&opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("pmorbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}
