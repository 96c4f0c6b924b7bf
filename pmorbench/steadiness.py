#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs the declared command once per (seed, workload) with --trace 0, from
the repository root, interleaving the workloads so each one's runs spread
over the whole check, and saves every result line. Then prints, per
workload and end-to-end metric, the median and quartiles over the seeds
(as statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median beside the metric's bound.

    python3 pmorbench/steadiness.py run  results.json 101 102 ... 110
    python3 pmorbench/steadiness.py table results.json [second.json]

With two result files the table adds the second set's median relative to
the first's.
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def run(out_path, seeds):
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    runs = []
    for seed in seeds:
        for w in WORKLOADS:
            args = ["--workload", w, "--seed", seed,
                    "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
            t = time.time()
            p = subprocess.run(BENCH["command"] + args, capture_output=True,
                               text=True, cwd=ROOT, env=env)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            runs.append({"workload": w, "seed": seed, "exit": p.returncode,
                         "wall_s": time.time() - t, "result": result})
            print(w, seed, p.returncode,
                  {k: v["value"] for k, v in result.get("metrics", {}).items()}, flush=True)
            with open(out_path, "w") as f:
                json.dump(runs, f, indent=1)


def table(paths):
    sets = [json.load(open(p)) for p in paths]
    head = "| workload | metric | bound |"
    for i in range(len(sets)):
        head += f" set {chr(65 + i)}: median (q1–q3) | spread |"
    if len(sets) == 2:
        head += " B/A − 1 |"
    print(head)
    print("|---" * (head.count("|") - 1) + "|")
    for w in WORKLOADS:
        for m, bound in BOUNDS.items():
            row, medians = f"| `{w}` | `{m}` | {bound} |", []
            for runs in sets:
                v = [r["result"]["metrics"][m]["value"] for r in runs
                     if r["workload"] == w and r["result"].get("correct")]
                q1, med, q3 = statistics.quantiles(v, n=4)
                medians.append(med)
                row += f" {med:.4g} ({q1:.4g}–{q3:.4g}) | {(q3 - q1) / med:.3f} |"
            if len(sets) == 2:
                row += f" {medians[1] / medians[0] - 1:+.3f} |"
            print(row)
    for p, runs in zip(paths, sets):
        ok = sum(1 for r in runs if r["result"].get("correct"))
        walls = [r["wall_s"] for r in runs]
        print(f"\n{os.path.basename(p)}: {len(runs)} runs, {ok} correct, "
              f"wall per run mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3:])
    elif len(sys.argv) >= 3 and sys.argv[1] == "table":
        table(sys.argv[2:])
    else:
        sys.exit(__doc__)
