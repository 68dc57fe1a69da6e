#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py --runs 10 [--workloads a,b] [--first-seed 1]
                               [--traced-runs 1] [--out FILE]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
cycling through the workloads so slow phases of the machine hit all of them.
For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next to
the bound in BENCHMARK.json.  ``--traced-runs`` adds that many ``--trace 1``
runs per workload and records the medians of the per-layer metrics.  With
``--out`` everything, each run's machine block included, is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed: {detail['checks']}")
    return {"seed": seed, "detail": detail, "result": result}


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            runs[w].append(run_once(w, args.first_seed + i, 0))
            print(f"{w} seed {args.first_seed + i}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[w][-1]["result"]["metrics"].items()),
                file=sys.stderr, flush=True)
    for i in range(args.traced_runs):
        for w in workloads:
            traced[w].append(run_once(w, args.first_seed + i, 1))

    report = {"run_seconds": BENCH["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for w in workloads:
        entry = {"end_to_end": {}, "machine": [r["detail"]["machine"] for r in runs[w]],
                 "checks": [dict(seed=r["seed"], **r["detail"]["checks"]) for r in runs[w]]}
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            s = summarize([r["result"]["metrics"][name]["value"] for r in runs[w]])
            s["bound"] = metric["bound"]
            entry["end_to_end"][name] = s
            steady = name == "setup_s" or s["spread"] < metric["bound"] / 3
            ok &= steady
            print(f"{w:15s} {name:13s} median {s['median']:10.4g}  spread {s['spread']:.3f}"
                  f"  bound {metric['bound']}  {'ok' if steady else 'WIDE'}")
        if traced[w]:
            names = traced[w][0]["result"]["metrics"]
            entry["per_layer"] = {
                name: {"median": statistics.median(r["result"]["metrics"][name]["value"] for r in traced[w]),
                       "unit": names[name]["unit"]}
                for name in names
            }
            entry["traced_checks"] = [r["detail"]["checks"] for r in traced[w]]
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
