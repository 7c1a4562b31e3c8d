#!/usr/bin/env python3
"""Steadiness check of the benchmark: runs perfbench/run.py once per seed on
each workload and prints, for every end-to-end metric, the median over the
runs and the spread (q3 - q1) / median beside a third of the metric's bound.

    python3 perfbench/spread.py --seeds 1-10 [--workload paper_sc ...]
                                [--trace 0|1] [--out perfbench/results/x.json]

Spreads at or above a third of the bound are flagged. --out
writes the result set: the host stamp (commit, nproc, compiler) and every
run's result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workload", action="append",
                    default=None, help="repeatable; default: every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    result_set = {"host": None, "run_seconds": bench["run_seconds"], "trace": args.trace,
                  "workloads": {}}
    steady = True
    for wl in workloads:
        runs = []
        for seed in args.seeds:
            p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl,
                                "--seed", str(seed), "--trace", str(args.trace)],
                               capture_output=True, text=True, cwd=ROOT)
            lines = p.stdout.strip().splitlines()
            host = [l for l in lines if l.startswith("host ")]
            if host:
                result_set["host"] = json.loads(host[0][5:])
            result = json.loads(lines[-1]) if p.returncode == 0 else None
            runs.append({"seed": seed, "exit": p.returncode, "result": result})
            print(f"{wl} seed {seed}: exit {p.returncode}", flush=True)
            if result is None:
                steady = False
                print(p.stdout[-2000:] + p.stderr[-2000:])
        result_set["workloads"][wl] = {"runs": runs}
        good = [r["result"]["metrics"] for r in runs if r["result"]]
        if len(good) < 2:
            continue
        print(f"{wl}: {len(good)} runs")
        for name in good[0]:
            xs = [g[name]["value"] for g in good]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            limit = bounds.get(name, float("inf")) / 3
            flag = spread >= limit
            steady = steady and not flag
            print(f"  {name:<32} median {med:<14.6g} spread {spread:.4f}"
                  f"  bound/3 {limit:.4f}{'  <-- not steady' if flag else ''}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result_set, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
