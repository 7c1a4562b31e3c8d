#!/usr/bin/env python3
"""Benchmark of the RPCC simulator: one named workload per invocation.

    python3 perfbench/run.py --workload paper_sc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload in turn

Builds perfbench/ (and the simulator from src/) into .bench_build/perfbench
on first use, runs the benchmark's own tests (`perfbench selftest`), then
measures for --seconds, starting a fresh process for every repetition:

--trace 0  repeats the untraced workload and prints the end-to-end metrics
           with the median and quartiles over repetitions and their count
           (see AGGREGATE for which statistic each metric reports).
--trace 1  repeats (untraced, traced) pairs and prints the per-layer
           metrics; the traced run must execute as many events as the
           untraced one.

Workloads, the held-out seed and the layer map live in perfbench/workloads.json;
metric names, units and bounds in BENCHMARK.json. The sim_* metrics are
deterministic for a seed; every repetition must give the same digest.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. attempted/failed count repetitions (processes): a repetition
fails when it crashes, its digest differs from another repetition's,
invariant_violations != 0, no query is answered, or (on workloads that name
relays) avg_relay_peers == 0. Unanswered queries are the simulated
workload's own failed operations and are printed beside sim_answer_ratio.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
benchmark cannot run here (no simulator sources, build failure).
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# A run of one workload must end within 180 s of its start (after any
# build). Every process it starts, the selftest included, gets at most what
# is left of one shared deadline: this budget (10 s short of 180), or twice
# --seconds when that is longer.
RUN_BUDGET_S = 170
deadline = None  # set by main() once the build is done
# The traced run's seven step classes, as per-layer metrics. They partition
# the summed step time; sim.kernel_s (each step's time outside event
# dispatch) cuts across all of them.
STEP_CLASSES = ("fault.invariant_sweep_s", "cache.query_s", "cache.update_s",
                "routing.deliver_s", "net.deliver_s", "net.on_air_s", "sim.other_s")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {path.name}: {e}")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (ROOT / "src" / "scenario" / "scenario.hpp").is_file():
        die("simulator sources (src/) not found; run from a full source checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_binary(args):
    """Runs one perfbench process; returns (parsed last line, error)."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        p = subprocess.run([str(BINARY), *args], capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out: the run's {RUN_BUDGET_S} s budget is spent"
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-400:]}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "no JSON result line"


def stamp():
    """Commit, nproc and compiler of this result set."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    compiler = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                cxx = line.split("=", 1)[1]
                p = subprocess.run([cxx, "--version"], capture_output=True, text=True)
                compiler = p.stdout.splitlines()[0] if p.returncode == 0 else cxx
    return {"commit": commit, "nproc": os.cpu_count(), "compiler": compiler,
            "machine": platform.machine()}


def repeat(once, seconds, min_reps):
    """Calls once() at least min_reps times and while another call still
    fits in `seconds` (judged by the mean call time so far)."""
    start = time.monotonic()
    out = []
    while True:
        out.append(once())
        elapsed = time.monotonic() - start
        if len(out) >= min_reps and elapsed + elapsed / len(out) > seconds:
            return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def perfbench_args(mode, cfg, wl, seed):
    args = [mode, cfg["protocol"]] + [f"{k}={v}" for k, v in wl["overrides"].items()]
    return args + [f"seed={seed}"]


def rep_problems(rep, err, wl):
    if rep is None:
        return [err]
    problems = []
    if rep["invariant_violations"] != 0:
        problems.append(f"invariant_violations={rep['invariant_violations']}")
    if rep["queries_answered"] == 0:
        problems.append("no query answered")
    if wl["require_relays"] and rep["avg_relay_peers"] == 0:
        problems.append("avg_relay_peers == 0: the workload no longer elects relays")
    return problems


def end_to_end(rep):
    """Host-time metrics of one untraced repetition."""
    return {
        "wall_per_sim_s": rep["run_s"] / rep["sim_span_s"],
        "frames_per_s": rep["rx_frames"] / rep["run_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_bytes"] / 2**20,
    }


# How a run reports each host metric over its repetitions. Host time is
# timed by its best repetition: on a shared host, other tenants only ever
# slow a process down, so the fastest repetition is the steadiest estimate of
# the program's own speed. Each repetition's setup_s is already the fastest
# of its builds. Memory is the median.
AGGREGATE = {"wall_per_sim_s": ("min", min), "frames_per_s": ("max", max),
             "setup_s": ("min", min),
             "peak_rss_mb": ("median", statistics.median)}


def sim_outcomes(rep):
    """Simulated-result metrics; identical for every repetition of a seed."""
    answered = rep["queries_answered"]
    return {
        "sim_msgs_per_s": rep["msgs_per_s"],
        "sim_latency_mean_s": rep["latency_mean_s"],
        "sim_latency_p95_s": rep["latency_p95_s"],
        "sim_stale_rate": rep["stale_answers"] / answered if answered else 0.0,
        "sim_answer_ratio": answered / rep["queries_issued"] if rep["queries_issued"] else 0.0,
    }


class Outcome:
    """Repetition accounting and the failure messages of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        """Counts one repetition; returns True when it passed."""
        self.attempted += 1
        self.failed += 1 if problems else 0
        for p in problems:
            self.fail(f"{label}: {p}")
        return not problems

    def fail(self, what):
        self.problems.append(what)
        print(f"  FAIL {what}")


def same_digest(name, reps, outcome):
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        outcome.fail(f"{name}: repetitions disagree on the digest: {', '.join(digests)}")
        outcome.failed = outcome.attempted
        return False
    return True


def measure_untraced(cfg, name, wl, seed, seconds, bench, outcome):
    reps = repeat(lambda: run_binary(perfbench_args("untraced", cfg, wl, seed)),
                  seconds, cfg["min_reps"])
    good = [rep for i, (rep, err) in enumerate(reps)
            if outcome.record(f"{name} repetition {i + 1}", rep_problems(rep, err, wl))]
    if not good or not same_digest(name, good, outcome):
        return {}
    host = [end_to_end(r) for r in good]
    sim = sim_outcomes(good[0])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + cfg["ungated"]}
    first = good[0]
    pinned = wl.get(f"digest_seed_{seed}")
    note = "" if pinned is None else (" (same as pinned)" if pinned == first["digest"]
                                      else f" (pinned {pinned}: behaviour changed)")
    print(f"  digest {first['digest']}{note}; events {first['events']}; "
          f"sim span {first['sim_span_s']:g} sim_s after warm-up {wl['overrides']['warmup']}")
    print(f"  {'metric':<20} {'reported':>14} {'as':>6} {'median':>14} {'q1':>14} {'q3':>14}"
          f"  unit (over {len(host)} repetitions; set-up over "
          f"{sum(r['setup_builds'] for r in good)} builds)")
    values = {}
    for metric, (how, aggregate) in AGGREGATE.items():
        xs = [h[metric] for h in host]
        q1, q3 = quartiles(xs)
        values[metric] = aggregate(xs)
        print(f"  {metric:<20} {values[metric]:>14.6g} {how:>6} {statistics.median(xs):>14.6g}"
              f" {q1:>14.6g} {q3:>14.6g}  {units[metric]}")
    for metric, v in sim.items():
        values[metric] = v
        print(f"  {metric:<20} {v:>14.6g} {'every repetition (deterministic)':>51}  {units[metric]}")
    unanswered = first["queries_issued"] - first["queries_answered"]
    print(f"  queries: {unanswered} unanswered of {first['queries_issued']} issued "
          f"(failed operations of the simulated workload); "
          f"avg_relay_peers {first['avg_relay_peers']:.1f}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def measure_traced(cfg, name, wl, seed, seconds, bench, outcome):
    def pair():
        base, err = run_binary(perfbench_args("untraced", cfg, wl, seed))
        problems = rep_problems(base, err, wl)
        if problems:
            return base, None, problems
        traced, err = run_binary(perfbench_args("traced", cfg, wl, seed))
        if traced is None:
            return base, None, [f"traced: {err}"]
        if traced["events"] != base["events"]:
            return base, None, [f"traced run executed {traced['events']} events, "
                                f"untraced {base['events']}"]
        return base, traced, traced["mismatches"]

    pairs = repeat(pair, seconds, 1)
    layer_runs = []
    for i, (base, traced, problems) in enumerate(pairs):
        if outcome.record(f"{name} pair {i + 1}", problems):
            m = dict(traced["metrics"])
            m["trace.overhead"] = traced["wall_s"] / (base["warmup_s"] + base["run_s"]) - 1
            layer_runs.append(m)
    if outcome.problems or not same_digest(name, [p[0] for p in pairs], outcome):
        return {}
    values = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    print(f"  traced events {pairs[0][1]['events']} = untraced events; "
          f"n={len(layer_runs)} (untraced, traced) pairs; digest {pairs[0][0]['digest']}")
    print(f"  trace.overhead {values['trace.overhead']:.4f}  "
          f"trace.unattributed_share {values['trace.unattributed_share']:.4f}")
    classes = {k: values[k] for k in STEP_CLASSES}
    total = sum(classes.values())
    print("  step time by class: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in sorted(classes.items(), key=lambda kv: -kv[1])))
    for layer in cfg["layers"]:
        print(f"  [{layer['layer']}] should move: {layer['should_move']}")
        for metric in layer["metrics"]:
            print(f"    {metric:<36} {values[metric]:>16.6g} {units[metric]}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]}


def run_workload(cfg, bench, name, seed, seconds, trace):
    wl = cfg["workloads"][name]
    outcome = Outcome()
    why = next(w["why"] for w in bench["workloads"] if w["name"] == name)
    print(f"== {name} seed={seed} trace={trace} overrides: "
          + " ".join(f"{k}={v}" for k, v in wl["overrides"].items()))
    print(f"   why: {why}")
    measure = measure_traced if trace else measure_untraced
    metrics = measure(cfg, name, wl, seed, seconds, bench, outcome)
    return outcome, metrics


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    cfg = load_json(HERE / "workloads.json")
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(cfg["workloads"]) + ["all"])
    ap.add_argument("--seed", type=int, default=cfg["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    names = list(cfg["workloads"]) if args.workload == "all" else [args.workload]
    global deadline
    deadline = time.monotonic() + len(names) * max(RUN_BUDGET_S, 2 * args.seconds)
    print("host " + json.dumps(stamp()))
    try:
        p = subprocess.run([str(BINARY), "selftest"], capture_output=True, text=True,
                           timeout=deadline - time.monotonic())
        selftest_ok = p.returncode == 0
        print("selftest " + ("passed" if selftest_ok else "FAILED:\n" + p.stdout + p.stderr))
    except subprocess.TimeoutExpired:
        selftest_ok = False
        print(f"selftest FAILED: timed out: the run's {RUN_BUDGET_S} s budget is spent")

    attempted = failed = 0
    correct = selftest_ok
    metrics = {}
    for name in names:
        outcome, m = run_workload(cfg, bench, name, args.seed, args.seconds, args.trace)
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and not outcome.problems and bool(m)
        prefix = "" if len(names) == 1 else name + "/"
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
