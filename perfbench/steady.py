#!/usr/bin/env python3
"""Run each workload over several seeds and summarise the spread.

    python3 perfbench/steady.py [--runs 10] [--out perfbench/baseline.json]

Every workload runs with seeds ``0 .. runs-1``.  For every end-to-end
metric of every workload it reports the median of the runs and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  A spread above a third of its bound
is flagged.  One traced run per workload (the first seed) adds the
per-layer values.  ``--out`` appends the summary, with every run's
values and duration, to the ``sets`` list of a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One benchmark run's result, plus its duration as ``elapsed_s``."""
    cmd = spec.COMMAND + ["--workload", workload, "--seed", str(seed),
                          "--seconds", str(spec.RUN_SECONDS),
                          "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    summary = {}
    for workload, _ in spec.WORKLOADS:
        runs, elapsed = [], []
        for seed in range(args.runs):
            result = run_once(workload, seed, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output")
            runs.append({n: m["value"] for n, m in result["metrics"].items()})
            elapsed.append(result["elapsed_s"])
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{n}={v:.6g}" for n, v in runs[-1].items()),
                  flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            rows[name] = {"median": statistics.median(values),
                          "spread": spread(values), "bound": bound,
                          "values": values}
            flag = "" if rows[name]["spread"] < bound / 3 else "  <-- wide"
            print(f"  {workload:<11} {name:<17} median "
                  f"{rows[name]['median']:<12.6g} spread "
                  f"{rows[name]['spread']:.4f} (bound {bound}){flag}",
                  flush=True)
        traced = run_once(workload, 0, 1)
        if not traced["correct"]:
            raise SystemExit(f"{workload} traced run: incorrect output")
        summary[workload] = {"seeds": list(range(args.runs)),
                             "run_elapsed_s": elapsed,
                             "traced_run_elapsed_s": traced["elapsed_s"],
                             "metrics": rows,
                             "per_layer": {n: m["value"] for n, m
                                           in traced["metrics"].items()}}
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as fh:
                sets = json.load(fh)["sets"]
        sets.append(summary)
        with open(args.out, "w") as fh:
            json.dump({"sets": sets}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
