#!/usr/bin/env python3
"""Record the benchmark's reference outputs and its BENCHMARK.json.

    python3 perfbench/record.py reference [WORKLOAD ...]
    python3 perfbench/record.py spec

``reference`` recomputes every reference output of every input variant
(untimed) and rewrites ``perfbench/reference.json``; run it only when a
change is meant to alter outputs.  ``spec`` rewrites ``BENCHMARK.json``
at the repository root from ``perfbench/spec.py``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from common import Probe  # noqa: E402
from run import Context, WORKLOADS, _module  # noqa: E402


def _inprocess(mod, ctx) -> dict:
    from repro.core.schedule import validate

    p = mod.one_pass(mod.setup(ctx), Probe())
    for key, value in p.outputs.items():
        if isinstance(value, str):
            raise SystemExit(f"{key}: {value}")
    for sched in p.schedules.values():
        validate(sched)
    for timeline in p.timelines.values():
        validate(timeline, check_durations=False)
    return p.outputs


def _storm(mod, ctx) -> dict:
    from repro.scenarios.storm import StormConfig, storm_bodies
    from repro.service.protocol import schedule_cell

    def length(body):
        result = schedule_cell((body["graph"], body["machine"], body["spec"]))
        if "error" in result:
            raise SystemExit(result["error"])
        return result["length"]

    templates = storm_bodies(StormConfig())
    return {"templates": [length(b) for b in templates],
            "cold": [length(mod.cold_body(templates, ctx.variant, j))
                     for j in range(mod.COLD_POOL)]}


def record(workloads) -> None:
    path = os.path.join(HERE, "reference.json")
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    for workload in workloads:
        mod = _module(workload)
        data[workload] = {}
        for variant in range(mod.VARIANTS):
            ctx = Context(root=ROOT, seed=variant, variant=variant)
            fn = _storm if workload == "storm" else _inprocess
            data[workload][str(variant)] = fn(mod, ctx)
            print(f"{workload} variant {variant}: recorded", flush=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv) -> int:
    if argv[:1] == ["spec"]:
        import spec

        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(spec.benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if argv[:1] == ["reference"]:
        record(argv[1:] or WORKLOADS)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
