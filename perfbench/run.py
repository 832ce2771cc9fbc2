#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 16 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` runs one pass of the workload traced
(``REPRO_TRACE`` armed in this process), then pairs untraced and traced
runs of small units of it for ``obs.trace_overhead_pct``, prints every
per-layer metric and writes a Perfetto trace plus its manifest to
``perfbench/out/<workload>-seed<n>.trace.json``.  Human-readable lines
come first (metric, value, unit, sample count); the last line of
standard output is the JSON result object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ladder", "paper-grid", "robustness", "storm")
#: Fewest untraced/traced pairs behind ``obs.trace_overhead_pct``.
MIN_PAIRS = 5


@dataclass
class Context:
    root: str
    seed: int
    variant: int


def _module(workload: str):
    import grid
    import ladder
    import robustness
    import storm

    return {"ladder": ladder, "paper-grid": grid,
            "robustness": robustness, "storm": storm}[workload]


class Traced:
    """Arms ``REPRO_TRACE`` in this process for one block.

    On exit it keeps the block's tracer and run manifest, then drops the
    process tracer and metrics, so that later calls are untraced again.
    """

    def __enter__(self) -> "Traced":
        from common import counter_state
        from repro import obs

        os.environ[obs.ENV_VAR] = "1"
        obs.reset()
        self.before = counter_state()
        return self

    def deltas(self) -> Dict[str, int]:
        """Counter changes since the block began."""
        from common import counter_state

        return {k: v - self.before.get(k, 0)
                for k, v in counter_state().items()}

    def __exit__(self, *exc) -> None:
        from repro import obs

        self.tracer = obs.current()
        self.manifest = obs.build_manifest()
        os.environ.pop(obs.ENV_VAR, None)
        obs.reset()


def counter_layers(deltas: Dict[str, int]) -> Dict[str, float]:
    return {"core.kernel.profiles": deltas.get("kernel.profiles", 0),
            "core.kernel.sweeps": deltas.get("kernel.sweeps", 0),
            "core.schedule.insertion_holes":
                deltas.get("sched.insertion_holes", 0),
            "core.listsched.heap_pops": deltas.get("sched.heap_pops", 0),
            "sim.events": deltas.get("sim.events", 0)}


def trace_overhead_pct(units: List[Callable], seconds: float
                       ) -> Tuple[float, int]:
    """Tracing overhead in percent, and the number of pairs behind it.

    Each pair runs one unit of work untraced and traced back to back
    (which half goes first alternates); the overhead is the median over
    pairs of traced over untraced time, minus one.  Pairs cycle through
    ``units`` until ``seconds`` are used up (at least ``MIN_PAIRS``).
    The two halves of a pair are at most a few seconds apart, so the
    host's slower drift in speed cancels out of each ratio.
    """
    from common import Probe, median

    def timed(unit, traced: bool) -> float:
        if traced:
            with Traced():
                t = time.perf_counter()
                unit(Probe(armed=True))
                return time.perf_counter() - t
        t = time.perf_counter()
        unit(Probe())
        return time.perf_counter() - t

    ratios = []
    t0 = time.perf_counter()
    for k, unit in enumerate(itertools.cycle(units)):
        if k >= MIN_PAIRS and time.perf_counter() - t0 > seconds:
            break
        if k % 2:
            traced = timed(unit, True)
            plain = timed(unit, False)
        else:
            plain = timed(unit, False)
            traced = timed(unit, True)
        ratios.append(traced / plain)
    return 100.0 * (median(ratios) - 1.0), len(ratios)


def write_trace(workload: str, seed: int, armed: Traced,
                layers: Dict[str, float], probe) -> str:
    """The Perfetto trace and its manifest, with the benchmark's layer
    values and per-span call records added to the manifest."""
    from repro import obs

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
    manifest = dict(armed.manifest,
                    perfbench={"layers": layers, "calls": probe.calls})
    obs.write_trace(path, armed.tracer, manifest=manifest)
    obs.write_manifest(obs.manifest_path_for(path), manifest)
    return path


def run_inprocess(mod, state, args, reference, log, values) -> None:
    from common import (HostSpeed, Probe, WallClock, check_pass,
                        op_metrics_values, peak_rss_mb, replay_core,
                        run_passes)

    if not args.trace:
        def checked_pass():
            # Checked untimed after each pass, then its outputs are
            # dropped, so peak RSS does not grow with the pass count.
            p = mod.one_pass(state, Probe())
            check_pass(p, reference, log)
            p.outputs.clear()
            p.schedules.clear()
            p.timelines.clear()
            return p

        with HostSpeed() as speed:
            passes = run_passes(checked_pass, args.seconds)
        values.update(op_metrics_values(passes, speed))
        if hasattr(mod, "workload_metrics"):
            values.update(mod.workload_metrics(passes, speed))
        values["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        return
    from repro.obs import trace

    probe = Probe(armed=True)
    with Traced() as armed:
        with trace.span(f"perfbench.{args.workload}"):
            traced = mod.one_pass(state, probe)
        counted = armed.deltas()
        schedules = (list(traced.schedules.values())
                     if not hasattr(mod, "replay_schedules")
                     else mod.replay_schedules(state))
        with trace.span("perfbench.replay"):
            core = replay_core(schedules, probe,
                               timelines=list(traced.timelines.values()))
        layers = counter_layers(counted)
        layers.update(core)
        layers.update(mod.layers(state, traced, probe))
    check_pass(traced, reference, log)
    if hasattr(mod, "workload_metrics"):
        layers.update({k: v for k, (v, *_)
                       in mod.workload_metrics([traced], WallClock).items()})
    overhead, pairs = trace_overhead_pct(mod.overhead_units(state),
                                         args.seconds)
    layers["obs.trace_overhead_pct"] = overhead
    path = write_trace(args.workload, args.seed, armed, layers, probe)
    values.update({k: (v, None, 1) for k, v in layers.items()})
    values["obs.trace_overhead_pct"] = (overhead, None, pairs)
    print(f"trace: {os.path.relpath(path, ROOT)}")


def run_storm(mod, state, args, reference, log, values) -> None:
    from common import Probe, replay_core

    values.update(mod.measure(state, args.seconds, reference, log))
    if not args.trace:
        return
    from repro.obs import trace

    bodies = mod.replay_bodies(state)
    probe = Probe(armed=True)
    with Traced() as armed:
        with trace.span("perfbench.storm"):
            mod.replay(bodies, probe)
        counted = armed.deltas()
        with trace.span("perfbench.replay"):
            core = replay_core(mod.replay_schedules(state), probe)
        layers = counter_layers(counted)
        layers.update(core)
        layers.update(mod.replay_layers(probe))
    overhead, pairs = trace_overhead_pct(mod.overhead_units(state),
                                         args.seconds)
    layers["obs.trace_overhead_pct"] = overhead
    path = write_trace(args.workload, args.seed, armed, layers, probe)
    values.update({k: (v, None, 1) for k, v in layers.items()})
    values["obs.trace_overhead_pct"] = (overhead, None, pairs)
    print(f"trace: {os.path.relpath(path, ROOT)}")


def import_cpu_seconds() -> float:
    """CPU time of a fresh interpreter that starts and imports the
    program.

    Measured in a child process, so that it can be repeated: this
    process imports once, and one import is a single noisy sample.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import numpy, repro.api"],
                   env=env, check=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime)


def _close(state) -> None:
    if state is not None and hasattr(state, "close"):
        state.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload; the last stdout line is "
                    "the JSON result.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a full checkout "
              "of the repository", file=sys.stderr)
        return 2
    # A terminated run still unwinds, so the storm's server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.environ.pop("REPRO_TRACE", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from common import SETUP_REPEATS, HostSpeed, Log, median, pin_to_one_cpu
    import spec

    pin_to_one_cpu()

    mod = _module(args.workload)
    ctx = Context(root=ROOT, seed=args.seed,
                  variant=args.seed % mod.VARIANTS)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload][str(ctx.variant)]

    log = Log()
    values: Dict[str, Tuple] = {}
    state = None
    imports, setups = [], []  # (seconds, t0, t1) per repeat
    try:
        with HostSpeed() as speed:
            for _ in range(SETUP_REPEATS):
                _close(state)
                state = None
                t0 = time.monotonic()
                cpu = import_cpu_seconds()
                t1 = time.monotonic()
                state = mod.setup(ctx)
                t2 = time.monotonic()
                imports.append((cpu, t0, t1))
                setups.append((t2 - t1, t1, t2))
        values["setup_s"] = (
            sum(median([speed.scale(*window) for window in part])
                for part in (imports, setups)),
            "s", SETUP_REPEATS)
        runner = run_storm if args.workload == "storm" else run_inprocess
        runner(mod, state, args, reference, log, values)
    finally:
        _close(state)  # stops the storm's server process

    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    names = [n for n, *_ in (spec.PER_LAYER if args.trace
                             else spec.END_TO_END)]
    for name in names:  # a layer this workload does not exercise reads 0
        values.setdefault(name, (0.0, None, 0))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"variant={ctx.variant} trace={args.trace}")
    width = max(len(n) for n in values)
    for name, (value, unit, samples) in values.items():
        print(f"  {name:<{width}}  {value:>14.6g} "
              f"{unit or units.get(name, ''):<6} n={samples}")
    ratio = log.failed / max(log.attempted, 1)
    print(f"  {'fail_ratio':<{width}}  {ratio:>14.6g} {'ratio':<6} "
          f"n={log.attempted}")
    for message in log.errors:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    result = {
        "correct": log.failed == 0 and log.attempted > 0,
        "attempted": max(log.attempted, 1),
        "failed": log.failed,
        "metrics": {n: {"value": float(values[n][0]), "unit": units[n]}
                    for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
