"""Shared plumbing of the benchmark: passes, checks, statistics, probes.

Every workload is a list of *operations* (one schedule call, one grid
cell, one simulation, one HTTP request).  A :class:`Pass` holds one
timed pass over them; the end-to-end metrics are computed from passes,
with each operation's time rescaled to a reference host speed by
:class:`HostSpeed`, and :func:`check_pass` counts each operation into
a :class:`Log` as attempted, and as failed when its output is wrong.  :class:`Probe` is
the traced run's instrument: a benchmark-side ``repro.obs.trace`` span
around a call into one layer, paired with the deltas of the
``repro.obs.metrics`` counters that the call moved.
"""

from __future__ import annotations

import bisect
import contextlib
import heapq
import math
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: CPU seconds of one :func:`calibration_unit` at the reference speed
#: (about what a calm 2-vCPU Intel Xeon virtual machine takes with
#: CPython 3.11): normalized times read in seconds at that speed.
REFERENCE_UNIT_S = 1.0e-3


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident set size (``VmHWM``) of another live process."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def calibration_unit() -> float:
    """A fixed piece of interpreter work, 1 ms at the reference speed:
    integer arithmetic, dict updates, a bounded heap and small numpy
    calls, the mix the schedulers spend their time in.  Its data stay
    within a few tens of KiB, so how much of the caches the workload
    evicted between two samples hardly moves it.  It calls nothing of
    the program, so a change to the program cannot move it.
    """
    counts: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    row = np.arange(64, dtype=float)
    acc = 0.0
    for i in range(800):
        k = (i * 7919) % 1031
        counts[k] = counts.get(k, 0) + i
        heapq.heappush(heap, (k, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += (i % 13) * 0.5
        if i % 40 == 0:
            acc += float(np.maximum(row, acc % 50.0).max())
    return acc


#: The CPUs this process may run on, before :func:`pin_to_one_cpu`.
CPUS = sorted(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads and processes it starts, on
    the first of :data:`CPUS`, so that :class:`HostSpeed` samples the
    CPU the workload runs on: two vCPUs of a shared host slow down
    independently."""
    os.sched_setaffinity(0, {CPUS[0]})


class HostSpeed:
    """Samples the host's CPU speed while a workload runs.

    On a shared virtual machine the CPU throughput swings with other
    tenants' load, by up to a factor of two over stretches as long as
    a whole run, and the process's CPU time swings with it.  A daemon
    thread runs :func:`calibration_unit` every ``PERIOD_S`` and records
    the unit's CPU time; an operation's CPU time divided by the median
    unit time sampled while it ran (at least the ``NEAREST`` samples
    closest to it), times :data:`REFERENCE_UNIT_S`, is its time at the
    reference speed.  The sampler holds the interpreter lock for about
    1 ms in every ``PERIOD_S``, which delays the workload's wall time
    by a few percent but not its CPU time.  It tracks the workload's
    speed only on the same CPU (see :func:`pin_to_one_cpu`): unpinned,
    its samples did not correlate with DLS call times at all.  ``cpu``
    pins the sampler to another CPU than this process's, the one a
    server process runs on.  Sample times are on the monotonic clock,
    which asyncio's loop also uses.
    """

    PERIOD_S = 0.02
    NEAREST = 9

    def __init__(self, cpu: Optional[int] = None) -> None:
        self.cpu = cpu
        self.times: List[float] = []
        self.units: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-host-speed")

    def __enter__(self) -> "HostSpeed":
        calibration_unit()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        if self.cpu is not None:  # this thread only
            os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(self.PERIOD_S):
            t, c = time.monotonic(), time.thread_time()
            calibration_unit()
            self.units.append(time.thread_time() - c)
            self.times.append(t)

    def unit_s(self, t0: float, t1: float) -> float:
        """Median unit time over the samples taken in ``[t0, t1]``, or
        over the ``NEAREST`` samples around it when fewer fell inside."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < self.NEAREST:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - self.NEAREST // 2,
                            len(self.times) - self.NEAREST))
            hi = lo + self.NEAREST
        return median(self.units[lo:hi])

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of work done in ``[t0, t1]``, at the reference
        speed."""
        return seconds * REFERENCE_UNIT_S / self.unit_s(t0, t1)

    def seconds(self, op: "Op") -> float:
        """``op``'s CPU time at the reference speed."""
        return self.scale(op.cpu, op.t0, op.t1)


class WallClock:
    """The unnormalized stand-in for :class:`HostSpeed`: an operation's
    wall time (the traced run, whose spans time the same way)."""

    @staticmethod
    def seconds(op: "Op") -> float:
        return op.t1 - op.t0


class Log:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> None:
        """Count one checked output: a failure when ``condition`` is false."""
        if condition:
            self.ok()
        else:
            self.fail(message)


@dataclass
class Op:
    """One timed call of an operation: ``key`` names the operation
    (the same in every pass), ``spec`` the heuristic or spec it runs;
    ``cpu`` is the calling thread's CPU seconds, ``t0``/``t1`` the
    ``time.monotonic`` window."""

    key: str
    spec: str
    cpu: float
    t0: float
    t1: float


@dataclass
class Pass:
    """One timed pass over a workload's operations.

    ``ops`` holds one :class:`Op` per call; ``outputs`` the
    JSON-able result of each operation by key (compared with
    ``reference.json``); ``schedules`` the finished static schedules
    by the same key (checked with ``validate()`` and replayed by the
    traced run); ``timelines`` the executed timelines of simulations,
    whose durations are the executed ones, so they are validated for
    overlap and precedence only; ``phases`` named per-pass totals
    (event and replan counts).
    """

    ops: List[Op] = field(default_factory=list)
    outputs: Dict[str, Any] = field(default_factory=dict)
    schedules: Dict[str, Any] = field(default_factory=dict)
    timelines: Dict[str, Any] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)

    @contextlib.contextmanager
    def timed(self, key: str, spec: str) -> Iterator[None]:
        """Record the block as one call of operation ``key``."""
        t0, c0 = time.monotonic(), time.thread_time()
        try:
            yield
        finally:
            cpu = time.thread_time() - c0
            self.ops.append(Op(key, spec, cpu, t0, time.monotonic()))


def fresh(graph):
    """A copy of ``graph`` with an empty memo, so that every pass pays
    for the attribute sweeps and CSR plans a new input costs."""
    from repro.core.graph import TaskGraph

    return TaskGraph(graph.weights, list(graph.edges()), name=graph.name)


def run_passes(one_pass, seconds: float) -> List[Pass]:
    """Repeat ``one_pass()`` while another pass of the mean length still
    fits in ``seconds`` (at least once)."""
    out: List[Pass] = []
    t0 = time.perf_counter()
    while True:
        out.append(one_pass())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def op_seconds(passes: Sequence[Pass], clock) -> Dict[str, Tuple[str, float]]:
    """Each operation's ``(spec, seconds)``: the median over all its
    calls in ``passes`` of the call's time by ``clock``
    (:class:`HostSpeed` or :class:`WallClock`)."""
    calls: Dict[str, Tuple[str, List[float]]] = {}
    for p in passes:
        for op in p.ops:
            calls.setdefault(op.key, (op.spec, []))[1].append(
                clock.seconds(op))
    return {key: (spec, median(secs)) for key, (spec, secs) in calls.items()}


def op_metrics_values(passes: Sequence[Pass], clock) -> Dict[str, Tuple]:
    """The generic end-to-end metrics of an in-process workload, as
    ``{name: (value, unit, samples)}``, from :func:`op_seconds`.

    ``wall_s`` is one pass at the reference speed: the sum of the
    operations' times; ``sched_geomean_ms`` the geometric mean over
    specs of each spec's total time; ``p50_ms``/``p99_ms`` percentiles
    over every call of every operation.
    """
    ops = op_seconds(passes, clock)
    totals: Dict[str, float] = {}
    for spec, secs in ops.values():
        totals[spec] = totals.get(spec, 0.0) + secs
    lat = [clock.seconds(op) * 1000.0 for p in passes for op in p.ops]
    samples = len(lat)
    return {
        "wall_s": (sum(secs for _, secs in ops.values()), "s", samples),
        "sched_geomean_ms": (geomean(v * 1000.0 for v in totals.values()),
                             "ms", samples),
        "p50_ms": (percentile(lat, 50), "ms", samples),
        "p99_ms": (percentile(lat, 99), "ms", samples),
    }


def same(got: Any, want: Any) -> bool:
    """Output equality: exact for strings, 1e-12 relative for numbers,
    elementwise for lists."""
    if isinstance(want, list):
        return (isinstance(got, (list, tuple)) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
    return got == want


def check_pass(p: Pass, reference: Dict[str, Any], log: Log) -> None:
    """Count one attempted operation per reference key: it fails when
    its output differs from the reference or its schedule or timeline
    is not ``validate()``-clean."""
    from repro.core.schedule import validate

    for key, want in reference.items():
        got = p.outputs.get(key)
        if not same(got, want):
            log.fail(f"{key}: got {got!r}, reference {want!r}")
            continue
        timeline = key in p.timelines
        sched = p.timelines[key] if timeline else p.schedules.get(key)
        if sched is not None:
            bad = validate(sched, check_durations=not timeline,
                           collect=True)
            if bad:
                log.fail(f"{key}: invalid schedule ({bad[0].message})")
                continue
        log.ok()


def counter_state() -> Dict[str, int]:
    """Every ``repro.obs.metrics`` counter, deterministic and local."""
    from repro.obs import metrics

    state = metrics.counters()
    state.update(metrics.local_counters())
    return state


class Probe:
    """Benchmark-side spans around calls into the program's layers.

    Disarmed (the end-to-end run), ``probe(name)`` is a no-op context.
    Armed, it opens a ``repro.obs.trace`` span called ``name`` and
    accumulates, per name, the call count, wall time and the deltas of
    every ``repro.obs.metrics`` counter the call moved; the deltas are
    also attached to the span's arguments so they show in Perfetto.
    """

    def __init__(self, armed: bool = False) -> None:
        self.armed = armed
        self.calls: Dict[str, Dict] = {}

    @contextlib.contextmanager
    def __call__(self, name: str, **attrs) -> Iterator[None]:
        if not self.armed:
            yield
            return
        from repro.obs import trace

        before = counter_state()
        t0 = time.perf_counter_ns()
        with trace.span(name, **attrs) as sp:
            yield
        elapsed = time.perf_counter_ns() - t0
        after = counter_state()
        delta = {k: v - before.get(k, 0) for k, v in after.items()
                 if v != before.get(k, 0)}
        if sp is not None:
            sp.args.update(delta)
        entry = self.calls.setdefault(
            name, {"count": 0, "ns": 0, "counters": {}})
        entry["count"] += 1
        entry["ns"] += elapsed
        for k, v in delta.items():
            entry["counters"][k] = entry["counters"].get(k, 0) + v

    def ms(self, name: str) -> float:
        entry = self.calls.get(name)
        return entry["ns"] / 1e6 if entry else 0.0

    def count(self, name: str) -> int:
        entry = self.calls.get(name)
        return entry["count"] if entry else 0

    def counter(self, counter: str, prefix: str = "") -> int:
        """Total delta of ``counter`` over spans whose name starts with
        ``prefix``."""
        return sum(e["counters"].get(counter, 0)
                   for n, e in self.calls.items() if n.startswith(prefix))


def replay_core(schedules: Sequence, probe: Probe,
                timelines: Sequence = ()) -> Dict[str, float]:
    """Time public kernel/schedule calls on finished schedules.

    The per-call costs of the hot primitives the schedulers lean on,
    measured on the workload's own schedules and graphs: one
    ``arrival_profile`` per node with parents, one ``earliest_slot``
    insertion search per node on its own processor, one of each
    attribute sweep per distinct graph, one ``validate`` per schedule
    (executed ``timelines`` without the duration check).
    """
    from repro.core import kernel
    from repro.core.schedule import validate

    loose = {id(t) for t in timelines}
    schedules = list(schedules) + list(timelines)
    graphs = {id(s.graph): s.graph for s in schedules}
    out: Dict[str, float] = {}

    calls = 0
    with probe("core.kernel.arrival_profile"):
        t0 = time.perf_counter_ns()
        for s in schedules:
            for node in range(s.graph.num_nodes):
                if s.graph.pred_pairs(node)[0]:
                    kernel.arrival_profile(s, node)
                    calls += 1
        out["core.kernel.arrival_profile_ns"] = (
            (time.perf_counter_ns() - t0) / max(calls, 1))

    calls = 0
    with probe("core.schedule.earliest_slot"):
        t0 = time.perf_counter_ns()
        for s in schedules:
            weights = s.graph.weights
            for node in range(s.graph.num_nodes):
                start = s.start_of(node)
                s.earliest_slot(s.proc_of(node), 0.5 * start,
                                float(weights[node]))
                calls += 1
        out["core.schedule.earliest_slot_ns"] = (
            (time.perf_counter_ns() - t0) / max(calls, 1))

    sweeps = (kernel.tlevel_sweep, kernel.blevel_sweep,
              kernel.static_blevel_sweep, kernel.static_tlevel_sweep)
    with probe("core.kernel.sweep"):
        t0 = time.perf_counter_ns()
        for g in graphs.values():
            for sweep in sweeps:
                sweep(g)
        out["core.kernel.sweep_ms"] = (
            (time.perf_counter_ns() - t0) / 1e6
            / max(len(graphs) * len(sweeps), 1))

    with probe("core.schedule.validate"):
        t0 = time.perf_counter_ns()
        for s in schedules:
            validate(s, check_durations=id(s) not in loose)
        out["core.schedule.validate_ms"] = (
            (time.perf_counter_ns() - t0) / 1e6 / max(len(schedules), 1))
    return out
