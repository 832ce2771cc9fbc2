"""The parameterized list scheduler that executes a component spec.

One loop, four plug points.  Every step: the processor selector picks
the next ``(node, proc, start)`` placement — either by popping the
ready pool (decoupled) or by scanning all (node, processor) pairs
(coupled) — the node is placed, newly-ready children are released into
the pool *after* the priority rule's dynamic update (the order the LAST
invariant requires), and the insertion policy may back-fill the idle
window the placement opened.

The paper's six BNP acronyms are registered here as named specs
(:data:`~repro.algorithms.components.spec.BNP_SPECS`): ``HLFET`` ...
``LAST`` run this loop, and the differential corpus pins their
placements.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ...core.graph import TaskGraph
from ...core.kernel import ArrivalProfile
from ...core.listsched import ReadyTracker, best_proc_min_est
from ...core.machine import Machine
from ...core.schedule import Schedule
from ...obs import metrics as _metrics
from ...obs import trace as _trace
from ..base import Scheduler, register
from .pools import ReadyPool
from .priorities import PriorityState
from .spec import BNP_SPECS, SchedulerSpec

__all__ = ["ParamScheduler", "run_component_loop"]


class ParamScheduler(Scheduler):
    """A BNP list scheduler assembled from a :class:`SchedulerSpec`.

    Instances are stateless between runs (all per-run state lives in
    the component *states*, created fresh inside :meth:`_run`), so
    :func:`repro.get_scheduler` can safely memoize them.  Taxonomy
    flags are derived from the components: the scheduler is CP-based
    iff its priority rule is, dynamic iff the priority updates or the
    selector couples node and processor choice, and inserting iff the
    insertion policy is not ``off``.

    ``name`` defaults to the spec's canonical string; the six paper
    acronyms pass their own name, a one-line ``headline`` citing the
    paper's source and the paper's ``complexity``.
    """

    klass = "BNP"

    def __init__(self, spec: SchedulerSpec, name: Optional[str] = None,
                 headline: Optional[str] = None,
                 complexity: Optional[str] = None):
        self.spec = spec
        self.headline = headline
        self._parts = parts = spec.components()
        prio, selector, insertion = (parts["prio"], parts["proc"],
                                     parts["insert"])
        self.name = name or spec.canonical()
        self.cp_based = prio.cp_based
        self.dynamic_priority = prio.dynamic or selector.coupled
        self.uses_insertion = insertion.slot or insertion.hole_fill
        self.complexity = complexity or (
            "O(p v^2)" if selector.coupled else "O(v^2)")

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        return run_component_loop(self._parts, graph, machine)


def run_component_loop(
    parts: Dict[str, object],
    graph: TaskGraph,
    machine: Machine,
    pinned: Sequence[Tuple[int, int, float, Optional[float]]] = (),
) -> Schedule:
    """Drive the four-axis component loop to a complete schedule.

    ``parts`` is a :meth:`SchedulerSpec.components` mapping.  ``pinned``
    pre-places execution history before the loop runs — ``(node, proc,
    start, duration)`` tuples in a precedence-consistent order
    (ascending start time) — which is how the online replanner
    (:mod:`repro.sim.online`) re-decides only the unstarted remainder of
    a plan: pinned tasks go through the same :func:`_settle`
    bookkeeping as loop placements, so dynamic priorities and ready
    pools see them exactly as if the loop had chosen them.  With no
    pins this is byte-for-byte the static :class:`ParamScheduler` run.
    """
    with _trace.span("sched.component_loop", graph=graph.name,
                     nodes=graph.num_nodes, pinned=len(pinned)):
        prio = parts["prio"].start(graph)
        schedule = Schedule(graph, machine.num_procs, speeds=machine.speeds)
        ready = ReadyTracker(graph)
        pool = parts["ready"].start(ready, prio)
        for node, proc, start, duration in pinned:
            schedule.place(node, proc, start, duration=duration)
            _settle(ready, prio, pool, node)
        pick = parts["proc"].start(schedule, ready)
        slot = parts["insert"].slot
        hole = parts["insert"].hole_fill
        profiles: Dict[int, ArrivalProfile] = {}
        gap_begin = 0.0
        while not ready.all_scheduled():
            node, proc, start = pick(pool, prio, slot)
            if hole:
                gap_begin = schedule.proc_ready_time(proc)
            schedule.place(node, proc, start)
            _settle(ready, prio, pool, node)
            if hole:
                profiles.pop(node, None)
                _fill_hole(schedule, ready, pool, prio, proc,
                           gap_begin, start, profiles)
        if pool.pops:
            _metrics.incr("sched.heap_pops", pool.pops)
    return schedule


def _settle(ready: ReadyTracker, prio: PriorityState, pool: ReadyPool,
            node: int) -> None:
    """Post-placement bookkeeping, in the order dynamic rules need.

    The priority update runs *between* computing the released children
    and pushing them: a dynamic rule (D_NODE) must see the placement
    reflected before any child's pool key is evaluated, and a child's
    own priority is frozen from that moment on — the invariant that
    keeps lazily-heaped keys current.
    """
    released = ready.mark_scheduled(node)
    prio.on_scheduled(node)
    for child in released:
        pool.push(child)


def _fill_hole(schedule: Schedule, ready: ReadyTracker, pool: ReadyPool,
               prio: PriorityState, proc: int, gap_begin: float,
               gap_end: float, profiles: Dict[int, ArrivalProfile]) -> None:
    """ISH's hole filler, generalised to any priority rule.

    The idle window ``[gap_begin, gap_end)`` on ``proc`` may host other
    ready nodes, best priority first.  Following Kruatrachue & Lewis, a
    node is inserted only when it (a) fits entirely inside the hole and
    (b) could not start earlier on any other processor — otherwise
    stealing it into the hole trades global placement quality for local
    utilisation.

    ``profiles`` caches one arrival profile per ready candidate across
    the run (a ready node's parents never move); it serves both the
    hole's data-ready time and the "elsewhere" check.
    """
    while gap_end - gap_begin > 1e-12:
        placed_any = False
        for cand in sorted(ready.iter_ready(), key=prio.key):
            profile = profiles.get(cand)
            if profile is None:
                profile = profiles[cand] = schedule.arrival_profile(cand)
            cand_start = max(gap_begin, profile.drt(proc))
            cand_dur = schedule.duration_of(cand, proc)
            if cand_start + cand_dur > gap_end + 1e-9:
                continue
            _, elsewhere = best_proc_min_est(schedule, cand,
                                             insertion=False,
                                             profile=profile)
            if cand_start > elsewhere + 1e-9:
                continue
            schedule.place(cand, proc, cand_start)
            del profiles[cand]
            _metrics.incr("sched.insertion_holes")
            _settle(ready, prio, pool, cand)
            gap_begin = cand_start + cand_dur
            placed_any = True
            break
        if not placed_any:
            break


#: The paper's six BNP heuristics: ``algo describe`` headline and the
#: complexity the paper gives.
_PAPER_BNP = {
    "HLFET": ("HLFET — Highest Level First with Estimated Times "
              "(Adam et al., 1974).", "O(v^2)"),
    "ISH": ("ISH — Insertion Scheduling Heuristic "
            "(Kruatrachue & Lewis, 1987).", "O(v^2)"),
    "MCP": ("MCP — Modified Critical Path (Wu & Gajski, 1990).",
            "O(v^2 log v)"),
    "ETF": ("ETF — Earliest Time First (Hwang, Chow, Anger & Lee, 1989).",
            "O(p v^2)"),
    "DLS": ("DLS — Dynamic Level Scheduling (Sih & Lee, 1993), "
            "clique variant.", "O(p v^3)"),
    "LAST": ("LAST — Localized Allocation of Static Tasks "
             "(Baxter & Patel, 1989).", "O(v(e+v))"),
}

for _acro, _spec in BNP_SPECS.items():
    register(ParamScheduler(_spec, _acro, *_PAPER_BNP[_acro]))
