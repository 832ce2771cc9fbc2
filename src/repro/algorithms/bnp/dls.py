"""DLS — Dynamic Level Scheduling (Sih & Lee, 1993), clique variant.

DLS maximises the *dynamic level* ``DL(n, p) = SL(n) - EST(n, p)`` over
all ready-node/processor pairs: a node high in the graph scheduled on a
processor where it can start early wins.  Unlike ETF (which minimises
EST globally and uses the static level only for ties), DLS trades the
two terms off against each other, so its choices drift from ETF's as the
schedule fills up.

The original targets "interconnection-constrained" architectures; the
contention-aware variant lives in :mod:`repro.algorithms.apn.dls_apn`.
This clique version is the BNP family member the paper evaluates.
Dynamic-priority, greedy, non-insertion; O(p v^3) worst case (the paper
reports DLS and ETF as the slowest BNP algorithms, and DLS as using the
fewest processors).  The pair search is the shared
:class:`~repro.core.listsched.CoupledScan`, as in ETF.
"""

from __future__ import annotations

from ...core.attributes import static_blevel
from ...core.graph import TaskGraph
from ...core.listsched import CoupledScan, ReadyTracker
from ...core.machine import Machine
from ...core.schedule import Schedule
from ..base import Scheduler, register

__all__ = ["DLS"]


@register
class DLS(Scheduler):
    name = "DLS"
    klass = "BNP"
    cp_based = False
    dynamic_priority = True
    uses_insertion = False
    complexity = "O(p v^3)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        sl = static_blevel(graph)
        schedule = Schedule(graph, machine.num_procs, speeds=machine.speeds)
        ready = ReadyTracker(graph)
        scan = CoupledScan(schedule, ready)
        while not ready.all_scheduled():
            node, proc, start = scan.dynamic_level(sl.__getitem__)
            schedule.place(node, proc, start)
            ready.mark_scheduled(node)
        return schedule
