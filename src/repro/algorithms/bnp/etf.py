"""ETF — Earliest Time First (Hwang, Chow, Anger & Lee, 1989).

At every step ETF computes the earliest start time of *every* ready node
on *every* processor and schedules the (node, processor) pair that can
start soonest; ties are resolved toward the node with the higher static
level.  The exhaustive pair search is what the paper blames for ETF's
high running time (Table 6): a dynamic-priority, greedy, non-insertion
algorithm of complexity O(p v^2).  Here the pair search is the shared
:class:`~repro.core.listsched.CoupledScan`, one numpy block per step.
"""

from __future__ import annotations

from ...core.attributes import static_blevel
from ...core.graph import TaskGraph
from ...core.listsched import CoupledScan, ReadyTracker
from ...core.machine import Machine
from ...core.schedule import Schedule
from ..base import Scheduler, register

__all__ = ["ETF"]


@register
class ETF(Scheduler):
    name = "ETF"
    klass = "BNP"
    cp_based = False
    dynamic_priority = True
    uses_insertion = False
    complexity = "O(p v^2)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        sl = static_blevel(graph)
        schedule = Schedule(graph, machine.num_procs, speeds=machine.speeds)
        ready = ReadyTracker(graph)
        scan = CoupledScan(schedule, ready)
        while not ready.all_scheduled():
            node, proc, start = scan.earliest(sl.__getitem__)
            schedule.place(node, proc, start)
            ready.mark_scheduled(node)
        return schedule
