"""ISH — Insertion Scheduling Heuristic (Kruatrachue & Lewis, 1987).

HLFET plus *hole filling*: when placing the selected node leaves an idle
gap on its processor (because the node must wait for data), ISH tries to
fill the gap with other ready nodes that fit without delaying the node
just scheduled.  The paper singles ISH out as evidence that "insertion
is better than non-insertion — a simple algorithm employing insertion
can yield dramatic performance" (Section 7).
"""

from __future__ import annotations

from typing import Dict

from ...core.attributes import static_blevel
from ...core.graph import TaskGraph
from ...core.kernel import ArrivalProfile
from ...core.listsched import ReadyTracker, best_proc_min_est
from ...core.machine import Machine
from ...core.schedule import Schedule
from ..base import Scheduler, register

__all__ = ["ISH"]


@register
class ISH(Scheduler):
    name = "ISH"
    klass = "BNP"
    cp_based = False
    dynamic_priority = False
    uses_insertion = True
    complexity = "O(v^2)"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        sl = static_blevel(graph)
        schedule = Schedule(graph, machine.num_procs, speeds=machine.speeds)
        ready = ReadyTracker(graph)
        queue = ready.priority_queue(lambda n: (-sl[n], n))
        # One arrival profile per ready node that hole filling looked
        # at: its parents never move, so the profile stays valid until
        # the node itself is placed.
        profiles: Dict[int, ArrivalProfile] = {}
        while not ready.all_scheduled():
            node = queue.pop_best()
            # Processor choice is HLFET's: min EST without insertion.
            proc, start = best_proc_min_est(schedule, node, insertion=False,
                                            profile=profiles.pop(node, None))
            gap_begin = schedule.proc_ready_time(proc)
            schedule.place(node, proc, start)
            for child in ready.mark_scheduled(node):
                queue.push(child)
            # Hole filling: the idle window [gap_begin, start) may host
            # other ready nodes, highest static level first.  Following
            # Kruatrachue & Lewis, a node is inserted only when it (a)
            # fits entirely inside the hole and (b) could not start
            # earlier on any other processor — otherwise stealing it
            # into the hole trades global placement quality for local
            # utilisation.
            gap_end = start
            while gap_end - gap_begin > 1e-12:
                placed_any = False
                for cand in sorted(ready.iter_ready(),
                                   key=lambda n: (-sl[n], n)):
                    profile = profiles.get(cand)
                    if profile is None:
                        profile = profiles[cand] = \
                            schedule.arrival_profile(cand)
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
                    for child in ready.mark_scheduled(cand):
                        queue.push(child)
                    gap_begin = cand_start + cand_dur
                    placed_any = True
                    break
                if not placed_any:
                    break
        return schedule
