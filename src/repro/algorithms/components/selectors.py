"""Processor-selection rules: the ``proc=`` axis of the component space.

Two shapes exist, mirroring the split the paper draws between the
"greedy" BNP schedulers and the exhaustive pair-searchers:

*Decoupled* selectors (``est``, ``eft``) let the ready pool decide
*which* node is next, then choose the processor for that node alone.
*Coupled* selectors (``etf``, ``dls``) scan every (ready node,
candidate processor) pair each step and decide node and processor
together — the ready-pool ordering is irrelevant to them, and the
priority rule participates through its scalar ``value`` (ETF's
tie-break, DLS's dynamic-level term).

Both coupled selectors run the shared
:class:`~repro.core.listsched.CoupledScan`: one numpy block per step
over the candidate shortlist, with the lexicographic tie-breaks of the
scalar pair loop it replaced.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ...core.listsched import (
    best_proc_min_eft,
    best_proc_min_est,
    CoupledScan,
    est_on_proc,
    ReadyTracker,
)
from ...core.schedule import Schedule
from .pools import ReadyPool
from .priorities import PriorityState

__all__ = ["ProcSelector", "PROC_SELECTORS"]

#: A per-run pick function: ``pick(pool, prio, slot)`` returns the next
#: ``(node, proc, start)`` placement; ``slot`` is the insertion policy's
#: earliest-slot flag.
Pick = Callable[[ReadyPool, PriorityState, bool], Tuple[int, int, float]]


class ProcSelector:
    """One value of the ``proc=`` axis.

    ``start`` binds the selector to one run's schedule and ready
    tracker (creating any per-run scan state, as ``prio.start`` and
    ``pool.start`` do) and returns its :data:`Pick` function.
    """

    key: str = "?"
    summary: str = "?"
    coupled: bool = False

    def start(self, schedule: Schedule, ready: ReadyTracker) -> Pick:
        raise NotImplementedError


class _MinEstSelector(ProcSelector):
    key = "est"
    summary = ("pop the pool's best node; place on the processor "
               "minimising its start time")
    coupled = False

    def start(self, schedule: Schedule, ready: ReadyTracker) -> Pick:
        def pick(pool: ReadyPool, prio: PriorityState,
                 slot: bool) -> Tuple[int, int, float]:
            node = pool.pop()
            proc, start = best_proc_min_est(schedule, node, insertion=slot)
            return node, proc, start
        return pick


class _MinEftSelector(ProcSelector):
    key = "eft"
    summary = ("pop the pool's best node; place on the processor "
               "minimising its finish time (HEFT-style; differs from "
               "est only under heterogeneous speeds)")
    coupled = False

    def start(self, schedule: Schedule, ready: ReadyTracker) -> Pick:
        def pick(pool: ReadyPool, prio: PriorityState,
                 slot: bool) -> Tuple[int, int, float]:
            node = pool.pop()
            proc, _finish = best_proc_min_eft(schedule, node,
                                              insertion=slot)
            return node, proc, est_on_proc(schedule, node, proc, slot)
        return pick


class _CoupledSelector(ProcSelector):
    """A pair scan over the whole ready set: one ``CoupledScan`` rule."""

    coupled = True

    def __init__(self, key: str, summary: str,
                 rule: Callable[..., Tuple[int, int, float]]):
        self.key = key
        self.summary = summary
        self._rule = rule

    def start(self, schedule: Schedule, ready: ReadyTracker) -> Pick:
        scan, rule = CoupledScan(schedule, ready), self._rule
        return lambda pool, prio, slot: rule(scan, prio.value, slot)


PROC_SELECTORS: Dict[str, ProcSelector] = {
    "est": _MinEstSelector(),
    "eft": _MinEftSelector(),
    "etf": _CoupledSelector(
        "etf", "ETF's global scan: the (ready node, processor) pair "
        "with the overall earliest start wins; priority value breaks "
        "ties", CoupledScan.earliest),
    "dls": _CoupledSelector(
        "dls", "DLS's dynamic level: maximise priority value minus "
        "start time over all (ready node, processor) pairs",
        CoupledScan.dynamic_level),
}
