"""Shared list-scheduling machinery.

All six BNP algorithms (and much of the APN class) are variations on one
loop: keep a ready list, pick the highest-priority ready node, pick a
processor, place, release children.  This module holds the pieces the
variants share so each algorithm module only encodes its distinguishing
decision (Section 3 of the paper: priority attribute, static vs dynamic
list, insertion vs non-insertion, greedy vs non-greedy processor choice).

The hot paths are built on the flat-array kernel
(:mod:`repro.core.kernel`): ready membership is an array of flags plus
an append-only order list, best-ready selection is a lazy-deletion heap,
and processor choice queries one :class:`~repro.core.kernel.ArrivalProfile`
per node instead of rescanning the parents for every candidate
processor.  The coupled (ready node, processor) searches of ETF and DLS
share one :class:`CoupledScan`, which evaluates every pair of a step as
one numpy array.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .graph import TaskGraph
from .kernel import ArrivalProfile, LazyPriorityQueue
from .schedule import Schedule

__all__ = [
    "ReadyTracker",
    "CoupledScan",
    "candidate_procs",
    "est_on_proc",
    "best_proc_min_est",
    "best_proc_min_eft",
]


class ReadyTracker:
    """Tracks which unscheduled nodes have all parents scheduled.

    The ready set starts with the entry nodes; :meth:`mark_scheduled`
    releases children whose last parent was just placed.  Iteration order
    is unspecified — ordering is the calling algorithm's job.

    Membership is an array of flags (``bytearray``) plus an append-only
    order list: a node becomes ready exactly once, so the list never
    holds more than ``v`` entries and :meth:`iter_ready` just skips the
    flags that have been cleared since.
    """

    __slots__ = ("graph", "_unscheduled_parents", "_in_ready",
                 "_ready_order", "_scheduled", "_num_left")

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        n = graph.num_nodes
        self._unscheduled_parents = [graph.in_degree(v) for v in
                                     graph.nodes()]
        self._in_ready = bytearray(n)
        self._ready_order: List[int] = list(graph.entry_nodes)
        for node in self._ready_order:
            self._in_ready[node] = 1
        self._scheduled = bytearray(n)
        self._num_left = n

    @property
    def ready(self) -> frozenset:
        """Frozen view of the current ready set.

        A *view*: callers may iterate and compare but cannot mutate the
        tracker through it — historical bugs where an algorithm
        "helpfully" discarded nodes from the live set are now type
        errors.
        """
        return frozenset(self.iter_ready())

    def iter_ready(self) -> Iterator[int]:
        """Iterate the ready nodes (in becoming-ready order)."""
        flags = self._in_ready
        return (node for node in self._ready_order if flags[node])

    def is_ready(self, node: int) -> bool:
        return bool(self._in_ready[node])

    def mark_scheduled(self, node: int) -> List[int]:
        """Remove ``node`` from the ready set; return newly-ready children."""
        if self._in_ready[node]:
            self._in_ready[node] = 0
        if not self._scheduled[node]:
            self._scheduled[node] = 1
            self._num_left -= 1
        released: List[int] = []
        remaining = self._unscheduled_parents
        for child in self.graph.succ_pairs(node)[0]:
            remaining[child] -= 1
            if remaining[child] == 0:
                self._in_ready[child] = 1
                self._ready_order.append(child)
                released.append(child)
        return released

    def all_scheduled(self) -> bool:
        return self._num_left == 0

    def priority_queue(self, key: Callable[[int], Tuple]
                       ) -> LazyPriorityQueue:
        """A lazy heap over this tracker's ready set.

        ``key`` orders ascending (smallest pops first).  The queue seeds
        itself from the current ready set; push newly-released children
        (and any node whose key changed) as scheduling progresses.
        """
        return LazyPriorityQueue(key, self.is_ready,
                                 initial=list(self.iter_ready()))


def candidate_procs(schedule: Schedule) -> List[int]:
    """Processors worth examining in the clique model.

    Identical empty processors are interchangeable — a node's EST is the
    same on every one of them — so it suffices to examine the used
    processors plus the first empty one.  This keeps the paper's
    "virtually unlimited number of processors" BNP runs (Section 6.4.2)
    at ``O(used)`` instead of ``O(p)`` per decision without changing any
    scheduling outcome.

    Under the heterogeneous speed model empty processors are *not*
    interchangeable, so the shortlist instead adds the first idle
    processor of each distinct speed.
    """
    procs = schedule.used_proc_ids()
    if len(procs) < schedule.num_procs:
        if schedule.speeds is None:
            # ``procs`` is ascending, so the first empty processor is
            # the first index where the used ids pull ahead.
            first_empty = len(procs)
            for i, p in enumerate(procs):
                if p != i:
                    first_empty = i
                    break
            procs.append(first_empty)
        else:
            used = set(procs)
            seen_speeds = set()
            for p in range(schedule.num_procs):
                if p in used:
                    continue
                speed = schedule.speeds[p]
                if speed not in seen_speeds:
                    seen_speeds.add(speed)
                    procs.append(p)
        procs.sort()  # preserve exact lowest-id tie-breaking
    return procs


def est_on_proc(schedule: Schedule, node: int, proc: int,
                insertion: bool) -> float:
    """Earliest start of ``node`` on ``proc`` in the clique model."""
    drt = schedule.data_ready_time(node, proc)
    return schedule.earliest_slot(proc, drt,
                                  schedule.duration_of(node, proc),
                                  insertion=insertion)


def best_proc_min_est(schedule: Schedule, node: int, insertion: bool,
                      profile: Optional[ArrivalProfile] = None
                      ) -> Tuple[int, float]:
    """Greedy processor choice: minimise the start time of ``node``.

    Ties break toward the lowest processor id (deterministic, and keeps
    the processors-used count honest for Figure 3).

    On a heterogeneous schedule the start alone is a bad criterion — a
    slow processor can offer the earliest start but the latest finish —
    so the choice generalises to minimum *finish* time (the standard
    related-machines generalisation of list scheduling, cf. HEFT).  On
    the paper's homogeneous machines the duration is the same on every
    processor, so both disciplines pick the same processor and this is
    exactly min-EST.

    ``profile`` is ``node``'s arrival profile when the caller already
    holds one (it stays valid while ``node`` is ready); by default one
    is built.
    """
    if schedule.speeds is not None:
        p, _finish = best_proc_min_eft(schedule, node, insertion, profile)
        return p, est_on_proc(schedule, node, p, insertion)
    if profile is None:
        profile = schedule.arrival_profile(node)
    duration = schedule.duration_of(node, 0)  # homogeneous: proc-independent
    best_p, best_t = 0, float("inf")
    for p in candidate_procs(schedule):
        t = schedule.earliest_slot(p, profile.drt(p), duration,
                                   insertion=insertion)
        if t < best_t - 1e-12:
            best_p, best_t = p, t
    return best_p, best_t


def best_proc_min_eft(schedule: Schedule, node: int, insertion: bool,
                      profile: Optional[ArrivalProfile] = None
                      ) -> Tuple[int, float]:
    """Processor minimising the *finish* time.

    Equivalent to :func:`best_proc_min_est` on uniform processors; under
    heterogeneous speeds a slower processor may offer the earlier start
    but the later finish, so the finish is minimised explicitly.
    """
    if profile is None:
        profile = schedule.arrival_profile(node)
    best_p, best_f = 0, float("inf")
    for p in candidate_procs(schedule):
        duration = schedule.duration_of(node, p)
        t = schedule.earliest_slot(p, profile.drt(p), duration,
                                   insertion=insertion)
        f = t + duration
        if f < best_f - 1e-12:
            best_p, best_f = p, f
    return best_p, best_f


class CoupledScan:
    """The (ready node, processor) start-time search of ETF and DLS.

    Each step of a coupled scheduler compares every ready node on every
    candidate processor (:func:`candidate_procs`).  Without insertion a
    pair starts at ``max(drt(node, proc), proc_ready_time(proc))``, and
    a ready node's data-ready row over the processors never changes:
    its parents are all placed and never move.  So the scan builds the
    row once, from the node's :class:`~repro.core.kernel.ArrivalProfile`
    (``r1`` everywhere, ``r2`` on ``g1``, raised to each local parent
    finish), when the node first shows up ready; keeps it in a slot of
    a row buffer that is reused once the node leaves the ready set; and
    evaluates each step as one ``np.maximum`` over the ready ×
    candidate block.  Processor ready times are read from the schedule
    every step, so placements made outside the scan (pinned history,
    hole fills) are seen.  Under insertion the rows still supply the
    data-ready times and each pair goes through the scalar
    :meth:`Schedule.earliest_slot`.

    Rows are ordered by node id and columns by processor id, so the
    first minimum of the block is the lowest (node, processor) pair
    among equals: both choice rules reproduce the scalar pair loop's
    lexicographic keys without comparing floats for equality.

    Memory is O(ready × width).  ``width`` covers every candidate
    processor seen so far and grows on demand up to ``num_procs``: a
    processor beyond a row's width at build time held none of that
    node's parents, so its data-ready time is the row's ``r1``.
    """

    __slots__ = ("schedule", "ready", "_rows", "_remote", "_slot_of",
                 "_free")

    def __init__(self, schedule: Schedule, ready: ReadyTracker):
        self.schedule = schedule
        self.ready = ready
        self._rows = np.empty((16, 0))
        self._remote = np.empty(16)  # each slot's r1, for widening
        self._slot_of: Dict[int, int] = {}
        self._free = list(range(15, -1, -1))

    def earliest(self, value: Callable[[int], float],
                 insertion: bool = False) -> Tuple[int, int, float]:
        """ETF's pick: the ``(node, proc, start)`` with the earliest start.

        Ties go to the larger ``value(node)``, then the lower node id,
        then the lower processor id.
        """
        nodes, procs, est = self._block(insertion)
        cols = est.argmin(axis=1)  # first minimum: lowest processor
        firsts = est[np.arange(len(nodes)), cols].tolist()
        start, _, node, j = min(zip(firsts, [-value(n) for n in nodes],
                                    nodes, cols.tolist()))
        return node, procs[j], start

    def dynamic_level(self, value: Callable[[int], float],
                      insertion: bool = False) -> Tuple[int, int, float]:
        """DLS's pick: the ``(node, proc, start)`` maximising
        ``value(node) - start``.

        Ties go to the lower node id, then the lower processor id.  The
        level is formed per pair, not from each row's minimum start:
        rounding can make distinct starts tie on it.
        """
        nodes, procs, est = self._block(insertion)
        level = np.array([value(n) for n in nodes], dtype=float)
        i, j = divmod(int((-(level[:, None] - est)).argmin()), len(procs))
        return nodes[i], procs[j], float(est[i, j])

    def _block(self, insertion: bool
               ) -> Tuple[List[int], List[int], np.ndarray]:
        """Ready nodes and candidate processors (both ascending) and the
        start time of every pair of them."""
        schedule = self.schedule
        procs = candidate_procs(schedule)
        if procs[-1] >= self._rows.shape[1]:
            self._widen(procs[-1] + 1)
        nodes = sorted(self.ready.iter_ready())
        slots = self._sync(nodes)
        drt = self._rows[np.array(slots)[:, None], procs]
        if not insertion:
            return nodes, procs, np.maximum(
                drt, [schedule.proc_ready_time(p) for p in procs])
        est = np.empty_like(drt)
        for i, node in enumerate(nodes):
            for j, (p, d) in enumerate(zip(procs, drt[i].tolist())):
                est[i, j] = schedule.earliest_slot(
                    p, d, schedule.duration_of(node, p), insertion=True)
        return nodes, procs, est

    def _sync(self, nodes: List[int]) -> List[int]:
        """Release the slots of departed nodes; return ``nodes``' slots,
        building the rows of newly ready ones."""
        slot_of = self._slot_of
        for node in slot_of.keys() - set(nodes):
            self._free.append(slot_of.pop(node))
        for node in nodes:
            if node not in slot_of:
                slot_of[node] = self._admit(node)
        return list(map(slot_of.__getitem__, nodes))

    def _admit(self, node: int) -> int:
        if not self._free:
            cap = len(self._remote)
            self._rows = np.concatenate([self._rows,
                                         np.empty_like(self._rows)])
            self._remote = np.concatenate([self._remote,
                                           np.empty(cap)])
            self._free = list(range(2 * cap - 1, cap - 1, -1))
        slot = self._free.pop()
        profile = self.schedule.arrival_profile(node)
        row = self._rows[slot]
        row.fill(profile.r1)
        if profile.g1 >= 0:
            row[profile.g1] = profile.r2
        for group, finish in profile.local.items():
            if finish > row[group]:
                row[group] = finish
        self._remote[slot] = profile.r1
        return slot

    def _widen(self, need: int) -> None:
        width = self._rows.shape[1]
        rows = np.empty((len(self._remote),
                         min(self.schedule.num_procs,
                             max(need, 2 * width))))
        rows[:, :width] = self._rows
        rows[:, width:] = self._remote[:, None]
        self._rows = rows
