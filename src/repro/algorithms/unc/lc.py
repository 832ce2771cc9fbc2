"""LC — Linear Clustering (Kim & Browne, 1988).

Iterated critical-path extraction: find the longest path (nodes + edges)
over the still-unclustered subgraph, make its nodes one linear cluster
(zeroing the edges along it), remove them, repeat.  Every cluster is
*linear* — its tasks form a chain — which Kim & Browne argue mirrors the
natural structure of parallel computations.

CP-based (each iteration clusters a whole critical path) but pays no
attention to processor economy: the paper observes LC uses more than 100
processors on 500-node graphs (Section 6.4.2).  Complexity O(v(v+e)).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set

from ...core.attributes import blevel
from ...core.graph import TaskGraph
from ...core.machine import Machine
from ...core.schedule import Schedule
from ..base import Scheduler, register
from ..mapping import schedule_from_mapping

__all__ = ["LC", "LongestPaths"]

_TIE = 1e-12
_DEAD = float("-inf")


class LongestPaths:
    """Longest (node + edge weight) paths of a DAG losing nodes over time.

    Each node keeps the length of the longest path from it through
    live nodes and the next node on that path (``-1`` for none).
    Scanning ``u`` walks its successors in ascending id order and
    takes a child only when ``w(u) + c + length(child)`` beats the
    running length by more than ``1e-12``; a dead child reads ``-inf``
    and never wins.  :meth:`longest` starts at the smallest id of
    maximal length and follows the next nodes.

    After :meth:`remove`, only the nodes whose scan could change are
    rescanned, deepest first: the parents that picked a removed node
    or a node whose length changed (all parents when a length grew),
    and every *near-tie* node.  A scan is a near-tie when its winner
    clears the threshold it beat (running length + ``1e-12``) by no
    more than ``1e-12``, so an earlier candidate may sit within
    ``1e-12`` of it.  Any other node keeps its pick while its winning
    child's length is unchanged and the other children's lengths only
    fall: the winner still clears every earlier candidate's threshold,
    and no later candidate, which could not beat it before, can beat
    it now.  Lengths only fall except at near-ties, and a grown length
    rescans all parents.  So every pick equals the one a full rescan
    of the live subgraph makes.
    """

    __slots__ = ("_graph", "_weights", "_topo", "_pos", "_length", "_succ",
                 "_pickers", "_near_ties", "_heap", "_queued")

    def __init__(self, graph: TaskGraph):
        n = graph.num_nodes
        self._graph = graph
        self._weights: List[float] = graph.weights.tolist()
        self._topo = graph.topological_order
        self._pos = [0] * n
        for i, u in enumerate(self._topo):
            self._pos[u] = i
        self._length: List[float] = [_DEAD] * n
        self._succ: List[int] = [-1] * n
        # _pickers[s]: the live nodes whose succ is s.
        self._pickers: List[Set[int]] = [set() for _ in range(n)]
        self._near_ties: Set[int] = set()
        self._heap: List[int] = []  # -topological position, deepest first
        self._queued = [False] * n
        for u in reversed(self._topo):
            self._scan(u)

    def _scan(self, u: int) -> float:
        """Recompute ``u`` from its children; returns its old length."""
        length = self._length
        wu = self._weights[u]
        best, new, thr, beaten = -1, wu, wu + _TIE, _DEAD
        for s, c in zip(*self._graph.succ_pairs(u)):
            cand = wu + c + length[s]
            if cand > thr:
                best, new, beaten, thr = s, cand, thr, cand + _TIE
        old = length[u]
        length[u] = new
        old_succ = self._succ[u]
        if best != old_succ:
            if old_succ >= 0:
                self._pickers[old_succ].discard(u)
            if best >= 0:
                self._pickers[best].add(u)
            self._succ[u] = best
        if best >= 0 and new <= beaten + _TIE:
            self._near_ties.add(u)
        else:
            self._near_ties.discard(u)
        return old

    def _push(self, u: int) -> None:
        if not self._queued[u]:
            self._queued[u] = True
            heapq.heappush(self._heap, -self._pos[u])

    def longest(self) -> List[int]:
        """The current longest path over live nodes (one must be live)."""
        length, succ, heap = self._length, self._succ, self._heap
        while heap:
            u = self._topo[-heapq.heappop(heap)]
            self._queued[u] = False
            old = self._scan(u)
            new = length[u]
            if new > old:
                for p in self._graph.pred_pairs(u)[0]:
                    if length[p] > _DEAD:  # live
                        self._push(p)
            elif new != old:
                for p in self._pickers[u]:
                    self._push(p)
        start = max(range(len(length)), key=length.__getitem__)
        path = [start]
        while succ[path[-1]] >= 0:
            path.append(succ[path[-1]])
        return path

    def remove(self, nodes: Sequence[int]) -> None:
        """Kill ``nodes``; the next :meth:`longest` rescans what changed."""
        for x in nodes:
            self._length[x] = _DEAD
            self._near_ties.discard(x)
            if self._succ[x] >= 0:
                self._pickers[self._succ[x]].discard(x)
        for x in nodes:
            for p in self._pickers[x]:
                self._push(p)
        for u in self._near_ties:
            self._push(u)


@register
class LC(Scheduler):
    name = "LC"
    klass = "UNC"
    cp_based = True
    dynamic_priority = False
    uses_insertion = False
    complexity = "O(v(v+e))"

    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        n = graph.num_nodes
        cluster = [-1] * n
        paths = LongestPaths(graph)
        next_cluster, left = 0, n
        while left:
            path = paths.longest()
            for node in path:
                cluster[node] = next_cluster
            paths.remove(path)
            left -= len(path)
            next_cluster += 1
        return schedule_from_mapping(graph, cluster, machine.num_procs,
                                     blevel(graph))
