"""Weighted directed acyclic task graphs (macro-dataflow graphs).

The model follows Section 2 of Kwok & Ahmad (IPPS 1998): a node represents
a task with a *computation cost* ``w(n)``; a directed edge ``(u, v)``
represents a precedence constraint with a *communication cost* ``c(u, v)``
that is incurred only when ``u`` and ``v`` execute on different processors.

Nodes are integers ``0 .. num_nodes-1``.  The graph is immutable after
construction; derived quantities (topological order, predecessor lists,
critical path) are computed lazily and cached.
"""

from __future__ import annotations

import math
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

import numpy as np

from ..check import sanitize as _sanitize
from .exceptions import CycleError, GraphError

__all__ = ["TaskGraph"]

Edge = Tuple[int, int]


class TaskGraph:
    """An immutable weighted DAG of tasks.

    Parameters
    ----------
    weights:
        Sequence of computation costs; ``weights[i]`` is the cost of node
        ``i``.  Must be finite and positive.
    edges:
        Mapping ``(u, v) -> communication cost`` or iterable of
        ``(u, v, cost)`` triples.  Costs must be finite and non-negative
        (a zero cost edge still carries a precedence constraint).
    name:
        Optional human-readable identifier used in benchmark reports.

    Examples
    --------
    >>> g = TaskGraph([2.0, 3.0, 1.0], {(0, 1): 4.0, (0, 2): 1.0})
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> list(g.successors(0))
    [1, 2]
    """

    __slots__ = (
        "_weights",
        "_succ",
        "_pred",
        "_succ_costs",
        "_pred_costs",
        "_edge_cost",
        "name",
        "_topo",
        "_entries",
        "_exits",
        "_cache",
    )

    def __init__(
        self,
        weights: Sequence[float],
        edges: Mapping[Edge, float] | Iterable[Tuple[int, int, float]],
        name: str = "taskgraph",
    ):
        w = np.asarray(list(weights), dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise GraphError("a task graph needs at least one node")
        if not np.all(np.isfinite(w)):
            raise GraphError("computation costs must be finite")
        if np.any(w <= 0):
            raise GraphError("computation costs must be positive")
        n = int(w.size)

        if isinstance(edges, Mapping):
            items = [(u, v, c) for (u, v), c in edges.items()]
        else:
            items = [(u, v, c) for (u, v, c) in edges]

        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        cost: Dict[Edge, float] = {}
        for u, v, c in items:
            u, v, c = int(u), int(v), float(c)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            if u == v:
                raise GraphError(f"self loop on node {u}")
            if not math.isfinite(c):
                raise GraphError(
                    f"non-finite communication cost on ({u}, {v})")
            if c < 0:
                raise GraphError(f"negative communication cost on ({u}, {v})")
            if (u, v) in cost:
                raise GraphError(f"duplicate edge ({u}, {v})")
            cost[(u, v)] = c
            succ[u].append(v)
            pred[v].append(u)
        for lst in succ:
            lst.sort()
        for lst in pred:
            lst.sort()

        self._weights = w
        self._weights.setflags(write=False)
        self._succ = succ
        self._pred = pred
        # Communication costs aligned index-for-index with the adjacency
        # lists: the kernel inner loops walk (neighbour, cost) pairs
        # without touching the edge dict.
        self._succ_costs = [[cost[(u, v)] for v in succ[u]] for u in range(n)]
        self._pred_costs = [[cost[(p, v)] for p in pred[v]] for v in range(n)]
        self._edge_cost = cost
        self._cache: Dict[str, Any] = {}
        self.name = name
        self._topo: Tuple[int, ...] | None = None
        self._entries: Tuple[int, ...] | None = None
        self._exits: Tuple[int, ...] | None = None
        # Validate acyclicity eagerly: a cyclic "task graph" is never usable.
        self._compute_topo()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of tasks ``v``."""
        return int(self._weights.size)

    @property
    def num_edges(self) -> int:
        """Number of precedence edges ``e``."""
        return len(self._edge_cost)

    @property
    def weights(self) -> np.ndarray:
        """Read-only array of computation costs indexed by node."""
        return self._weights

    def weight(self, node: int) -> float:
        """Computation cost ``w(node)``."""
        return float(self._weights[node])

    def comm_cost(self, u: int, v: int) -> float:
        """Communication cost ``c(u, v)``; raises ``KeyError`` if no edge."""
        return self._edge_cost[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        """True when the precedence edge ``(u, v)`` exists."""
        return (u, v) in self._edge_cost

    def successors(self, node: int) -> List[int]:
        """Children of ``node`` in ascending node order."""
        return list(self._succ[node])

    def predecessors(self, node: int) -> List[int]:
        """Parents of ``node`` in ascending node order."""
        return list(self._pred[node])

    def out_degree(self, node: int) -> int:
        return len(self._succ[node])

    def in_degree(self, node: int) -> int:
        return len(self._pred[node])

    def edges(self) -> List[Tuple[int, int, float]]:
        """All edges as ``(u, v, cost)`` triples, sorted by ``(u, v)``.

        A fresh list on every call.  The adjacency lists are already
        sorted, so it is read off them without sorting.
        """
        succ, costs = self._succ, self._succ_costs
        return [(u, v, c) for u in range(self.num_nodes)
                for v, c in zip(succ[u], costs[u])]

    def nodes(self) -> range:
        """Node ids ``0 .. num_nodes-1``."""
        return range(self.num_nodes)

    def fingerprint(self) -> str:
        """Stable content identity of the graph structure.

        A short SHA-256 digest over the node count, every computation
        cost and every ``(u, v, cost)`` edge — the *name* is
        deliberately excluded, so two differently-named copies of the
        same DAG share one identity.  Schedulers are pure functions of
        ``(graph, machine, spec)``, which makes this digest the graph
        part of every schedule-cache key (see :mod:`repro.service`):
        equal fingerprints guarantee bit-identical schedules from any
        deterministic scheduler.  Computed once per graph (the graph is
        immutable) and memoised.
        """
        import hashlib

        def compute(g: "TaskGraph") -> str:
            h = hashlib.sha256()
            h.update(str(g.num_nodes).encode())
            h.update(g._weights.tobytes())
            for u, v, c in g.edges():
                h.update(f"|{u},{v},{c:.17g}".encode())
            return h.hexdigest()[:16]

        return str(self.cached("_fingerprint", compute))

    # ------------------------------------------------------------------
    # flat-array kernel views
    # ------------------------------------------------------------------
    def cached(self, key: str, compute: "Callable[[TaskGraph], Any]") -> Any:
        """Memoise ``compute(self)`` under ``key``.

        The graph is immutable, so any pure derived quantity (attribute
        sweeps, CSR plans, the critical path) is computed at most once
        per graph.  Callers must treat the returned object as read-only.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = compute(self)
            self._cache[key] = value
            return value

    def succ_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Successor adjacency in CSR form.

        Returns read-only ``(indptr, indices, costs)``: the successors
        of ``u`` are ``indices[indptr[u]:indptr[u+1]]`` (ascending) and
        ``costs`` is aligned index-for-index with ``indices``.
        """
        csr = self.cached("_succ_csr", lambda g: _build_csr(g._succ,
                                                            g._succ_costs))
        if _sanitize.enabled():
            self._sanitize_csr("_succ_csr", csr, self._succ, self._succ_costs)
        return csr

    def pred_csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Predecessor adjacency in CSR form (mirror of :meth:`succ_csr`)."""
        csr = self.cached("_pred_csr", lambda g: _build_csr(g._pred,
                                                            g._pred_costs))
        if _sanitize.enabled():
            self._sanitize_csr("_pred_csr", csr, self._pred, self._pred_costs)
        return csr

    def _sanitize_csr(self, key: str,
                      csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
                      adj: List[List[int]],
                      costs: List[List[float]]) -> None:
        """Sanitizer hook: CSR must round-trip against the list adjacency.

        Runs on every armed call — the cached CSR was built from the
        lists at first use, so a later mismatch means a kernel or
        scheduler corrupted shared adjacency memory.
        """
        indptr, indices, cost = csr
        _sanitize.require(
            int(indptr[0]) == 0 and int(indptr[-1]) == len(indices)
            and len(indices) == len(cost),
            f"{self.name}: CSR shape broken for {key}")
        for u in range(self.num_nodes):
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            _sanitize.require(
                list(indices[lo:hi]) == adj[u]
                and list(cost[lo:hi]) == costs[u],
                f"{self.name}: CSR row {u} does not round-trip the "
                f"adjacency lists ({key})")

    def succ_pairs(self, node: int) -> Tuple[List[int], List[float]]:
        """Internal ``(successors, costs)`` lists for ``node``.

        Shared, **read-only** views — the kernel hot loops use these to
        walk (child, cost) pairs without per-edge dict lookups.
        """
        return self._succ[node], self._succ_costs[node]

    def pred_pairs(self, node: int) -> Tuple[List[int], List[float]]:
        """Internal ``(predecessors, costs)`` lists for ``node``."""
        return self._pred[node], self._pred_costs[node]

    @property
    def node_levels(self) -> np.ndarray:
        """Precedence level per node (longest hop-count from an entry).

        Level-batching is what lets the attribute sweeps in
        :mod:`repro.core.kernel` vectorise: nodes within one level are
        mutually independent.
        """
        return self.cached("_levels", _compute_levels)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _compute_topo(self) -> Tuple[int, ...]:
        if self._topo is not None:
            return self._topo
        n = self.num_nodes
        indeg = [len(self._pred[i]) for i in range(n)]
        # Kahn's algorithm with a FIFO over ascending ids: deterministic.
        queue = deque(i for i in range(n) if indeg[i] == 0)
        order: List[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if len(order) != n:
            raise CycleError("task graph contains a directed cycle")
        self._topo = tuple(order)
        return self._topo

    @property
    def topological_order(self) -> Tuple[int, ...]:
        """A deterministic topological ordering of the nodes."""
        return self._compute_topo()

    @property
    def entry_nodes(self) -> Tuple[int, ...]:
        """Nodes without parents."""
        if self._entries is None:
            self._entries = tuple(
                i for i in range(self.num_nodes) if not self._pred[i]
            )
        return self._entries

    @property
    def exit_nodes(self) -> Tuple[int, ...]:
        """Nodes without children."""
        if self._exits is None:
            self._exits = tuple(
                i for i in range(self.num_nodes) if not self._succ[i]
            )
        return self._exits

    # ------------------------------------------------------------------
    # aggregate properties
    # ------------------------------------------------------------------
    @property
    def total_computation(self) -> float:
        """Sum of all computation costs (serial execution time)."""
        return float(self._weights.sum())

    @property
    def total_communication(self) -> float:
        """Sum of all communication costs."""
        return float(sum(self._edge_cost.values()))

    @property
    def ccr(self) -> float:
        """Communication-to-computation ratio.

        Defined (Section 2 of the paper) as average communication cost
        divided by average computation cost; 0 for edge-less graphs.
        """
        if not self._edge_cost:
            return 0.0
        avg_c = self.total_communication / self.num_edges
        avg_w = self.total_computation / self.num_nodes
        return avg_c / avg_w

    def width(self) -> int:
        """Largest antichain size approximated by maximum level population.

        The paper defines *width* as the largest number of mutually
        non-precedence-related nodes.  Computing the true maximum antichain
        is a matching problem; the standard proxy used when *generating*
        the RGNOS suite is the largest number of nodes sharing the same
        precedence level, which we report here.
        """
        return int(np.bincount(self.node_levels).max())

    def depth(self) -> int:
        """Number of precedence levels (longest chain, in hops + 1)."""
        return int(self.node_levels.max()) + 1 if self.num_nodes else 0

    # ------------------------------------------------------------------
    # interop / dunder
    # ------------------------------------------------------------------
    @classmethod
    def from_networkx(cls, g: Any, weight_attr: str = "weight",
                      comm_attr: str = "weight", name: str | None = None
                      ) -> "TaskGraph":
        """Build a :class:`TaskGraph` from a ``networkx.DiGraph``.

        Node labels may be arbitrary hashables; they are relabelled to
        ``0..n-1`` in sorted-by-string order (deterministic).
        """
        nodes = sorted(g.nodes, key=str)
        index = {u: i for i, u in enumerate(nodes)}
        weights = [float(g.nodes[u].get(weight_attr, 1.0)) for u in nodes]
        edges = {
            (index[u], index[v]): float(data.get(comm_attr, 0.0))
            for u, v, data in g.edges(data=True)
        }
        return cls(weights, edges, name=name or getattr(g, "name", "") or "from_networkx")

    def to_networkx(self) -> Any:
        """Export to a ``networkx.DiGraph`` with weight attributes."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for i in self.nodes():
            g.add_node(i, weight=self.weight(i))
        for u, v, c in self.edges():
            g.add_edge(u, v, weight=c)
        return g

    def relabeled(self, name: str) -> "TaskGraph":
        """Shallow copy with a different ``name``."""
        return TaskGraph(self._weights, self._edge_cost, name=name)

    def __len__(self) -> int:
        return self.num_nodes

    def __getstate__(self) -> Dict[str, Any]:
        # The cache holds derived numpy arrays/plans that are cheap to
        # rebuild and may not pickle stably; ship only the definition.
        return {
            "weights": self._weights,
            "edges": self._edge_cost,
            "name": self.name,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__init__(state["weights"], state["edges"], name=state["name"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TaskGraph(name={self.name!r}, v={self.num_nodes}, "
            f"e={self.num_edges}, ccr={self.ccr:.3g})"
        )


def _build_csr(adj: List[List[int]], costs: List[List[float]]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compress per-node adjacency/cost lists into read-only CSR arrays."""
    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adj], out=indptr[1:])
    indices = np.fromiter(
        (v for a in adj for v in a), dtype=np.int64, count=int(indptr[-1]))
    cost = np.fromiter(
        (c for cl in costs for c in cl), dtype=np.float64,
        count=int(indptr[-1]))
    for arr in (indptr, indices, cost):
        arr.setflags(write=False)
    return indptr, indices, cost


def _compute_levels(graph: "TaskGraph") -> np.ndarray:
    level = np.zeros(graph.num_nodes, dtype=np.int64)
    for u in graph.topological_order:
        lu = level[u] + 1
        for v in graph._succ[u]:
            if lu > level[v]:
                level[v] = lu
    level.setflags(write=False)
    return level
