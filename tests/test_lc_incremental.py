"""Differential tests: LC's incremental longest paths against the full scan.

:class:`~repro.algorithms.unc.lc.LongestPaths` replaced a loop that
rescanned every live edge of the graph for each cluster LC extracts.
That loop lives on here, in the test only, as the oracle: the
incremental peeler must yield the same cluster for every node over
tie-heavy integer weights, weights ~1e-13 apart (near-ties of the
``1e-12`` tolerance), sub-``1e-12`` weights, zero-cost edges, single
nodes, disconnected graphs and the 1200-node ladder.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_scheduler
from repro.algorithms.unc.lc import LongestPaths
from repro.core.graph import TaskGraph
from repro.core.machine import Machine
from repro.generators.random_graphs import rgnos_graph


def _oracle_longest_path(graph: TaskGraph, alive: Set[int]) -> List[int]:
    """The full per-cluster scan LC ran before the incremental peeler."""
    best_len = {}
    best_succ = {}
    weights = graph.weights
    for u in reversed(graph.topological_order):
        if u not in alive:
            continue
        wu = float(weights[u])
        length, succ = wu, None
        succs, costs = graph.succ_pairs(u)
        for s, c in zip(succs, costs):
            if s not in alive:
                continue
            cand = wu + c + best_len[s]
            if cand > length + 1e-12 or (
                abs(cand - length) <= 1e-12 and succ is not None and s < succ
            ):
                length, succ = cand, s
        best_len[u] = length
        best_succ[u] = succ
    start = max(sorted(best_len), key=lambda u: best_len[u])
    path = [start]
    while best_succ[path[-1]] is not None:
        path.append(best_succ[path[-1]])
    return path


def _oracle_clusters(graph: TaskGraph) -> List[int]:
    cluster = [-1] * graph.num_nodes
    alive = set(graph.nodes())
    k = 0
    while alive:
        for node in _oracle_longest_path(graph, alive):
            cluster[node] = k
            alive.discard(node)
        k += 1
    return cluster


def _incremental_clusters(graph: TaskGraph) -> List[int]:
    cluster = [-1] * graph.num_nodes
    paths = LongestPaths(graph)
    k, left = 0, graph.num_nodes
    while left > 0:  # a dead node on a path would overshoot
        path = paths.longest()
        for node in path:
            cluster[node] = k
        paths.remove(path)
        left -= len(path)
        k += 1
    return cluster


_VALUES = {
    # Small integers: exact ties everywhere.
    "ties": st.integers(1, 4).map(float),
    # 1 + k * 1e-13: candidates inside and around the 1e-12 tolerance.
    "near": st.integers(0, 24).map(lambda k: 1.0 + k * 1e-13),
    # Weights below the tolerance: no child can beat w(u) + 1e-12.
    "tiny": st.integers(1, 30).map(lambda k: k * 1e-13),
}
_COSTS = {
    "ties": st.integers(0, 4).map(float),
    "near": st.integers(0, 24).map(lambda k: k * 1e-13),
    "tiny": st.just(0.0),
}


@st.composite
def peel_graphs(draw) -> TaskGraph:
    """DAGs with shuffled labels (topological order != id order)."""
    kind = draw(st.sampled_from(sorted(_VALUES)))
    n = draw(st.integers(1, 16))
    label = draw(st.permutations(range(n)))
    weights = [0.0] * n
    for i in range(n):
        weights[label[i]] = draw(_VALUES[kind])
    density = draw(st.sampled_from([0.0, 0.15, 0.4, 0.8]))
    edges: Dict[Tuple[int, int], float] = {}
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.floats(0.0, 1.0)) < density:
                edges[(label[u], label[v])] = draw(_COSTS[kind])
    return TaskGraph(weights, edges, name=f"peel-{kind}-{n}")


@settings(max_examples=300, deadline=None)
@given(peel_graphs())
def test_incremental_matches_full_scan(graph):
    assert _incremental_clusters(graph) == _oracle_clusters(graph)


@settings(max_examples=100, deadline=None)
@given(peel_graphs(), st.data())
def test_longest_path_after_any_removal(graph, data):
    """Removing any node set, not only whole paths, keeps picks exact."""
    dead = data.draw(st.sets(st.sampled_from(range(graph.num_nodes)),
                             max_size=graph.num_nodes - 1))
    paths = LongestPaths(graph)
    paths.remove(sorted(dead))
    alive = set(graph.nodes()) - dead
    assert paths.longest() == _oracle_longest_path(graph, alive)


# Near-tie graphs found by random search (about one graph in 10^4 of
# this kind).  The first fails when near-tie nodes are not rescanned
# every round; the second when a grown length does not rescan every
# parent.
_T = 3e-13
_NEAR_TIE_CASES = [
    ([1 + 8 * _T, 1 + _T, 1 + _T, 1 + 6 * _T, 1 + 2 * _T, 1 + 2 * _T,
      1 + 8 * _T, 1 + 2 * _T],
     {(0, 3): 4 * _T, (0, 6): 0.0, (0, 2): _T, (0, 5): 5 * _T, (0, 7): 0.0,
      (4, 1): 7 * _T, (4, 3): 5 * _T, (4, 2): _T, (1, 3): 3 * _T,
      (1, 2): 3 * _T, (3, 2): 8 * _T, (6, 2): 0.0, (6, 5): _T,
      (6, 7): 4 * _T}),
    ([1.0, 1.0, 1 + 4 * _T, 1 + 8 * _T, 1 + 2 * _T, 1 + _T, 1 + 2 * _T,
      1 + 6 * _T, 1.0, 1 + 4 * _T],
     {(0, 7): 3 * _T, (0, 3): 5 * _T, (0, 5): 5 * _T, (0, 9): 4 * _T,
      (7, 5): 2 * _T, (7, 8): 5 * _T, (7, 9): 4 * _T, (3, 2): 2 * _T,
      (3, 8): _T, (3, 9): 2 * _T, (2, 1): 8 * _T, (2, 5): 3 * _T,
      (2, 6): 5 * _T, (1, 9): 2 * _T, (1, 4): _T, (5, 9): _T, (8, 9): 4 * _T,
      (8, 4): 3 * _T, (6, 4): 5 * _T}),
]


@pytest.mark.parametrize("weights, edges", _NEAR_TIE_CASES)
def test_near_tie_regressions(weights, edges):
    graph = TaskGraph(weights, edges)
    assert _incremental_clusters(graph) == _oracle_clusters(graph)


def test_single_node_and_disconnected():
    single = TaskGraph([3.0], {})
    assert _incremental_clusters(single) == [0]
    islands = TaskGraph([1.0, 2.0, 2.0, 1.0, 5.0],
                        {(0, 1): 1.0, (2, 3): 1.0})
    assert _incremental_clusters(islands) == _oracle_clusters(islands)
    # Both chains have length 4: the tie goes to the smaller start id.
    assert _incremental_clusters(islands) == [1, 1, 2, 2, 0]


def test_ladder_1200():
    graph = rgnos_graph(1200, 1.0, 3, seed=53)
    clusters = _incremental_clusters(graph)
    assert clusters == _oracle_clusters(graph)
    assert max(clusters) + 1 == 188
    sched = get_scheduler("LC").schedule(graph, Machine(graph.num_nodes))
    assert sched.length == 1456
