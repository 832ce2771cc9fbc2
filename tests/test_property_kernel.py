"""Property tests for the flat-array kernel (Hypothesis).

Three families of invariants guard the kernel rewrite:

* the CSR adjacency round-trips ``successors``/``predecessors``/
  ``comm_cost`` for arbitrary DAGs;
* the level-batched attribute sweeps agree with straightforward scalar
  reference implementations (the pre-kernel code, inlined here as the
  oracle);
* ``earliest_slot`` placements never overlap and respect data-ready
  times, the arrival profile answers exactly ``data_ready_time`` for
  every processor, and the ready tracker/heap machinery selects exactly
  what a linear ``max`` would.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attributes import (
    blevel,
    static_blevel,
    static_tlevel,
    tlevel,
)
from repro.core.graph import TaskGraph
from repro.core.kernel import LazyPriorityQueue
from repro.core.listsched import ReadyTracker
from repro.core.schedule import Schedule, validate
from strategies import task_graphs


# ----------------------------------------------------------------------
# CSR round-trips
# ----------------------------------------------------------------------
@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_csr_roundtrips_adjacency(graph):
    s_indptr, s_indices, s_costs = graph.succ_csr()
    p_indptr, p_indices, p_costs = graph.pred_csr()
    assert int(s_indptr[-1]) == graph.num_edges == int(p_indptr[-1])
    for u in graph.nodes():
        succs = list(s_indices[s_indptr[u]:s_indptr[u + 1]])
        assert succs == graph.successors(u)
        for k in range(int(s_indptr[u]), int(s_indptr[u + 1])):
            assert s_costs[k] == graph.comm_cost(u, int(s_indices[k]))
        preds = list(p_indices[p_indptr[u]:p_indptr[u + 1]])
        assert preds == graph.predecessors(u)
        for k in range(int(p_indptr[u]), int(p_indptr[u + 1])):
            assert p_costs[k] == graph.comm_cost(int(p_indices[k]), u)


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_pair_lists_match_adjacency(graph):
    for u in graph.nodes():
        succs, costs = graph.succ_pairs(u)
        assert list(succs) == graph.successors(u)
        assert costs == [graph.comm_cost(u, v) for v in succs]
        preds, pcosts = graph.pred_pairs(u)
        assert list(preds) == graph.predecessors(u)
        assert pcosts == [graph.comm_cost(p, u) for p in preds]


@given(task_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_edges_are_the_sorted_cost_triples(graph, rnd):
    """edges() reads the adjacency lists: it must equal sorting the
    edge dict, whatever order the edges were given in."""
    perm = list(graph.nodes())
    rnd.shuffle(perm)
    triples = [(perm[u], perm[v], c + rnd.random())
               for u, v, c in graph.edges()]
    rnd.shuffle(triples)
    g = TaskGraph(graph.weights, triples)
    got = g.edges()
    assert got == sorted((u, v, c) for (u, v), c in g._edge_cost.items())
    assert got is not g.edges()  # a fresh list: callers extend it


# ----------------------------------------------------------------------
# attribute sweeps vs. scalar oracles
# ----------------------------------------------------------------------
def _tlevel_oracle(graph, zeroed=None):
    t = [0.0] * graph.num_nodes
    for u in graph.topological_order:
        best = 0.0
        for p in graph.predecessors(u):
            c = graph.comm_cost(p, u)
            if zeroed and (p, u) in zeroed:
                c = 0.0
            cand = t[p] + graph.weight(p) + c
            if cand > best:
                best = cand
        t[u] = best
    return t


def _blevel_oracle(graph, zeroed=None):
    b = [0.0] * graph.num_nodes
    for u in reversed(graph.topological_order):
        best = 0.0
        for s in graph.successors(u):
            c = graph.comm_cost(u, s)
            if zeroed and (u, s) in zeroed:
                c = 0.0
            cand = b[s] + c
            if cand > best:
                best = cand
        b[u] = best + graph.weight(u)
    return b


@given(task_graphs())
@settings(max_examples=60, deadline=None)
def test_level_sweeps_match_scalar_oracles(graph):
    assert tlevel(graph) == _tlevel_oracle(graph)
    assert blevel(graph) == _blevel_oracle(graph)
    # Static variants: the oracle with every edge cost at zero.
    zero_all = set(graph._edge_cost)
    assert tlevel(graph, None) == _tlevel_oracle(graph)
    assert static_tlevel(graph) == _tlevel_oracle(graph, zero_all)
    assert static_blevel(graph) == _blevel_oracle(graph, zero_all)


@given(task_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_zeroed_sweeps_match_scalar_oracles(graph, rnd):
    edges = sorted(graph._edge_cost)
    zeroed = {e for e in edges if rnd.random() < 0.4}
    assert tlevel(graph, zeroed) == _tlevel_oracle(graph, zeroed)
    assert blevel(graph, zeroed) == _blevel_oracle(graph, zeroed)


# ----------------------------------------------------------------------
# schedule interval lists + arrival profiles
# ----------------------------------------------------------------------
@given(task_graphs(), st.randoms(use_true_random=False),
       st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_earliest_slot_never_overlaps(graph, rnd, num_procs, insertion):
    """Random list scheduling through earliest_slot stays feasible."""
    schedule = Schedule(graph, num_procs)
    tracker = ReadyTracker(graph)
    while not tracker.all_scheduled():
        node = rnd.choice(sorted(tracker.iter_ready()))
        proc = rnd.randrange(num_procs)
        profile = schedule.arrival_profile(node)
        # The profile must answer exactly what the reference scan does.
        for p in range(num_procs):
            assert profile.drt(p) == schedule.data_ready_time(node, p)
        drt = profile.drt(proc)
        start = schedule.earliest_slot(proc, drt,
                                       schedule.duration_of(node, proc),
                                       insertion=insertion)
        assert start >= drt
        # place() rejects overlaps; reaching a complete schedule proves
        # every slot the search returned was genuinely free.
        schedule.place(node, proc, start)
        tracker.mark_scheduled(node)
    validate(schedule)
    # Sorted interval lists per processor: pairwise disjoint.
    for proc in range(num_procs):
        tasks = schedule.tasks_on(proc)
        for a, b in zip(tasks, tasks[1:]):
            assert a.finish <= b.start + 1e-9


@given(task_graphs())
@settings(max_examples=40, deadline=None)
def test_insertion_never_later_than_append(graph):
    """With insertion, earliest_slot can only improve the start time."""
    schedule = Schedule(graph, 2)
    tracker = ReadyTracker(graph)
    rnd = random.Random(1234)
    while not tracker.all_scheduled():
        node = rnd.choice(sorted(tracker.iter_ready()))
        proc = rnd.randrange(2)
        drt = schedule.data_ready_time(node, proc)
        dur = schedule.duration_of(node, proc)
        with_ins = schedule.earliest_slot(proc, drt, dur, insertion=True)
        without = schedule.earliest_slot(proc, drt, dur, insertion=False)
        assert with_ins <= without
        schedule.place(node, proc, without)
        tracker.mark_scheduled(node)


# ----------------------------------------------------------------------
# ready tracker + heap selection
# ----------------------------------------------------------------------
@given(task_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_ready_tracker_invariants(graph, rnd):
    tracker = ReadyTracker(graph)
    scheduled = set()
    ever_ready = set(tracker.iter_ready())
    assert ever_ready == set(graph.entry_nodes)
    while not tracker.all_scheduled():
        ready = list(tracker.iter_ready())
        assert len(ready) == len(set(ready)), "no duplicate ready entries"
        for n in ready:
            assert n not in scheduled
            assert all(p in scheduled for p in graph.predecessors(n))
        node = rnd.choice(sorted(ready))
        released = tracker.mark_scheduled(node)
        scheduled.add(node)
        for child in released:
            assert child not in ever_ready, "nodes become ready exactly once"
            ever_ready.add(child)
    assert scheduled == set(graph.nodes())
    assert ever_ready == set(graph.nodes())


@given(task_graphs())
@settings(max_examples=40, deadline=None)
def test_priority_queue_matches_linear_max(graph):
    """Heap selection equals max() over the live ready set."""
    sl = static_blevel(graph)
    tracker = ReadyTracker(graph)
    queue = tracker.priority_queue(lambda n: (-sl[n], n))
    order = []
    while not tracker.all_scheduled():
        expected = max(tracker.iter_ready(), key=lambda n: (sl[n], -n))
        node = queue.pop_best()
        assert node == expected
        order.append(node)
        for child in tracker.mark_scheduled(node):
            queue.push(child)
    assert sorted(order) == list(graph.nodes())


def test_lazy_queue_raises_when_exhausted():
    import pytest

    q = LazyPriorityQueue(lambda n: n, lambda n: False, initial=[1, 2])
    with pytest.raises(IndexError):
        q.pop_best()
