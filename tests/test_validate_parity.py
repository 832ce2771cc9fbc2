"""Differential tests: ``validate()``'s array precedence check against
the per-edge loop.

Under the clique model :func:`repro.core.schedule.validate` evaluates
every precedence edge at once over the successor CSR arrays.  The
scalar per-edge loop it replaced lives on here, in the test only, as
the oracle: on deliberately corrupted schedules (same- and
cross-processor precedence breaks, overlaps, negative starts, bad
durations, missing nodes) both must report the same violations —
code, message, node, processor and order — and raise the same first
message.  Network (APN) schedules keep the per-edge loop; they are
compared too.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import task_graphs

from repro import NetworkMachine, Topology
from repro.algorithms import get_scheduler
from repro.bench.runner import APN_ALGORITHMS
from repro.core.exceptions import ScheduleError
from repro.core.graph import TaskGraph
from repro.core.machine import Machine
from repro.core.schedule import (
    Placement,
    Schedule,
    Violation,
    _iter_channel_violations,
    _iter_message_violations,
    validate,
)
from repro.generators.random_graphs import rgnos_graph

_EPS = 1e-9

Row = Tuple[int, int, float, float]  # node, proc, start, finish


def _oracle(schedule: Schedule, *, network: Any,
            check_durations: bool) -> Iterator[Violation]:
    """The scalar check ``validate()`` ran before the array precedence
    pass (message and channel checks are shared and unchanged)."""
    g = schedule.graph
    if not schedule.is_complete():
        missing = [n for n in g.nodes() if not schedule.is_scheduled(n)]
        yield Violation(
            "incomplete",
            f"schedule incomplete; missing nodes {missing[:8]}")
        return

    for proc in range(schedule.num_procs):
        prev_finish = 0.0
        prev_node: Optional[int] = None
        for pl in schedule.tasks_on(proc):
            if pl.start < -_EPS:
                yield Violation(
                    "negative-start",
                    f"node {pl.node} starts before time 0",
                    node=pl.node, proc=proc)
            if check_durations and abs(
                    (pl.finish - pl.start)
                    - schedule.duration_of(pl.node, proc)) > 1e-6:
                yield Violation(
                    "duration",
                    f"node {pl.node} duration does not match its weight "
                    "under the processor's speed",
                    node=pl.node, proc=proc)
            if pl.start < prev_finish - _EPS:
                yield Violation(
                    "overlap",
                    f"nodes {prev_node} and {pl.node} overlap on P{proc}",
                    node=pl.node, proc=proc)
            prev_finish, prev_node = pl.finish, pl.node

    for u, v, c in g.edges():
        pu, pv = schedule.placement(u), schedule.placement(v)
        if pu.proc == pv.proc:
            ready = pu.finish
        elif network is None or c <= 0:
            ready = pu.finish + c
        else:
            msg = schedule.messages.get((u, v))
            if msg is None:
                yield Violation(
                    "missing-message",
                    f"edge ({u}, {v}) crosses processors but has no message",
                    node=v, proc=pv.proc)
                continue
            yield from _iter_message_violations(msg, pu, pv, c, network)
            ready = msg.arrival
        if pv.start < ready - 1e-6:
            yield Violation(
                "precedence",
                f"node {v} starts at {pv.start} before its input from {u} "
                f"is ready at {ready}",
                node=v, proc=pv.proc)

    if network is not None:
        yield from _iter_channel_violations(schedule)


def _forced(base: Schedule, rows: Sequence[Row]) -> Schedule:
    """A schedule holding ``rows`` exactly, with ``place``'s checks
    (overlap, negative start) bypassed; ``base``'s messages are kept."""
    s = Schedule(base.graph, base.num_procs, base.speeds)
    for node, proc, start, finish in rows:
        i = bisect.bisect_left(s._starts[proc], start)
        s._starts[proc].insert(i, start)
        s._finishes[proc].insert(i, finish)
        s._nodes[proc].insert(i, node)
        s._placements[node] = Placement(node, proc, start, finish)
        s._node_proc[node], s._node_start[node] = proc, start
        s._node_finish[node] = finish
    s.messages = dict(base.messages)
    return s


def _assert_same(schedule: Schedule, network: Any = None,
                 check_durations: bool = True) -> List[Violation]:
    want = list(_oracle(schedule, network=network,
                        check_durations=check_durations))
    got = validate(schedule, network=network,
                   check_durations=check_durations, collect=True)
    assert got == want
    if want:
        with pytest.raises(ScheduleError) as err:
            validate(schedule, network=network,
                     check_durations=check_durations)
        assert str(err.value) == want[0].message
    else:
        assert validate(schedule, network=network,
                        check_durations=check_durations) is None
    return want


_CORRUPTIONS = ("keep", "shift", "nudge", "stretch", "graze", "move",
                "int", "drop")


@st.composite
def corrupted_schedules(draw) -> Schedule:
    graph = draw(task_graphs(min_nodes=1, max_nodes=12))
    procs = draw(st.integers(1, 3))
    speeds = draw(st.sampled_from([None, [1.0, 2.0, 0.5][:procs]]))
    spec = draw(st.sampled_from(["HLFET", "MCP", "ETF"]))
    base = get_scheduler(spec).schedule(graph, Machine(procs, speeds))
    rows: List[Row] = []
    for node in graph.nodes():
        pl = base.placement(node)
        proc, start, finish = pl.proc, pl.start, pl.finish
        how = draw(st.sampled_from(_CORRUPTIONS))
        if how == "shift":  # precedence breaks, overlaps, negative starts
            delta = draw(st.integers(-8, 8)) * 0.5
            start, finish = start + delta, finish + delta
        elif how == "nudge":  # around the 1e-6 precedence slack
            delta = draw(st.integers(-3, 0)) * 4e-7
            start, finish = start + delta, finish + delta
        elif how == "stretch":  # bad durations
            finish += draw(st.integers(1, 3)) * 0.25
        elif how == "graze":  # around the 1e-6 duration tolerance
            finish += draw(st.integers(1, 4)) * 4e-7
        elif how == "int" and start == int(start) and finish == int(finish):
            start, finish = int(start), int(finish)  # messages print ints
        elif how == "move":  # a different processor: messages now count
            proc = draw(st.integers(0, procs - 1))
        elif how == "drop":  # incomplete
            continue
        rows.append((node, proc, start, finish))
    return _forced(base, rows)


@settings(max_examples=300, deadline=None)
@given(corrupted_schedules(), st.booleans())
def test_clique_violations_match_scalar_loop(schedule, check_durations):
    _assert_same(schedule, check_durations=check_durations)


def test_each_corruption_is_reported():
    g = TaskGraph([2.0, 3.0, 1.0, 2.0],
                  {(0, 1): 4.0, (0, 2): 1.0, (1, 3): 2.0, (2, 3): 5.0})
    base = get_scheduler("HLFET").schedule(g, Machine(2))
    rows = [(0, 0, 0.0, 2.0),    # P0
            (1, 0, 1.0, 4.0),    # overlaps 0 on P0; same-proc break
            (2, 1, 2.5, 3.5),    # cross-proc break: ready at 3.0
            (3, 1, -1.0, 2.0)]   # negative start, duration 3 != 2
    got = _assert_same(_forced(base, rows))
    assert [(v.code, v.node, v.proc) for v in got] == [
        ("overlap", 1, 0),
        ("negative-start", 3, 1),
        ("duration", 3, 1),
        ("overlap", 3, 1),  # a start below 0 also "overlaps" time 0
        ("precedence", 1, 0),
        ("precedence", 2, 1),
        ("precedence", 3, 1),
        ("precedence", 3, 1),
    ]
    assert got[4].message == ("node 1 starts at 1.0 before its input "
                              "from 0 is ready at 2.0")
    assert got[5].message == ("node 2 starts at 2.5 before its input "
                              "from 0 is ready at 3.0")
    incomplete = _assert_same(_forced(base, rows[:2]))
    assert [v.code for v in incomplete] == ["incomplete"]


@pytest.mark.parametrize("name", list(APN_ALGORITHMS))
@pytest.mark.parametrize("topo", [Topology.ring(4), Topology.hypercube(2)],
                         ids=["ring4", "cube4"])
def test_network_schedules_unchanged(name, topo):
    g = rgnos_graph(30, 1.0, 2, seed=7)
    base = get_scheduler(name).schedule(g, NetworkMachine(topo))
    assert _assert_same(base, network=topo) == []
    rows = []
    for node in g.nodes():
        pl = base.placement(node)
        delta = -1.5 if node % 3 == 0 else 0.0
        rows.append((node, pl.proc, pl.start + delta, pl.finish + delta))
    assert _assert_same(_forced(base, rows), network=topo)
