"""Differential tests: the vectorised coupled scan against the pair loop.

:class:`~repro.core.listsched.CoupledScan` replaced a scalar loop that
evaluated every (ready node, candidate processor) pair with one
``earliest_slot`` + ``ArrivalProfile.drt`` call and kept the smallest
lexicographic key.  That loop lives on here, in the test only, as the
oracle: the scan must reproduce it placement for placement — same
processors, bit-identical start times — over tie-heavy integer weights,
homogeneous and heterogeneous speeds, bounded and unbounded machines,
every insertion policy and a pinned prefix of execution history.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import task_graphs

from repro.algorithms import get_scheduler, parse_spec
from repro.algorithms.components import AXES, ProcSelector
from repro.algorithms.components.scheduler import run_component_loop
from repro.core.graph import TaskGraph
from repro.core.listsched import CoupledScan, ReadyTracker, candidate_procs
from repro.core.machine import Machine
from repro.core.schedule import Schedule, validate
from repro.generators.random_graphs import rgnos_graph

Value = Callable[[int], float]


def _pair_loop(schedule: Schedule, ready: ReadyTracker, value: Value,
               slot: bool, dls: bool) -> Tuple[int, int, float]:
    """The scalar ETF/DLS pair scan the coupled selectors used to run."""
    procs = candidate_procs(schedule)
    best: Optional[tuple] = None
    for node in ready.iter_ready():
        profile = schedule.arrival_profile(node)
        level = value(node)
        for proc in procs:
            est = schedule.earliest_slot(proc, profile.drt(proc),
                                         schedule.duration_of(node, proc),
                                         insertion=slot)
            if dls:
                key: tuple = (-(level - est), node, proc, est)
            else:
                key = (est, -level, node, proc, est)
            if best is None or key < best:
                best = key
    assert best is not None
    if dls:
        _, node, proc, est = best
    else:
        _, _, node, proc, est = best
    return node, proc, est


class _OracleSelector(ProcSelector):
    coupled = True

    def __init__(self, dls: bool):
        self.key = "dls" if dls else "etf"
        self._dls = dls

    def start(self, schedule, ready):
        return lambda pool, prio, slot: _pair_loop(
            schedule, ready, prio.value, slot, self._dls)


def _parts(prio: str, proc: str, insert: str, oracle: bool) -> dict:
    parts = parse_spec(f"param:prio={prio},proc={proc},"
                       f"insert={insert}").components()
    if oracle:
        parts["proc"] = _OracleSelector(proc == "dls")
    return parts


def _machine(graph: TaskGraph, procs: Optional[int],
             speeds: Optional[list]) -> Machine:
    n = graph.num_nodes if procs is None else procs
    return Machine(n, speeds=None if speeds is None
                   else [speeds[p % len(speeds)] for p in range(n)])


def _history(graph: TaskGraph, machine: Machine, count: int) -> list:
    """The first ``count`` placements of an HLFET-style schedule, in
    start order: a precedence-consistent pinned prefix the coupled
    selectors would not have chosen themselves."""
    ref = get_scheduler("param:prio=slevel,proc=eft").schedule(graph,
                                                               machine)
    order = sorted(ref.to_dict().items(), key=lambda kv: (kv[1][1], kv[0]))
    return [(node, proc, start, None)
            for node, (proc, start, _fin) in order[:count]]


_graphs = st.one_of(
    task_graphs(max_nodes=14),
    # Tiny integer weights and costs: most pairs tie on start time.
    task_graphs(max_nodes=14, max_weight=3, max_comm=4, edge_prob=0.5),
)


@given(graph=_graphs,
       proc=st.sampled_from(["etf", "dls"]),
       prio=st.sampled_from(sorted(AXES["prio"])),
       insert=st.sampled_from(sorted(AXES["insert"])),
       procs=st.one_of(st.none(), st.integers(2, 8)),
       speeds=st.one_of(st.none(), st.lists(
           st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=1,
           max_size=4)),
       pin_share=st.floats(0.0, 0.7))
@settings(max_examples=200, deadline=None)
def test_scan_matches_pair_loop(graph, proc, prio, insert, procs, speeds,
                                pin_share):
    machine = _machine(graph, procs, speeds)
    pinned = _history(graph, machine, int(pin_share * graph.num_nodes))
    want = run_component_loop(_parts(prio, proc, insert, oracle=True),
                              graph, machine, pinned=pinned)
    got = run_component_loop(_parts(prio, proc, insert, oracle=False),
                             graph, machine, pinned=pinned)
    assert got.to_dict() == want.to_dict()
    assert validate(got, collect=True) == []


@given(graph=_graphs,
       name=st.sampled_from(["ETF", "DLS"]),
       procs=st.one_of(st.none(), st.integers(2, 8)),
       speeds=st.one_of(st.none(), st.lists(
           st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3)))
@settings(max_examples=100, deadline=None)
def test_acronyms_match_pair_loop(graph, name, procs, speeds):
    machine = _machine(graph, procs, speeds)
    want = run_component_loop(_parts("slevel", name.lower(), "off",
                                     oracle=True), graph, machine)
    got = get_scheduler(name).schedule(graph, machine)
    assert got.to_dict() == want.to_dict()


def test_ladder_scale_graph_matches_pair_loop():
    # Wide enough that the row buffer and its width both grow several
    # times, and CCR 10 so most pairs wait on communication.
    graph = rgnos_graph(200, 10.0, 3, seed=5)
    machine = Machine.unbounded(graph)
    for proc in ("etf", "dls"):
        want = run_component_loop(_parts("slevel", proc, "off",
                                         oracle=True), graph, machine)
        got = get_scheduler(proc.upper()).schedule(graph, machine)
        assert got.to_dict() == want.to_dict()


def test_rows_are_kept_for_ready_nodes_only():
    # A fork: the entry releases every other node at once, and each
    # placement frees one row slot for reuse.
    n = 40
    graph = TaskGraph([1.0] * n, {(0, v): 2.0 for v in range(1, n)})
    schedule = Schedule(graph, n)
    ready = ReadyTracker(graph)
    scan = CoupledScan(schedule, ready)
    peak = 0
    while not ready.all_scheduled():
        node, proc, start = scan.earliest(lambda v: 0.0)
        schedule.place(node, proc, start)
        ready.mark_scheduled(node)
        peak = max(peak, scan._rows.shape[0])
    assert peak < 2 * n
    # Width follows the processors actually in play, not num_procs.
    assert scan._rows.shape[1] <= 2 * schedule.processors_used()


def test_dls_level_ties_from_rounding_go_to_the_lower_processor():
    # X's static level is 2**60 + 1, where one ulp is 256: X - 10 and
    # X - 1 round to the same dynamic level.  The pair loop then breaks
    # the tie toward P0 although P1 offers the earlier start, so the
    # level must be formed per pair, not from each row's minimum start.
    a, b, x, z = range(4)
    graph = TaskGraph([1.0, 10.0, 1.0, 2.0 ** 60],
                      {(a, x): 1.0, (x, z): 0.0})
    pinned = [(a, 1, 0.0, None), (b, 0, 0.0, None)]
    machine = Machine(2)
    want = run_component_loop(_parts("slevel", "dls", "off", True),
                              graph, machine, pinned=pinned)
    got = run_component_loop(_parts("slevel", "dls", "off", False),
                             graph, machine, pinned=pinned)
    assert want.to_dict()[x][:2] == (0, 10.0)
    assert got.to_dict() == want.to_dict()
