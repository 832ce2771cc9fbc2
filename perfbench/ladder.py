"""``ladder``: one 1200-node RGNOS graph through ``api.schedule``.

HLFET, ISH, MCP, ETF, DLS, LAST, DSC and LC schedule the same graph
(CCR 1, parallelism 3, RGNOS seed 53) on an unbounded clique, one
``api.schedule`` call each, serially.  The six faster heuristics (0.2
to 2 s each here) then run ``ROUNDS - 1`` more times, and each
heuristic's operation time is the median of its calls: with only eight
operations, one call slowed by the host would otherwise move the
operation percentiles.  ETF and DLS (5 to 12 s each) run once.  The
input is fixed: every seed runs the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from common import Pass, Probe, WallClock, fresh, op_seconds

ALGORITHMS = ("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST", "DSC", "LC")
REPEATED = ("HLFET", "ISH", "MCP", "LAST", "DSC", "LC")
ROUNDS = 3
NODES = 1200
VARIANTS = 1


@dataclass
class State:
    graph: object


def setup(ctx) -> State:
    from repro import api
    from repro.generators.random_graphs import rgnos_graph

    graph = rgnos_graph(NODES, 1.0, 3, seed=53)
    tiny = rgnos_graph(20, 1.0, 3, seed=1)
    for name in ALGORITHMS:  # lazy imports and resolver memo, untimed
        api.schedule(tiny, None, name)
    return State(graph=graph)


def one_pass(state: State, probe: Probe) -> Pass:
    from repro import api

    graph = fresh(state.graph)
    p = Pass()

    def call(name: str) -> None:
        try:
            with p.timed(name, name), probe(f"algorithms.{name}",
                                            graph=graph.name):
                sched = api.schedule(graph, None, name)
        except Exception as exc:  # counted as a failed operation
            p.outputs[name] = f"error: {exc}"
        else:
            if name not in p.outputs:
                p.outputs[name] = sched.length
                p.schedules[name] = sched
            elif p.outputs[name] != sched.length:
                p.outputs[name] = f"error: repeated call gave {sched.length}"

    for name in ALGORITHMS:
        call(name)
    for _ in range(ROUNDS - 1):
        for name in REPEATED:
            call(name)
    return p


def overhead_units(state: State) -> List[Callable[[Probe], None]]:
    """One ``api.schedule`` call of each sub-second heuristic on a fresh
    copy of the graph (ETF and DLS are too long to pair)."""
    from repro import api

    def unit(name: str) -> Callable[[Probe], None]:
        def run(probe: Probe) -> None:
            graph = fresh(state.graph)
            with probe(f"algorithms.{name}", graph=graph.name):
                api.schedule(graph, None, name)
        return run

    return [unit(name) for name in REPEATED]


def layers(state: State, p: Pass, probe: Probe) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, (_, secs) in op_seconds([p], WallClock).items():
        out[f"algorithms.{name}.schedule_ms"] = secs * 1000.0
        out[f"algorithms.{name}.us_per_task"] = secs * 1e6 / NODES
    return out
