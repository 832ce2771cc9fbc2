"""``paper-grid``: the paper's table path on the reduced RGNOS suite.

``bench.runner.run_one`` runs all 15 heuristics (UNC, BNP, APN) on the
nine 50-node graphs of the reduced RGNOS suite (CCR 0.1/1/10 x
parallelism 1/3/5) with the default ``BenchConfig`` machines, serially.
The input is fixed: every seed runs ``rgnos_suite(full=False,
sizes=[50])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from common import Pass, Probe, WallClock, fresh, op_seconds
from spec import ALGORITHMS

NODES = 50
VARIANTS = 1


@dataclass
class State:
    graphs: List
    config: object


def setup(ctx) -> State:
    from repro.bench.runner import BenchConfig, run_one
    from repro.bench.suites import rgnos_suite
    from repro.generators.random_graphs import rgnos_graph

    graphs = rgnos_suite(full=False, sizes=[NODES])
    config = BenchConfig()
    tiny = rgnos_graph(12, 1.0, 3, seed=1)
    for name in ALGORITHMS:  # lazy imports and resolver memo, untimed
        run_one(name, tiny, config=config)
    return State(graphs=graphs, config=config)


def one_pass(state: State, probe: Probe) -> Pass:
    from repro.bench.runner import run_one

    graphs = [fresh(g) for g in state.graphs]
    p = Pass()
    for i, graph in enumerate(graphs):
        for name in ALGORITHMS:
            key = f"g{i}|{name}"
            try:
                with p.timed(key, name), probe(f"algorithms.{name}",
                                               graph=graph.name):
                    row = run_one(name, graph, config=state.config)
            except Exception as exc:  # counted as a failed operation
                p.outputs[key] = f"error: {exc}"
            else:
                p.outputs[key] = row.length
    return p


def overhead_units(state: State) -> List[Callable[[Probe], None]]:
    """All 15 heuristics' ``run_one`` cells on one fresh graph, per graph."""
    from repro.bench.runner import run_one

    def unit(original) -> Callable[[Probe], None]:
        def run(probe: Probe) -> None:
            graph = fresh(original)
            for name in ALGORITHMS:
                with probe(f"algorithms.{name}", graph=graph.name):
                    run_one(name, graph, config=state.config)
        return run

    return [unit(graph) for graph in state.graphs]


def replay_schedules(state: State) -> List:
    """Clique schedules of the grid's graphs for the core-layer replay
    (APN schedules answer to the network model, so they are left out)."""
    from repro.algorithms import get_scheduler
    from spec import BNP, UNC

    return [get_scheduler(name).schedule(
                graph, state.config.machine_for(name, graph))
            for graph in state.graphs for name in BNP + UNC]


def layers(state: State, p: Pass, probe: Probe) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for name, secs in op_seconds([p], WallClock).values():
        totals[name] = totals.get(name, 0.0) + secs
    tasks = NODES * len(state.graphs)
    out: Dict[str, float] = {}
    for name, secs in totals.items():
        out[f"algorithms.{name}.schedule_ms"] = secs * 1000.0
        out[f"algorithms.{name}.us_per_task"] = secs * 1e6 / tasks
    return out
