"""``robustness``: the online-gap grid and the robustness-bnp Monte-Carlo.

* online-gap: the six BNP designs under the four information modes on
  two 40-node RGNOS graphs (CCR 1 and 10, parallelism 3, scenario seed
  163, imode seed 9) on 8 processors, through
  ``sim.online.simulate_online`` with zero noise;
* robustness-bnp: the six BNP heuristics on six RGNOS graphs (40 and
  80 nodes x CCR 0.1/1/10, scenario seed 101) on an unbounded clique,
  each schedule executed 100 times under lognormal 0.3 duration noise
  by ``sim.robustness.monte_carlo`` with noise seed ``7 + variant``.

Graph seeds follow the scenario engine's rule (``seed + 10000 *
int(10 * ccr) + 100 * parallelism + size``), so the graphs are exactly
the registry's ``online-gap`` and ``robustness-bnp`` inputs; the run
seed only selects the Monte-Carlo noise stream (variant 0 is the
registry's seed 7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from common import Pass, Probe, fresh, op_seconds
from spec import BNP

IMODES = ("exact", "blind", "mean", "user")
PROCS = 8
TRIALS = 100
VARIANTS = 4


def _scenario_graphs(seed: int, sizes, ccrs) -> List:
    from repro.generators.random_graphs import rgnos_graph

    return [rgnos_graph(v, ccr, 3,
                        seed=seed + 10_000 * int(10 * ccr) + 100 * 3 + v)
            for v in sizes for ccr in ccrs]


@dataclass
class State:
    online_cells: List[Tuple[str, object, str, str]]
    mc_graphs: List
    mc_seed: int
    perturb: object


def setup(ctx) -> State:
    from repro.algorithms import get_scheduler
    from repro.core.machine import Machine
    from repro.scenarios import online_counterpart
    from repro.sim import PerturbationModel, monte_carlo
    from repro.sim.online import simulate_online

    online_graphs = _scenario_graphs(163, [40], [1.0, 10.0])
    cells = [(f"g{i}|{imode}|{alg}", graph, alg,
              online_counterpart(alg, imode, 9))
             for i, graph in enumerate(online_graphs)
             for imode in IMODES for alg in BNP]
    perturb = PerturbationModel.lognormal(0.3)
    mc_graphs = _scenario_graphs(101, [40, 80], [0.1, 1.0, 10.0])
    # Lazy imports and resolver memo, untimed.
    warm = _scenario_graphs(1, [12], [1.0])[0]
    for alg in BNP:
        simulate_online(warm, Machine(PROCS),
                        online_counterpart(alg, "user", 0))
        monte_carlo(get_scheduler(alg).schedule(warm, Machine.unbounded(warm)),
                    perturb=perturb, trials=2, seed=0, algorithm=alg,
                    klass="BNP")
    return State(online_cells=cells, mc_graphs=mc_graphs,
                 mc_seed=7 + ctx.variant, perturb=perturb)


def one_pass(state: State, probe: Probe) -> Pass:
    from repro.algorithms import get_scheduler
    from repro.core.machine import Machine
    from repro.sim import monte_carlo
    from repro.sim.online import simulate_online

    copies = {}
    for _, graph, _, _ in state.online_cells:
        copies.setdefault(id(graph), fresh(graph))
    mc_graphs = [fresh(g) for g in state.mc_graphs]
    p = Pass()
    p.phases.update(online_events=0, online_replans=0, online_migrations=0)
    for key, original, alg, spec in state.online_cells:
        graph = copies[id(original)]
        try:
            with p.timed(f"online|{key}", alg), probe("sim.online.simulate",
                                                      spec=spec):
                result = simulate_online(graph, Machine(PROCS), spec,
                                         label=spec)
        except Exception as exc:  # counted as a failed operation
            p.outputs[key] = f"error: {exc}"
        else:
            p.outputs[key] = result.makespan
            p.timelines[key] = result.schedule
            p.phases["online_events"] += result.num_events
            p.phases["online_replans"] += result.num_replans
            p.phases["online_migrations"] += sum(
                moved for _, _, moved in result.replan_log)
    for i, graph in enumerate(mc_graphs):
        for alg in BNP:
            key = f"g{i}|{alg}"
            try:
                with p.timed(f"mc|{key}", alg):
                    with probe(f"algorithms.{alg}", graph=graph.name):
                        sched = get_scheduler(alg).schedule(
                            graph, Machine.unbounded(graph))
                    with probe("sim.monte_carlo", algorithm=alg):
                        row, _ = monte_carlo(
                            sched, perturb=state.perturb, trials=TRIALS,
                            seed=state.mc_seed, algorithm=alg, klass="BNP")
            except Exception as exc:  # counted as a failed operation
                p.outputs[key] = f"error: {exc}"
            else:
                p.outputs[key] = [row.predicted, row.mean, row.std,
                                  row.p50, row.p95, row.worst]
                p.schedules[key] = sched
    return p


def workload_metrics(passes: List[Pass], clock) -> Dict[str, Tuple]:
    """The two halves of the workload: the sum of their operations'
    times (see ``common.op_seconds``)."""
    ops = op_seconds(passes, clock)
    return {f"robustness.{half}_s": (
                sum(secs for key, (_, secs) in ops.items()
                    if key.startswith(f"{half}|")), "s", len(passes))
            for half in ("online", "mc")}


def overhead_units(state: State) -> List[Callable[[Probe], None]]:
    """Single online simulations and Monte-Carlo cells, alternating."""
    from repro.algorithms import get_scheduler
    from repro.core.machine import Machine
    from repro.sim import monte_carlo
    from repro.sim.online import simulate_online

    def online(graph, spec) -> Callable[[Probe], None]:
        def run(probe: Probe) -> None:
            with probe("sim.online.simulate", spec=spec):
                simulate_online(fresh(graph), Machine(PROCS), spec,
                                label=spec)
        return run

    def cell(graph, alg) -> Callable[[Probe], None]:
        def run(probe: Probe) -> None:
            g = fresh(graph)
            with probe(f"algorithms.{alg}", graph=g.name):
                sched = get_scheduler(alg).schedule(g, Machine.unbounded(g))
            with probe("sim.monte_carlo", algorithm=alg):
                monte_carlo(sched, perturb=state.perturb, trials=TRIALS,
                            seed=state.mc_seed, algorithm=alg, klass="BNP")
        return run

    onlines = [online(graph, spec)
               for _, graph, _, spec in state.online_cells]
    cells = [cell(graph, alg) for graph in state.mc_graphs for alg in BNP]
    return [u for pair in itertools.zip_longest(onlines, cells)
            for u in pair if u is not None]


def layers(state: State, p: Pass, probe: Probe) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for alg in BNP:
        ms = probe.ms(f"algorithms.{alg}")
        tasks = sum(g.num_nodes for g in state.mc_graphs)
        out[f"algorithms.{alg}.schedule_ms"] = ms
        out[f"algorithms.{alg}.us_per_task"] = ms * 1000.0 / tasks
    mc_ms = probe.ms("sim.monte_carlo")
    events = probe.counter("sim.events", "sim.monte_carlo")
    out["sim.monte_carlo_ms"] = mc_ms / max(probe.count("sim.monte_carlo"), 1)
    out["sim.ns_per_event"] = mc_ms * 1e6 / max(events, 1)
    online_ms = probe.ms("sim.online.simulate")
    replans = p.phases["online_replans"]
    out["sim.online.simulate_ms"] = online_ms / max(
        probe.count("sim.online.simulate"), 1)
    out["sim.online.events"] = p.phases["online_events"]
    out["sim.online.replans"] = replans
    out["sim.online.migrations"] = p.phases["online_migrations"]
    out["sim.online.ms_per_replan"] = online_ms / max(replans, 1)
    return out
