"""Regenerate the self-time profile of the 1200-node ladder rung.

Produces the table in EXPERIMENTS.md ("Where the time goes"): the top
rung of the ``scalability-ladder`` scenario (one RGNOS graph, 1200
nodes, seed 53) is scheduled by each of the ladder's fast heuristics
with the tracing layer armed (``REPRO_TRACE=1``), then the recorded
spans are aggregated into the top-N self-time table that
``repro-bench profile`` prints — plus the deterministic counter
manifest the regression gate compares.

Run with::

    PYTHONPATH=src python examples/profile_ladder_table.py
"""

import os

from repro.obs import report, trace

# EZ is excluded at this size for the same reason as the
# kernel-speedup table (quadratic in edges).  HLFET, ISH and MCP run
# the component loop, so its self time splits out of
# sched.schedule's total as a nested span.
ALGORITHMS = ["HLFET", "ISH", "MCP", "LC", "DSC"]
SIZE = 1200


def main() -> None:
    os.environ[trace.ENV_VAR] = "1"
    trace.reset()

    from repro import Machine, get_scheduler
    from repro.scenarios import compile_scenario, get_scenario
    from repro.sim import simulate

    compiled = compile_scenario(get_scenario("scalability-ladder"))
    (graph,) = [g for g in compiled.variants[0].graphs
                if g.num_nodes == SIZE]
    machine = Machine.unbounded(graph)
    schedules = {alg: get_scheduler(alg).schedule(graph, machine)
                 for alg in ALGORITHMS}
    # One executed replay of MCP's schedule adds the sim.run lane.
    simulate(schedules["MCP"], label="MCP")

    manifest = report.build_manifest()
    print(f"graph: {graph.name} ({graph.num_nodes} nodes, "
          f"{graph.num_edges} edges)")
    print()
    print(report.render_profile(manifest, top=8))
    print()
    counters = {**manifest["counters"], **manifest["local"]}
    for name in sorted(counters):
        print(f"{name} = {counters[name]}")


if __name__ == "__main__":
    main()
