"""Names, units and bounds of every benchmark metric, and the workloads.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/record.py spec``).  Every
run prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``), whatever the workload, so the end-to-end set is
defined generically over a workload's *operations* (see README.md):

* ladder      — one operation = one ``api.schedule`` call;
* paper-grid  — one operation = one ``bench.runner.run_one`` cell;
* robustness  — one operation = one online simulation or one
  Monte-Carlo cell (schedule + 100 trials);
* storm       — one operation = one HTTP request, timed from its due time.

A per-layer metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

WORKLOADS = [
    ("ladder",
     "one 1200-node RGNOS graph through api.schedule by 8 heuristics: "
     "wide per-step selector scans, earliest_slot and ArrivalProfile "
     "builds dominate (ETF/DLS)"),
    ("paper-grid",
     "all 15 heuristics by run_one on nine 50-node RGNOS graphs: the "
     "only UNC/APN path (contention, mapping replay), many small calls "
     "so per-call overhead dominates"),
    ("robustness",
     "online-gap replans and the robustness-bnp Monte-Carlo: the sim "
     "event loop and thousands of tiny 8-processor replans of the "
     "ladder's selectors"),
    ("storm",
     "open-loop HTTP at 100 rps against serve --jobs 1: warm hot set "
     "(digest memo, cache, pre-encoded bytes) beside a small cold share "
     "(parse, api, schedule, encode)"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("sched_geomean_ms", "ms", "lower", 0.2),
    ("p50_ms", "ms", "lower", 0.2),
    ("p99_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

BNP = ("HLFET", "ISH", "MCP", "ETF", "DLS", "LAST")
UNC = ("EZ", "LC", "DSC", "MD", "DCP")
APN = ("MH", "DLS-APN", "BU", "BSA")
ALGORITHMS = BNP + UNC + APN

#: The storm's three specs (the default StormConfig's), by metric label.
STORM_SPECS = {"mcp": "mcp", "dls": "dls",
               "param-blevel-est": "param:prio=blevel,proc=est"}

# (name, unit, better)
PER_LAYER = (
    [(f"algorithms.{a}.schedule_ms", "ms", "lower") for a in ALGORITHMS]
    + [(f"algorithms.{a}.us_per_task", "us", "lower") for a in ALGORITHMS]
    + [
        ("core.kernel.profiles", "count", "lower"),
        ("core.kernel.sweeps", "count", "lower"),
        ("core.kernel.arrival_profile_ns", "ns", "lower"),
        ("core.kernel.sweep_ms", "ms", "lower"),
        ("core.schedule.earliest_slot_ns", "ns", "lower"),
        ("core.schedule.insertion_holes", "count", "lower"),
        ("core.schedule.validate_ms", "ms", "lower"),
        ("core.listsched.heap_pops", "count", "lower"),
        ("sim.monte_carlo_ms", "ms", "lower"),
        ("sim.events", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
        ("sim.online.simulate_ms", "ms", "lower"),
        ("sim.online.events", "count", "lower"),
        ("sim.online.replans", "count", "lower"),
        ("sim.online.migrations", "count", "lower"),
        ("sim.online.ms_per_replan", "ms", "lower"),
        ("robustness.online_s", "s", "lower"),
        ("robustness.mc_s", "s", "lower"),
        ("service.protocol.parse_us", "us", "lower"),
        ("api.request_key_us", "us", "lower"),
    ]
    + [(f"service.protocol.schedule_cell_ms.{label}", "ms", "lower")
       for label in STORM_SPECS]
    + [
        ("service.protocol.encode_us", "us", "lower"),
        ("service.cache.lookup_us", "us", "lower"),
        ("service.cache.put_us", "us", "lower"),
        ("service.cache_hit_ratio", "ratio", "higher"),
        ("service.coalesced", "count", "higher"),
        ("service.batch_mean", "count", "higher"),
        ("service.rejected", "count", "lower"),
        ("service.timeouts", "count", "lower"),
        ("storm.cold_p50_ms", "ms", "lower"),
        ("storm.cold_p75_ms", "ms", "lower"),
        ("storm.warm_p50_ms", "ms", "lower"),
        ("storm.warm_p99_ms", "ms", "lower"),
        ("storm.max_rps", "1/s", "higher"),
        ("storm.late_p99_ms", "ms", "lower"),
        ("obs.trace_overhead_pct", "pct", "lower"),
    ]
)

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 16


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this module defines."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
