"""Ready-made scenarios beyond the paper's fixed grid.

Each entry is a plain scenario document (see
:mod:`repro.scenarios.spec`) registered under a name the CLI accepts
directly::

    python -m repro.bench scenario run hetero-speeds --jobs 4

The registry deliberately explores axes the paper holds fixed:
heterogeneous processor speeds, link bandwidth, interconnect shape,
graph width/depth, machine size, CCR extremes and a scalability ladder
past 1000 nodes.  All documents are validated on access, so the
registry can never hand out a spec the schema would reject.
"""

from __future__ import annotations

from typing import Dict, List

from .spec import ScenarioSpec, validate_spec

__all__ = ["SCENARIOS", "scenario_names", "get_scenario"]


SCENARIOS: Dict[str, dict] = {
    # 1 — heterogeneous processor speeds (uniform/related machines).
    "hetero-speeds": {
        "name": "hetero-speeds",
        "description": "BNP algorithms on an 8-processor machine whose "
                       "speed profile degrades from uniform to a single "
                       "fast processor",
        "graphs": {"generator": "rgnos", "sizes": [40, 80],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 11},
        "algorithms": [{"class": "BNP"}],
        "machine": {"bnp_speeds": [1, 1, 1, 1, 1, 1, 1, 1]},
        "metrics": ["length", "nsl", "procs_used", "runtime_s"],
        "sweep": {"machine.bnp_speeds": [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [2, 2, 2, 2, 1, 1, 1, 1],
            [4, 2, 2, 1, 1, 1, 1, 1],
            [8, 1, 1, 1, 1, 1, 1, 1],
        ]},
    },
    # 2 — link bandwidth sweep on the paper's hypercube.
    "bandwidth-sweep": {
        "name": "bandwidth-sweep",
        "description": "APN algorithms on the 8-processor hypercube as "
                       "link bandwidth shrinks and grows",
        "graphs": {"generator": "rgnos", "sizes": [40],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 23},
        "algorithms": [{"class": "APN"}],
        "machine": {"apn": {"kind": "hypercube", "dim": 3}},
        "metrics": ["length", "nsl", "runtime_s"],
        "sweep": {"machine.apn.bandwidth": [0.25, 0.5, 1.0, 2.0, 4.0]},
    },
    # 3 — interconnect shape at fixed size.
    "topology-zoo": {
        "name": "topology-zoo",
        "description": "APN algorithms across 8-processor interconnects "
                       "from chain to clique",
        "graphs": {"generator": "rgnos", "sizes": [40],
                   "ccrs": [1.0, 10.0], "parallelisms": [3], "seed": 31},
        "algorithms": [{"class": "APN"}],
        "metrics": ["length", "nsl", "runtime_s"],
        "sweep": {"machine.apn": [
            {"kind": "chain", "procs": 8},
            {"kind": "ring", "procs": 8},
            {"kind": "star", "procs": 8},
            {"kind": "mesh2d", "rows": 2, "cols": 4},
            {"kind": "hypercube", "dim": 3},
            {"kind": "clique", "procs": 8},
        ]},
    },
    # 4 — graph shape: chains vs bushy graphs at constant size.
    "graph-shapes": {
        "name": "graph-shapes",
        "description": "UNC and BNP algorithms on deep (parallelism 1) "
                       "through wide (parallelism 5) RGNOS graphs",
        "graphs": {"generator": "rgnos", "sizes": [60],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 43},
        "algorithms": [{"class": "UNC"}, {"class": "BNP"}],
        "metrics": ["length", "nsl", "procs_used"],
        "sweep": {"graphs.parallelisms": [[1], [2], [3], [5]]},
    },
    # 5 — scalability ladder past the paper's 500-node ceiling.
    "scalability-ladder": {
        "name": "scalability-ladder",
        "description": "Fast heuristics on RGNOS graphs from 200 to "
                       "1200 nodes — runtime scaling beyond the paper "
                       "grid",
        "graphs": {"generator": "rgnos", "sizes": [200, 400, 800, 1200],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 53},
        "algorithms": ["HLFET", "ISH", "MCP", "LC", "EZ", "DSC"],
        "metrics": ["length", "nsl", "runtime_s"],
    },
    # 6 — bounded machine size ladder for the BNP class.
    "processor-ladder": {
        "name": "processor-ladder",
        "description": "BNP algorithms as the bounded machine grows "
                       "from 2 processors to effectively unlimited",
        "graphs": {"generator": "rgnos", "sizes": [60],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 61},
        "algorithms": [{"class": "BNP"}],
        "metrics": ["length", "nsl", "procs_used"],
        "sweep": {"machine.bnp_procs": [2, 4, 8, 16, "unbounded"]},
    },
    # 7 — CCR far beyond the paper's 0.1..10 range.
    "ccr-extremes": {
        "name": "ccr-extremes",
        "description": "UNC and BNP algorithms on RGBOS-style graphs "
                       "at communication ratios beyond the paper's "
                       "0.1-10 range",
        "graphs": {"generator": "rgbos", "sizes": [20, 30],
                   "ccrs": [0.02, 0.1, 10.0, 25.0], "seed": 71},
        "algorithms": [{"class": "UNC"}, {"class": "BNP"}],
        "metrics": ["length", "nsl", "procs_used"],
    },
    # 8 — contention stress: starved chain vs overprovisioned clique.
    "contention-stress": {
        "name": "contention-stress",
        "description": "APN algorithms under worst-case (slow chain) "
                       "and best-case (fast clique) interconnects",
        "graphs": {"generator": "rgnos", "sizes": [40],
                   "ccrs": [10.0], "parallelisms": [4], "seed": 83},
        "algorithms": [{"class": "APN"}],
        "metrics": ["length", "nsl", "runtime_s"],
        "sweep": {"machine.apn": [
            {"kind": "chain", "procs": 8, "bandwidth": 0.5},
            {"kind": "chain", "procs": 8},
            {"kind": "clique", "procs": 8},
            {"kind": "clique", "procs": 8, "bandwidth": 4.0},
        ]},
    },
    # 9 — constructed optima with degradation, off the paper grid.
    "rgpos-degradation": {
        "name": "rgpos-degradation",
        "description": "BNP degradation from the constructed RGPOS "
                       "optimum at sizes between the paper's steps",
        "graphs": {"generator": "rgpos", "sizes": [75, 125],
                   "ccrs": [0.5, 2.0], "procs": 8, "seed": 97},
        "algorithms": [{"class": "BNP"}],
        "machine": {"bnp_procs": 8},
        "metrics": ["length", "degradation", "procs_used"],
    },
    # 10 — Monte-Carlo robustness of the BNP class (the nightly sim run).
    "robustness-bnp": {
        "name": "robustness-bnp",
        "description": "Monte-Carlo execution of BNP schedules under "
                       "lognormal duration noise across the paper's CCR "
                       "range — does the predicted ranking survive "
                       "runtime jitter?",
        "graphs": {"generator": "rgnos", "sizes": [40, 80],
                   "ccrs": [0.1, 1.0, 10.0], "parallelisms": [3],
                   "seed": 101},
        "algorithms": [{"class": "BNP"}],
        "metrics": ["length", "nsl"],
        "simulate": {"trials": 100, "seed": 7,
                     "perturb": {"duration": {"dist": "lognormal",
                                              "param": 0.3}}},
    },
    # 11 — noise-level sweep: how fast does each BNP ranking decay?
    "noise-ladder": {
        "name": "noise-ladder",
        "description": "BNP robustness as lognormal duration noise grows "
                       "from none to sigma 0.5, with per-processor speed "
                       "jitter at the top rung",
        "graphs": {"generator": "rgnos", "sizes": [60],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 113},
        "algorithms": [{"class": "BNP"}],
        "metrics": ["length"],
        "simulate": {"trials": 50, "seed": 7},
        "sweep": {"simulate.perturb": [
            {},
            {"duration": {"dist": "lognormal", "param": 0.1}},
            {"duration": {"dist": "lognormal", "param": 0.3}},
            {"duration": {"dist": "lognormal", "param": 0.5},
             "speed": {"dist": "uniform", "param": 0.2}},
        ]},
    },
    # 12 — adversarial instance search over a BNP pair (PISA-style).
    "adversarial-bnp": {
        "name": "adversarial-bnp",
        "description": "Search 50-node graph space for instances where "
                       "LAST's schedule is maximally longer than MCP's "
                       "— the worst-case gap behind the paper's "
                       "average-case BNP ranking",
        "graphs": {"generator": "rgnos", "sizes": [50],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 131},
        "algorithms": ["LAST", "MCP"],
        "metrics": ["length", "nsl"],
        "adversarial": {"pair": ["LAST", "MCP"], "objective": "ratio",
                        "steps": 150, "chains": 4,
                        "temperature": 0.02, "cooling": 0.97, "seed": 5},
    },
    # 13 — adversarial instance search over an APN pair.
    "adversarial-apn": {
        "name": "adversarial-apn",
        "description": "Search small-graph space for instances where "
                       "BU loses maximally to BSA on the hypercube — "
                       "per-message network walks keep the instances "
                       "small",
        "graphs": {"generator": "rgnos", "sizes": [18],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 137},
        "algorithms": ["BU", "BSA"],
        "metrics": ["length", "nsl"],
        "adversarial": {"pair": ["BU", "BSA"], "objective": "ratio",
                        "steps": 60, "chains": 2,
                        "temperature": 0.02, "cooling": 0.97, "seed": 7},
    },
    # 14 — online execution under partial information.
    "online-gap": {
        "name": "online-gap",
        "description": "The six BNP designs re-run event-driven under "
                       "partial information: what do blind, mean and "
                       "noisy-user estimates cost against the static "
                       "full-information schedule, and does the "
                       "paper's ranking survive?",
        "graphs": {"generator": "rgnos", "sizes": [40],
                   "ccrs": [1.0, 10.0], "parallelisms": [3], "seed": 163},
        "algorithms": [{"class": "BNP"}],
        "machine": {"bnp_procs": 8},
        "metrics": ["length", "nsl"],
        "online": {"imodes": ["exact", "blind", "mean", "user"],
                   "seed": 9},
    },
    # 15 — the nightly reduced full grid (all 15 algorithms, RGNOS).
    "nightly-grid": {
        "name": "nightly-grid",
        "description": "Reduced paper-style grid: all 15 algorithms on "
                       "the reduced RGNOS suite — the nightly CI "
                       "end-to-end run",
        "graphs": {"suite": "rgnos", "full": False},
        "algorithms": [{"class": "UNC"}, {"class": "BNP"},
                       {"class": "APN"}],
        "metrics": ["length", "nsl", "procs_used", "runtime_s"],
    },
    # 16 — the component space: synthesized schedulers vs the paper's six.
    "component-grid": {
        "name": "component-grid",
        "description": "Cartesian sweep of list-scheduler components "
                       "(priority x ready pool x processor selector x "
                       "insertion) beside the paper's six BNP "
                       "designs they generalise",
        "graphs": {"generator": "rgnos", "sizes": [30],
                   "ccrs": [1.0], "parallelisms": [3], "seed": 151},
        "algorithms": [
            {"class": "BNP"},
            # Decoupled selectors: 4 priorities x 2 pools x 2 greedy
            # rules x 3 insertion policies = 48 combinations.
            {"param": {"prio": ["slevel", "blevel", "alap", "btlevel"],
                       "ready": ["prio", "fifo"],
                       "proc": ["est", "eft"],
                       "insert": ["off", "on", "hole"]}},
            # Coupled pair-scan selectors (pool order is irrelevant,
            # so only the default pool): 16 more combinations.
            {"param": {"prio": ["slevel", "alap", "btlevel", "dnode"],
                       "proc": ["etf", "dls"],
                       "insert": ["off", "on"]}},
        ],
        "machine": {"bnp_procs": 8},
        "metrics": ["length", "nsl", "procs_used", "runtime_s"],
    },
}


def scenario_names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """The registered scenario as a validated spec; KeyError if absent."""
    return validate_spec(SCENARIOS[name])
