"""Facade tests: ``repro.api`` adapters, fingerprints and entry points.

The load-bearing property is the cache contract of the scheduling
service: equal :func:`repro.api.request_key` values must imply
bit-identical schedules — that is what lets the service answer a
request from the cache without re-running the scheduler.  Hypothesis
drives it over random DAGs and over representationally different but
content-equal graph inputs (TaskGraph vs mapping vs STG round-trip).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import task_graphs

from repro import GraphError, Machine, MachineError, TaskGraph, api
from repro.io.stg import dumps_stg

_SPECS = ["mcp", "DLS", "hlfet", "param:prio=blevel,proc=est"]


def _mapping_of(graph: TaskGraph) -> dict:
    return {
        "weights": [float(w) for w in graph.weights],
        "edges": [[int(u), int(v), float(c)] for u, v, c in graph.edges()],
        "name": graph.name,
    }


# ----------------------------------------------------------------------
# adapters
# ----------------------------------------------------------------------
class TestAdapters:
    def test_as_graph_passthrough(self):
        g = TaskGraph([1.0, 2.0], {(0, 1): 3.0})
        assert api.as_graph(g) is g

    def test_as_graph_mapping_and_stg_agree(self):
        g = TaskGraph([1.0, 2.0, 3.0], {(0, 1): 3.0, (0, 2): 1.0},
                      name="tri")
        from_map = api.as_graph(_mapping_of(g))
        from_stg = api.as_graph(dumps_stg(g))
        assert from_map.fingerprint() == g.fingerprint()
        assert from_stg.fingerprint() == g.fingerprint()

    @pytest.mark.parametrize("bad", [
        {"edges": [[0, 1, 1.0]]},                      # no weights
        {"weights": [1.0, "x"]},                        # non-numeric
        {"weights": [1.0, 2.0], "edges": [[0, 1]]},     # not a triple
        42,
        {"weights": [1.0, 1.0], "edges": [[0, 1.5, 1.0]]},  # fractional
        {"weights": [1.0, 1.0], "edges": [[False, True, 1.0]]},  # bools
        {"weights": [1.0, 1.0],
         "edges": [[0, 1, 1.0], [0, 1, 2.0]]},          # duplicate edge
        {"weights": [1.0, "1"]},                        # numeric string
        {"weights": [1.0, True]},                       # bool weight
        {"weights": [1.0, 1.0], "edges": [[0, 1, "2"]]},  # string cost
        {"weights": [1.0, float("nan")]},               # non-finite
    ])
    def test_as_graph_rejects_malformed(self, bad):
        with pytest.raises(GraphError):
            api.as_graph(bad)

    def test_fractional_index_no_longer_aliases_a_request_key(self):
        # [0, 1.5, c] used to truncate to node 1 and share the key of
        # [0, 1, c]; now only the well-formed request has a key.
        good = {"weights": [1.0, 2.0], "edges": [[0, 1, 3.0]]}
        bad = {"weights": [1.0, 2.0], "edges": [[0, 1.5, 3.0]]}
        assert api.request_key(good, 2, "mcp")
        with pytest.raises(GraphError):
            api.request_key(bad, 2, "mcp")
        # An integral float still names the node it spells.
        same = {"weights": [1.0, 2.0], "edges": [[0, 1.0, 3.0]]}
        assert (api.request_key(same, 2, "mcp")
                == api.request_key(good, 2, "mcp"))

    def test_nan_weight_is_a_graph_error_not_an_empty_queue(self):
        with pytest.raises(GraphError, match="finite"):
            api.schedule({"weights": [1.0, float("nan")],
                          "edges": [[0, 1, 1.0]]}, 2, "mcp")

    def test_nan_speed_is_a_machine_error(self):
        g = TaskGraph([1.0, 2.0], {(0, 1): 1.0})
        with pytest.raises(MachineError, match="finite"):
            api.as_machine({"procs": 2, "speeds": [float("nan"), 1.0]}, g)

    def test_as_machine_forms(self):
        g = TaskGraph([1.0, 2.0], {(0, 1): 1.0})
        assert api.as_machine(None, g).num_procs >= g.num_nodes
        assert api.as_machine(3, g).num_procs == 3
        m = api.as_machine({"procs": 2, "speeds": [1.0, 2.0]}, g)
        assert m.num_procs == 2 and m.speeds is not None
        existing = Machine(5)
        assert api.as_machine(existing, g) is existing

    def test_as_machine_rejects_malformed(self):
        g = TaskGraph([1.0], {})
        with pytest.raises(MachineError):
            api.as_machine({"procs": "many"}, g)
        with pytest.raises(MachineError):
            api.as_machine(object(), g)


# ----------------------------------------------------------------------
# fingerprints and the cache contract
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_spec_fingerprint_canonicalizes(self):
        assert api.spec_fingerprint("mcp") == api.spec_fingerprint("MCP")
        assert (api.spec_fingerprint("param:prio=blevel,proc=est")
                == api.spec_fingerprint("param:proc=est,prio=blevel"))

    def test_machine_fingerprint_separates_models(self):
        g = TaskGraph([1.0, 2.0], {(0, 1): 1.0})
        fps = {api.machine_fingerprint(api.as_machine(src, g))
               for src in (2, 3, {"procs": 2, "speeds": [1.0, 0.5]})}
        assert len(fps) == 3

    def test_graph_name_does_not_change_key(self):
        a = TaskGraph([1.0, 2.0], {(0, 1): 2.0}, name="alpha")
        b = TaskGraph([1.0, 2.0], {(0, 1): 2.0}, name="beta")
        assert api.request_key(a, 2, "mcp") == api.request_key(b, 2, "mcp")

    @settings(max_examples=25, deadline=None)
    @given(graph=task_graphs(max_nodes=10),
           spec=st.sampled_from(_SPECS),
           procs=st.integers(1, 4))
    def test_equal_keys_imply_identical_schedules(self, graph, spec,
                                                  procs):
        """The service-cache invariant: same request_key, same bits.

        The second request presents the *same content* through a
        different representation (the JSON-style mapping the HTTP
        service receives); its key must match and its schedule must be
        placement-for-placement identical.
        """
        other = _mapping_of(graph)
        key_a = api.request_key(graph, procs, spec)
        key_b = api.request_key(other, procs, spec)
        assert key_a == key_b
        sched_a = api.schedule(graph, procs, spec)
        sched_b = api.schedule(other, procs, spec)
        assert sched_a.to_dict() == sched_b.to_dict()
        assert sched_a.length == sched_b.length

    @settings(max_examples=15, deadline=None)
    @given(graph=task_graphs(max_nodes=10))
    def test_stg_round_trip_preserves_key(self, graph):
        text = dumps_stg(graph)
        assert (api.request_key(text, 2, "mcp")
                == api.request_key(graph, 2, "mcp"))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_schedule_is_validated_and_deterministic(self):
        body = {"weights": [2.0, 3.0, 4.0, 1.0],
                "edges": [[0, 1, 4.0], [0, 2, 1.0], [1, 3, 1.0],
                          [2, 3, 5.0]]}
        s1 = api.schedule(body, 2, "mcp")
        s2 = api.schedule(body, 2, "mcp")
        assert s1.to_dict() == s2.to_dict()
        assert s1.length > 0

    @pytest.mark.parametrize("spec", ["HLFET", "ISH", "MCP", "ETF", "DLS",
                                      "LAST", "EZ", "LC", "DSC", "MD",
                                      "DCP", "BSA"])
    def test_large_magnitude_schedules_validate(self, huge30, spec):
        from repro import NetworkMachine, Topology

        machine = NetworkMachine(Topology.ring(4)) if spec == "BSA" else None
        assert api.schedule(huge30, machine, spec).length > 1e10

    def test_schedule_unknown_spec_raises(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            api.schedule({"weights": [1.0]}, 1, "NOPE")

    def test_simulate_exact_replay_matches_prediction(self):
        g = TaskGraph([2.0, 3.0, 4.0], {(0, 1): 1.0, (0, 2): 2.0})
        row = api.simulate(g, 2, "mcp", noise="none:0", trials=3)
        predicted = api.schedule(g, 2, "mcp").length
        assert row.predicted == pytest.approx(predicted)
        assert row.mean == pytest.approx(predicted)

    def test_simulate_rejects_bad_noise(self):
        g = TaskGraph([1.0, 2.0], {(0, 1): 1.0})
        with pytest.raises(ValueError, match="bad noise spec"):
            api.simulate(g, 2, "mcp", noise="sideways:9")

    def test_rank_orders_specs_best_first(self):
        g = TaskGraph([2.0, 3.0, 3.0, 4.0, 5.0, 4.0, 4.0, 4.0, 1.0],
                      {(0, 1): 4.0, (0, 2): 1.0, (0, 3): 1.0,
                       (0, 4): 1.0, (0, 5): 10.0, (1, 6): 1.0,
                       (2, 6): 1.0, (3, 7): 1.0, (4, 7): 1.0,
                       (5, 8): 5.0, (6, 8): 5.0, (7, 8): 10.0},
                      name="kwok-ahmad-9")
        table = api.rank(g, 3, specs=("MCP", "DLS", "HLFET"))
        assert [set(r) for r in table] == [
            {"spec", "avg_rank", "mean_nsl", "wins"}] * 3
        ranks = [r["avg_rank"] for r in table]
        assert ranks == sorted(ranks)
