"""Unit tests for repro.core.graph.TaskGraph."""

import numpy as np
import pytest

from repro import CycleError, GraphError, TaskGraph


class TestConstruction:
    def test_minimal(self):
        g = TaskGraph([1.0], {})
        assert g.num_nodes == 1
        assert g.num_edges == 0
        assert g.entry_nodes == (0,)
        assert g.exit_nodes == (0,)

    def test_edges_mapping_and_triples_equivalent(self):
        m = TaskGraph([1, 1, 1], {(0, 1): 2.0, (1, 2): 3.0})
        t = TaskGraph([1, 1, 1], [(0, 1, 2.0), (1, 2, 3.0)])
        assert m.edges() == t.edges()

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([], {})

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1.0, 0.0], {})
        with pytest.raises(GraphError):
            TaskGraph([1.0, -2.0], {})

    def test_negative_comm_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {(0, 1): -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        # NaN slips past a positivity check (nan <= 0 is False).
        with pytest.raises(GraphError, match="finite"):
            TaskGraph([1.0, bad], {})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_comm_rejected(self, bad):
        with pytest.raises(GraphError, match="non-finite"):
            TaskGraph([1, 1], {(0, 1): bad})

    def test_zero_comm_allowed(self):
        g = TaskGraph([1, 1], {(0, 1): 0.0})
        assert g.comm_cost(0, 1) == 0.0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {(0, 0): 1.0})

    def test_unknown_node_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], {(0, 5): 1.0})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            TaskGraph([1, 1], [(0, 1, 1.0), (0, 1, 2.0)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph([1, 1, 1], {(0, 1): 1, (1, 2): 1, (2, 0): 1})

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph([1, 1], {(0, 1): 1, (1, 0): 1})

    def test_weights_read_only(self):
        g = TaskGraph([1.0, 2.0], {(0, 1): 1.0})
        with pytest.raises(ValueError):
            g.weights[0] = 9.0


class TestAccessors:
    def test_structure(self, diamond4):
        assert diamond4.successors(0) == [1, 2]
        assert diamond4.predecessors(3) == [1, 2]
        assert diamond4.in_degree(0) == 0
        assert diamond4.out_degree(0) == 2
        assert diamond4.has_edge(0, 1)
        assert not diamond4.has_edge(1, 0)
        assert diamond4.comm_cost(2, 3) == 5.0

    def test_comm_cost_missing_edge(self, diamond4):
        with pytest.raises(KeyError):
            diamond4.comm_cost(0, 3)

    def test_edges_sorted(self, diamond4):
        assert diamond4.edges() == [
            (0, 1, 3.0), (0, 2, 1.0), (1, 3, 2.0), (2, 3, 5.0)
        ]

    def test_len(self, diamond4):
        assert len(diamond4) == 4


class TestTopology:
    def test_topological_order_valid(self, kwok9):
        pos = {n: i for i, n in enumerate(kwok9.topological_order)}
        for u, v, _ in kwok9.edges():
            assert pos[u] < pos[v]

    def test_entry_exit(self, kwok9):
        assert kwok9.entry_nodes == (0,)
        assert kwok9.exit_nodes == (8,)

    def test_multi_entry(self):
        g = TaskGraph([1, 1, 1], {(0, 2): 1, (1, 2): 1})
        assert g.entry_nodes == (0, 1)

    def test_depth_and_width(self):
        g = TaskGraph([1, 1, 1, 1], {(0, 1): 1, (0, 2): 1, (1, 3): 1,
                                     (2, 3): 1})
        assert g.depth() == 3
        assert g.width() == 2

    def test_width_independent_nodes(self):
        g = TaskGraph([1, 1, 1], {})
        assert g.width() == 3
        assert g.depth() == 1


class TestAggregates:
    def test_totals(self, diamond4):
        assert diamond4.total_computation == 8.0
        assert diamond4.total_communication == 11.0

    def test_ccr(self, diamond4):
        # avg comm = 11/4, avg comp = 8/4.
        assert diamond4.ccr == pytest.approx(11.0 / 8.0)

    def test_ccr_no_edges(self):
        assert TaskGraph([1, 2], {}).ccr == 0.0


class TestInterop:
    def test_networkx_round_trip(self, kwok9):
        nx_graph = kwok9.to_networkx()
        back = TaskGraph.from_networkx(nx_graph)
        assert back.num_nodes == kwok9.num_nodes
        assert sorted(back.weights.tolist()) == sorted(
            kwok9.weights.tolist()
        )
        assert len(back.edges()) == len(kwok9.edges())

    def test_from_networkx_defaults(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("a", "b")
        tg = TaskGraph.from_networkx(g)
        assert tg.num_nodes == 2
        assert tg.weight(0) == 1.0  # default weight
        assert tg.comm_cost(0, 1) == 0.0  # default comm

    def test_relabeled(self, diamond4):
        g = diamond4.relabeled("other")
        assert g.name == "other"
        assert g.edges() == diamond4.edges()
