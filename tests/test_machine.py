"""Unit tests for machine models."""

import pytest

from repro import Machine, MachineError, NetworkMachine, TaskGraph, Topology


class TestMachine:
    def test_basic(self):
        m = Machine(4)
        assert m.num_procs == 4
        assert not m.contention_aware

    def test_zero_procs_rejected(self):
        with pytest.raises(MachineError):
            Machine(0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_speed_rejected(self, bad):
        with pytest.raises(MachineError, match="finite"):
            Machine(2, speeds=[bad, 1.0])

    def test_unbounded_from_graph(self):
        g = TaskGraph([1.0] * 7, {})
        m = Machine.unbounded(g)
        assert m.num_procs == 7

    def test_unbounded_from_int(self):
        assert Machine.unbounded(12).num_procs == 12

    def test_comm_delay(self):
        m = Machine(2)
        assert m.comm_delay(0, 0, 9.0) == 0.0
        assert m.comm_delay(0, 1, 9.0) == 9.0


class TestNetworkMachine:
    def test_wraps_topology(self):
        nm = NetworkMachine(Topology.ring(4))
        assert nm.num_procs == 4
        assert nm.contention_aware

    def test_comm_delay_counts_hops(self):
        nm = NetworkMachine(Topology.ring(4))
        assert nm.comm_delay(0, 0, 5.0) == 0.0
        assert nm.comm_delay(0, 1, 5.0) == 5.0
        assert nm.comm_delay(0, 2, 5.0) == 10.0  # two hops on a 4-ring

    def test_apn_scheduler_requires_network(self):
        from repro import get_scheduler

        g = TaskGraph([1.0, 1.0], {(0, 1): 1.0})
        with pytest.raises(TypeError):
            get_scheduler("BSA").schedule(g, Machine(2))
