"""Shared fixtures for the test suite.

Hypothesis strategies live in :mod:`strategies` (``tests/strategies.py``)
so test modules can import them unambiguously; ``task_graphs`` is
re-exported here for backwards compatibility.
"""

from __future__ import annotations

import pytest

from repro import Machine, NetworkMachine, TaskGraph, Topology
from strategies import task_graphs  # noqa: F401  (re-export)


# ----------------------------------------------------------------------
# Deterministic example graphs
# ----------------------------------------------------------------------
@pytest.fixture
def chain4() -> TaskGraph:
    """0 -> 1 -> 2 -> 3 with mixed costs."""
    return TaskGraph(
        [2.0, 3.0, 1.0, 4.0],
        {(0, 1): 5.0, (1, 2): 1.0, (2, 3): 2.0},
        name="chain4",
    )


@pytest.fixture
def fork3() -> TaskGraph:
    """0 fans out to 1 and 2."""
    return TaskGraph(
        [1.0, 2.0, 3.0],
        {(0, 1): 4.0, (0, 2): 1.0},
        name="fork3",
    )


@pytest.fixture
def join3() -> TaskGraph:
    """1 and 2 join into 0... inverted: 0,1 -> 2."""
    return TaskGraph(
        [2.0, 3.0, 1.0],
        {(0, 2): 4.0, (1, 2): 1.0},
        name="join3",
    )


@pytest.fixture
def diamond4() -> TaskGraph:
    """0 -> {1, 2} -> 3."""
    return TaskGraph(
        [1.0, 2.0, 4.0, 1.0],
        {(0, 1): 3.0, (0, 2): 1.0, (1, 3): 2.0, (2, 3): 5.0},
        name="diamond4",
    )


@pytest.fixture
def kwok9() -> TaskGraph:
    from repro.generators.psg import kwok_ahmad_9

    return kwok_ahmad_9()


@pytest.fixture
def huge30() -> TaskGraph:
    """30 tasks with weights and costs in [1e9, 1e10]: times reach
    ~1e11, where one ulp (~1.5e-5) is wider than an absolute 1e-6."""
    import random

    rng = random.Random(3)
    weights = [rng.uniform(1e9, 1e10) for _ in range(30)]
    edges = {(u, v): rng.uniform(1e9, 1e10)
             for u in range(30) for v in range(u + 1, 30)
             if rng.random() < 0.2}
    return TaskGraph(weights, edges, name="huge30")


@pytest.fixture
def machine2() -> Machine:
    return Machine(2)


@pytest.fixture
def machine4() -> Machine:
    return Machine(4)


@pytest.fixture
def net_ring4() -> NetworkMachine:
    return NetworkMachine(Topology.ring(4))


@pytest.fixture
def net_cube8() -> NetworkMachine:
    return NetworkMachine(Topology.hypercube(3))
