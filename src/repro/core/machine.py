"""Target machine models.

The paper evaluates three algorithm classes against two machine
abstractions:

* **BNP / UNC** — a clique of identical processors with contention-free
  links: communication between two processors always takes exactly the
  edge cost, regardless of traffic (:class:`Machine`).  BNP algorithms
  receive a *bounded* processor count; UNC algorithms conceptually have
  an unbounded supply (one processor per task is always sufficient).
* **APN** — an arbitrary processor network whose links are *not*
  contention-free; messages must be scheduled onto links hop by hop
  (:class:`NetworkMachine`, built on :mod:`repro.network`).

Beyond the paper's homogeneous machines, :class:`Machine` optionally
carries per-processor *speed factors* (the uniform/related-machines
model): a task of weight ``w`` executes for ``w / speed[p]`` on
processor ``p``.  The paper grid never sets speeds; the scenario engine
(:mod:`repro.scenarios`) uses them for heterogeneous sweeps.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

from .exceptions import MachineError

if TYPE_CHECKING:  # pragma: no cover
    from ..network.topology import Topology

__all__ = ["Machine", "NetworkMachine", "normalized_speeds"]


def normalized_speeds(speeds: Optional[Sequence[float]], num_procs: int,
                      error: type = MachineError
                      ) -> Optional[Tuple[float, ...]]:
    """Canonical per-processor speed factors, or ``None`` when uniform.

    Shared by :class:`Machine` and :class:`~repro.core.schedule.Schedule`
    so the two can never disagree on what counts as heterogeneous:
    length must match ``num_procs``, every factor must be finite and
    positive, and an all-ones profile normalises to ``None`` (the
    homogeneous model).
    ``error`` is the exception class to raise on violations.
    """
    if speeds is None:
        return None
    speeds = tuple(float(s) for s in speeds)
    if len(speeds) != num_procs:
        raise error(
            f"{len(speeds)} speed factors for {num_procs} processors")
    if not all(math.isfinite(s) for s in speeds):
        raise error("processor speeds must be finite")
    if any(s <= 0 for s in speeds):
        raise error("processor speeds must be positive")
    if all(s == 1.0 for s in speeds):  # repro: noqa-RPR005 exact-uniform config check, speeds are user input not computed times
        return None
    return speeds


class Machine:
    """A fully connected set of identical processors.

    Parameters
    ----------
    num_procs:
        Number of processors available to the scheduler (``p``).
    speeds:
        Optional per-processor speed factors (length ``num_procs``, all
        positive).  ``None`` — and an all-ones sequence, which is
        normalised to ``None`` — means the paper's homogeneous machine.
    """

    contention_aware = False

    def __init__(self, num_procs: int,
                 speeds: Optional[Sequence[float]] = None):
        if num_procs < 1:
            raise MachineError("a machine needs at least one processor")
        self.num_procs = int(num_procs)
        self.speeds = normalized_speeds(speeds, self.num_procs)

    @classmethod
    def unbounded(cls, graph_or_size: Any) -> "Machine":
        """Machine for UNC algorithms: one processor per task.

        ``v`` processors are always enough — no schedule can keep more
        than ``v`` processors busy.
        """
        size = getattr(graph_or_size, "num_nodes", graph_or_size)
        return cls(int(size))

    @property
    def is_heterogeneous(self) -> bool:
        return self.speeds is not None

    def exec_time(self, weight: float, proc: int) -> float:
        """Execution time of a task of ``weight`` on processor ``proc``."""
        if self.speeds is None:
            return weight
        return weight / self.speeds[proc]

    def comm_delay(self, src: int, dst: int, cost: float) -> float:
        """Message delay between processors in the clique model."""
        return 0.0 if src == dst else cost

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.speeds is not None:
            return (f"Machine(num_procs={self.num_procs}, "
                    f"speeds={list(self.speeds)})")
        return f"Machine(num_procs={self.num_procs})"


class NetworkMachine(Machine):
    """A machine whose processors are joined by an explicit topology.

    APN schedulers additionally schedule each inter-processor message on
    the links of ``topology`` (see :mod:`repro.network.contention`); this
    class carries the topology plus its routing tables.
    """

    contention_aware = True

    def __init__(self, topology: "Topology"):
        super().__init__(topology.num_procs)
        self.topology = topology

    def comm_delay(self, src: int, dst: int, cost: float) -> float:
        """Contention-free lower bound: per-hop store-and-forward delay.

        Each hop transfers the message in ``cost / bandwidth`` time (the
        topology's links all share one bandwidth factor; 1.0 reproduces
        the paper's model).
        """
        if src == dst:
            return 0.0
        return (self.topology.transfer_time(cost)
                * self.topology.hop_count(src, dst))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkMachine({self.topology!r})"
