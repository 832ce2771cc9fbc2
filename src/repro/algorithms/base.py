"""Scheduler interface and registry.

Every algorithm is a :class:`Scheduler` subclass exposing
``schedule(graph, machine) -> Schedule`` and three bits of metadata that
mirror the paper's taxonomy (Section 3/4): the class (BNP/UNC/APN) and
the design-decision flags the paper's analysis keys on (critical-path
based?, dynamic priority?, insertion?).

Algorithms self-register via :func:`register` (one shared instance per
name); lookups go through :func:`get_scheduler` / :func:`list_schedulers`.
The six BNP acronyms are registered as named component specs (see
:mod:`repro.algorithms.components`).  Besides the registered acronyms,
:func:`get_scheduler` resolves *component spec*
strings (``param:prio=blevel,ready=fifo,proc=est,insert=on``) into
parameterized schedulers assembled by
:mod:`repro.algorithms.components` — every layer that takes an
algorithm name (benchmarks, scenarios, adversarial search, the
simulator) therefore accepts synthesized schedulers for free.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional

from ..core.graph import TaskGraph
from ..core.machine import Machine, NetworkMachine
from ..core.schedule import Schedule
from ..obs import trace as _trace

__all__ = [
    "Scheduler",
    "register",
    "get_scheduler",
    "list_schedulers",
    "SCHEDULER_CLASSES",
]

SCHEDULER_CLASSES = ("BNP", "UNC", "APN")

_REGISTRY: Dict[str, "Scheduler"] = {}


class Scheduler(abc.ABC):
    """Abstract static DAG scheduler.

    Class attributes
    ----------------
    name:
        Paper acronym (``"MCP"``, ``"DSC"``, ...).
    klass:
        ``"BNP"``, ``"UNC"`` or ``"APN"``.
    cp_based / dynamic_priority / uses_insertion:
        Taxonomy flags used by the analysis tables.
    """

    name: str = "?"
    klass: str = "?"
    cp_based: bool = False
    dynamic_priority: bool = False
    uses_insertion: bool = False
    complexity: str = "?"

    def schedule(self, graph: TaskGraph, machine: Machine) -> Schedule:
        """Produce a complete schedule of ``graph`` on ``machine``."""
        self._check_machine(machine)
        with _trace.span("sched.schedule", algorithm=self.name,
                         graph=graph.name, nodes=graph.num_nodes):
            sched = self._run(graph, machine)
        if not sched.is_complete():
            raise RuntimeError(
                f"{self.name} returned an incomplete schedule"
            )  # pragma: no cover - defensive
        return sched

    @abc.abstractmethod
    def _run(self, graph: TaskGraph, machine: Machine) -> Schedule:
        """Algorithm body; subclasses may assume a validated machine."""

    def _check_machine(self, machine: Machine) -> None:
        if self.klass == "APN" and not isinstance(machine, NetworkMachine):
            raise TypeError(
                f"{self.name} is an APN algorithm and needs a NetworkMachine"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.klass} scheduler {self.name}>"


def register(sched):
    """Register a scheduler instance, or (as a class decorator) one
    instance of a :class:`Scheduler` subclass, under its name."""
    inst = sched() if isinstance(sched, type) else sched
    key = inst.name.upper()
    if key in _REGISTRY:
        raise ValueError(f"duplicate scheduler name {inst.name!r}")
    if inst.klass not in SCHEDULER_CLASSES:
        raise ValueError(f"{inst.name}: unknown class {inst.klass!r}")
    _REGISTRY[key] = inst
    return sched


#: Spec-string schedulers, memoized by canonical spelling.
_SPEC_SCHEDULERS: Dict[str, Scheduler] = {}


def get_scheduler(name: str) -> Scheduler:
    """Resolve ``name`` to a ready-to-call scheduler instance.

    Accepts registered acronyms case-insensitively (``"mcp"``),
    component spec strings (``"param:prio=alap,ready=prio,proc=est,
    insert=on"``; see :mod:`repro.algorithms.components` for the
    grammar), and online spec strings (``"online:mcp,imode=mean"``;
    see :mod:`repro.sim.online` — the schedule is the zero-noise
    event-driven execution under the spec's information mode).
    Schedulers are stateless, so instances are shared — repeated
    lookups of the same name (or of two spellings of the same spec)
    return the same object.
    """
    prefix = name.strip().lower()
    if prefix.startswith("param:"):
        from .components import ParamScheduler, parse_spec

        return _spec_scheduler(parse_spec(name), ParamScheduler)
    if prefix.startswith("online:"):
        from ..sim.online import OnlineScheduler, parse_online_spec

        return _spec_scheduler(parse_online_spec(name), OnlineScheduler)
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scheduler {name!r}; known: {known} "
            f"(or a 'param:' component spec / 'online:' spec)") from None


def _spec_scheduler(spec, make: Callable) -> Scheduler:
    key = spec.canonical()
    inst = _SPEC_SCHEDULERS.get(key)
    if inst is None:
        inst = _SPEC_SCHEDULERS[key] = make(spec)
    return inst


def list_schedulers(klass: Optional[str] = None) -> List[str]:
    """Registered scheduler names, optionally filtered by class."""
    names = [
        name
        for name, sched in _REGISTRY.items()
        if klass is None or sched.klass == klass.upper()
    ]
    return sorted(names)
