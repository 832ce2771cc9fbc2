"""Ready-pool policies: how the set of ready nodes is ordered.

The ``ready=`` axis only matters to *decoupled* processor selectors
(``est``/``eft``), which pop one node from the pool and then choose its
processor.  Coupled selectors (``etf``/``dls``) scan the whole ready
set every step and ignore the pool order entirely — the pool still
tracks membership so a spec with a coupled selector remains valid.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...core.kernel import LazyPriorityQueue
from ...core.listsched import ReadyTracker
from .priorities import PriorityState

__all__ = ["ReadyPolicy", "ReadyPool", "READY_POLICIES"]


class ReadyPool:
    """Per-run pool state produced by :meth:`ReadyPolicy.start`.

    ``pops`` counts best-ready selections of a re-sorted pool; the loop
    reports it once per run as the ``sched.heap_pops`` counter.
    """

    pops = 0

    def pop(self) -> int:
        """Remove and return the pool's best ready node."""
        raise NotImplementedError

    def push(self, node: int) -> None:
        """Admit a newly-released node."""
        raise NotImplementedError


class _SortedPool(ReadyPool):
    """Re-sorted pool: a lazy heap over the priority rule's keys.

    The heap is seeded from the ready set on the first pop, so a run
    whose coupled selector never pops pays for no heap at all.
    """

    __slots__ = ("_ready", "_prio", "_queue")

    def __init__(self, ready: ReadyTracker, prio: PriorityState):
        self._ready = ready
        self._prio = prio
        self._queue: Optional[LazyPriorityQueue] = None

    def pop(self) -> int:
        if self._queue is None:
            self._queue = self._ready.priority_queue(self._prio.key)
        self.pops += 1
        return self._queue.pop_best()

    def push(self, node: int) -> None:
        if self._queue is not None:
            self._queue.push(node)


class _FifoPool(ReadyPool):
    """First-ready-first-served: nodes pop in becoming-ready order.

    The :class:`~repro.core.listsched.ReadyTracker` already records
    becoming-ready order, so the pool holds no state of its own.
    """

    __slots__ = ("_ready",)

    def __init__(self, ready: ReadyTracker, prio: PriorityState):
        self._ready = ready

    def pop(self) -> int:
        return next(self._ready.iter_ready())

    def push(self, node: int) -> None:
        pass  # ordering comes from the tracker itself


class ReadyPolicy:
    """One value of the ``ready=`` axis."""

    __slots__ = ("key", "summary", "resorted")

    def __init__(self, key: str, summary: str, resorted: bool):
        self.key = key
        self.summary = summary
        self.resorted = resorted

    def start(self, ready: ReadyTracker, prio: PriorityState) -> ReadyPool:
        """Per-run pool over ``ready`` ordered per this policy."""
        if self.resorted:
            return _SortedPool(ready, prio)
        return _FifoPool(ready, prio)


READY_POLICIES: Dict[str, ReadyPolicy] = {
    "prio": ReadyPolicy(
        "prio",
        "re-sorted pool: always pop the highest-priority ready node",
        resorted=True,
    ),
    "fifo": ReadyPolicy(
        "fifo",
        "first-ready-first-served: pop in becoming-ready order, "
        "ignoring the priority rule",
        resorted=False,
    ),
}
