"""Lightweight, dependency-free metrics registry.

A :class:`Metrics` instance holds three families of instruments:

* **counters** -- monotonically increasing integers (``inc``), e.g. how
  many predictor simulations actually ran versus hit a memo;
* **gauges** -- last-written values (``gauge``), e.g. the resolved
  worker count of a run;
* **timers** -- accumulated ``(count, seconds)`` pairs (``timer`` as a
  context manager, or ``add_time`` for externally-measured durations),
  e.g. per-worker job wall-clock.

Everything is guarded by one lock per registry, so instruments can be
bumped from any thread.

Registries nest: one made with a ``parent`` also counts every update
into that parent (and so on up), so a run's registry sees its points'
work and the process registry sees every run's.  Engine code writes to
:data:`METRICS`, which forwards to the registry *in scope*: the one the
innermost :func:`metrics_scope` of the current thread (a
:class:`contextvars.ContextVar`) entered, else the process registry.
``run_spec`` opens one scope per run and one per plan point, so two runs
in one process -- two servers' threads, say -- never count each other's
work, and a run's metrics are its registry's :meth:`~Metrics.snapshot`.

Cross-*process* aggregation works by value, not by sharing: a worker
runs each job in a fresh registry of its own and ships its snapshot
back; the parent folds it in with :meth:`Metrics.merge` in a
deterministic order -- mirroring how simulation results themselves are
folded by :mod:`repro.analysis.parallel`.

Instrument names are dotted lowercase paths (``cache.bitmap.hits``,
``sim.simulations``); the full catalogue lives in
``docs/observability.md``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, Optional, Union

Number = Union[int, float]


class Metrics:
    """A thread-safe counter/gauge/timer registry.

    Args:
        parent: A registry that also receives every update made here
            (None: a root registry).
    """

    def __init__(self, parent: Optional["Metrics"] = None) -> None:
        self._lock = threading.Lock()
        self._parent = parent
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Number] = {}
        self._timers: Dict[str, Dict[str, Number]] = {}

    # -- instruments -------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        self.merge({"counters": {name: value}})

    def gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.merge({"gauges": {name: value}})

    def add_time(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold an externally-measured duration into timer ``name``."""
        self.merge({"timers": {name: {"count": count, "seconds": seconds}}})

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    # -- reads -------------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A plain-dict copy of every instrument, with sorted keys.

        The returned value is JSON-encodable and picklable, suitable for
        shipping across a process boundary or embedding in a manifest.
        """
        with self._lock:
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "timers": {
                    k: dict(self._timers[k]) for k in sorted(self._timers)
                },
            }

    # -- aggregation -------------------------------------------------------

    def merge(self, delta: dict) -> None:
        """Fold a :meth:`snapshot` dict into this registry and its parents.

        Counters and timers add; gauges take the incoming value.  Used by
        the parent process to aggregate worker snapshots; callers are
        responsible for folding in a deterministic order.
        """
        with self._lock:
            for name, value in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in delta.get("gauges", {}).items():
                self._gauges[name] = value
            for name, entry in delta.get("timers", {}).items():
                mine = self._timers.setdefault(name, {"count": 0, "seconds": 0.0})
                mine["count"] += entry.get("count", 0)
                mine["seconds"] += float(entry.get("seconds", 0.0))
        if self._parent is not None:
            self._parent.merge(delta)


#: The process registry: the scope outside any :func:`metrics_scope`.
_PROCESS = Metrics()

_SCOPE: ContextVar[Metrics] = ContextVar("repro_metrics_scope", default=_PROCESS)


def current_metrics() -> Metrics:
    """The registry in scope in this thread."""
    return _SCOPE.get()


@contextmanager
def metrics_scope(registry: Optional[Metrics] = None) -> Iterator[Metrics]:
    """Make ``registry`` the one :data:`METRICS` writes to in this block.

    The default is a fresh registry nested in the one now in scope, so
    the enclosing scopes count the block's work too.  Pass a root
    ``Metrics()`` for a registry that counts into nothing else.
    """
    if registry is None:
        registry = Metrics(parent=current_metrics())
    token = _SCOPE.set(registry)
    try:
        yield registry
    finally:
        _SCOPE.reset(token)


class _ScopedMetrics:
    """Forwards every :class:`Metrics` call to the registry in scope."""

    def __getattr__(self, name: str):
        return getattr(_SCOPE.get(), name)


#: What the instrumented engine writes to: the registry in scope.
METRICS = _ScopedMetrics()
