"""Shared test fixtures and trace-building helpers."""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np
import pytest

from repro.analysis.cache import cache_counts, cache_summary, parse_entry, write_entry
from repro.obs.metrics import Metrics, metrics_scope
from repro.trace.trace import Trace, TraceBuilder


def trace_from_outcomes(
    outcomes: Iterable[bool],
    pc: int = 0x100,
    target: int = 0x200,
) -> Trace:
    """A single-branch trace with the given outcome sequence."""
    outcome_list = [bool(x) for x in outcomes]
    n = len(outcome_list)
    return Trace(
        np.full(n, pc, dtype=np.uint64),
        np.full(n, target, dtype=np.uint64),
        np.array(outcome_list, dtype=bool),
    )


def trace_from_string(spec: str, pc: int = 0x100, target: int = 0x200) -> Trace:
    """A single-branch trace from a string like ``"TTNTTN"``."""
    return trace_from_outcomes(
        [c in "Tt1" for c in spec if c.strip()], pc=pc, target=target
    )


def trace_from_steps(
    steps: Sequence[Tuple[int, int, bool]]
) -> Trace:
    """A trace from explicit (pc, target, taken) steps."""
    builder = TraceBuilder()
    for pc, target, taken in steps:
        builder.append(pc, target, taken)
    return builder.build()


def bpt1_bytes(trace: Trace) -> bytes:
    """The legacy ``BPT1`` encoding of ``trace``: magic, ``uint64`` n,
    the pc and target columns, then LSB-first bit-packed outcomes."""
    return b"".join([
        b"BPT1",
        np.uint64(len(trace)).tobytes(),
        np.ascontiguousarray(trace.pc, dtype="<u8").tobytes(),
        np.ascontiguousarray(trace.target, dtype="<u8").tobytes(),
        np.packbits(trace.taken, bitorder="little").tobytes(),
    ])


def interleave(sequences: Dict[int, List[bool]], target_offset: int = 0x1000) -> Trace:
    """Round-robin interleave several branches' outcome sequences.

    Branch ``pc`` emits its next outcome each round until all sequences
    are exhausted (shorter sequences simply stop contributing).
    """
    builder = TraceBuilder()
    longest = max((len(s) for s in sequences.values()), default=0)
    for i in range(longest):
        for pc in sorted(sequences):
            outcomes = sequences[pc]
            if i < len(outcomes):
                builder.append(pc, pc + target_offset, outcomes[i])
    return builder.build()


def count_disk_reads(cache, monkeypatch) -> List:
    """Record the path of every disk read ``cache`` makes from now on."""
    reads: List = []
    real_load = cache._load

    def counting_load(path, kind):
        reads.append(path)
        return real_load(path, kind)

    monkeypatch.setattr(cache, "_load", counting_load)
    return reads


def rewrite_cache_entry(path: Path, mutate: Callable[[dict], None]) -> None:
    """Apply ``mutate`` to the arrays of the cache entry at ``path`` (none
    if there is no entry yet) and write them back through the cache's own
    encoder.  The rewritten entry's digest is valid, so only the kind's
    decoder can reject it.
    """
    fields = parse_entry(path.read_bytes()) if path.exists() else {}
    mutate(fields)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        write_entry(fh, fields)


class CacheEvents:
    """The cache events a metrics registry counted, summed over entry
    kinds: ``events.hits``, ``.misses``, ``.writes``, ``.errors`` and
    ``.quarantined`` read its counters now."""

    def __init__(self, registry: Metrics) -> None:
        self.registry = registry

    def __getattr__(self, event: str) -> int:
        counts = cache_counts(self.registry.snapshot())
        if event not in counts:
            raise AttributeError(event)
        return counts[event]

    def summary(self) -> str:
        return cache_summary(self.registry.snapshot())


@contextlib.contextmanager
def scoped_cache_events() -> Iterator[CacheEvents]:
    """The cache events counted inside the block (nested scopes count
    into the enclosing ones too)."""
    with metrics_scope() as registry:
        yield CacheEvents(registry)


@pytest.fixture()
def cache_events() -> Iterator[CacheEvents]:
    """The cache events counted during the test, in its own scope."""
    with scoped_cache_events() as events:
        yield events


@pytest.fixture(scope="session")
def small_benchmark_trace() -> Trace:
    """A small but structurally-rich suite benchmark trace."""
    from repro.workloads.suite import load_benchmark

    return load_benchmark("compress", length=8000, run_seed=42)


@pytest.fixture(scope="session")
def small_gcc_trace() -> Trace:
    """A small correlation-rich benchmark trace."""
    from repro.workloads.suite import load_benchmark

    return load_benchmark("gcc", length=12000, run_seed=42)
