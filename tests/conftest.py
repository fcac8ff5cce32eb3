"""Shared test fixtures and trace-building helpers."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
import pytest

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
