"""The SPECint95-analogue benchmark suite (Table 1).

Eight benchmarks mirroring the paper's suite.  Dynamic trace lengths keep
the paper's *relative* proportions (vortex longest, perl/compress
shortest) scaled down to a pure-Python-tractable default of 200k branches
for the longest run; ``REPRO_TRACE_LENGTH`` overrides the scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from repro.trace.trace import Trace
from repro.workloads.generator import BenchmarkProfile, build_program
from repro.workloads.motifs import MIX_CLASSES, mix_class
from repro.workloads.program import execute_program, stream_program

#: A behaviour-class mix: class name -> non-negative weight.  Weight 1
#: leaves that class untouched, 0 removes it, other values scale every
#: unit count of that class (rounded, floored at one unit).
Mix = Mapping[str, float]

#: Benchmark order used throughout the paper's tables and figures.
BENCHMARK_NAMES: List[str] = [
    "compress",
    "gcc",
    "go",
    "ijpeg",
    "m88ksim",
    "perl",
    "vortex",
    "xlisp",
]

#: Dynamic conditional-branch counts of the paper's runs (Table 1).
PAPER_BRANCH_COUNTS: Dict[str, int] = {
    "compress": 10_661_855,
    "gcc": 25_903_086,
    "go": 17_925_171,
    "ijpeg": 20_441_307,
    "m88ksim": 16_719_523,
    "perl": 10_570_887,
    "vortex": 33_853_896,
    "xlisp": 26_422_387,
}

#: Input data sets of the paper's runs (Table 1).
PAPER_INPUTS: Dict[str, str] = {
    "compress": "test.in (abbrev.)",
    "gcc": "jump.i",
    "go": "2stone9.in (abbrev.)",
    "ijpeg": "specmun.ppm (abbrev.)",
    "m88ksim": "dcrand.train.big",
    "perl": "scrabbl.pl (abbrev.)",
    "vortex": "vortex.in",
    "xlisp": "train.lsp",
}

#: Default dynamic length of the longest benchmark (vortex); other
#: benchmarks scale by their paper proportions.
DEFAULT_MAX_LENGTH = 200_000

_LENGTH_ENV_VAR = "REPRO_TRACE_LENGTH"


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully-resolved workload: profile plus run parameters."""

    profile: BenchmarkProfile
    length: int
    run_seed: int

    @property
    def name(self) -> str:
        return self.profile.name


def _profiles() -> Dict[str, BenchmarkProfile]:
    """The tuned unit mixes for the eight analogues.

    Tuning targets (DESIGN.md section 5): go hardest, m88ksim/vortex
    easiest; gcc/go rich in correlation gshare under-exploits; m88ksim/
    ijpeg loop-rich; vortex/m88ksim dominated by >99%-biased branches.
    """
    return {
        "compress": BenchmarkProfile(
            name="compress",
            seed=101,
            units={
                "selfdep": 6,
                "corr_triple": 2,
                "corr_quad": 1,
                "biased_run": 10,
                "data": 5,
                "markov": 4,
                "for_loop": 2,
                "while_loop": 1,
                "corr_pair": 2,
                "block": 1,
                "pattern": 1,
                "noise": 2,
            },
            data_range=(0.72, 0.88),
            markov_range=(0.88, 0.96),
            biased_range=(0.99, 0.9995),
            loop_style="drifting",
            loop_trip_range=(2, 4),
        ),
        "gcc": BenchmarkProfile(
            name="gcc",
            seed=202,
            units={
                "selfdep": 14,
                "corr_triple": 12,
                "corr_quad": 8,
                "biased_run": 40,
                "corr_pair": 25,
                "chain": 13,
                "assign_corr": 8,
                "for_loop": 4,
                "while_loop": 1,
                "gated_loop": 2,
                "markov": 3,
                "phase": 4,
                "noise": 3,
                "data": 4,
                "pattern": 4,
                "call": 4,
                "block": 1,
            },
            biased_range=(0.99, 0.9995),
            noise_range=(0.55, 0.72),
            data_range=(0.72, 0.86),
            markov_range=(0.9, 0.97),
            loop_style="drifting",
            loop_trip_range=(2, 5),
            long_loop_fraction=0.3,
            corr_markov_fraction=0.45,
            corr_markov_range=(0.88, 0.96),
            corr_bernoulli_range=(0.6, 0.85),
        ),
        "go": BenchmarkProfile(
            name="go",
            seed=303,
            units={
                "selfdep": 16,
                "corr_triple": 10,
                "corr_quad": 6,
                "noise": 17,
                "data": 11,
                "markov": 5,
                "corr_pair": 20,
                "chain": 7,
                "biased_run": 17,
                "biased": 6,
                "for_loop": 4,
                "phase": 9,
                "pattern": 2,
            },
            noise_range=(0.52, 0.7),
            data_range=(0.68, 0.82),
            markov_range=(0.8, 0.93),
            biased_range=(0.985, 0.999),
            loop_style="drifting",
            loop_trip_range=(2, 6),
            long_loop_fraction=0.25,
            corr_markov_fraction=0.25,
            corr_bernoulli_range=(0.55, 0.8),
        ),
        "ijpeg": BenchmarkProfile(
            name="ijpeg",
            seed=404,
            units={
                "selfdep": 4,
                "corr_triple": 2,
                "corr_quad": 1,
                "loop_nest": 3,
                "for_loop": 4,
                "biased_run": 13,
                "data": 6,
                "markov": 2,
                "pattern": 2,
                "corr_pair": 2,
                "noise": 2,
            },
            data_range=(0.72, 0.86),
            biased_range=(0.99, 0.9995),
            loop_style="constant",
            loop_trip_range=(3, 6),
            long_loop_fraction=0.4,
            long_trip_range=(12, 40),
        ),
        "m88ksim": BenchmarkProfile(
            name="m88ksim",
            seed=505,
            units={
                "selfdep": 3,
                "corr_triple": 2,
                "corr_quad": 1,
                "biased_run": 45,
                "for_loop": 4,
                "while_loop": 2,
                "corr_pair": 2,
                "pattern": 1,
                "data": 1,
                "markov": 1,
            },
            data_range=(0.8, 0.9),
            biased_range=(0.992, 0.9995),
            loop_style="constant",
            loop_trip_range=(2, 4),
            long_loop_fraction=0.4,
            corr_markov_fraction=0.9,
        ),
        "perl": BenchmarkProfile(
            name="perl",
            seed=606,
            units={
                "recursion": 2,
                "selfdep": 6,
                "corr_triple": 4,
                "corr_quad": 2,
                "biased_run": 35,
                "call": 4,
                "chain": 4,
                "corr_pair": 5,
                "for_loop": 3,
                "markov": 2,
                "pattern": 1,
                "noise": 1,
            },
            biased_range=(0.99, 0.9995),
            markov_range=(0.9, 0.97),
            loop_style="constant",
            loop_trip_range=(2, 4),
            corr_markov_fraction=0.85,
            corr_markov_range=(0.88, 0.96),
        ),
        "vortex": BenchmarkProfile(
            name="vortex",
            seed=707,
            units={
                "selfdep": 4,
                "corr_triple": 2,
                "corr_quad": 1,
                "biased_run": 60,
                "call": 3,
                "for_loop": 2,
                "corr_pair": 2,
                "data": 1,
                "pattern": 1,
            },
            biased_range=(0.994, 0.9997),
            data_range=(0.85, 0.92),
            loop_style="constant",
            loop_trip_range=(2, 4),
            corr_markov_fraction=0.9,
            corr_markov_range=(0.9, 0.97),
        ),
        "xlisp": BenchmarkProfile(
            name="xlisp",
            seed=808,
            units={
                "recursion": 4,
                "selfdep": 8,
                "corr_triple": 4,
                "corr_quad": 2,
                "call": 5,
                "markov": 6,
                "biased_run": 25,
                "corr_pair": 4,
                "chain": 2,
                "for_loop": 4,
                "pattern": 1,
                "noise": 2,
                "data": 2,
            },
            markov_range=(0.85, 0.95),
            biased_range=(0.99, 0.9995),
            loop_style="drifting",
            loop_trip_range=(2, 4),
            corr_markov_fraction=0.7,
        ),
    }


def canonical_mix(mix: Optional[Mix]) -> Tuple[Tuple[str, float], ...]:
    """Validate a mix and reduce it to a sorted, hashable tuple.

    Unknown class names and negative weights are rejected here -- at
    spec-parse depth, not deep inside the generator -- so a bad sweep
    axis fails before any trace work starts.
    """
    if not mix:
        return ()
    items = []
    for cls in sorted(mix):
        if cls not in MIX_CLASSES:
            raise ValueError(
                f"unknown mix class {cls!r}; choose from {list(MIX_CLASSES)}"
            )
        weight = float(mix[cls])
        if weight < 0 or weight != weight:  # negative or NaN
            raise ValueError(
                f"mix weight for {cls!r} must be a non-negative number, "
                f"got {mix[cls]!r}"
            )
        items.append((cls, weight))
    return tuple(items)


def apply_mix(
    profile: BenchmarkProfile, mix: Optional[Mix]
) -> BenchmarkProfile:
    """Scale a profile's unit counts by behaviour-class weights.

    Weight 0 drops the class, weight 1 is the identity, anything else
    scales each unit count (``max(1, round(count * weight))`` so a
    present class never silently vanishes from rounding).  The biased
    baseline mass is unclassified and never scaled, so a mix can never
    empty a program.
    """
    canon = dict(canonical_mix(mix))
    if not canon:
        return profile
    units: Dict[str, int] = {}
    for kind, count in profile.units.items():
        cls = mix_class(kind)
        weight = canon.get(cls, 1.0) if cls else 1.0
        if weight == 1.0:  # exact sentinel, not accuracy math (check: ignore)
            units[kind] = count
        elif weight == 0.0:  # exact sentinel, not accuracy math (check: ignore)
            continue
        else:
            units[kind] = max(1, round(count * weight))
    if not units:
        raise ValueError(
            f"mix {dict(canon)!r} leaves profile {profile.name!r} empty"
        )
    return replace(profile, units=units)


def effective_mix(
    name: str, mix: Optional[Mix]
) -> Tuple[Tuple[str, float], ...]:
    """The subset of a mix that actually changes one benchmark.

    A weight of 1, or a weight on a class the profile has no units of,
    contributes nothing; equivalent mixes reduce to the same tuple.
    """
    canon = canonical_mix(mix)
    if not canon:
        return ()
    profile = _profiles()[name]
    present = {mix_class(kind) for kind in profile.units if mix_class(kind)}
    return tuple(
        (c, w)
        for c, w in canon
        if w != 1.0 and c in present  # exact identity sentinel (check: ignore)
    )


def mix_signature(name: str, mix: Optional[Mix]) -> str:
    """Canonical identity suffix of a mix applied to one benchmark.

    Returns ``""`` when the mix is a no-op (see :func:`effective_mix`),
    so the unmixed benchmark keeps its legacy cache and plan keys
    bit-for-bit -- the anchor of cross-point trace dedup in mix sweeps.
    """
    return ",".join(f"{c}={format(w, 'g')}" for c, w in effective_mix(name, mix))


def default_trace_length() -> int:
    """Dynamic length of the longest benchmark (vortex's scale anchor).

    Controlled by the ``REPRO_TRACE_LENGTH`` environment variable;
    defaults to :data:`DEFAULT_MAX_LENGTH`.
    """
    raw = os.environ.get(_LENGTH_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_LENGTH
    value = int(raw)
    if value < 1:
        raise ValueError(f"{_LENGTH_ENV_VAR} must be positive, got {value}")
    return value


def scaled_length(name: str, max_length: Optional[int] = None) -> int:
    """Trace length for ``name`` preserving the paper's proportions."""
    if max_length is None:
        max_length = default_trace_length()
    longest = max(PAPER_BRANCH_COUNTS.values())
    return max(1000, round(PAPER_BRANCH_COUNTS[name] / longest * max_length))


def benchmark_spec(
    name: str,
    length: Optional[int] = None,
    run_seed: int = 12345,
    mix: Optional[Mix] = None,
) -> WorkloadSpec:
    """Resolve a benchmark name to a :class:`WorkloadSpec`.

    Args:
        name: One of :data:`BENCHMARK_NAMES`.
        length: Dynamic branch count; default scales the paper's
            proportions to :func:`default_trace_length`.
        run_seed: Execution seed (the "input data set").
        mix: Optional behaviour-class weights applied to the profile's
            unit counts (see :func:`apply_mix`).
    """
    profiles = _profiles()
    if name not in profiles:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}"
        )
    if length is None:
        length = scaled_length(name)
    profile = apply_mix(profiles[name], mix)
    return WorkloadSpec(profile=profile, length=length, run_seed=run_seed)


@lru_cache(maxsize=32)
def _cached_trace(
    name: str,
    length: int,
    run_seed: int,
    mix_items: Tuple[Tuple[str, float], ...] = (),
) -> Trace:
    from repro.obs.metrics import METRICS
    from repro.obs.tracing import span

    spec = benchmark_spec(name, length, run_seed, mix=dict(mix_items))
    with span(
        "generate_trace", benchmark=name, length=length, run_seed=run_seed
    ), METRICS.timer("trace.generate_seconds"):
        program = build_program(spec.profile)
        # Fail fast on a malformed program: a structurally unfaithful IR
        # (bad layout, dead code, undefined conditions) would silently
        # distort every trace and table downstream.  Raises
        # ProgramVerificationError with the full diagnostic listing.
        from repro.check.ir import verify_program_or_raise

        verify_program_or_raise(program, name=spec.name)
        METRICS.inc("check.ir_verifications")
        trace = execute_program(program, spec.length, spec.run_seed)
    METRICS.inc("trace.generated")
    METRICS.inc("trace.events", len(trace))
    return trace


def load_benchmark(
    name: str,
    length: Optional[int] = None,
    run_seed: int = 12345,
    mix: Optional[Mix] = None,
) -> Trace:
    """Generate (or fetch from cache) the trace for one benchmark."""
    if length is None:
        length = scaled_length(name)
    # A mix that does not change this profile must hit the same memo
    # entry (and disk-cache key) as the unmixed benchmark.
    return _cached_trace(name, length, run_seed, effective_mix(name, mix))


def load_source_trace(
    name: str,
    source,
    cache=None,
    *,
    length: Optional[int] = None,
) -> Trace:
    """One trace of a run's source: the one way every path loads it.

    ``source`` is a :data:`~repro.spec.TraceSource`.  A synthetic trace
    is read from ``cache`` (a :class:`~repro.analysis.cache.ResultCache`)
    under its mix-variant key, or generated and stored back; ``length``
    overrides its paper-scaled length.  An imported trace is read from
    its entry's file and checked against the entry's content digest and
    declared branch count.

    Raises:
        IngestError: If an imported file is unreadable or its content
            does not match the declared digest.
        SpecError: If an imported entry declares a branch count the
            file does not have.
    """
    if source.kind == "imported":
        from repro.errors import SpecError
        from repro.trace.ingest import load_imported_trace

        index = source.trace_names().index(name)
        entry = source.traces[index]
        trace = load_imported_trace(
            entry.path, format=entry.format, expected_digest=entry.digest
        )
        if entry.branches is not None and entry.branches != len(trace):
            raise SpecError(
                f"workload.traces[{index}].branches: declares "
                f"{entry.branches}, file has {len(trace)}"
            )
        return trace
    mix = source.mix_map()
    if length is None:
        length = scaled_length(name, source.max_length)
    variant = mix_signature(name, mix)
    trace = (
        cache.load_trace(name, length, source.seed, variant=variant)
        if cache is not None
        else None
    )
    if trace is None:
        trace = load_benchmark(name, length, source.seed, mix=mix)
        if cache is not None:
            cache.store_trace(name, length, source.seed, trace, variant=variant)
    return trace


def load_suite(
    max_length: Optional[int] = None,
    run_seed: int = 12345,
) -> Dict[str, Trace]:
    """Generate traces for the whole suite, in paper order."""
    return {
        name: load_benchmark(name, scaled_length(name, max_length), run_seed)
        for name in BENCHMARK_NAMES
    }


def stream_benchmark(
    name: str,
    path,
    length: Optional[int] = None,
    run_seed: int = 12345,
    chunk_branches: Optional[int] = None,
    mix: Optional[Mix] = None,
) -> int:
    """Generate one benchmark straight to a chunked ``.bpt`` file.

    The paper-scale entry point: interpretation streams windows through
    a :class:`~repro.trace.stream.BPT2Writer`, so neither the generator
    nor the file writer ever holds more than one window -- a 10M-branch
    spill peaks at the same residency as a 2M one.  The file read back
    via :class:`~repro.trace.stream.TraceStream` replays the identical
    records ``load_benchmark`` would return (same program, same seed).

    Returns the number of branches written.
    """
    from repro.check.ir import verify_program_or_raise
    from repro.obs.metrics import METRICS
    from repro.obs.tracing import span
    from repro.trace.stream import BPT2Writer, normalize_chunk_branches

    spec = benchmark_spec(name, length, run_seed, mix=mix)
    chunk = normalize_chunk_branches(chunk_branches)
    with span(
        "stream_trace",
        benchmark=name,
        length=spec.length,
        run_seed=run_seed,
        chunk_branches=chunk,
    ), METRICS.timer("trace.generate_seconds"):
        program = build_program(spec.profile)
        verify_program_or_raise(program, name=spec.name)
        METRICS.inc("check.ir_verifications")
        with BPT2Writer(path, chunk_branches=chunk) as writer:
            written = stream_program(
                program, spec.length, spec.run_seed, writer.append_chunk, chunk
            )
    METRICS.inc("trace.generated")
    METRICS.inc("trace.events", written)
    return written
