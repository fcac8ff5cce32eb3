"""Run manifests: every report run leaves a diffable, schema-versioned
record of what was simulated and what it cost.

A manifest is a plain JSON document (``run_manifest.json``) written at
the end of a :func:`repro.api.run_spec` / ``repro report`` invocation.
It captures the run's *identity* (configuration digest, trace digests,
run seed, package version), its *outputs* (a digest per experiment
result, so bit-identity between two runs is a string comparison), and
its *cost* (per-experiment timings, cache hit ratio, worker count, and
the full metric snapshot).  Two manifests from equivalent runs differ
only in timings and timestamps -- everything else diffing clean is the
observability layer's determinism claim.

The schema is validated structurally by :func:`validate_manifest` (pure
Python, no jsonschema dependency); bump :data:`MANIFEST_SCHEMA_VERSION`
whenever a field is added, removed, or changes meaning.  ``repro obs
show`` pretty-prints and validates a manifest; ``repro obs diff``
compares the deterministic sections of two.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Dict, List, Optional

#: Bump on any manifest layout or semantics change.
#: v2 added the ``resilience`` section (retries, timeouts, injected
#: faults, structured failures, resume accounting).
#: v3 added ``spec_digest`` (the RunSpec identity digest the run
#: executed) and ``sweep`` (this manifest's sweep coordinates, or None
#: for a plain run).
#: v4 added ``served_by`` (the repro.serve instance id that executed
#: the run, or None for a direct run).  Execution provenance, not
#: identity: it is deliberately excluded from the deterministic diff
#: keys, so a served manifest still diffs clean against a direct one.
#: v5 added ``chunk_branches`` (the streaming window the priming pass
#: folded simulations over, or None for whole-trace priming).  Like
#: ``jobs``, it is an execution knob -- chunked results are
#: bit-identical to whole-trace results by contract (PC011) -- so it
#: too stays out of the deterministic diff keys.
#: v6 added ``trace_source`` (the spec workload's identity payload --
#: ``{"kind": "synthetic"|"imported", ...}`` -- or None for callers
#: predating the TraceSource union).  Identity, not execution: it joins
#: the deterministic diff keys, so a run over ingested traces diffs
#: clean against another run over the same digests and *dirty* against
#: a synthetic run that merely produced equal trace bytes.
#: v7 dropped ``chunk_branches``: every run primes whole traces.
MANIFEST_SCHEMA_VERSION = 7

#: Discriminator so readers can reject non-manifest JSON early.
MANIFEST_KIND = "repro.run_manifest"


def config_digest(config: Any) -> str:
    """Digest of a LabConfig (its repr enumerates every sizing field)."""
    return hashlib.blake2b(repr(config).encode(), digest_size=16).hexdigest()


def result_digest(result: Any) -> str:
    """Digest of one experiment result's canonical JSON serialisation.

    Uses :meth:`repro.experiments.base.ExperimentResult.to_json`, the
    schema-versioned contract, so equal digests mean bit-identical
    exported results.
    """
    return hashlib.blake2b(
        result.to_json().encode(), digest_size=16
    ).hexdigest()


def _package_version() -> str:
    import repro

    return getattr(repro, "__version__", "unknown")


def build_manifest(
    *,
    command: Optional[List[str]],
    config: Any,
    run_seed: int,
    max_length: Optional[int],
    jobs: int,
    cache_enabled: bool,
    cache_dir: Optional[str],
    labs: Dict[str, Any],
    results: Dict[str, Any],
    experiment_timings: List[dict],
    metrics: dict,
    timings: Dict[str, float],
    resilience: Optional[dict] = None,
    spec_digest: Optional[str] = None,
    sweep: Optional[dict] = None,
    served_by: Optional[str] = None,
    trace_source: Optional[dict] = None,
) -> dict:
    """Assemble the manifest dict for one finished report run.

    Args:
        command: The argv that launched the run (None for library use).
        config: The LabConfig the run used.
        run_seed: Workload execution seed.
        max_length: Trace scale anchor (None = environment default).
        jobs: Resolved worker count.
        cache_enabled: Whether the on-disk result cache was consulted.
        cache_dir: The cache root actually used (None when disabled).
        labs: Benchmark name -> Lab (for trace digests and lengths).
        results: Experiment id -> ExperimentResult.
        experiment_timings: ``[{"id", "seconds"}, ...]`` in run order.
        metrics: The run's metrics (its registry's
            :meth:`~repro.obs.metrics.Metrics.snapshot`).
        timings: Named run-level wall-clock figures (seconds).
        resilience: Extra fields for the ``resilience`` section
            (``failures``, ``resumed``, ``replayed``, ``journal``);
            the counter-derived fields are filled in from ``metrics``
            either way.
        spec_digest: The executed RunSpec's identity digest (None for
            callers predating the spec layer).
        sweep: This manifest's sweep coordinates as a ``{field: value}``
            mapping (None for a plain, non-sweep run).
        served_by: The serving daemon's instance id when the run went
            through ``repro serve`` (None for a direct run).
        trace_source: The spec workload's identity payload (kind plus
            the source's identity dict; None for callers predating the
            TraceSource union).  Part of the deterministic diff keys.
    """
    counters = metrics.get("counters", {})
    extra = resilience or {}
    resilience_section = {
        "retries": counters.get("resilience.retries", 0),
        "timeouts": counters.get("resilience.timeouts", 0),
        "task_failures": counters.get("resilience.task_failures", 0),
        "faults_injected": counters.get("resilience.faults_injected", 0),
        "pool_rebuilds": counters.get("parallel.pool_rebuilds", 0),
        "failures": list(extra.get("failures", [])),
        "resumed": bool(extra.get("resumed", False)),
        "replayed": list(extra.get("replayed", [])),
        "journal": extra.get("journal"),
    }

    def _kind(kind: str, event: str) -> int:
        return counters.get(f"cache.{kind}.{event}", 0)

    result_hits = _kind("bitmap", "hits") + _kind("corr", "hits")
    result_misses = _kind("bitmap", "misses") + _kind("corr", "misses")
    probed = result_hits + result_misses
    timing_by_id = {entry["id"]: entry for entry in experiment_timings}
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "package_version": _package_version(),
        "created_unix": time.time(),
        "command": list(command) if command is not None else None,
        "run_seed": int(run_seed),
        "max_length": None if max_length is None else int(max_length),
        "jobs": int(jobs),
        "spec_digest": spec_digest,
        "sweep": None if sweep is None else dict(sweep),
        "served_by": served_by,
        "trace_source": (
            None if trace_source is None else dict(trace_source)
        ),
        "config_digest": config_digest(config),
        "config": {
            name: getattr(config, name)
            for name in sorted(vars(config))
        },
        "cache": {
            "enabled": bool(cache_enabled),
            "dir": cache_dir,
            "result_hits": result_hits,
            "result_misses": result_misses,
            "result_writes": _kind("bitmap", "writes") + _kind("corr", "writes"),
            "trace_hits": _kind("trace", "hits"),
            "trace_misses": _kind("trace", "misses"),
            "trace_writes": _kind("trace", "writes"),
            "hit_ratio": (result_hits / probed) if probed else None,
        },
        "traces": {
            name: {
                "digest": labs[name].trace.digest(),
                "length": len(labs[name].trace),
            }
            for name in sorted(labs)
        },
        "experiments": [
            {
                "id": experiment_id,
                "title": results[experiment_id].title,
                "seconds": timing_by_id.get(experiment_id, {}).get(
                    "seconds", 0.0
                ),
                "result_digest": result_digest(results[experiment_id]),
            }
            for experiment_id in results
        ],
        "resilience": resilience_section,
        "metrics": metrics,
        "timings": {name: float(value) for name, value in timings.items()},
    }


# -- validation -------------------------------------------------------------

#: Top-level field -> allowed types (a tuple means any-of; NoneType via
#: ``type(None)``).  Purely structural; semantic checks live below.
_TOP_LEVEL_SPEC: Dict[str, tuple] = {
    "schema_version": (int,),
    "kind": (str,),
    "package_version": (str,),
    "created_unix": (int, float),
    "command": (list, type(None)),
    "run_seed": (int,),
    "max_length": (int, type(None)),
    "jobs": (int,),
    "spec_digest": (str, type(None)),
    "sweep": (dict, type(None)),
    "served_by": (str, type(None)),
    "trace_source": (dict, type(None)),
    "config_digest": (str,),
    "config": (dict,),
    "cache": (dict,),
    "traces": (dict,),
    "experiments": (list,),
    "resilience": (dict,),
    "metrics": (dict,),
    "timings": (dict,),
}

_RESILIENCE_SPEC: Dict[str, tuple] = {
    "retries": (int,),
    "timeouts": (int,),
    "task_failures": (int,),
    "faults_injected": (int,),
    "pool_rebuilds": (int,),
    "failures": (list,),
    "resumed": (bool,),
    "replayed": (list,),
    "journal": (str, type(None)),
}

_CACHE_SPEC: Dict[str, tuple] = {
    "enabled": (bool,),
    "dir": (str, type(None)),
    "result_hits": (int,),
    "result_misses": (int,),
    "result_writes": (int,),
    "trace_hits": (int,),
    "trace_misses": (int,),
    "trace_writes": (int,),
    "hit_ratio": (int, float, type(None)),
}

_EXPERIMENT_SPEC: Dict[str, tuple] = {
    "id": (str,),
    "title": (str,),
    "seconds": (int, float),
    "result_digest": (str,),
}


def _check_fields(
    payload: dict, spec: Dict[str, tuple], context: str, errors: List[str]
) -> None:
    for name, types in spec.items():
        if name not in payload:
            errors.append(f"{context}: missing field {name!r}")
        elif not isinstance(payload[name], types):
            expected = "/".join(t.__name__ for t in types)
            errors.append(
                f"{context}: field {name!r} has type "
                f"{type(payload[name]).__name__}, expected {expected}"
            )


def validate_manifest(payload: Any) -> List[str]:
    """Structurally validate a manifest; returns a list of problems.

    An empty list means the document is a well-formed manifest of the
    current :data:`MANIFEST_SCHEMA_VERSION`.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["manifest: not a JSON object"]
    _check_fields(payload, _TOP_LEVEL_SPEC, "manifest", errors)
    if payload.get("kind") not in (None, MANIFEST_KIND):
        errors.append(
            f"manifest: kind {payload['kind']!r} != {MANIFEST_KIND!r}"
        )
    version = payload.get("schema_version")
    if isinstance(version, int) and version != MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"manifest: schema_version {version} != "
            f"{MANIFEST_SCHEMA_VERSION} (this reader)"
        )
    if isinstance(payload.get("cache"), dict):
        _check_fields(payload["cache"], _CACHE_SPEC, "cache", errors)
    if isinstance(payload.get("resilience"), dict):
        _check_fields(
            payload["resilience"], _RESILIENCE_SPEC, "resilience", errors
        )
        failures = payload["resilience"].get("failures")
        if isinstance(failures, list):
            for index, entry in enumerate(failures):
                if not isinstance(entry, dict):
                    errors.append(
                        f"resilience.failures[{index}]: not an object"
                    )
    if isinstance(payload.get("traces"), dict):
        for name, entry in payload["traces"].items():
            if not isinstance(entry, dict):
                errors.append(f"traces[{name!r}]: not an object")
                continue
            if not isinstance(entry.get("digest"), str):
                errors.append(f"traces[{name!r}]: missing string 'digest'")
            if not isinstance(entry.get("length"), int):
                errors.append(f"traces[{name!r}]: missing int 'length'")
    if isinstance(payload.get("experiments"), list):
        for index, entry in enumerate(payload["experiments"]):
            if not isinstance(entry, dict):
                errors.append(f"experiments[{index}]: not an object")
                continue
            _check_fields(
                entry, _EXPERIMENT_SPEC, f"experiments[{index}]", errors
            )
    if isinstance(payload.get("metrics"), dict):
        for section in ("counters", "gauges", "timers"):
            if not isinstance(payload["metrics"].get(section), dict):
                errors.append(f"metrics: missing object {section!r}")
    return errors


# -- I/O and comparison -----------------------------------------------------


def write_manifest(payload: dict, path: str) -> None:
    """Write a manifest as stable, indented, key-sorted JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> dict:
    """Read a manifest; raises ValueError if it fails validation."""
    with open(path) as fh:
        payload = json.load(fh)
    errors = validate_manifest(payload)
    if errors:
        raise ValueError(
            f"{path} is not a valid run manifest: " + "; ".join(errors)
        )
    return payload


#: Sections expected to be identical between two equivalent runs.
_DETERMINISTIC_KEYS = (
    "spec_digest",
    "sweep",
    "config_digest",
    "run_seed",
    "max_length",
    "trace_source",
    "traces",
)


def diff_manifests(first: dict, second: dict) -> List[str]:
    """Human-readable differences in the deterministic sections.

    Timings, timestamps, worker counts and metric values are *expected*
    to differ between runs and are not compared; config, seeds, trace
    digests and per-experiment result digests are.
    """
    differences: List[str] = []
    for key in _DETERMINISTIC_KEYS:
        if first.get(key) != second.get(key):
            differences.append(
                f"{key}: {first.get(key)!r} != {second.get(key)!r}"
            )
    first_results = {
        e["id"]: e["result_digest"] for e in first.get("experiments", [])
    }
    second_results = {
        e["id"]: e["result_digest"] for e in second.get("experiments", [])
    }
    for experiment_id in sorted(set(first_results) | set(second_results)):
        mine = first_results.get(experiment_id)
        theirs = second_results.get(experiment_id)
        if mine != theirs:
            differences.append(
                f"experiments[{experiment_id}].result_digest: "
                f"{mine!r} != {theirs!r}"
            )
    return differences


def summarize_manifest(payload: dict) -> str:
    """A terminal-friendly summary of one manifest."""
    lines = [
        f"run manifest (schema v{payload.get('schema_version')}, "
        f"repro {payload.get('package_version')})",
        f"  command:     {' '.join(payload['command']) if payload.get('command') else '(library run)'}",
        f"  run seed:    {payload.get('run_seed')}",
        f"  max length:  {payload.get('max_length')}",
        f"  jobs:        {payload.get('jobs')}",
        f"  config:      {payload.get('config_digest')}",
    ]
    if payload.get("spec_digest"):
        lines.append(f"  spec:        {payload['spec_digest']}")
    if payload.get("trace_source"):
        lines.append(
            f"  source:      {payload['trace_source'].get('kind', '?')}"
        )
    if payload.get("served_by"):
        lines.append(f"  served by:   {payload['served_by']}")
    if payload.get("sweep"):
        coords = ", ".join(
            f"{name}={value}"
            for name, value in sorted(payload["sweep"].items())
        )
        lines.append(f"  sweep point: {coords}")
    cache = payload.get("cache", {})
    if cache.get("enabled"):
        ratio = cache.get("hit_ratio")
        ratio_text = "n/a" if ratio is None else f"{ratio * 100:.1f}%"
        lines.append(
            f"  cache:       {cache.get('dir')} "
            f"(result hit ratio {ratio_text}, "
            f"{cache.get('result_hits')} hits / "
            f"{cache.get('result_misses')} misses)"
        )
    else:
        lines.append("  cache:       disabled")
    traces = payload.get("traces", {})
    total = sum(entry.get("length", 0) for entry in traces.values())
    lines.append(
        f"  traces:      {len(traces)} benchmarks, {total} dynamic branches"
    )
    resilience = payload.get("resilience", {})
    if resilience:
        failures = resilience.get("failures", [])
        lines.append(
            f"  resilience:  {resilience.get('retries', 0)} retries, "
            f"{resilience.get('timeouts', 0)} timeouts, "
            f"{resilience.get('faults_injected', 0)} faults injected, "
            f"{len(failures)} failures"
            + (" (resumed)" if resilience.get("resumed") else "")
        )
        for entry in resilience.get("replayed", []):
            lines.append(f"    replayed from journal: {entry}")
        for entry in failures:
            scope = entry.get("scope", "task")
            where = (
                entry.get("experiment_id")
                if scope == "experiment"
                else f"{entry.get('benchmark')}/{entry.get('task')}"
            )
            lines.append(
                f"    FAILED [{entry.get('kind', '?')}] {where}: "
                f"{entry.get('message', '')}"
            )
    for entry in payload.get("experiments", []):
        lines.append(
            f"    {entry.get('id', '?'):16s} {entry.get('seconds', 0.0):8.3f}s"
            f"  {entry.get('result_digest', '')}"
        )
    timings = payload.get("timings", {})
    for name in sorted(timings):
        lines.append(f"  {name + ':':24s} {timings[name]:.3f}s")
    counters = payload.get("metrics", {}).get("counters", {})
    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:32s} {counters[name]}")
    return "\n".join(lines)
