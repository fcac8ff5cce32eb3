"""RunSpec: one frozen, serialisable description of "a run".

Four PRs of engine growth accreted onto a kwarg-driven entry path --
``api.run_report`` took a dozen loose parameters and ``repro`` mirrored
them as flags, so there was no single object that *is* the run.  This
module introduces it:

* :class:`RunSpec` -- a frozen, schema-versioned dataclass capturing the
  workload suite (:class:`WorkloadSpec`), the predictor sizing
  (:class:`~repro.analysis.config.LabConfig`), the experiment ids, the
  engine options (:class:`EngineOptions`: jobs, cache, retries,
  timeouts, fault spec, journal/resume), and an optional
  :class:`SweepSpec` gridding over ``LabConfig`` fields.
* JSON round-trip -- :meth:`RunSpec.to_json` / :meth:`RunSpec.from_json`
  with strict unknown-field rejection, so ``repro run spec.json`` and a
  version-controlled spec file are first-class ways to launch a run.
* :meth:`RunSpec.digest` -- a content digest of the run's *identity*
  (workload, config, experiments, sweep).  Engine options deliberately
  do not participate: ``--jobs 4`` changes how a run executes, never
  what it computes, and the digest is the key the journal, the manifest
  and the result cache compare runs by.

The paper's own method is a sweep -- the same traces evaluated across
predictor sizings (figures 4-9, tables 1-3) -- and :class:`SweepSpec`
makes that grid the core experimental object: ``expand_points()`` turns
one swept spec into per-point specs whose digests differ exactly in the
swept fields.

:func:`spec_from_kwargs` is the keyword-flavoured builder: it folds the
CLI's loose flags into the identical spec, so
``spec_from_kwargs(max_length=20_000)`` and an explicit
``RunSpec(workload=WorkloadSpec(max_length=20_000))`` share one digest.
(The old ``api.run_report(**kwargs)`` shim that used to sit on top of
it is gone; execute specs with :func:`repro.api.run_spec`.)
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.config import DEFAULT_CONFIG, LabConfig
from repro.correlation.tagging import MAX_WINDOW
from repro.errors import SpecError

#: Bump on any spec layout or semantics change.  v2 added the tagged
#: trace-source union (``workload.kind``: synthetic | imported), mix
#: weights, and workload/mix sweep axes.
SPEC_SCHEMA_VERSION = 2

#: Document versions this reader accepts.  v1 documents (no ``kind``
#: tag, no mix) parse via the synthetic compat path.
SPEC_ACCEPTED_VERSIONS = (1, 2)

#: The schema version embedded in :meth:`RunSpec.identity`.  Pinned
#: independently of the *document* version above: a document-layout
#: revision that does not change what any existing run computes must
#: not shift every digest, journal key and cache key in the fleet.
#: Bump this only when identity semantics themselves change.
SPEC_IDENTITY_VERSION = 1

#: Discriminator so readers can reject non-spec JSON early.
SPEC_KIND = "repro.runspec"

#: Trace-source kinds a v2 workload may declare.
SOURCE_KINDS = ("synthetic", "imported")

#: Workload-level sweep axes (beyond LabConfig fields and ``mix.*``).
WORKLOAD_SWEEP_FIELDS = ("workload.max_length", "workload.seed")

#: LabConfig field names a spec (and a sweep axis) may set.
CONFIG_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(LabConfig)
)

#: Sweep expansion modes: ``grid`` takes the cartesian product of the
#: axes, ``zip`` pairs them element-wise (all axes must be equal length).
SWEEP_MODES = ("grid", "zip")


def _reject_unknown(payload: Dict[str, Any], allowed, context: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise SpecError(
            f"{context}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _require(payload: Any, type_, context: str):
    if not isinstance(payload, type_):
        raise SpecError(
            f"{context}: expected {type_.__name__}, got "
            f"{type(payload).__name__}"
        )
    return payload


def _canonical_mix(mix: Any) -> Optional[Tuple[Tuple[str, float], ...]]:
    """Validate a mix mapping and normalise it to a sorted tuple.

    Rejects unknown behaviour classes and negative / non-numeric
    weights *here*, at spec-parse depth, so a bad ``mix.noise`` axis
    fails before any generator work starts.  An empty mix normalises
    to ``None`` (the identity), keeping legacy digests untouched.
    """
    if mix is None:
        return None
    from repro.workloads.motifs import MIX_CLASSES

    if not isinstance(mix, dict):
        mix = dict(mix)
    items = []
    for cls in sorted(mix):
        if not isinstance(cls, str) or cls not in MIX_CLASSES:
            raise SpecError(
                f"workload.mix: unknown behaviour class {cls!r}; choose "
                f"from {', '.join(MIX_CLASSES)}"
            )
        raw = mix[cls]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise SpecError(
                f"workload.mix[{cls!r}]: expected a number, got {raw!r}"
            )
        weight = float(raw)
        if weight < 0 or weight != weight:
            raise SpecError(
                f"workload.mix[{cls!r}]: weight must be non-negative, "
                f"got {raw!r}"
            )
        items.append((cls, weight))
    return tuple(items) or None


@dataclass(frozen=True)
class SyntheticSource:
    """The generated suite: which analogue traces a run simulates.

    The v1 ``WorkloadSpec`` (``WorkloadSpec`` remains as an alias),
    generalised with first-class behaviour-class ``mix`` weights.

    Attributes:
        max_length: Scale anchor for the longest benchmark trace
            (None = ``REPRO_TRACE_LENGTH`` or 200k); the others keep the
            paper's proportions.
        seed: Workload execution seed (the "input data set").
        benchmarks: Benchmark subset, in suite order (None = the full
            eight-benchmark paper suite).
        mix: Behaviour-class weights over loop/pattern/correlated/noise
            (None = the untouched paper profiles).  Serialised, and
            digested, only when set -- a mix-free source round-trips to
            the exact v1 JSON layout, so every pre-existing digest,
            journal key and cache key is preserved.
    """

    kind = "synthetic"

    max_length: Optional[int] = None
    seed: int = 12345
    benchmarks: Optional[Tuple[str, ...]] = None
    mix: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self):
        if self.benchmarks is not None:
            object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        object.__setattr__(self, "mix", _canonical_mix(self.mix))

    def mix_map(self) -> Optional[Dict[str, float]]:
        """The mix as a plain mapping (None when unset)."""
        return None if self.mix is None else dict(self.mix)

    def trace_names(self) -> Tuple[str, ...]:
        """The benchmark names this source yields, in suite order."""
        if self.benchmarks is not None:
            return self.benchmarks
        from repro.workloads.suite import BENCHMARK_NAMES

        return tuple(BENCHMARK_NAMES)

    def trace_identity(self, name: str) -> str:
        """Per-benchmark source-identity suffix for plan/cache keys.

        ``""`` whenever this source yields the exact legacy trace --
        including a mix that happens not to touch ``name``'s profile --
        so unchanged traces dedupe against legacy keys across mix-swept
        points.
        """
        if self.mix is None:
            return ""
        from repro.workloads.suite import mix_signature

        signature = mix_signature(name, dict(self.mix))
        return f"mix={signature}" if signature else ""

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "max_length": self.max_length,
            "seed": self.seed,
            "benchmarks": (
                None if self.benchmarks is None else list(self.benchmarks)
            ),
        }
        if self.mix is not None:
            # Tagged v2 layout -- only when the new field is in play, so
            # mix-free sources keep the v1 byte layout (and digests).
            payload["kind"] = self.kind
            payload["mix"] = {cls: weight for cls, weight in self.mix}
        return payload

    def identity_dict(self) -> Dict[str, Any]:
        """The digest-relevant form (same as the wire form here)."""
        return self.to_dict()

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SyntheticSource":
        _require(payload, dict, "workload")
        _reject_unknown(
            payload,
            ("kind", "max_length", "seed", "benchmarks", "mix"),
            "workload",
        )
        benchmarks = payload.get("benchmarks")
        if benchmarks is not None:
            benchmarks = tuple(
                _require(name, str, "workload.benchmarks[]")
                for name in _require(benchmarks, list, "workload.benchmarks")
            )
        mix = payload.get("mix")
        if mix is not None:
            _require(mix, dict, "workload.mix")
        spec = cls(
            max_length=payload.get("max_length"),
            seed=payload.get("seed", 12345),
            benchmarks=benchmarks,
            mix=None if mix is None else tuple(sorted(mix.items())),
        )
        if spec.max_length is not None and (
            not isinstance(spec.max_length, int) or spec.max_length <= 0
        ):
            raise SpecError("workload.max_length: expected a positive int")
        if not isinstance(spec.seed, int):
            raise SpecError("workload.seed: expected an int")
        return spec


#: Compat alias: the v1 name for the synthetic source.
WorkloadSpec = SyntheticSource


@dataclass(frozen=True)
class TraceEntry:
    """One imported trace, referenced by content digest.

    Attributes:
        name: The benchmark-style name the trace runs under.
        digest: The canonical trace content digest
            (:meth:`repro.trace.trace.Trace.digest`), the entry's
            *identity*: two entries with equal digests are the same
            trace wherever their files live.
        path: Where the trace bytes live (``.bpt`` spill, text, or
            binary PC+taken).  Execution detail -- excluded from the
            spec digest so a spec stays portable across machines.
        format: Optional declared format (``bpt2``/``text``/``binary``;
            None = sniff from the file).
        branches: Optional declared dynamic branch count, used for
            chunk-span planning before the file is opened.
    """

    name: str
    digest: str
    path: str
    format: Optional[str] = None
    branches: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "digest": self.digest,
            "path": self.path,
            "format": self.format,
            "branches": self.branches,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any], context: str) -> "TraceEntry":
        _require(payload, dict, context)
        _reject_unknown(
            payload, ("name", "digest", "path", "format", "branches"), context
        )
        entry = cls(
            name=_require(payload.get("name", ""), str, f"{context}.name"),
            digest=_require(
                payload.get("digest", ""), str, f"{context}.digest"
            ),
            path=_require(payload.get("path", ""), str, f"{context}.path"),
            format=payload.get("format"),
            branches=payload.get("branches"),
        )
        if not entry.name:
            raise SpecError(f"{context}.name: must be a non-empty string")
        if not entry.digest:
            raise SpecError(f"{context}.digest: must be a non-empty string")
        if not entry.path:
            raise SpecError(f"{context}.path: must be a non-empty string")
        if entry.format is not None and not isinstance(entry.format, str):
            raise SpecError(f"{context}.format: expected a string or null")
        if entry.branches is not None and (
            not isinstance(entry.branches, int) or entry.branches <= 0
        ):
            raise SpecError(f"{context}.branches: expected a positive int")
        return entry


@dataclass(frozen=True)
class ImportedSource:
    """Foreign traces (CBP-style text / binary / ``.bpt``), by digest.

    The run's inputs are the trace *contents*: the spec digest covers
    each entry's name and content digest only, never its path, so a
    spec produced on one machine keys the same journal entries and
    cache hits on another.

    Attributes:
        traces: The imported traces, in run order.
        seed: Nominal run seed recorded in manifests (imported traces
            carry their own outcomes; nothing is generated from this).
    """

    kind = "imported"

    traces: Tuple[TraceEntry, ...] = ()
    seed: int = 0

    #: Imported traces have no synthetic scale anchor.
    max_length = None

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        if not self.traces:
            raise SpecError("workload.traces: at least one trace is required")
        names = [entry.name for entry in self.traces]
        if len(set(names)) != len(names):
            raise SpecError(
                f"workload.traces: duplicate trace name(s) in {names}"
            )

    def trace_names(self) -> Tuple[str, ...]:
        return tuple(entry.name for entry in self.traces)

    def entry(self, name: str) -> TraceEntry:
        for candidate in self.traces:
            if candidate.name == name:
                return candidate
        raise KeyError(f"imported source has no trace named {name!r}")

    def trace_identity(self, name: str) -> str:
        """Content-digest identity for plan/cache keys."""
        return f"digest={self.entry(name).digest}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "traces": [entry.to_dict() for entry in self.traces],
        }

    def identity_dict(self) -> Dict[str, Any]:
        """Digest form: names and content digests only, never paths."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "traces": [
                {"name": entry.name, "digest": entry.digest}
                for entry in self.traces
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ImportedSource":
        _require(payload, dict, "workload")
        _reject_unknown(payload, ("kind", "seed", "traces"), "workload")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise SpecError("workload.seed: expected an int")
        raw = _require(payload.get("traces", []), list, "workload.traces")
        traces = tuple(
            TraceEntry.from_dict(item, f"workload.traces[{i}]")
            for i, item in enumerate(raw)
        )
        return cls(traces=traces, seed=seed)


#: The trace-source union every layer downstream of parsing sees.
TraceSource = Union[SyntheticSource, ImportedSource]


def workload_from_dict(payload: Dict[str, Any]) -> TraceSource:
    """Parse a workload document, dispatching on its ``kind`` tag.

    Untagged documents are v1 synthetic workloads (the compat path);
    unknown kinds are rejected here, at parse time.
    """
    _require(payload, dict, "workload")
    kind = payload.get("kind", "synthetic")
    if kind == "synthetic":
        return SyntheticSource.from_dict(payload)
    if kind == "imported":
        return ImportedSource.from_dict(payload)
    raise SpecError(
        f"workload.kind {kind!r} not one of {SOURCE_KINDS}"
    )


@dataclass(frozen=True)
class EngineOptions:
    """How a run executes -- never *what* it computes.

    Every field mirrors one engine flag; None defers to the same
    environment default the flag uses.  Excluded from
    :meth:`RunSpec.digest` by design.
    """

    jobs: Optional[int] = None
    cache: bool = True
    cache_dir: Optional[str] = None
    retries: Optional[int] = None
    task_timeout: Optional[float] = None
    fault_spec: Optional[str] = None
    journal: Optional[str] = None
    resume: bool = False
    chunk_branches: Optional[int] = None

    _FIELDS = (
        "jobs", "cache", "cache_dir", "retries", "task_timeout",
        "fault_spec", "journal", "resume", "chunk_branches",
    )

    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "EngineOptions":
        _require(payload, dict, "engine")
        _reject_unknown(payload, cls._FIELDS, "engine")
        return cls(**payload)

    @classmethod
    def from_env(cls, **overrides: Any) -> "EngineOptions":
        """Options with every unset field resolved from the environment.

        This is the *single* env/flag resolution point: the engine
        (:class:`repro.api.EngineSession`), the server, and CLI
        utilities like ``repro cache stats`` all route through it, so
        one ``REPRO_*`` variable means one thing everywhere.

        ``overrides`` are CLI-flag-style values; ``None`` (or an absent
        key) defers to the environment, which in turn defers to the
        built-in default:

        * ``jobs`` -- ``REPRO_JOBS``, else the CPU count;
        * ``cache_dir`` -- ``REPRO_CACHE_DIR``, else ``.repro-cache``;
        * ``retries``/``task_timeout`` -- ``REPRO_MAX_RETRIES`` /
          ``REPRO_TASK_TIMEOUT``, else unset (the retry policy's own
          defaults apply);
        * ``fault_spec`` -- ``REPRO_FAULT_SPEC``, else unset;
        * ``chunk_branches`` -- ``REPRO_CHUNK_BRANCHES``, else unset
          (whole-trace priming; set = streamed chunk window).

        Raises:
            SpecError: On an unknown override name.
        """
        _reject_unknown(overrides, cls._FIELDS, "engine")
        options = cls(**overrides)
        return options.resolved()

    def resolved(self) -> "EngineOptions":
        """A copy with every ``None`` field pinned to its env default.

        Two resolved option sets built under the same environment are
        equal, which is what lets the server, the CLI and tests agree
        on where the cache lives and how many workers run without each
        re-parsing ``REPRO_*`` variables on its own.
        """
        from repro.analysis.cache import default_cache_dir
        from repro.analysis.parallel import resolve_jobs
        from repro.resilience.faults import ENV_FAULT_SPEC
        from repro.resilience.retry import ENV_MAX_RETRIES, ENV_TASK_TIMEOUT
        from repro.trace.stream import ENV_CHUNK_BRANCHES, normalize_chunk_branches

        updates: Dict[str, Any] = {}
        updates["jobs"] = resolve_jobs(
            self.jobs if self.jobs is None else int(self.jobs)
        )
        if self.cache_dir is None:
            updates["cache_dir"] = str(default_cache_dir())
        if self.retries is None:
            text = os.environ.get(ENV_MAX_RETRIES)
            if text:
                try:
                    updates["retries"] = int(text)
                except ValueError:
                    pass
        if self.task_timeout is None:
            text = os.environ.get(ENV_TASK_TIMEOUT)
            if text:
                try:
                    updates["task_timeout"] = float(text)
                except ValueError:
                    pass
        if self.fault_spec is None:
            env_spec = os.environ.get(ENV_FAULT_SPEC)
            if env_spec:
                updates["fault_spec"] = env_spec
        chunk = self.chunk_branches
        if chunk is None:
            text = os.environ.get(ENV_CHUNK_BRANCHES)
            if text:
                try:
                    chunk = int(text)
                except ValueError:
                    chunk = None
        if chunk is not None:
            try:
                updates["chunk_branches"] = normalize_chunk_branches(int(chunk))
            except (TypeError, ValueError) as error:
                raise SpecError(f"engine.chunk_branches: {error}") from None
        return replace(self, **updates)


def _validate_axis(name: str, values: Tuple[Any, ...]) -> None:
    """Reject an unknown axis name or a mistyped axis value."""
    if name in CONFIG_FIELDS or name in WORKLOAD_SWEEP_FIELDS:
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SpecError(
                    f"sweep axis {name!r}: values must be ints, got "
                    f"{value!r}"
                )
        return
    if name.startswith("mix."):
        from repro.workloads.motifs import MIX_CLASSES

        cls = name[len("mix."):]
        if cls not in MIX_CLASSES:
            raise SpecError(
                f"sweep axis {name!r}: unknown behaviour class {cls!r}; "
                f"choose from {', '.join(MIX_CLASSES)}"
            )
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(
                    f"sweep axis {name!r}: weights must be numbers, got "
                    f"{value!r}"
                )
            if value < 0 or value != value:
                raise SpecError(
                    f"sweep axis {name!r}: weights must be non-negative, "
                    f"got {value!r}"
                )
        return
    raise SpecError(
        f"sweep axis {name!r} is not sweepable; choose a LabConfig field "
        f"({', '.join(CONFIG_FIELDS)}), a workload field "
        f"({', '.join(WORKLOAD_SWEEP_FIELDS)}), or mix.<class>"
    )


@dataclass(frozen=True)
class SweepSpec:
    """A grid over config, workload, and mix fields.

    Attributes:
        axes: ``((field, (value, ...)), ...)`` sorted by field name.
            A field is a :class:`LabConfig` sizing field (int values),
            one of :data:`WORKLOAD_SWEEP_FIELDS` (int values), or
            ``mix.<class>`` for a behaviour class from
            :data:`repro.workloads.motifs.MIX_CLASSES` (non-negative
            numeric weights).
        mode: ``grid`` (cartesian product, the default) or ``zip``
            (element-wise pairing; axes must share one length).
    """

    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    mode: str = "grid"

    def __post_init__(self):
        normalized = tuple(
            sorted((name, tuple(values)) for name, values in dict(self.axes).items())
        )
        object.__setattr__(self, "axes", normalized)
        for name, values in self.axes:
            if not values:
                raise SpecError(f"sweep axis {name!r} has no values")
            _validate_axis(name, values)
        if not self.axes:
            raise SpecError("sweep: at least one axis is required")
        if self.mode not in SWEEP_MODES:
            raise SpecError(
                f"sweep mode {self.mode!r} not in {SWEEP_MODES}"
            )
        if self.mode == "zip":
            lengths = {len(values) for _, values in self.axes}
            if len(lengths) > 1:
                raise SpecError(
                    "sweep mode 'zip' requires equal-length axes; got "
                    f"lengths {sorted(lengths)}"
                )

    def coordinates(self) -> List[Dict[str, Any]]:
        """Every grid point as an ordered ``{field: value}`` mapping."""
        names = [name for name, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        if self.mode == "zip":
            combos = list(zip(*value_lists))
        else:
            combos = list(itertools.product(*value_lists))
        return [dict(zip(names, combo)) for combo in combos]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axes": {name: list(values) for name, values in self.axes},
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SweepSpec":
        _require(payload, dict, "sweep")
        _reject_unknown(payload, ("axes", "mode"), "sweep")
        axes = _require(payload.get("axes", {}), dict, "sweep.axes")
        return cls(
            axes=tuple(
                (name, tuple(_require(values, list, f"sweep.axes[{name!r}]")))
                for name, values in axes.items()
            ),
            mode=payload.get("mode", "grid"),
        )


def _check_windows(config: LabConfig) -> None:
    """Reject, before any work, windows the collector or oracle cannot serve."""
    collection, selective = config.collection_window, config.selective_window
    if not 1 <= collection <= MAX_WINDOW:
        raise SpecError(
            f"config.collection_window: must be in [1, {MAX_WINDOW}], got {collection}"
        )
    if not 1 <= selective <= collection:
        raise SpecError(
            f"config.selective_window: must be in [1, collection_window], got {selective}"
        )


def _config_to_dict(config: LabConfig) -> Dict[str, Any]:
    return {name: getattr(config, name) for name in CONFIG_FIELDS}


def _config_from_dict(payload: Dict[str, Any]) -> LabConfig:
    _require(payload, dict, "config")
    _reject_unknown(payload, CONFIG_FIELDS, "config")
    for name, value in payload.items():
        if not isinstance(value, int):
            raise SpecError(
                f"config.{name}: expected an int, got {value!r}"
            )
    return LabConfig(**payload)


@dataclass(frozen=True)
class RunSpec:
    """The complete, serialisable description of one run (or sweep).

    A spec is pure data: constructing one performs no work, and two
    specs with equal :meth:`digest` describe runs that must produce
    bit-identical results.  ``repro run spec.json`` executes one;
    :func:`repro.api.run_spec` is the library entry point.
    """

    experiments: Tuple[str, ...] = ()
    workload: TraceSource = field(default_factory=SyntheticSource)
    config: LabConfig = DEFAULT_CONFIG
    engine: EngineOptions = field(default_factory=EngineOptions)
    sweep: Optional[SweepSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "experiments", tuple(self.experiments))
        _check_windows(self.config)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned JSON-ready form of this spec."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "kind": SPEC_KIND,
            "experiments": list(self.experiments),
            "workload": self.workload.to_dict(),
            "config": _config_to_dict(self.config),
            "engine": self.engine.to_dict(),
            "sweep": None if self.sweep is None else self.sweep.to_dict(),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical (key-sorted) JSON of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSpec":
        """Parse a spec document, rejecting unknown fields at every level.

        Raises:
            SpecError: On a wrong kind/schema version, an unknown field
                anywhere in the document, or a mistyped value.
        """
        _require(payload, dict, "spec")
        _reject_unknown(
            payload,
            (
                "schema_version", "kind", "experiments", "workload",
                "config", "engine", "sweep",
            ),
            "spec",
        )
        kind = payload.get("kind", SPEC_KIND)
        if kind != SPEC_KIND:
            raise SpecError(f"spec kind {kind!r} != {SPEC_KIND!r}")
        version = payload.get("schema_version", SPEC_SCHEMA_VERSION)
        if version not in SPEC_ACCEPTED_VERSIONS:
            raise SpecError(
                f"spec schema_version {version!r} not in "
                f"{SPEC_ACCEPTED_VERSIONS} (this reader)"
            )
        experiments = tuple(
            _require(item, str, "experiments[]")
            for item in _require(
                payload.get("experiments", []), list, "experiments"
            )
        )
        sweep = payload.get("sweep")
        return cls(
            experiments=experiments,
            workload=workload_from_dict(payload.get("workload", {})),
            config=_config_from_dict(payload.get("config", {})),
            engine=EngineOptions.from_dict(payload.get("engine", {})),
            sweep=None if sweep is None else SweepSpec.from_dict(sweep),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"spec is not valid JSON: {error}") from None
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str) -> "RunSpec":
        with open(path) as fh:
            text = fh.read()
        return cls.from_json(text)

    def to_file(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=2))
            fh.write("\n")

    # -- identity ----------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """The digest-relevant subset: what the run computes.

        Engine options (jobs, cache, retries, ...) are excluded: they
        change execution, never results.  The workload participates via
        :meth:`~SyntheticSource.identity_dict` -- for imported sources
        that is trace names plus content digests, never file paths.
        """
        return {
            "schema_version": SPEC_IDENTITY_VERSION,
            "experiments": list(self.experiments),
            "workload": self.workload.identity_dict(),
            "config": _config_to_dict(self.config),
            "sweep": None if self.sweep is None else self.sweep.to_dict(),
        }

    def digest(self) -> str:
        """Content digest of this spec's identity (hex, stable)."""
        canonical = json.dumps(self.identity(), sort_keys=True)
        return hashlib.blake2b(
            canonical.encode(), digest_size=16
        ).hexdigest()

    def input_digest(self) -> str:
        """Digest of the run's *inputs* only: workload plus config.

        Unlike :meth:`digest`, the experiment selection and sweep do
        not participate: an experiment journaled under one selection is
        replayable under any other as long as the traces and sizing
        match.  This is what the run journal keys resume on.
        """
        canonical = json.dumps(
            {
                "schema_version": SPEC_IDENTITY_VERSION,
                "workload": self.workload.identity_dict(),
                "config": _config_to_dict(self.config),
            },
            sort_keys=True,
        )
        return hashlib.blake2b(
            canonical.encode(), digest_size=16
        ).hexdigest()

    # -- sweep expansion ---------------------------------------------------

    def point(self, coords: Dict[str, Any]) -> "RunSpec":
        """The single-point spec at one sweep coordinate.

        The returned spec has ``coords`` folded into its config and
        workload (``workload.*`` / ``mix.*`` axes) and no sweep, so its
        digest differs from a sibling point's exactly in the swept
        fields.

        Raises:
            SpecError: When a workload or mix axis targets an imported
                source (there is nothing to regenerate).
        """
        config_coords = {
            name: value
            for name, value in coords.items()
            if name in CONFIG_FIELDS
        }
        workload_coords = {
            name.split(".", 1)[1]: value
            for name, value in coords.items()
            if name in WORKLOAD_SWEEP_FIELDS
        }
        mix_coords = {
            name[len("mix."):]: value
            for name, value in coords.items()
            if name.startswith("mix.")
        }
        workload = self.workload
        if workload_coords or mix_coords:
            if not isinstance(workload, SyntheticSource):
                swept = sorted(
                    set(coords) - set(config_coords)
                )
                raise SpecError(
                    f"sweep axes {swept} require a synthetic workload; "
                    f"this spec imports traces"
                )
            updates: Dict[str, Any] = dict(workload_coords)
            if mix_coords:
                merged = dict(workload.mix or ())
                merged.update(mix_coords)
                updates["mix"] = tuple(sorted(merged.items()))
            workload = replace(workload, **updates)
        return replace(
            self,
            config=replace(self.config, **config_coords),
            workload=workload,
            sweep=None,
        )

    def expand_points(self) -> List[Tuple[Dict[str, Any], "RunSpec"]]:
        """``(coords, point spec)`` per grid point, in grid order.

        A spec without a sweep expands to a single point with empty
        coords, so planners treat runs and sweeps uniformly.
        """
        if self.sweep is None:
            return [({}, self)]
        return [
            (coords, self.point(coords))
            for coords in self.sweep.coordinates()
        ]


def spec_from_kwargs(
    experiments: Optional[Sequence[str]] = None,
    *,
    max_length: Optional[int] = None,
    config: Optional[LabConfig] = None,
    seed: int = 12345,
    jobs: Optional[Union[int, str]] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    retries: Optional[int] = None,
    task_timeout: Optional[float] = None,
    fault_spec: Optional[str] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    chunk_branches: Optional[int] = None,
) -> RunSpec:
    """The keyword surface, folded into a spec.

    The spec it builds carries exactly the same identity an explicit
    :class:`RunSpec` with these values would, so keyword callers
    (``run_spec(spec_from_kwargs(...))``, the CLI's flag path) and
    spec files produce interchangeable digests, manifests and journal
    keys.
    """
    from repro.experiments.base import EXPERIMENT_IDS

    return RunSpec(
        experiments=tuple(
            experiments if experiments is not None else EXPERIMENT_IDS
        ),
        workload=WorkloadSpec(max_length=max_length, seed=seed),
        config=config if config is not None else DEFAULT_CONFIG,
        engine=EngineOptions(
            jobs=None if jobs is None else int(jobs),
            cache=use_cache,
            cache_dir=cache_dir,
            retries=retries,
            task_timeout=task_timeout,
            fault_spec=fault_spec,
            journal=journal_path,
            resume=resume,
            chunk_branches=(
                None if chunk_branches is None else int(chunk_branches)
            ),
        ),
    )
