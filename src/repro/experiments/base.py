"""Experiment protocol, registry, lab construction, result contract."""

from __future__ import annotations

import abc
import dataclasses
import json
from typing import Any, Callable, Dict, Optional

from repro.analysis.cache import ResultCache
from repro.analysis.config import DEFAULT_CONFIG, LabConfig
from repro.analysis.runner import Lab
from repro.obs.metrics import METRICS
from repro.obs.tracing import span
from repro.spec import SyntheticSource
from repro.workloads.suite import load_source_trace

#: Version of the serialised :meth:`ExperimentResult.to_dict` layout.
#: Version 1 was the implicit pre-contract layout (flat fields, no
#: version marker); version 2 adds ``schema_version`` while keeping
#: every version-1 field in place, so version-1 readers keep working.
RESULT_SCHEMA_VERSION = 2


class ExperimentResult(abc.ABC):
    """Base class for experiment results.

    Subclasses are dataclasses holding the measured numbers; ``render()``
    produces the monospace report mirroring the paper's artefact, and
    :meth:`to_dict` / :meth:`to_json` are the one serialisation contract
    shared by ``repro.experiments.export``, the run manifest, and the
    CLI's ``--json`` flag.
    """

    #: Experiment id (``table1`` .. ``fig9``).
    experiment_id: str = ""
    #: Human-readable title matching the paper's caption.
    title: str = ""

    @abc.abstractmethod
    def render(self) -> str:
        """The text report for this experiment."""

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned JSON-ready form of this result.

        Layout: ``schema_version`` + ``experiment_id`` + ``title`` plus
        one key per dataclass field, all converted to plain JSON types.
        The field keys match the pre-versioned (version-1) export
        layout, so readers of old ``--json`` files parse new ones
        unchanged.
        """
        from repro.experiments.export import to_jsonable

        payload: Dict[str, Any] = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
        }
        for field in dataclasses.fields(self):
            payload[field.name] = to_jsonable(getattr(self, field.name))
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical (key-sorted) JSON of :meth:`to_dict`.

        Bit-identical across equivalent runs; the run manifest digests
        this string to compare runs.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __str__(self) -> str:
        return f"== {self.experiment_id}: {self.title} ==\n{self.render()}"


class ReplayedResult(ExperimentResult):
    """An experiment result replayed from a stored serialisation.

    ``repro report --resume`` rebuilds finished experiments from the
    run journal instead of re-simulating them.  A replayed result holds
    the journaled ``to_dict`` payload and rendered text verbatim, so
    its canonical JSON -- and therefore the manifest ``result_digest``
    -- is bit-identical to the original run's.
    """

    def __init__(self, payload: Dict[str, Any], render_text: str) -> None:
        self._payload = payload
        self._render = render_text
        self.experiment_id = str(payload.get("experiment_id", ""))
        self.title = str(payload.get("title", ""))

    def render(self) -> str:
        return self._render

    def to_dict(self) -> Dict[str, Any]:
        return json.loads(json.dumps(self._payload))


#: Registered experiment runners, keyed by experiment id.
_REGISTRY: Dict[str, Callable[[Dict[str, Lab]], ExperimentResult]] = {}

#: Simulation tasks each experiment declares it reads, keyed by id.
_REQUIRES: Dict[str, tuple] = {}

#: Oracle history windows each experiment sweeps, keyed by id.
_WINDOWS: Dict[str, tuple] = {}


def register(experiment_id: str, *, requires: tuple, windows: tuple = ()):
    """Decorator registering an experiment runner under an id.

    Args:
        experiment_id: Stable id (``table1`` .. ``fig9``, ``ext_*``).
        requires: The simulation task names this experiment's runner
            reads from its labs (``()`` for an experiment that works
            straight off the traces).  The planner primes exactly these;
            ``tests/test_check_deps.py`` runs every registered
            experiment and fails if its reads differ from them.
        windows: History windows the runner selects at besides
            ``selective_window``; the planner checks the collection.
    """

    def decorate(runner: Callable[[Dict[str, Lab]], ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        _REGISTRY[experiment_id] = runner
        _REQUIRES[experiment_id] = tuple(requires)
        _WINDOWS[experiment_id] = tuple(windows)
        return runner

    return decorate


def experiment_requires(experiment_id: str) -> tuple:
    """The simulation tasks ``experiment_id`` declared it reads.

    Raises:
        KeyError: For an unregistered experiment id.
    """
    _ensure_registered()
    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{sorted(_REGISTRY)}"
        )
    return _REQUIRES[experiment_id]


def experiment_windows(experiment_id: str) -> tuple:
    """The oracle history windows ``experiment_id`` declared it sweeps."""
    return _WINDOWS.get(experiment_id, ())


def experiment_config_fields(experiment_id: str) -> Optional[tuple]:
    """The LabConfig fields a paper experiment's result is a function of.

    The union of its declared tasks' projections; an experiment that
    declares ``correlation`` also reads the oracle's fields, since its
    selective products derive from that table.  Together with the
    traces, these fields are the experiment's reuse key: two sweep
    points that agree on them give the same result.  None for every
    other experiment: the ``ext_*`` runners build predictors from
    ``lab.config`` directly, so only the whole point identifies them.
    """
    from repro.analysis.config import _SELECTIVE_FIELDS, task_config_fields
    from repro.analysis.runner import CORRELATION_TASK

    if experiment_id not in EXPERIMENT_IDS:
        return None
    fields = []
    for task in experiment_requires(experiment_id):
        fields += task_config_fields(task)
        if task == CORRELATION_TASK:
            fields += (*_SELECTIVE_FIELDS, "selective_window")
    return tuple(dict.fromkeys(fields))


def build_labs(
    max_length: Optional[int] = None,
    config: LabConfig = DEFAULT_CONFIG,
    run_seed: int = 12345,
    *,
    cache: Optional[ResultCache] = None,
    source: Optional[Any] = None,
) -> Dict[str, Lab]:
    """One :class:`Lab` per trace of the run's source.

    Args:
        max_length: Scale anchor for the longest benchmark (defaults to
            ``REPRO_TRACE_LENGTH`` / 200k); the others keep the paper's
            proportions.  Ignored when ``source`` is given.
        config: Predictor sizing.
        run_seed: Workload execution seed.  Ignored when ``source`` is
            given.
        cache: Optional on-disk result cache attached to every lab.
        source: The :data:`~repro.spec.TraceSource` the labs load from,
            benchmark subset included.  None means the unmixed suite at
            ``max_length`` and ``run_seed``.

    The labs are lazy: each computes a task when it is first asked
    for.  A spec run primes its labs through the plan instead
    (:func:`repro.analysis.parallel.prime_plan`).
    """
    if source is None:
        source = SyntheticSource(max_length=max_length, seed=run_seed)
    with span("build_labs", run_seed=source.seed):
        return {
            name: Lab(
                load_source_trace(name, source, cache), config, cache, name
            )
            for name in source.trace_names()
        }


def run_experiment(experiment_id: str, labs: Dict[str, Lab]) -> ExperimentResult:
    """Run one registered experiment over prebuilt labs."""
    _ensure_registered()
    try:
        runner = _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{sorted(_REGISTRY)}"
        ) from None
    METRICS.inc("experiments.run")
    with span("experiment", experiment=experiment_id), \
            METRICS.timer("experiments.seconds"):
        return runner(labs)


def _ensure_registered() -> None:
    """Import the experiment modules so their decorators run."""
    from repro.experiments import (  # noqa: F401
        characterize,
        extensions,
        fig4,
        fig5,
        fig6,
        fig7,
        fig8,
        fig9,
        table1,
        table2,
        table3,
    )


def experiment_ids() -> tuple:
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


#: Stable public list of experiment ids in paper order.
EXPERIMENT_IDS = (
    "table1",
    "fig4",
    "fig5",
    "table2",
    "fig6",
    "table3",
    "fig7",
    "fig8",
    "fig9",
)

#: Extension experiments (beyond the paper; see experiments.extensions).
EXTENSION_IDS = (
    "ext_interference",
    "ext_hybrid",
    "ext_taxonomy",
    "ext_profile",
    "ext_training",
    "ext_characterize",
)
