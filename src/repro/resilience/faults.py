"""Deterministic fault injection for the simulation engine.

A fault spec is a comma-separated list of ``selector:attempt:kind``
entries:

* **selector** names the jobs the fault applies to, as
  ``benchmark/task`` with ``*`` wildcards on either side; a bare name
  with no slash means "every benchmark, this task" (``gshare:1:crash``
  crashes every benchmark's gshare job).  Both benchmark and task
  accept ``fnmatch``-style globs (``if_*``, ``fig?``...).
* **attempt** is the 1-based attempt number the fault fires on.  A
  fault on attempt 1 with retries enabled is transparent to the run's
  outputs -- that is the whole point.
* **kind** is one of:

  ======== ==============================================================
  crash    the attempt raises :class:`InjectedCrash` (a worker raising
           is indistinguishable from any other task exception).
  hang     the attempt never completes: in a worker it sleeps past any
           plausible deadline so the scheduler's wall-clock timeout
           fires; in-process it raises
           :class:`repro.resilience.retry.TaskTimeout` directly, so
           serial and parallel runs see the same attempt sequence.
  corrupt  the attempt *succeeds*, then truncates the result-cache
           entry it just wrote -- a reproducible stand-in for torn
           writes and full disks, exercised by the cache quarantine.
  ======== ==============================================================

Specs come from ``--inject-fault`` (repeatable) or the
:data:`ENV_FAULT_SPEC` environment variable.  Matching is pure --
``(benchmark, task, attempt)`` in, kinds out -- so the parent process
counts injections without trusting a worker that is about to die, and
the same spec yields the same faults for any worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Optional, Sequence, Tuple

from repro.errors import SpecError

#: Environment variable carrying a default fault spec (CI, tests).
ENV_FAULT_SPEC = "REPRO_FAULT_SPEC"

#: Fault kinds the injector understands.
FAULT_KINDS = ("crash", "hang", "corrupt")

#: How long a worker-side injected hang sleeps.  Long enough that any
#: sane task timeout expires first; the scheduler kills the worker, so
#: the sleep never actually runs to completion.
HANG_SECONDS = 3600.0


class FaultSpecError(SpecError):
    """A malformed fault spec or an unusable fault configuration.

    Part of the :mod:`repro.errors` taxonomy (a :class:`SpecError`,
    hence still a ``ValueError``) so CLI layers can map exactly the
    user's configuration mistakes to a usage exit code -- and the
    server to HTTP 400 -- without swallowing unrelated errors.
    """


class InjectedCrash(RuntimeError):
    """Raised by an attempt the fault spec says must crash."""


@dataclass(frozen=True)
class Fault:
    """One parsed fault-spec entry (picklable, hashable)."""

    benchmark: str
    task: str
    attempt: int
    kind: str

    def matches(self, benchmark: str, task: str, attempt: int) -> bool:
        return (
            attempt == self.attempt
            and fnmatchcase(benchmark, self.benchmark)
            and fnmatchcase(task, self.task)
        )

    def spec(self) -> str:
        """The entry back in spec grammar (round-trips through parse)."""
        return f"{self.benchmark}/{self.task}:{self.attempt}:{self.kind}"


def _parse_entry(entry: str) -> Fault:
    parts = entry.split(":")
    if len(parts) != 3:
        raise FaultSpecError(
            f"bad fault entry {entry!r}: expected 'selector:attempt:kind'"
        )
    selector, attempt_text, kind = (part.strip() for part in parts)
    if "/" in selector:
        benchmark, _, task = selector.partition("/")
    else:
        benchmark, task = "*", selector
    if not benchmark or not task:
        raise FaultSpecError(
            f"bad fault selector {selector!r}: expected 'benchmark/task' "
            "or 'task' (globs allowed)"
        )
    try:
        attempt = int(attempt_text)
    except ValueError:
        raise FaultSpecError(
            f"bad fault attempt {attempt_text!r} in {entry!r}: expected "
            "a 1-based integer"
        ) from None
    if attempt < 1:
        raise FaultSpecError(f"fault attempt must be >= 1, got {attempt}")
    if kind not in FAULT_KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} in {entry!r}; choose from "
            f"{', '.join(FAULT_KINDS)}"
        )
    return Fault(benchmark=benchmark, task=task, attempt=attempt, kind=kind)


def parse_fault_spec(text: Optional[str]) -> Tuple[Fault, ...]:
    """Parse a fault spec string into :class:`Fault` entries.

    Empty/None input parses to no faults.  Raises :class:`FaultSpecError` with a
    grammar hint on any malformed entry.
    """
    if not text:
        return ()
    faults = []
    for entry in text.split(","):
        entry = entry.strip()
        if entry:
            faults.append(_parse_entry(entry))
    return tuple(faults)


class FaultInjector:
    """Matches jobs against a parsed fault spec.

    The injector itself performs no side effects; the execution paths
    (:mod:`repro.analysis.parallel`) ask :meth:`kinds` what to do and
    act accordingly, so injection behaviour lives next to the real
    failure handling it exercises.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults = tuple(faults)

    @classmethod
    def from_spec(cls, text: Optional[str]) -> Optional["FaultInjector"]:
        """An injector for a spec string, or None for an empty spec."""
        faults = parse_fault_spec(text)
        return cls(faults) if faults else None

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """An injector from :data:`ENV_FAULT_SPEC`, or None if unset."""
        return cls.from_spec(os.environ.get(ENV_FAULT_SPEC))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def kinds(self, benchmark: str, task: str, attempt: int) -> Tuple[str, ...]:
        """Fault kinds firing for this attempt, in spec order."""
        return tuple(
            fault.kind
            for fault in self.faults
            if fault.matches(benchmark, task, attempt)
        )

    def wants_timeout(self) -> bool:
        """Whether the spec contains a hang (which needs a timeout)."""
        return any(fault.kind == "hang" for fault in self.faults)

    def spec(self) -> str:
        """The whole spec back in grammar form."""
        return ",".join(fault.spec() for fault in self.faults)
