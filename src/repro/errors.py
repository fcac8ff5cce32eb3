"""The engine's exception hierarchy: one error surface, three mappings.

Five PRs of engine growth raised whatever was locally convenient --
``ValueError`` for bad specs, ``KeyError`` for unknown experiments,
``SystemExit`` from argument parsing -- which worked while the only
consumer was a CLI printing to stderr.  The serving layer
(:mod:`repro.serve`) needs errors that survive a wire boundary: a
client must be able to branch on *what went wrong* without parsing
prose.  This module is that contract:

* :class:`ReproError` -- the base.  Every subclass carries a stable
  machine-readable ``code`` (dotted, lowercase, never reused), the
  ``http_status`` the server maps it to, and the ``exit_code`` the CLI
  maps it to.  :meth:`ReproError.to_dict` is the JSON error body the
  server sends.
* :class:`SpecError` -- a malformed or rejected run description.  Also
  a ``ValueError``, so pre-taxonomy callers that caught ``ValueError``
  keep working.
* :class:`UnknownExperimentError` -- a spec names an experiment the
  registry does not know (the most common client mistake, so it gets
  its own code).
* :class:`PlanError` -- a well-formed spec that cannot be expanded into
  a sound task graph.
* :class:`EngineError` -- the engine itself failed (as opposed to the
  run finishing with recorded failures, which is a *result*, not an
  exception).
* :class:`RequestError` -- an HTTP request the server cannot parse
  (a malformed header, say).  HTTP 400; :class:`RequestTimeout`, one
  that did not arrive in time, is HTTP 408.
* :class:`AdmissionError` -- the server refused to enqueue a run
  (per-client in-flight limit, full queue).  HTTP 429; retriable by
  definition, and :attr:`AdmissionError.retry_after` says when.

Exit-code contract (the CLI's historical behaviour, now stated once):
0 clean, 1 finished-with-failures / engine error, 2 usage or spec
error, 130 interrupted.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Conventional exit code for a SIGINT/SIGTERM-terminated run.
EXIT_INTERRUPTED = 130


class ReproError(Exception):
    """Base class for every structured engine error.

    Attributes:
        code: Stable machine-readable identifier (``spec.invalid``,
            ``admission.queue_full``...).  Codes are append-only across
            releases: a code never changes meaning or disappears.
        http_status: The HTTP status the serving layer responds with.
        exit_code: The process exit code the CLI maps this error to.
    """

    code: str = "engine.error"
    http_status: int = 500
    exit_code: int = 1

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready error body (the server's wire format)."""
        return {
            "schema": "error/v1",
            "error": self.code,
            "message": str(self),
        }


class SpecError(ReproError, ValueError):
    """A spec document or spec construction is malformed.

    Subclasses ``ValueError`` so code written against the pre-taxonomy
    surface (``except ValueError``) still catches it.
    """

    code = "spec.invalid"
    http_status = 400
    exit_code = 2


class UnknownExperimentError(SpecError):
    """A spec names an experiment id the registry does not know."""

    code = "spec.unknown_experiment"


class PlanError(ReproError, ValueError):
    """A well-formed spec cannot be expanded into a sound plan."""

    code = "plan.invalid"
    http_status = 400
    exit_code = 2


class IngestError(ReproError, ValueError):
    """A foreign trace file was rejected by an importer.

    Raised with the offending ``path:line`` (text formats) or byte
    offset (binary formats) in the message, so a malformed trace is a
    usage error (exit 2), never a traceback.  Subclasses ``ValueError``
    so callers probing formats with ``except ValueError`` keep working.
    """

    code = "ingest.invalid"
    http_status = 400
    exit_code = 2


class EngineError(ReproError, RuntimeError):
    """The execution engine itself failed.

    Distinct from a run that *finishes* with recorded failures (that is
    a result, reported in the manifest's resilience section); an
    ``EngineError`` means no usable result was produced.
    """

    code = "engine.failed"
    http_status = 500
    exit_code = 1


class RequestError(ReproError, ValueError):
    """An HTTP request the server cannot parse; the message names the part."""

    code = "http.bad_request"
    http_status = 400
    exit_code = 2


class RequestTimeout(RequestError):
    """An HTTP request that stalled; the message names the part."""

    code = "http.request_timeout"
    http_status = 408


class AdmissionError(ReproError):
    """The server refused to admit a run (limits, not correctness).

    Attributes:
        retry_after: Advisory seconds until the client should retry
            (sent as the HTTP ``Retry-After`` header when set).
    """

    code = "admission.rejected"
    http_status = 429
    exit_code = 1

    def __init__(
        self, message: str, *, code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.retry_after = retry_after

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        if self.retry_after is not None:
            payload["retry_after"] = self.retry_after
        return payload


def error_from_payload(payload: Dict[str, Any]) -> ReproError:
    """Rehydrate a wire error body into the matching exception type.

    Used by :mod:`repro.client` so a server-side ``AdmissionError``
    raises as an ``AdmissionError`` client-side.  Unknown codes fall
    back to the nearest base class by prefix, then to
    :class:`EngineError`.
    """
    code = str(payload.get("error", ""))
    message = str(payload.get("message", code or "unknown server error"))
    if code == UnknownExperimentError.code:
        error: ReproError = UnknownExperimentError(message)
    elif code.startswith("spec."):
        error = SpecError(message)
    elif code.startswith("plan."):
        error = PlanError(message)
    elif code.startswith("ingest."):
        error = IngestError(message)
    elif code.startswith("http."):
        error = RequestError(message)
    elif code.startswith("admission."):
        error = AdmissionError(
            message, code=code, retry_after=payload.get("retry_after")
        )
    else:
        error = EngineError(message)
    error.code = code or error.code
    return error


__all__ = [
    "EXIT_INTERRUPTED",
    "AdmissionError",
    "EngineError",
    "IngestError",
    "PlanError",
    "ReproError",
    "RequestError",
    "RequestTimeout",
    "SpecError",
    "UnknownExperimentError",
    "error_from_payload",
]
