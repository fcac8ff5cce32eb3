"""Shared-memory trace shipping for the chunked priming path.

Pickling a whole :class:`~repro.trace.trace.Trace` into every pool
submission copies the columns once per job per worker; at paper scale
(tens of millions of branches) that is the difference between flat and
linear resident memory.  Chunk lanes on the pool instead have each
benchmark's columns published once into a
:class:`multiprocessing.shared_memory` segment and ship ``(segment
name, window)`` tuples -- workers attach and build zero-copy
:class:`Trace` windows over the same physical pages.

Layout of a segment for an ``n``-branch trace::

    0        n * uint64  -- pc
    8n       n * uint64  -- target
    16n      n * bool    -- taken (one byte per branch)

The parent owns the segment lifecycle: :meth:`SharedTrace.create` ...
:meth:`SharedTrace.unlink` bracket a priming pass.  Workers must attach
*untracked* -- CPython's resource tracker otherwise unlinks the segment
when the first worker exits (bpo-39959) -- which is what
:func:`attach_trace` encapsulates.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

from repro.trace.trace import Trace

__all__ = ["SharedTrace", "attach_trace"]


class SharedTrace:
    """Parent-side owner of one trace's columns in shared memory."""

    def __init__(self, shm: shared_memory.SharedMemory, length: int) -> None:
        self._shm = shm
        self.length = length

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    @classmethod
    def create(cls, trace: Trace) -> "SharedTrace":
        """Publish ``trace``'s columns into a fresh segment."""
        n = len(trace)
        shm = shared_memory.SharedMemory(create=True, size=max(1, 17 * n))
        pc = np.ndarray(n, dtype="<u8", buffer=shm.buf, offset=0)
        target = np.ndarray(n, dtype="<u8", buffer=shm.buf, offset=8 * n)
        taken = np.ndarray(n, dtype=np.bool_, buffer=shm.buf, offset=16 * n)
        pc[:] = trace.pc
        target[:] = trace.target
        taken[:] = trace.taken
        del pc, target, taken
        return cls(shm, n)

    def unlink(self) -> None:
        """Release the segment (idempotent); windows become invalid."""
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        self._shm = None

    def __enter__(self) -> "SharedTrace":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without resource-tracker registration.

    Python 3.13 grew ``track=False``; earlier versions need the
    documented bpo-39959 workaround of unregistering after the fact,
    otherwise a worker's exit unlinks the parent's live segment.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Pre-3.13: suppress the tracker registration outright.  The
        # register/unregister-after pattern is racy -- the tracker's
        # per-type name set dedupes concurrent registers from sibling
        # workers, so the second unregister dies with a KeyError in the
        # tracker process.  Workers run one attempt at a time, so the
        # temporary patch cannot clobber a concurrent register.
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach_trace(
    name: str, length: int
) -> Tuple[Trace, shared_memory.SharedMemory]:
    """Worker-side zero-copy view of a published trace.

    The returned trace's columns alias the segment, and so do its
    slices; the caller must drop them before closing the returned
    handle.
    """
    shm = _attach_untracked(name)
    n = length
    pc = np.ndarray(n, dtype="<u8", buffer=shm.buf, offset=0)
    target = np.ndarray(n, dtype="<u8", buffer=shm.buf, offset=8 * n)
    taken = np.ndarray(n, dtype=np.bool_, buffer=shm.buf, offset=16 * n)
    return Trace(pc, target, taken), shm
