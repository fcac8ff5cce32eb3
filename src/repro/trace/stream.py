"""Binary trace files (``.bpt`` -- *branch prediction trace*).

The engine reads and writes one on-disk layout, ``BPT2``
(little-endian throughout).  The trace is split into fixed windows of
``chunk_branches`` branches (the final chunk may be short); each chunk
stores its own column triplet so a reader can mmap the file and view
any window without touching the rest:

========  =====================================================
offset    contents
========  =====================================================
0         magic ``b"BPT2"``
4         4 pad bytes (zero) -- aligns the u64 header fields
8         ``uint64`` n -- total dynamic branches
16        ``uint64`` chunk_branches -- window size (multiple of 8)
24        ``uint64`` num_chunks
32        ``uint64`` index_offset -- file offset of the chunk index
40        chunk payloads, each 8-byte aligned
...       chunk index: num_chunks * ``uint64`` payload offsets
========  =====================================================

Each chunk payload is ``pc`` (8c bytes), ``target`` (8c bytes), then
the bit-packed outcomes (LSB-first, ``ceil(c/8)`` bytes), padded to an
8-byte boundary so the next chunk's ``uint64`` columns stay aligned.
``chunk_branches`` is forced to a multiple of 8 so per-chunk bit
packing concatenates byte-identically with whole-trace packing -- that
is what makes :meth:`TraceStream.digest` equal :meth:`Trace.digest`.
A one-chunk file is simply a whole trace.

Reading goes through ``mmap``: the address columns are zero-copy views
into the page cache, so replaying a multi-gigabyte trace costs resident
memory proportional to the window being simulated, not the file.

Every other layout -- the legacy ``BPT1`` whole-column format, text,
packed binary records -- is foreign: :mod:`repro.trace.ingest` parses
it and spills it to ``BPT2``.
"""

from __future__ import annotations

import mmap
import os
import secrets
from typing import BinaryIO, Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import IngestError
from repro.trace.trace import Trace

MAGIC2 = b"BPT2"

#: BPT2 fixed header size (magic + pad + four u64 fields).
HEADER2_SIZE = 40

#: Default streaming window: 64k branches is ~1.1 MB of chunk payload,
#: small enough that a full window plus predictor state stays cache-warm
#: and resident memory is flat in the trace length.
DEFAULT_CHUNK_BRANCHES = 65536

#: Environment variable overriding the engine's chunk size.
ENV_CHUNK_BRANCHES = "REPRO_CHUNK_BRANCHES"

PathLike = Union[str, os.PathLike]


class TraceFormatError(IngestError):
    """Raised when a trace file is malformed.

    Part of the :mod:`repro.errors` taxonomy (exit 2 / HTTP 400) via
    :class:`~repro.errors.IngestError`, which itself subclasses
    ``ValueError`` -- pre-taxonomy ``except ValueError`` callers keep
    working.  Messages carry ``path:line`` (text) or a byte offset
    (binary) so a malformed trace is a usage error, never a traceback.
    """

    code = "ingest.trace_format"


def normalize_chunk_branches(value: Optional[int]) -> int:
    """Clamp a chunk size to a positive multiple of 8 (None = default).

    Multiples of 8 keep every non-final chunk's packed outcome bits on
    byte boundaries, which both the on-disk layout and the streaming
    digest rely on.
    """
    if value is None:
        return DEFAULT_CHUNK_BRANCHES
    value = int(value)
    if value < 1:
        raise ValueError(f"chunk_branches must be >= 1, got {value}")
    return ((value + 7) // 8) * 8


def chunk_spans(num_branches: int, chunk_branches: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` windows chunking ``num_branches`` branches."""
    chunk_branches = normalize_chunk_branches(chunk_branches)
    return [
        (start, min(start + chunk_branches, num_branches))
        for start in range(0, num_branches, chunk_branches)
    ]


def _map_file(path: PathLike):
    """mmap ``path`` read-only; tiny/empty files fall back to bytes.

    numpy views built over the map keep it alive through their ``.base``
    reference, so callers can let the mapping fall out of scope with the
    arrays.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size == 0:
            return b""
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _aligned(size: int) -> int:
    return ((size + 7) // 8) * 8


def _drop_pages(buffer, ranges: List[Tuple[int, int]]) -> None:
    """Tell the kernel a consumed byte range will not be re-read soon.

    Resident-set flatness is the streaming promise, and mmap'd pages
    count against RSS once touched -- without this, a sequential fold
    over a multi-gigabyte file ends the run with the whole file
    resident.  ``MADV_DONTNEED`` on a read-only file mapping just drops
    the clean pages; re-touching them refaults from the page cache, so
    this is purely a residency hint, never a correctness hazard.
    Silently a no-op where madvise is unavailable.
    """
    advise = getattr(buffer, "madvise", None)
    flag = getattr(mmap, "MADV_DONTNEED", None)
    if advise is None or flag is None:
        return
    page = mmap.PAGESIZE
    for start, stop in ranges:
        first = (start // page) * page
        if stop <= first:
            continue
        try:
            advise(flag, first, stop - first)
        except (OSError, ValueError, OverflowError):
            return


def _open_sibling(path: PathLike) -> Tuple[str, BinaryIO]:
    """Create a fresh hidden temporary file beside ``path``.

    ``open(..., "xb")`` keeps the mode a plain ``open`` would give the
    final file; a name collision just draws another name.
    """
    directory, name = os.path.split(os.fspath(path))
    while True:
        temp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
        try:
            return temp, open(temp, "xb")
        except FileExistsError:
            continue


class BPT2Writer:
    """Streaming ``BPT2`` writer: append chunks, finalise on close.

    Chunks are written as they arrive -- nothing is buffered beyond the
    current file position -- so a producer can spill an arbitrarily long
    trace with resident memory bounded by one chunk.  Every chunk except
    the last must hold exactly ``chunk_branches`` branches; the header
    and chunk index are patched in on :meth:`close`.

    The chunks go to a temporary file beside ``path``, renamed onto
    ``path`` only by a successful :meth:`close`.  A write that fails
    (an exception inside ``with BPT2Writer(...)``) deletes it, so no
    half-written file ever appears at ``path`` and a file already
    there survives.
    """

    def __init__(
        self, path: PathLike, chunk_branches: Optional[int] = None
    ) -> None:
        self.path = path
        self.chunk_branches = normalize_chunk_branches(chunk_branches)
        self._temp, self._fh = _open_sibling(path)
        self._fh.write(MAGIC2 + b"\x00" * (HEADER2_SIZE - 4))
        self._offsets: List[int] = []
        self._n = 0
        self._short_seen = False
        self._closed = False

    def append_chunk(self, pc, target, taken) -> None:
        """Write one window of columns (equal-length arrays)."""
        if self._closed:
            raise ValueError(f"{self.path}: writer already closed")
        pc = np.ascontiguousarray(pc, dtype="<u8")
        target = np.ascontiguousarray(target, dtype="<u8")
        taken = np.ascontiguousarray(taken, dtype=bool)
        count = len(pc)
        if not (count == len(target) == len(taken)):
            raise ValueError(
                "chunk columns must have equal length: "
                f"pc={len(pc)} target={len(target)} taken={len(taken)}"
            )
        if count == 0 or count > self.chunk_branches:
            raise ValueError(
                f"chunk length {count} outside (0, {self.chunk_branches}]"
            )
        if self._short_seen:
            raise ValueError(
                f"{self.path}: only the final chunk may be short "
                f"(previous chunk < {self.chunk_branches} branches)"
            )
        if count < self.chunk_branches:
            self._short_seen = True
        offset = self._fh.tell()
        self._fh.write(pc.tobytes())
        self._fh.write(target.tobytes())
        packed = np.packbits(taken, bitorder="little").tobytes()
        self._fh.write(packed)
        payload = 16 * count + len(packed)
        self._fh.write(b"\x00" * (_aligned(payload) - payload))
        self._offsets.append(offset)
        self._n += count

    def close(self) -> None:
        """Write the chunk index, patch the header and publish the file.

        Idempotent; a failure here discards the file like a failed write.
        """
        if self._closed:
            return
        try:
            index_offset = self._fh.tell()
            self._fh.write(np.asarray(self._offsets, dtype="<u8").tobytes())
            self._fh.seek(8)
            self._fh.write(
                np.asarray(
                    [self._n, self.chunk_branches, len(self._offsets), index_offset],
                    dtype="<u8",
                ).tobytes()
            )
            self._fh.close()
            os.replace(self._temp, self.path)
        except BaseException:
            self._discard()
            raise
        self._closed = True

    def _discard(self) -> None:
        """Abandon the write: delete the temporary file, leave ``path`` be."""
        self._closed = True
        self._fh.close()
        try:
            os.unlink(self._temp)
        except OSError:
            pass

    def __enter__(self) -> "BPT2Writer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            self._discard()


def write_trace(
    trace: Trace, path: PathLike, chunk_branches: Optional[int] = None
) -> None:
    """Serialise ``trace`` to ``path`` in ``BPT2`` format."""
    with BPT2Writer(path, chunk_branches) as writer:
        for start, stop in chunk_spans(len(trace), writer.chunk_branches):
            writer.append_chunk(
                trace.pc[start:stop],
                trace.target[start:stop],
                trace.taken[start:stop],
            )


def read_trace(path: PathLike) -> Trace:
    """Load a ``BPT2`` file as one whole trace (copies every chunk).

    Use :meth:`TraceStream.open` to iterate it in bounded memory, and
    :func:`repro.trace.ingest.load_imported_trace` for any other layout.
    """
    return TraceStream.open(path).whole()


class TraceStream:
    """Fixed-window access to a trace without materialising it whole.

    A stream yields :class:`Trace` chunks whose address columns are
    zero-copy views -- into an mmap'd file (:meth:`open`) or into an
    in-memory trace's columns (:meth:`from_trace`).  Chunk boundaries
    always fall on multiples of 8 branches, so the streaming
    :meth:`digest` is bit-identical to :meth:`Trace.digest` of the
    whole trace, and chunked simulation via the carried-state kernels
    reproduces whole-trace results exactly.
    """

    def __init__(
        self,
        *,
        num_branches: int,
        chunk_branches: int,
        getter: Callable[[int], Trace],
        source: str,
        releaser: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._n = num_branches
        self._chunk_branches = chunk_branches
        self._spans = chunk_spans(num_branches, chunk_branches)
        self._getter = getter
        self._releaser = releaser
        self.source = source
        self._digest_cache: Optional[str] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def open(cls, path: PathLike) -> "TraceStream":
        """Open a ``BPT2`` file as a stream over its on-disk chunks."""
        data = _map_file(path)
        magic = bytes(data[:4])
        if magic != MAGIC2:
            raise TraceFormatError(
                f"{path}: bad magic {magic!r}, expected {MAGIC2!r}; "
                "convert other trace layouts with 'repro ingest'"
            )
        source = str(path)
        if len(data) < HEADER2_SIZE:
            raise TraceFormatError(f"{source}: truncated header")
        n, size, num_chunks, index_offset = (
            int(value)
            for value in np.frombuffer(data, dtype="<u8", count=4, offset=8)
        )
        if size < 1 or (num_chunks > 1 and size % 8):
            raise TraceFormatError(
                f"{source}: chunk_branches {size} is not a positive "
                "multiple of 8"
            )
        expected_chunks = len(chunk_spans(n, size)) if n else 0
        if num_chunks != expected_chunks:
            raise TraceFormatError(
                f"{source}: {num_chunks} chunks indexed, "
                f"{expected_chunks} implied by n={n}"
            )
        if len(data) < index_offset + 8 * num_chunks:
            raise TraceFormatError(f"{source}: truncated chunk index")
        offsets = np.frombuffer(
            data, dtype="<u8", count=num_chunks, offset=index_offset
        )
        spans = chunk_spans(n, size) if n else []
        for (start, stop), offset in zip(spans, offsets.tolist()):
            count = stop - start
            payload = 16 * count + (count + 7) // 8
            if offset < HEADER2_SIZE or offset + payload > index_offset:
                raise TraceFormatError(
                    f"{source}: chunk at offset {offset} overruns the "
                    "payload region"
                )

        def getter(index: int) -> Trace:
            start, stop = spans[index]
            count = stop - start
            offset = int(offsets[index])
            pc = np.frombuffer(data, dtype="<u8", count=count, offset=offset)
            target = np.frombuffer(
                data, dtype="<u8", count=count, offset=offset + 8 * count
            )
            taken = np.unpackbits(
                np.frombuffer(
                    data,
                    dtype=np.uint8,
                    count=(count + 7) // 8,
                    offset=offset + 16 * count,
                ),
                bitorder="little",
                count=count,
            ).astype(bool)
            return Trace(pc, target, taken)

        def releaser(index: int) -> None:
            start, stop = spans[index]
            count = stop - start
            offset = int(offsets[index])
            _drop_pages(
                data, [(offset, offset + 16 * count + (count + 7) // 8)]
            )

        return cls(
            num_branches=n,
            chunk_branches=size,
            getter=getter,
            source=source,
            releaser=releaser if isinstance(data, mmap.mmap) else None,
        )

    @classmethod
    def from_trace(
        cls, trace: Trace, chunk_branches: Optional[int] = None
    ) -> "TraceStream":
        """Stream over an in-memory trace (chunks are zero-copy slices)."""
        size = normalize_chunk_branches(chunk_branches)
        n = len(trace)

        def getter(index: int) -> Trace:
            start = index * size
            return trace[start : min(start + size, n)]

        stream = cls(
            num_branches=n,
            chunk_branches=size,
            getter=getter,
            source="<memory>",
        )
        # The whole trace is on hand; reuse its memoised digest.
        stream._digest_cache = trace.digest()
        return stream

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def num_branches(self) -> int:
        return self._n

    @property
    def chunk_branches(self) -> int:
        return self._chunk_branches

    @property
    def num_chunks(self) -> int:
        return len(self._spans)

    def spans(self) -> List[Tuple[int, int]]:
        """The ``(start, stop)`` window of every chunk, in order."""
        return list(self._spans)

    def chunk(self, index: int) -> Trace:
        """The ``index``-th window as a :class:`Trace` view."""
        if not 0 <= index < len(self._spans):
            raise IndexError(
                f"chunk {index} out of range ({len(self._spans)} chunks)"
            )
        return self._getter(index)

    def chunks(self) -> Iterator[Trace]:
        """Iterate the windows in trace order.

        For file-backed streams, a window's pages are released (madvise)
        once iteration moves past it, keeping a sequential fold's
        resident set at one window regardless of file size.  Released
        data stays readable -- re-access refaults from the page cache.
        """
        for index in range(len(self._spans)):
            yield self._getter(index)
            if self._releaser is not None:
                self._releaser(index)

    def whole(self) -> Trace:
        """Materialise the full trace (copies; defeats streaming)."""
        if not self._spans:
            return Trace.empty()
        parts = list(self.chunks())
        return Trace(
            np.concatenate([part.pc for part in parts]),
            np.concatenate([part.target for part in parts]),
            np.concatenate([part.taken for part in parts]),
        )

    def digest(self) -> str:
        """Streaming :meth:`Trace.digest` -- identical hex for identical
        columns, computed one window at a time.

        Three ordered passes (pc, target, packed outcomes) reproduce the
        whole-trace hash byte stream; non-final chunks are multiples of
        8 branches, so per-chunk ``np.packbits`` concatenation matches
        whole-column packing exactly.
        """
        if self._digest_cache is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(self._n.to_bytes(8, "little"))
            for chunk in self.chunks():
                h.update(chunk.pc.tobytes())
            for chunk in self.chunks():
                h.update(chunk.target.tobytes())
            for chunk in self.chunks():
                h.update(np.packbits(chunk.taken).tobytes())
            self._digest_cache = h.hexdigest()
        return self._digest_cache


def write_text_trace(trace: Trace, path: PathLike) -> None:
    """Serialise a trace as text: one ``pc target taken`` line per branch.

    The interop format: trivially produced by any tracer (pin tool,
    QEMU plugin, a printf in a simulator).  Addresses are hex, the
    outcome is ``T``/``N``.  ``#``-prefixed lines are comments.
    """
    chunk = 8192  # lines per write: one syscall per chunk, not per line
    with open(path, "w") as fh:
        fh.write("# repro text trace: pc target taken(T/N)\n")
        pcs = trace.pc.tolist()
        targets = trace.target.tolist()
        takens = trace.taken.tolist()
        for start in range(0, len(pcs), chunk):
            end = min(start + chunk, len(pcs))
            fh.write(
                "".join(
                    f"{pcs[i]:#x} {targets[i]:#x} {'T' if takens[i] else 'N'}\n"
                    for i in range(start, end)
                )
            )
