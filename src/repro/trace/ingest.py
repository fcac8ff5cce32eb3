"""Foreign-trace ingestion: validate, normalise, spill to ``BPT2``.

The importer boundary of the source-agnostic trace substrate, and the
one place that knows trace layouts other than the engine's own.  Three
foreign formats flow in; one canonical artefact flows out:

``text``
    CBP-style text, one branch per line: ``pc taken`` or
    ``pc target taken``.  Addresses decimal or hex; outcomes ``T/N``,
    ``1/0``, ``taken/not-taken``; blank and ``#`` lines skipped.  When
    the two-field spelling omits the target, a deterministic synthetic
    target (``pc + 4``) is recorded so the columns stay complete.
``binary``
    Headerless packed records, 9 bytes each, little-endian: ``uint64``
    pc then one outcome byte (0 or 1).  The file size must be an exact
    multiple of the record size.  Targets are synthesised as in the
    text format, so a pc whose ``pc + 4`` leaves uint64 is rejected.
``bpt1``
    The legacy whole-column ``.bpt`` layout: magic ``b"BPT1"``,
    ``uint64`` n, n ``uint64`` pcs, n ``uint64`` targets, then
    ``ceil(n/8)`` bytes of outcomes bit-packed LSB-first.

``bpt`` (``BPT2``, :mod:`repro.trace.stream`) is already native: it is
validated and digested in place.

Everything is streamed: parsers yield bounded column batches which are
re-windowed into exact ``chunk_branches`` chunks and appended straight
to a :class:`~repro.trace.stream.BPT2Writer`, so ingesting a
multi-gigabyte trace holds one window resident -- the same promise the
generator's spill path makes.  The resulting ``.bpt`` then serves the
whole engine for free: bounded-memory folds (PC011), the
content-addressed cache and the serve API all consume it exactly like a
synthetic spill.

Every rejection raises :class:`~repro.errors.IngestError` (exit 2 /
HTTP 400) with the offending ``path:line`` or byte offset in the
message -- a malformed trace is a usage error, never a traceback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import IngestError
from repro.trace.stream import (
    MAGIC2,
    BPT2Writer,
    PathLike,
    TraceStream,
    normalize_chunk_branches,
)
from repro.trace.trace import Trace

#: Declared/detected formats (``bpt`` is the native BPT2 layout).
INGEST_FORMATS = ("text", "binary", "bpt1", "bpt")

#: Magic bytes of the legacy ``bpt1`` layout.
MAGIC1 = b"BPT1"

#: ``bpt1`` header size: magic + ``uint64`` branch count.
BPT1_HEADER_SIZE = 12

#: ``binary`` record layout: uint64 pc + one outcome byte.
BINARY_RECORD = np.dtype([("pc", "<u8"), ("taken", "u1")])
BINARY_RECORD_SIZE = BINARY_RECORD.itemsize

#: Synthetic taken-target stride for formats that omit targets.
_SYNTHETIC_TARGET_STRIDE = 4

#: Highest pc whose synthetic target still fits in uint64.
_LAST_SYNTHESISABLE_PC = np.uint64(2**64 - 1 - _SYNTHETIC_TARGET_STRIDE)

#: Column batch size parsers aim for (records per yielded batch); a
#: multiple of 8, so ``bpt1`` batches start on packed-outcome bytes.
_BATCH_RECORDS = 8192

_TAKEN_WORDS = {
    "t": True, "1": True, "taken": True,
    "n": False, "0": False, "not-taken": False,
}

#: Column batch type: (pc, target, taken) arrays of one common length.
Batch = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class IngestResult:
    """What one ingested trace is, where it landed, and its identity.

    Attributes:
        name: Benchmark-style name (defaults to the source file stem).
        source_path: The foreign file that was read.
        path: The canonical artefact -- the ``.bpt`` spill for foreign
            formats, the original file for already-native ``bpt``.
        format: The detected/declared source format.
        branches: Dynamic branch count.
        digest: Canonical trace content digest
            (:meth:`repro.trace.trace.Trace.digest`), computed from the
            spilled columns -- bit-identical to the digest of the same
            trace loaded whole.
    """

    name: str
    source_path: str
    path: str
    format: str
    branches: int
    digest: str

    def to_entry(self):
        """The :class:`~repro.spec.TraceEntry` this result pins."""
        from repro.spec import TraceEntry

        return TraceEntry(
            name=self.name,
            digest=self.digest,
            path=self.path,
            format="bpt",
            branches=self.branches,
        )


def detect_format(path: PathLike) -> str:
    """Sniff a trace file's format from magic bytes, then extension."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as error:
        raise IngestError(f"{path}: cannot read trace file ({error})") from None
    if head == MAGIC2:
        return "bpt"
    if head == MAGIC1:
        return "bpt1"
    extension = os.path.splitext(str(path))[1].lower()
    if extension == ".bpt":
        return "bpt"
    if extension in (".bin", ".pct"):
        return "binary"
    return "text"


def _parse_text(path: PathLike) -> Iterator[Batch]:
    """Stream the text format as column batches, validating every line."""
    pcs: list = []
    targets: list = []
    takens: list = []
    try:
        fh = open(path, "r", errors="replace")
    except OSError as error:
        raise IngestError(f"{path}: cannot read trace file ({error})") from None
    with fh:
        for line_number, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) == 2:
                pc_text, outcome_text = parts
                target_text = None
            elif len(parts) == 3:
                pc_text, target_text, outcome_text = parts
            else:
                raise IngestError(
                    f"{path}:{line_number}: expected 'pc taken' or "
                    f"'pc target taken', got {text!r}"
                )
            try:
                pc = int(pc_text, 0)
                target = (
                    pc + _SYNTHETIC_TARGET_STRIDE
                    if target_text is None
                    else int(target_text, 0)
                )
            except ValueError:
                raise IngestError(
                    f"{path}:{line_number}: bad address in {text!r}"
                ) from None
            if not (0 <= pc < 2**64 and 0 <= target < 2**64):
                raise IngestError(
                    f"{path}:{line_number}: address out of uint64 range "
                    f"in {text!r}"
                )
            outcome = _TAKEN_WORDS.get(outcome_text.lower())
            if outcome is None:
                raise IngestError(
                    f"{path}:{line_number}: bad outcome {outcome_text!r} "
                    f"(want T/N, 1/0, taken/not-taken)"
                )
            pcs.append(pc)
            targets.append(target)
            takens.append(outcome)
            if len(pcs) >= _BATCH_RECORDS:
                yield (
                    np.asarray(pcs, dtype="<u8"),
                    np.asarray(targets, dtype="<u8"),
                    np.asarray(takens, dtype=bool),
                )
                pcs, targets, takens = [], [], []
    if pcs:
        yield (
            np.asarray(pcs, dtype="<u8"),
            np.asarray(targets, dtype="<u8"),
            np.asarray(takens, dtype=bool),
        )


def _parse_binary(path: PathLike) -> Iterator[Batch]:
    """Stream the packed binary format, validating record framing."""
    block_bytes = BINARY_RECORD_SIZE * _BATCH_RECORDS
    offset = 0
    try:
        fh = open(path, "rb")
    except OSError as error:
        raise IngestError(f"{path}: cannot read trace file ({error})") from None
    with fh:
        while True:
            block = fh.read(block_bytes)
            if not block:
                break
            if len(block) % BINARY_RECORD_SIZE:
                raise IngestError(
                    f"{path}: truncated record at byte offset "
                    f"{offset + len(block) - len(block) % BINARY_RECORD_SIZE} "
                    f"(file size must be a multiple of {BINARY_RECORD_SIZE})"
                )
            records = np.frombuffer(block, dtype=BINARY_RECORD)
            outcomes = records["taken"]
            bad = np.nonzero(outcomes > 1)[0]
            if bad.size:
                where = offset + int(bad[0]) * BINARY_RECORD_SIZE + 8
                raise IngestError(
                    f"{path}: bad outcome byte {int(outcomes[bad[0]])} at "
                    f"byte offset {where} (want 0 or 1)"
                )
            pc = records["pc"].astype("<u8")
            wraps = np.nonzero(pc > _LAST_SYNTHESISABLE_PC)[0]
            if wraps.size:
                index = offset // BINARY_RECORD_SIZE + int(wraps[0])
                raise IngestError(
                    f"{path}: record {index}: address out of uint64 range "
                    f"(pc {int(pc[wraps[0]]):#x} + "
                    f"{_SYNTHETIC_TARGET_STRIDE} overflows)"
                )
            yield (
                pc,
                pc + np.uint64(_SYNTHETIC_TARGET_STRIDE),
                outcomes.astype(bool),
            )
            offset += len(block)


def _parse_bpt1(path: PathLike) -> Iterator[Batch]:
    """Stream the legacy ``bpt1`` layout, validating header and sizes."""
    try:
        fh = open(path, "rb")
    except OSError as error:
        raise IngestError(f"{path}: cannot read trace file ({error})") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(BPT1_HEADER_SIZE)
        if header[:4] != MAGIC1:
            raise IngestError(
                f"{path}: bad magic {header[:4]!r}, expected {MAGIC1!r}"
            )
        if len(header) < BPT1_HEADER_SIZE:
            raise IngestError(f"{path}: truncated header")
        n = int.from_bytes(header[4:], "little")
        outcomes = BPT1_HEADER_SIZE + 16 * n
        if size < outcomes:
            raise IngestError(f"{path}: truncated address columns")
        if size < outcomes + (n + 7) // 8:
            raise IngestError(f"{path}: truncated outcome column")

        def column(offset: int, nbytes: int) -> bytes:
            fh.seek(offset)
            return fh.read(nbytes)

        for start in range(0, n, _BATCH_RECORDS):
            count = min(_BATCH_RECORDS, n - start)
            pc = column(BPT1_HEADER_SIZE + 8 * start, 8 * count)
            target = column(BPT1_HEADER_SIZE + 8 * (n + start), 8 * count)
            packed = column(outcomes + start // 8, (count + 7) // 8)
            yield (
                np.frombuffer(pc, dtype="<u8"),
                np.frombuffer(target, dtype="<u8"),
                np.unpackbits(
                    np.frombuffer(packed, dtype=np.uint8),
                    bitorder="little",
                    count=count,
                ).astype(bool),
            )


def _rechunk(batches: Iterator[Batch], chunk_branches: int) -> Iterator[Batch]:
    """Re-window arbitrary-size batches into exact writer chunks.

    Every yielded chunk holds exactly ``chunk_branches`` branches except
    the final one -- the framing :class:`BPT2Writer` requires.
    """
    held: list = []
    held_count = 0
    for batch in batches:
        held.append(batch)
        held_count += len(batch[0])
        while held_count >= chunk_branches:
            pc = np.concatenate([part[0] for part in held])
            target = np.concatenate([part[1] for part in held])
            taken = np.concatenate([part[2] for part in held])
            yield pc[:chunk_branches], target[:chunk_branches], taken[:chunk_branches]
            held = [
                (pc[chunk_branches:], target[chunk_branches:], taken[chunk_branches:])
            ]
            held_count -= chunk_branches
    if held_count:
        yield (
            np.concatenate([part[0] for part in held]),
            np.concatenate([part[1] for part in held]),
            np.concatenate([part[2] for part in held]),
        )


def _batches(path: PathLike, fmt: str) -> Iterator[Batch]:
    if fmt == "text":
        return _parse_text(path)
    if fmt == "binary":
        return _parse_binary(path)
    if fmt == "bpt1":
        return _parse_bpt1(path)
    raise IngestError(
        f"{path}: unknown trace format {fmt!r}; choose from "
        f"{', '.join(INGEST_FORMATS)}"
    )


def ingest_file(
    source: PathLike,
    out_path: Optional[PathLike] = None,
    *,
    name: Optional[str] = None,
    format: Optional[str] = None,
    chunk_branches: Optional[int] = None,
) -> IngestResult:
    """Validate one foreign trace and spill it to chunked ``BPT2``.

    Args:
        source: The foreign trace file.
        out_path: Where the ``.bpt`` spill lands (default:
            ``<source>.bpt``; ignored for already-native ``bpt`` input,
            which is validated and digested in place).
        name: Benchmark-style name (default: the source file stem).
        format: Declared format; None sniffs via :func:`detect_format`.
        chunk_branches: Spill window (None = engine default).

    Returns:
        An :class:`IngestResult` whose ``digest`` is the canonical
        trace content digest -- the identity an
        :class:`~repro.spec.ImportedSource` entry pins.

    Raises:
        IngestError: On an unreadable file, a malformed line or record
            (with its location), or an empty trace.
    """
    source = os.fspath(source)
    fmt = format or detect_format(source)
    trace_name = name or os.path.splitext(os.path.basename(source))[0]
    if not trace_name:
        raise IngestError(f"{source}: cannot derive a trace name; pass one")

    if fmt == "bpt":
        stream = _open_stream(source)
        if len(stream) == 0:
            raise IngestError(f"{source}: trace contains no branches")
        return IngestResult(
            name=trace_name,
            source_path=str(source),
            path=str(source),
            format=fmt,
            branches=len(stream),
            digest=stream.digest(),
        )

    chunk = normalize_chunk_branches(chunk_branches)
    destination = os.fspath(
        out_path if out_path is not None else f"{source}.bpt"
    )
    written = 0
    # A rejected source leaves no partial spill: the writer publishes
    # the file only on a clean close.
    with BPT2Writer(destination, chunk_branches=chunk) as writer:
        for pc, target, taken in _rechunk(_batches(source, fmt), chunk):
            writer.append_chunk(pc, target, taken)
            written += len(pc)
    if written == 0:
        os.unlink(destination)
        raise IngestError(f"{source}: trace contains no branches")
    stream = _open_stream(destination)
    return IngestResult(
        name=trace_name,
        source_path=str(source),
        path=destination,
        format=fmt,
        branches=written,
        digest=stream.digest(),
    )


def _open_stream(path: PathLike) -> TraceStream:
    try:
        return TraceStream.open(path)
    except (OSError, ValueError) as error:
        raise IngestError(f"{path}: {error}") from None


def load_imported_trace(
    path: PathLike,
    *,
    format: Optional[str] = None,
    expected_digest: Optional[str] = None,
) -> Trace:
    """Load a foreign or native trace whole, verifying its identity.

    The one loader for trace files: the executor's entry point for
    :class:`~repro.spec.ImportedSource` entries and the reader behind
    ``repro trace``.  Whatever the on-disk format, the returned columns
    hash to the canonical trace digest, and a mismatch against
    ``expected_digest`` -- stale file, wrong path, silent edit -- is an
    :class:`IngestError`, not a silently wrong simulation.
    """
    path = os.fspath(path)
    if format in (None, "bpt", "bpt1", "bpt2"):
        # A .bpt path may hold either binary layout; the magic decides.
        fmt = detect_format(path)
    else:
        fmt = format
    if fmt == "bpt":
        trace = _open_stream(path).whole()
    else:
        parts = list(_batches(path, fmt))
        if not parts:
            raise IngestError(f"{path}: trace contains no branches")
        trace = Trace(
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
        )
    if len(trace) == 0:
        raise IngestError(f"{path}: trace contains no branches")
    if expected_digest and trace.digest() != expected_digest:
        raise IngestError(
            f"{path}: trace digest {trace.digest()} does not match the "
            f"spec's declared digest {expected_digest} (stale or edited "
            f"file?)"
        )
    return trace


__all__ = [
    "BINARY_RECORD",
    "BINARY_RECORD_SIZE",
    "INGEST_FORMATS",
    "IngestResult",
    "detect_format",
    "ingest_file",
    "load_imported_trace",
]
