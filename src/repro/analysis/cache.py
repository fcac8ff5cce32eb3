"""Content-addressed on-disk result cache.

Every expensive artefact the analysis layer produces -- per-branch
correctness bitmaps, the tagged-correlation collection, generated
benchmark traces -- is a pure function of its inputs.  This module keys
each artefact by a digest of exactly those inputs:

* **bitmaps** by ``(trace digest, result key, schema version)``, where
  the result key names the predictor task and its configuration;
* **correlation data** by ``(trace digest, collection window, schema
  version)``;
* **generated traces** by ``(benchmark name, length, run seed, workload
  schema, schema version)``.

Entries live under ``.repro-cache/`` (override with the
:data:`ENV_CACHE_DIR` environment variable or ``--cache-dir``) as
``<kind>/<first digest byte>/<key>.blob`` files.  Writes are atomic
(temp file + ``os.replace``) so concurrent workers can share one cache
directory; any load failure -- missing file, truncation, a digest or
schema mismatch -- counts as a miss and never propagates.

Every entry, whatever its kind, is one blob (:func:`write_entry`,
:func:`parse_entry`):

* the magic :data:`ENTRY_MAGIC` and a ``uint32`` header length;
* a JSON header listing each array as ``[name, dtype, shape,
  compressed length]``;
* each array's bytes, zlib-compressed on its own, in header order;
* a 16-byte blake2b digest over everything before it.

A reader takes the file in one ``read()``, checks the magic and the
digest, then decodes each array from its own slice of the blob; lengths
that do not add up to the blob are as corrupt as a wrong digest.  The
digest catches bit rot and torn writes: a flipped bit anywhere in the
file fails it.  It cannot catch an entry whose arrays were altered and
re-encoded with a fresh digest; the per-kind decoders' own shape and
range checks are all that stands in the way of such an entry.

A *corrupt* entry (present but unreadable or undecodable) is not just a
miss: it is moved into ``<root>/quarantine/`` so the bad bytes are
preserved for inspection, can never be loaded again, and the recompute
that follows overwrites a clean entry at the original path.  Quarantine
events are counted (``cache.quarantined``) and surfaced by ``repro
cache stats``; ``repro cache clear`` reclaims the quarantine too.

Every cache event counts into the metrics registry in scope
(:data:`~repro.obs.metrics.METRICS`), so a run's events are in its own
counters, worker events included; :func:`cache_summary` renders them
for the ``cache:`` progress lines.

Within one :class:`ResultCache` -- which an
:class:`~repro.api.EngineSession` owns for its whole lifetime, so the
server's requests and a sweep's points share it -- each entry is read
from disk at most once: a successful decode is kept in a byte-bounded
LRU *session memo* keyed by ``(kind, key)``, bounded by
:data:`MEMO_BYTES` of decoded arrays.  Keys are content digests, so a
memoised entry can never go stale (``repro cache clear`` from another
process leaves a running server's memo valid).  Only a successful disk
read fills the memo, never a store: a freshly written entry is still
read, and if need be quarantined, on its first load.  A memo hit counts
as a ``cache.<kind>.hits`` like a disk hit, and also as
``cache.memo_hits``.  Memoised values are shared, so they are
read-only: bitmaps are returned with ``writeable=False``, and
:class:`~repro.trace.trace.Trace` and
:class:`~repro.correlation.tagging.CorrelationTable` columns always are.

Invalidation is purely structural: bump :data:`SCHEMA_VERSION` when the
serialised layout or any simulation semantics change, and
:data:`WORKLOAD_SCHEMA` when the workload generator's output changes for
an unchanged ``(name, length, seed)``.  Either bump changes every key,
so stale entries are simply never addressed again (``repro cache clear``
reclaims the disk).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import tempfile
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Optional, Set, Tuple, Union

import numpy as np

from repro.correlation.tagging import CorrelationTable
from repro.obs.metrics import METRICS
from repro.trace.trace import Trace

#: The entry kinds; each counts ``cache.<kind>.hits|misses|writes``.
KINDS = ("bitmap", "corr", "trace")

#: Bump when the on-disk layout or any cached result's semantics change.
SCHEMA_VERSION = 4

#: Bump when the workload generator changes what an unchanged
#: ``(name, length, run_seed)`` triple produces.
WORKLOAD_SCHEMA = 1

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIRNAME = ".repro-cache"

#: Subdirectory of the cache root holding quarantined corrupt entries.
QUARANTINE_DIRNAME = "quarantine"

#: Decoded bytes one cache's session memo holds at most; a larger entry
#: is never held.
MEMO_BYTES = 64 << 20

#: Suffix of every cache entry file.
ENTRY_SUFFIX = ".blob"

#: Suffix of the ``.npz`` entries schema versions 1-3 wrote; never read,
#: only removed by :meth:`ResultCache.clear`.
LEGACY_SUFFIX = ".npz"

#: First bytes of every cache entry.
ENTRY_MAGIC = b"RCE1"

#: zlib level each stored array is compressed at.
COMPRESS_LEVEL = 2

#: Entry prefix: magic, then the JSON header's length.
_PREFIX = struct.Struct("<4sI")

#: Bytes of the blake2b digest closing every entry.
_DIGEST_SIZE = 16

#: dtype kinds an entry may hold: bool, signed, unsigned, float.
_ENTRY_KINDS = "biuf"


def result_key(task: str, config: object) -> str:
    """Canonical cache-key string for a Lab task under a configuration.

    Keys by the projection of the configuration onto the fields the
    task actually reads (see ``analysis.config.TASK_CONFIG_FIELDS``),
    so a sweep over one predictor's sizing re-keys only that
    predictor's bitmaps -- every other task's entries are shared across
    grid points.  Unknown tasks project onto every field, which keeps
    the old conservative behaviour for predictors without a
    declaration.
    """
    from repro.analysis.config import task_config_key

    return f"{task}|{task_config_key(task, config)}"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override)
    return Path(DEFAULT_CACHE_DIRNAME)


def cache_counts(metrics: dict) -> Dict[str, int]:
    """The cache events in a metrics snapshot, summed over entry kinds."""
    counters = metrics.get("counters", {})
    counts = {
        event: sum(counters.get(f"cache.{kind}.{event}", 0) for kind in KINDS)
        for event in ("hits", "misses", "writes")
    }
    counts["errors"] = counters.get("cache.errors", 0)
    counts["quarantined"] = counters.get("cache.quarantined", 0)
    return counts


def cache_summary(metrics: dict) -> str:
    """The ``cache:`` progress line's counts, from a metrics snapshot."""
    counts = cache_counts(metrics)
    text = (
        f"{counts['hits']} hits, {counts['misses']} misses, "
        f"{counts['writes']} writes, {counts['errors']} errors"
    )
    if counts["quarantined"]:
        text += f", {counts['quarantined']} quarantined"
    return text


class ResultCache:
    """Content-addressed store for bitmaps, correlation data and traces.

    Args:
        root: Cache directory; defaults to :func:`default_cache_dir`.
            Created lazily on first write.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # (kind, key) -> (decoded value, decoded bytes), oldest first.
        # Unlocked: a session runs one spec at a time.
        self._memo: "OrderedDict[Tuple[str, str], tuple]" = OrderedDict()
        self._memo_bytes = 0
        # Shard directories this cache has made, so a write does not
        # call mkdir each time.
        self._shards: Set[Path] = set()

    # -- keying ------------------------------------------------------------

    @staticmethod
    def _digest(*parts: str) -> str:
        h = hashlib.blake2b(digest_size=16)
        for part in parts:
            h.update(part.encode())
            h.update(b"\x00")
        return h.hexdigest()

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def entry_path(self, kind: str, key: str) -> Path:
        """The on-disk path an entry of ``kind`` under ``key`` lives at.

        Public so tooling (fault injection, forensic scripts) can reach
        a specific entry without re-deriving the sharding scheme.
        """
        return self._path(kind, key)

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (``<root>/quarantine``)."""
        return self.root / QUARANTINE_DIRNAME

    def _record_miss(self, kind: str, error: bool = False) -> None:
        """Count a miss (and optionally an error) per entry kind."""
        METRICS.inc(f"cache.{kind}.misses")
        if error:
            METRICS.inc("cache.errors")

    def _record_hit(self, kind: str) -> None:
        METRICS.inc(f"cache.{kind}.hits")

    def record_memo_hit(self, kind: str) -> None:
        """Count a hit served from memory instead of disk.

        The session memo's hits count this way, and so does an entry a
        sweep point takes in memory from the point that computed it.
        """
        METRICS.inc("cache.memo_hits")
        self._record_hit(kind)

    def _quarantine(self, path: Path, kind: str) -> None:
        """Move a corrupt entry aside so it is never loaded again.

        The move is atomic (same filesystem), preserves the bytes for
        inspection, and frees the original path for the clean rewrite
        that follows the recompute.  Counted as a miss *and* a
        quarantine; a failed move falls back to the old
        miss-with-error behaviour (the entry stays, the caller still
        recomputes and overwrites it).
        """
        self._record_miss(kind, error=True)
        try:
            target_dir = self.quarantine_dir
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{kind}-{path.name}")
        except OSError:
            return
        METRICS.inc("cache.quarantined")

    def _load(self, path: Path, kind: str) -> Optional[dict]:
        """Read an entry's arrays; a corrupt entry is quarantined."""
        try:
            with open(path, "rb", buffering=0) as fh:
                blob = fh.read()
            return parse_entry(blob)
        except FileNotFoundError:
            self._record_miss(kind)
            return None
        except Exception:
            # Truncated/flipped/foreign file: quarantine it so the
            # caller recomputes and writes a clean entry in its place.
            self._quarantine(path, kind)
            return None

    def _fetch(
        self, kind: str, key: str, decode: Callable[[dict], tuple]
    ) -> Optional[object]:
        """An entry from the session memo, else decoded from disk.

        ``decode`` turns the entry's arrays into ``(value, decoded
        bytes)``; a payload it rejects is quarantined like an
        unreadable file.  Only a successful decode enters the memo.
        """
        held = self._memo.get((kind, key))
        if held is not None:
            self._memo.move_to_end((kind, key))
            self.record_memo_hit(kind)
            return held[0]
        path = self._path(kind, key)
        payload = self._load(path, kind)
        if payload is None:
            return None
        try:
            value, nbytes = decode(payload)
        except Exception:
            self._quarantine(path, kind)
            return None
        self._record_hit(kind)
        if nbytes <= MEMO_BYTES:
            self._memo[(kind, key)] = (value, nbytes)
            self._memo_bytes += nbytes
            while self._memo_bytes > MEMO_BYTES:
                _, (_, evicted) = self._memo.popitem(last=False)
                self._memo_bytes -= evicted
        return value

    def _mkstemp(self, path: Path) -> Tuple[int, str]:
        """A temp file beside ``path``, in a shard made once per cache
        (and again if it vanished since)."""
        shard = path.parent
        if shard in self._shards:
            try:
                return tempfile.mkstemp(dir=shard, prefix=path.stem, suffix=".tmp")
            except FileNotFoundError:
                pass
        shard.mkdir(parents=True, exist_ok=True)
        self._shards.add(shard)
        return tempfile.mkstemp(dir=shard, prefix=path.stem, suffix=".tmp")

    def _store(self, path: Path, kind: str, **arrays: np.ndarray) -> None:
        """Atomically write an entry (temp file + rename)."""
        try:
            fd, tmp_name = self._mkstemp(path)
            try:
                with os.fdopen(fd, "wb") as fh:
                    size = write_entry(fh, arrays)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            METRICS.inc(f"cache.{kind}.writes")
            METRICS.inc("cache.bytes_written", size)
        except OSError:
            # A read-only or full disk must never fail the computation.
            METRICS.inc("cache.errors")

    # -- correctness bitmaps ----------------------------------------------

    def bitmap_key(self, trace_digest: str, result_key: str) -> str:
        return self._digest("bitmap", str(SCHEMA_VERSION), trace_digest, result_key)

    def load_bitmap(
        self, trace_digest: str, result_key: str, length: int
    ) -> Optional[np.ndarray]:
        """A cached (read-only) correctness bitmap over a ``length``-branch
        trace, or None on miss.  An entry of another length is corrupt."""
        return self._fetch(
            "bitmap", self.bitmap_key(trace_digest, result_key),
            functools.partial(_decode_bitmap, length=length),
        )

    def store_bitmap(
        self, trace_digest: str, result_key: str, bitmap: np.ndarray
    ) -> None:
        self._store(
            self._path("bitmap", self.bitmap_key(trace_digest, result_key)),
            "bitmap",
            packed=np.packbits(np.asarray(bitmap, dtype=bool)),
            length=np.int64(len(bitmap)),
        )

    # -- correlation data --------------------------------------------------

    def correlation_key(self, trace_digest: str, window: int) -> str:
        return self._digest(
            "corr", str(SCHEMA_VERSION), trace_digest, f"window={window}"
        )

    def load_correlation(
        self, trace_digest: str, window: int, length: int
    ) -> Optional[CorrelationTable]:
        """Cached tagged-correlation table of a ``length``-branch trace,
        or None on miss.  A table of another window or length is corrupt."""
        return self._fetch(
            "corr", self.correlation_key(trace_digest, window),
            functools.partial(_decode_correlation, window=window, length=length),
        )

    def store_correlation(self, trace_digest: str, data: CorrelationTable) -> None:
        self._store(
            self._path("corr", self.correlation_key(trace_digest, data.window)),
            "corr",
            **_encode_correlation(data),
        )

    # -- generated benchmark traces ---------------------------------------

    def trace_key(
        self,
        name: str,
        length: Optional[int],
        run_seed: int,
        variant: str = "",
    ) -> str:
        """Cache key of one generated trace.

        ``variant`` is the source-identity suffix (a canonical mix
        signature); ``""`` -- the default, and every pre-source caller
        -- appends nothing, so legacy entries keep their keys.
        """
        parts = [
            "trace",
            str(SCHEMA_VERSION),
            str(WORKLOAD_SCHEMA),
            name,
            str(length),
            str(run_seed),
        ]
        if variant:
            parts.append(variant)
        return self._digest(*parts)

    def load_trace(
        self,
        name: str,
        length: Optional[int],
        run_seed: int,
        variant: str = "",
    ) -> Optional[Trace]:
        """A cached generated benchmark trace, or None on miss."""
        return self._fetch(
            "trace", self.trace_key(name, length, run_seed, variant),
            _decode_trace,
        )

    def store_trace(
        self,
        name: str,
        length: Optional[int],
        run_seed: int,
        trace: Trace,
        variant: str = "",
    ) -> None:
        self._store(
            self._path(
                "trace", self.trace_key(name, length, run_seed, variant)
            ),
            "trace",
            pc=trace.pc,
            target=trace.target,
            taken=np.packbits(trace.taken),
            length=np.int64(len(trace)),
        )

    # -- maintenance -------------------------------------------------------

    def _entries(self, suffixes: Tuple[str, ...] = (ENTRY_SUFFIX,)):
        # A missing, deleted-underneath, or plain-file root must never
        # fail maintenance commands: report an empty cache instead.
        try:
            if not self.root.is_dir():
                return
            kind_dirs = sorted(self.root.iterdir())
        except OSError:
            return
        for kind_dir in kind_dirs:
            if kind_dir.name == QUARANTINE_DIRNAME:
                continue
            if kind_dir.is_dir():
                for suffix in suffixes:
                    yield from sorted(kind_dir.glob(f"*/*{suffix}"))

    def quarantined_entries(self):
        """Paths of quarantined corrupt entries, sorted."""
        try:
            if not self.quarantine_dir.is_dir():
                return []
            return sorted(
                path for path in self.quarantine_dir.iterdir()
                if path.is_file()
            )
        except OSError:
            return []

    def quarantine_count(self) -> int:
        return len(self.quarantined_entries())

    def entry_count(self) -> int:
        return sum(1 for _ in self._entries())

    def total_bytes(self) -> int:
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                # Entry vanished between listing and stat (concurrent
                # clear); count what is still there.
                continue
        return total

    def clear(self) -> int:
        """Delete every cache entry (quarantine and the ``.npz`` entries
        of older schema versions included); returns the number removed."""
        removed = 0
        entries = list(self._entries((ENTRY_SUFFIX, LEGACY_SUFFIX)))
        for path in entries + self.quarantined_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                METRICS.inc("cache.errors")
        return removed


# -- entry blobs: named arrays <-> bytes -------------------------------------


def write_entry(fh: BinaryIO, arrays: Dict[str, np.ndarray]) -> int:
    """Write ``arrays`` to ``fh`` as one entry; returns its size in bytes.

    Each array is compressed and hashed on its own, so no buffer the
    size of the whole entry is ever built.
    """
    header, blobs = [], []
    for name, array in arrays.items():
        array = np.asarray(array)
        if not array.flags.c_contiguous:
            array = array.copy(order="C")
        blob = zlib.compress(array, COMPRESS_LEVEL)
        header.append([name, array.dtype.str, list(array.shape), len(blob)])
        blobs.append(blob)
    encoded = json.dumps(header, separators=(",", ":")).encode()
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    size = 0
    for part in [_PREFIX.pack(ENTRY_MAGIC, len(encoded)), encoded, *blobs]:
        digest.update(part)
        fh.write(part)
        size += len(part)
    fh.write(digest.digest())
    return size + _DIGEST_SIZE


def parse_entry(blob: bytes) -> Dict[str, np.ndarray]:
    """The named (read-only) arrays of one entry's bytes.

    Raises ``ValueError`` (or whatever a malformed header trips) on a
    wrong magic or digest, or lengths that do not add up to the blob.
    """
    view = memoryview(blob)
    end = len(view) - _DIGEST_SIZE
    if end < _PREFIX.size:
        raise ValueError("cache entry is truncated")
    magic, header_size = _PREFIX.unpack_from(view)
    if magic != ENTRY_MAGIC:
        raise ValueError("not a cache entry")
    digest = hashlib.blake2b(view[:end], digest_size=_DIGEST_SIZE).digest()
    if digest != view[end:]:
        raise ValueError("cache entry digest does not match its bytes")
    start = _PREFIX.size + header_size
    if start > end:
        raise ValueError("cache entry header overruns the entry")
    arrays = {}
    for name, descr, shape, length in json.loads(bytes(view[_PREFIX.size:start])):
        dtype = np.dtype(descr)
        if (
            dtype.kind not in _ENTRY_KINDS or dtype.str != descr or name in arrays
            or not all(type(side) is int and side >= 0 for side in shape)
            or type(length) is not int or not 0 <= length <= end - start
        ):
            raise ValueError(f"cache entry array {name!r} is malformed")
        nbytes = dtype.itemsize * math.prod(shape)
        # An exact output buffer: zlib's default one grows in blocks and
        # joins them, peaking at several times the array's size.
        raw = zlib.decompress(view[start:start + length], bufsize=nbytes)
        if len(raw) != nbytes:
            raise ValueError(f"cache entry array {name!r} does not fill its shape")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
        start += length
    if start != end:
        raise ValueError("cache entry arrays do not fill the entry")
    return arrays


# -- payload decoders: entry arrays -> (value, decoded bytes) ---------------


def _decode_bitmap(payload: dict, length: int) -> tuple:
    packed = payload["packed"]
    if int(payload["length"]) != length or packed.shape != ((length + 7) // 8,):
        raise ValueError(f"bitmap entry does not cover {length} branches")
    bitmap = np.unpackbits(packed, count=length).astype(bool)
    bitmap.flags.writeable = False
    return bitmap, bitmap.nbytes


#: Table columns sorted by owner row, stored as per-owner row counts:
#: ``(column, owner rows, a column of the same row set)``.
_OWNED_COLUMNS = (
    ("inst_branch", "pcs", "inst_index"),
    ("tag_branch", "pcs", "tag_scheme"),
    ("entry_tag", "tag_scheme", "entry_instance"),
)


def _encode_correlation(data: CorrelationTable) -> dict:
    """A table's columns, with the owner columns as counts and the entry
    outcomes bit-packed."""
    columns = data.columns()
    offsets = (data.branch_offsets, data.tag_offsets, data.entry_offsets)
    for (name, _owners, _rows), bounds in zip(_OWNED_COLUMNS, offsets):
        columns[f"{name}_counts"] = np.diff(bounds).astype(columns.pop(name).dtype)
    columns["entry_outcome_packed"] = np.packbits(columns.pop("entry_outcome"))
    return columns


def _decode_correlation(payload: dict, window: int, length: int) -> tuple:
    columns = dict(payload)
    if int(columns["window"]) != window or int(columns["trace_length"]) != length:
        raise ValueError(
            f"correlation entry is not the window-{window} table of "
            f"{length} branches"
        )
    for name, owners, rows in _OWNED_COLUMNS:
        counts = columns.pop(f"{name}_counts")
        if (
            counts.shape != (len(columns[owners]),)
            or (counts < 0).any()
            or int(counts.sum()) != len(columns[rows])
        ):
            raise ValueError(f"correlation {name} counts do not match the rows")
        columns[name] = np.repeat(np.arange(len(counts), dtype=counts.dtype), counts)
    packed, entries = columns.pop("entry_outcome_packed"), len(columns["entry_instance"])
    if packed.shape != ((entries + 7) // 8,):
        raise ValueError("correlation entry outcomes do not match the entries")
    columns["entry_outcome"] = np.unpackbits(packed, count=entries).astype(bool)
    return CorrelationTable(**columns), sum(column.nbytes for column in columns.values())


def _decode_trace(payload: dict) -> tuple:
    count, taken = int(payload["length"]), payload["taken"]
    if taken.shape != ((count + 7) // 8,):
        raise ValueError(f"trace entry outcomes do not cover {count} branches")
    trace = Trace(
        payload["pc"],
        payload["target"],
        np.unpackbits(taken, count=count).astype(bool),
    )
    return trace, trace.pc.nbytes + trace.target.nbytes + trace.taken.nbytes
