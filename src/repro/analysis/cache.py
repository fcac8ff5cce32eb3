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
compressed ``.npz`` files, sharded by the first byte of the key digest.
Writes are atomic (temp file + ``os.replace``) so concurrent workers can
share one cache directory; any load failure -- missing file, truncation,
schema drift -- counts as a miss and never propagates.

A *corrupt* entry (present but unreadable or undecodable) is not just a
miss: it is moved into ``<root>/quarantine/`` so the bad bytes are
preserved for inspection, can never be loaded again, and the recompute
that follows overwrites a clean entry at the original path.  Quarantine
events are counted (``cache.quarantined``) and surfaced by ``repro
cache stats``; ``repro cache clear`` reclaims the quarantine too.

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

import hashlib
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.correlation.tagging import CorrelationTable
from repro.obs.metrics import METRICS
from repro.trace.trace import Trace

#: Bump when the on-disk layout or any cached result's semantics change.
SCHEMA_VERSION = 3

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


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    errors: int = 0
    quarantined: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.errors += other.errors
        self.quarantined += other.quarantined

    def summary(self) -> str:
        text = (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.writes} writes, {self.errors} errors"
        )
        if self.quarantined:
            text += f", {self.quarantined} quarantined"
        return text


class ResultCache:
    """Content-addressed store for bitmaps, correlation data and traces.

    Args:
        root: Cache directory; defaults to :func:`default_cache_dir`.
            Created lazily on first write.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        # (kind, key) -> (decoded value, decoded bytes), oldest first.
        # Unlocked, like the stats: a session runs one spec at a time.
        self._memo: "OrderedDict[Tuple[str, str], tuple]" = OrderedDict()
        self._memo_bytes = 0

    # -- keying ------------------------------------------------------------

    @staticmethod
    def _digest(*parts: str) -> str:
        h = hashlib.blake2b(digest_size=16)
        for part in parts:
            h.update(part.encode())
            h.update(b"\x00")
        return h.hexdigest()

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.npz"

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
        self.stats.misses += 1
        METRICS.inc(f"cache.{kind}.misses")
        if error:
            self.stats.errors += 1
            METRICS.inc("cache.errors")

    def _record_hit(self, kind: str) -> None:
        self.stats.hits += 1
        METRICS.inc(f"cache.{kind}.hits")

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
        self.stats.quarantined += 1
        METRICS.inc("cache.quarantined")

    def _load(self, path: Path, kind: str) -> Optional[dict]:
        """Load an npz entry; a corrupt one is quarantined, not kept."""
        try:
            with np.load(path) as payload:
                return {name: payload[name] for name in payload.files}
        except FileNotFoundError:
            self._record_miss(kind)
            return None
        except Exception:
            # Truncated/corrupted/foreign file: quarantine it so the
            # caller recomputes and writes a clean entry in its place.
            self._quarantine(path, kind)
            return None

    def _fetch(
        self, kind: str, key: str, decode: Callable[[dict], tuple]
    ) -> Optional[object]:
        """An entry from the session memo, else decoded from disk.

        ``decode`` turns the npz payload into ``(value, decoded
        bytes)``; a payload it rejects is quarantined like an
        unreadable file.  Only a successful decode enters the memo.
        """
        held = self._memo.get((kind, key))
        if held is not None:
            self._memo.move_to_end((kind, key))
            METRICS.inc("cache.memo_hits")
            self._record_hit(kind)
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

    def _store(self, path: Path, kind: str, **arrays: np.ndarray) -> None:
        """Atomically write an npz entry (temp file + rename)."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez_compressed(fh, **arrays)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            self.stats.writes += 1
            METRICS.inc(f"cache.{kind}.writes")
            try:
                METRICS.inc("cache.bytes_written", path.stat().st_size)
            except OSError:
                pass
        except OSError:
            # A read-only or full disk must never fail the computation.
            self.stats.errors += 1
            METRICS.inc("cache.errors")

    # -- correctness bitmaps ----------------------------------------------

    def bitmap_key(self, trace_digest: str, result_key: str) -> str:
        return self._digest("bitmap", str(SCHEMA_VERSION), trace_digest, result_key)

    def load_bitmap(
        self, trace_digest: str, result_key: str
    ) -> Optional[np.ndarray]:
        """A cached (read-only) correctness bitmap, or None on miss."""
        return self._fetch(
            "bitmap", self.bitmap_key(trace_digest, result_key), _decode_bitmap
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
        self, trace_digest: str, window: int
    ) -> Optional[CorrelationTable]:
        """Cached tagged-correlation table, or None on miss."""
        return self._fetch(
            "corr", self.correlation_key(trace_digest, window),
            _decode_correlation,
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

    def _entries(self):
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
                yield from sorted(kind_dir.glob("*/*.npz"))

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
        """Delete every cache entry (quarantine included); returns the
        number removed."""
        removed = 0
        for path in list(self._entries()) + self.quarantined_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                self.stats.errors += 1
        return removed


# -- payload decoders: npz payload -> (value, decoded bytes) ---------------


def _decode_bitmap(payload: dict) -> tuple:
    length = int(payload["length"])
    bitmap = np.unpackbits(payload["packed"], count=length).astype(bool)
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


def _decode_correlation(payload: dict) -> tuple:
    columns = dict(payload)
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
    count = int(payload["length"])
    trace = Trace(
        payload["pc"],
        payload["target"],
        np.unpackbits(payload["taken"], count=count).astype(bool),
    )
    return trace, trace.pc.nbytes + trace.target.nbytes + trace.taken.nbytes
