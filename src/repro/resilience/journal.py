"""Crash-safe run journal: checkpoint/resume for report runs.

The journal is an append-only JSONL file (``run_journal.jsonl`` by
default) that ``repro report`` / ``repro all`` write one line to as
each experiment *completes*.  Each line carries the experiment's full
serialised result (its schema-versioned ``to_dict`` payload plus the
rendered text) and is keyed by :func:`spec_run_key` -- a digest of the
run spec's input identity (workload + config) and every benchmark
trace digest, i.e. the same identity the result cache and the run
manifest use.  Each sweep point keys under its own digest, so one
journal file checkpoints a whole sweep.  (:func:`run_key`, the
pre-spec key over the raw config repr, remains for direct callers.)

Crash safety comes from the append discipline: every record is one
``write + flush + fsync`` of a single line, so a kill at any instant
leaves at worst one truncated final line, which :meth:`RunJournal.load`
skips.  ``--resume`` then replays every journaled experiment whose run
key matches the current run *bit-identically* -- the replayed result's
canonical JSON, and therefore its manifest ``result_digest``, is the
stored one -- and runs only what is missing.  A journal written by a
different configuration, seed or trace scale simply never matches and
is ignored.

Integrity is self-checking: each line stores the digest of its own
payload, recomputed on load; any mismatch (bit rot, hand editing)
drops the entry and the experiment reruns.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, Optional, Tuple

#: Bump on any journal line layout or semantics change.
JOURNAL_SCHEMA_VERSION = 1

#: Discriminator so readers can reject non-journal JSONL early.
JOURNAL_KIND = "repro.journal"

#: Default journal filename for ``repro report`` / ``repro all``.
DEFAULT_JOURNAL_NAME = "run_journal.jsonl"


def run_key(config: Any, run_seed: int, labs: Dict[str, Any]) -> str:
    """Digest identifying a run's inputs: config, seed, trace digests.

    Two runs share a key exactly when every experiment must produce
    bit-identical results: same predictor sizing (config repr), same
    workload seed, same benchmark set with the same trace digests
    (which encode the trace lengths).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(config).encode())
    h.update(b"\x00")
    h.update(str(int(run_seed)).encode())
    for name in sorted(labs):
        trace = labs[name].trace
        h.update(b"\x00")
        h.update(name.encode())
        h.update(b"\x00")
        h.update(trace.digest().encode())
    return h.hexdigest()


def spec_run_key(input_digest: str, labs: Dict[str, Any]) -> str:
    """Digest identifying a spec-driven run's inputs.

    Keys off the :meth:`repro.spec.RunSpec.input_digest` (workload +
    config identity) plus every benchmark trace digest, so each sweep
    point journals under its own key -- ``--resume`` on a killed sweep
    replays exactly the points (and experiments within them) that
    finished.  The trace digests stay in the key even though the
    workload identity already pins them: a workload-generator change
    that alters traces for an unchanged spec must invalidate the
    journal.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(input_digest.encode())
    for name in sorted(labs):
        trace = labs[name].trace
        h.update(b"\x00")
        h.update(name.encode())
        h.update(b"\x00")
        h.update(trace.digest().encode())
    return h.hexdigest()


def payload_digest(payload: Dict[str, Any]) -> str:
    """Digest of a result payload's canonical (key-sorted) JSON.

    Matches :func:`repro.obs.manifest.result_digest` for the result the
    payload was serialised from, so journal digests and manifest
    digests are directly comparable.
    """
    return hashlib.blake2b(
        json.dumps(payload, sort_keys=True).encode(), digest_size=16
    ).hexdigest()


class RunJournal:
    """Append-only journal of completed experiment results.

    Args:
        path: The JSONL file to append to.
        fresh: Truncate any existing journal first (a non-resume run
            must not inherit stale entries).
    """

    def __init__(self, path: str, fresh: bool = False) -> None:
        self.path = str(path)
        self._fh = None
        if fresh:
            try:
                os.unlink(self.path)
            except FileNotFoundError:
                pass

    # -- writing -----------------------------------------------------------

    def _handle(self):
        if self._fh is None:
            fh = open(self.path, "a+b")
            # A kill mid-write leaves a final line without its newline;
            # end it, so the next entry is not glued onto that garbage.
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            self._fh = fh
        return self._fh

    def record(self, experiment_id: str, key: str, result: Any) -> dict:
        """Durably append one completed experiment result.

        ``result`` is any :class:`~repro.experiments.base.\
        ExperimentResult`; its ``to_dict`` payload and rendered text are
        stored so a resume can replay it without re-simulating.
        """
        payload = result.to_dict()
        entry = {
            "kind": JOURNAL_KIND,
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "run_key": key,
            "title": getattr(result, "title", ""),
            "result_digest": payload_digest(payload),
            "payload": payload,
            "render": result.render(),
            "recorded_unix": time.time(),
        }
        fh = self._handle()
        fh.write(json.dumps(entry, sort_keys=True).encode() + b"\n")
        fh.flush()
        os.fsync(fh.fileno())
        return entry

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except (OSError, ValueError):
                pass
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def load(self) -> Dict[Tuple[str, str], dict]:
        """Valid journal entries, keyed by ``(experiment_id, run_key)``.

        Tolerates a missing file, truncated/garbage lines (the crash
        case the journal exists for), wrong-kind or wrong-schema lines,
        and entries whose stored digest no longer matches their payload.
        A garbage line is any line that does not decode: bytes that are
        not UTF-8, text that is not JSON, an integer past Python's digit
        limit, or nesting past the recursion limit.  Later entries for
        the same key win, so re-running an experiment supersedes its
        older record.
        """
        entries: Dict[Tuple[str, str], dict] = {}
        try:
            fh = open(self.path, "rb")
        except OSError:
            return entries
        with fh:
            for line in fh:
                try:
                    entry = json.loads(line.decode("utf-8"))
                except (ValueError, RecursionError):
                    continue
                if not isinstance(entry, dict):
                    continue
                if entry.get("kind") != JOURNAL_KIND:
                    continue
                if entry.get("schema_version") != JOURNAL_SCHEMA_VERSION:
                    continue
                experiment_id = entry.get("experiment_id")
                key = entry.get("run_key")
                payload = entry.get("payload")
                if not (
                    isinstance(experiment_id, str)
                    and isinstance(key, str)
                    and isinstance(payload, dict)
                    and isinstance(entry.get("render"), str)
                ):
                    continue
                if entry.get("result_digest") != payload_digest(payload):
                    continue
                entries[(experiment_id, key)] = entry
        return entries

    def lookup(self, experiment_id: str, key: str) -> Optional[dict]:
        """The entry for one experiment under one run key, if journaled."""
        return self.load().get((experiment_id, key))
