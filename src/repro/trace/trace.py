"""Columnar branch traces.

A :class:`Trace` stores a complete dynamic branch stream as three parallel
numpy arrays (``pc``, ``target``, ``taken``).  Column storage keeps a
200k-branch trace under 4 MB and lets the analysis layer vectorise
whole-trace computations (ideal-static accuracy, fixed-``k`` pattern
accuracy, bias statistics) instead of looping in Python -- the main
mitigation for pure-Python simulation speed.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.trace.record import BranchRecord

PC_DTYPE = np.uint64
TAKEN_DTYPE = np.bool_

#: ``(pcs, ids, counts)``: see :meth:`Trace.branch_index`.
BranchIndex = Tuple[np.ndarray, np.ndarray, np.ndarray]


class Trace:
    """An immutable sequence of dynamic conditional branches.

    Construct from columns (zero-copy where possible) or via
    :class:`TraceBuilder` / :meth:`Trace.from_records`.
    """

    __slots__ = (
        "_pc",
        "_target",
        "_taken",
        "_branch_index_cache",
        "_branch_order_cache",
        "_pc_index_cache",
        "_digest_cache",
    )

    def __init__(
        self,
        pc: Sequence[int],
        target: Sequence[int],
        taken: Sequence[bool],
    ) -> None:
        pc_arr = np.ascontiguousarray(pc, dtype=PC_DTYPE)
        target_arr = np.ascontiguousarray(target, dtype=PC_DTYPE)
        taken_arr = np.ascontiguousarray(taken, dtype=TAKEN_DTYPE)
        if not (
            pc_arr.ndim == target_arr.ndim == taken_arr.ndim == 1
            and len(pc_arr) == len(target_arr) == len(taken_arr)
        ):
            raise ValueError(
                "trace columns must be 1-D of equal length: "
                f"pc={pc_arr.shape} target={target_arr.shape} taken={taken_arr.shape}"
            )
        self._pc = pc_arr
        self._target = target_arr
        self._taken = taken_arr
        self._branch_index_cache: Union[BranchIndex, None] = None
        self._branch_order_cache: Union[np.ndarray, None] = None
        self._pc_index_cache: Union[Dict[int, np.ndarray], None] = None
        self._digest_cache: Union[str, None] = None
        for col in (self._pc, self._target, self._taken):
            col.setflags(write=False)

    def __reduce__(self):
        # Rebuilt through __init__, so an unpickled trace (one a pool
        # worker ships back) has read-only columns too, and no caches
        # travel with it.
        return (Trace, (self._pc, self._target, self._taken))

    # -- construction ----------------------------------------------------

    @classmethod
    def from_records(cls, records: Sequence[BranchRecord]) -> "Trace":
        """Build a trace from an iterable of :class:`BranchRecord`."""
        builder = TraceBuilder()
        for record in records:
            builder.append(record.pc, record.target, record.taken)
        return builder.build()

    @classmethod
    def empty(cls) -> "Trace":
        return cls([], [], [])

    # -- columns ----------------------------------------------------------

    @property
    def pc(self) -> np.ndarray:
        """Branch addresses, shape ``(len(self),)``, dtype uint64."""
        return self._pc

    @property
    def target(self) -> np.ndarray:
        """Taken-target addresses, shape ``(len(self),)``, dtype uint64."""
        return self._target

    @property
    def taken(self) -> np.ndarray:
        """Outcomes, shape ``(len(self),)``, dtype bool."""
        return self._taken

    @property
    def is_backward(self) -> np.ndarray:
        """Boolean mask of backward (loop-closing) branches."""
        return self._target < self._pc

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._pc)

    def __getitem__(self, index: Union[int, slice]) -> Union[BranchRecord, "Trace"]:
        if isinstance(index, slice):
            return Trace(self._pc[index], self._target[index], self._taken[index])
        i = int(index)
        return BranchRecord(
            pc=int(self._pc[i]),
            target=int(self._target[i]),
            taken=bool(self._taken[i]),
        )

    def __iter__(self) -> Iterator[BranchRecord]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self._pc, other._pc)
            and np.array_equal(self._target, other._target)
            and np.array_equal(self._taken, other._taken)
        )

    def __hash__(self) -> int:  # immutable, but arrays are unhashable
        return hash((len(self), self._pc.tobytes()[:64], self._taken.tobytes()[:64]))

    def __repr__(self) -> str:
        return (
            f"Trace(len={len(self)}, static={self.num_static_branches()}, "
            f"taken_rate={self.taken_rate():.3f})"
        )

    def digest(self) -> str:
        """Content digest of the trace columns (hex, memoised).

        Two traces with identical columns share a digest regardless of how
        they were built; the result cache uses this as the trace half of
        every content-addressed key.
        """
        if self._digest_cache is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(len(self).to_bytes(8, "little"))
            h.update(self._pc.tobytes())
            h.update(self._target.tobytes())
            h.update(np.packbits(self._taken).tobytes())
            self._digest_cache = h.hexdigest()
        return self._digest_cache

    # -- derived views ------------------------------------------------------

    def branch_index(self) -> BranchIndex:
        """The memoised per-static-branch index ``(pcs, ids, counts)``.

        ``pcs`` holds the distinct branch addresses, sorted; ``ids[i]``
        is dynamic branch ``i``'s position in ``pcs``; ``counts[j]`` is
        how often ``pcs[j]`` executes.  Built with one ``np.unique``,
        ``ids`` in the narrowest unsigned dtype that holds every id.
        All three arrays are read-only.  Per-static-branch reductions
        are ``np.bincount`` passes over ``ids`` (see
        :meth:`branch_sums`).
        """
        if self._branch_index_cache is None:
            pcs, inverse, counts = np.unique(
                self._pc, return_inverse=True, return_counts=True
            )
            ids = inverse.astype(np.min_scalar_type(len(pcs)))
            for column in (pcs, ids, counts):
                column.setflags(write=False)
            self._branch_index_cache = (pcs, ids, counts)
        return self._branch_index_cache

    def branch_order(self) -> np.ndarray:
        """The memoised permutation that sorts dynamic branches by branch.

        A stable argsort of ``branch_index()``'s ``ids``: branch after
        branch in ``pcs`` order, each branch's executions in trace order.
        Read-only.
        """
        if self._branch_order_cache is None:
            order = np.argsort(self.branch_index()[1], kind="stable")
            order.setflags(write=False)
            self._branch_order_cache = order
        return self._branch_order_cache

    def branch_sums(self, bitmap: np.ndarray) -> np.ndarray:
        """Per-static-branch count of set entries in a bool ``bitmap``.

        Aligned with ``branch_index()[0]``; dtype int64.
        """
        pcs, ids, _counts = self.branch_index()
        return np.bincount(ids, weights=bitmap, minlength=len(pcs)).astype(
            np.int64
        )

    def num_static_branches(self) -> int:
        """Number of distinct branch addresses in the trace."""
        return len(self.branch_index()[0])

    def taken_rate(self) -> float:
        """Fraction of dynamic branches that were taken."""
        return float(self._taken.mean()) if len(self) else 0.0

    def static_pcs(self) -> np.ndarray:
        """Sorted array of distinct static branch addresses (read-only)."""
        return self.branch_index()[0]

    def indices_by_pc(self) -> Dict[int, np.ndarray]:
        """Map each static branch address to its dynamic-instance indices.

        Keys are in ``static_pcs()`` order; each value is a slice of
        :meth:`branch_order`.  The result is cached.  Per-branch
        reductions use :meth:`branch_index`, and array passes over every
        branch use :meth:`branch_order`, instead.
        """
        if self._pc_index_cache is None:
            pcs, _ids, counts = self.branch_index()
            groups = np.split(self.branch_order(), np.cumsum(counts)[:-1])
            self._pc_index_cache = dict(zip(pcs.tolist(), groups))
        return self._pc_index_cache

    def outcomes_by_pc(self) -> Dict[int, np.ndarray]:
        """Map each static branch address to its in-order outcome sequence."""
        return {
            pc: self._taken[indices] for pc, indices in self.indices_by_pc().items()
        }

    def dynamic_counts(self) -> Dict[int, int]:
        """Map each static branch address to its dynamic execution count."""
        pcs, _ids, counts = self.branch_index()
        return dict(zip(pcs.tolist(), counts.tolist()))

    def concat(self, other: "Trace") -> "Trace":
        """Return a new trace holding ``self`` followed by ``other``."""
        return Trace(
            np.concatenate([self._pc, other._pc]),
            np.concatenate([self._target, other._target]),
            np.concatenate([self._taken, other._taken]),
        )


class TraceBuilder:
    """Incremental trace construction with amortised append.

    Buffers records into Python lists and converts to columnar numpy
    storage once at :meth:`build` (see :meth:`Trace.from_records`).
    """

    def __init__(self) -> None:
        self._pc: List[int] = []
        self._target: List[int] = []
        self._taken: List[bool] = []

    def append(self, pc: int, target: int, taken: bool) -> None:
        """Record one dynamic branch."""
        if pc < 0 or target < 0:
            raise ValueError("branch addresses must be non-negative")
        self._pc.append(pc)
        self._target.append(target)
        self._taken.append(bool(taken))

    def append_record(self, record: BranchRecord) -> None:
        self.append(record.pc, record.target, record.taken)

    def __len__(self) -> int:
        return len(self._pc)

    def build(self) -> Trace:
        """Freeze the buffered branches into an immutable :class:`Trace`."""
        return Trace(self._pc, self._target, self._taken)
