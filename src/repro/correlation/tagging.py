"""Instance tagging and correlation-data collection (section 3.2).

In tight loops several iterations fit inside the history window, so a
static branch address alone cannot identify *which* dynamic instance of a
prior branch we are correlating with.  The paper tags every prior branch
two ways and keeps both tag sets as distinct correlation candidates:

1. **Occurrence numbering** (``TAG_OCCURRENCE``): number instances of a
   static branch back from the current branch -- the most recent
   occurrence of A is A0, the next A1, ...  Stable for branches that
   execute every iteration, ambiguous across iterations otherwise.
2. **Backward-branch counting** (``TAG_BACKWARD``): tag an instance by
   how many backward (loop-closing) branches executed between it and the
   current branch -- a proxy for "how many iterations ago".  Stable
   within a loop, ambiguous for branches before the loop.

The collector tags every ``(position, depth)`` pair of the trace with the
*maximum* history window (32, the largest the paper sweeps in figure 5)
into one columnar :class:`CorrelationTable` -- the table the result
cache stores -- recording the depth of every tagged appearance, so any
smaller window is analysed by filtering on depth: numbering under both
schemes counts from the current branch and is therefore window-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.trace.trace import Trace

#: Tag kinds (section 3.2's two schemes).
TAG_OCCURRENCE = 0
TAG_BACKWARD = 1

#: A correlation candidate: (scheme, static branch address, instance number).
TagKey = Tuple[int, int, int]

#: Three-state outcome of a tagged branch relative to the current branch
#: (section 3.4: "taken, not taken or not in the path").
STATE_ABSENT = 0
STATE_NOT_TAKEN = 1
STATE_TAKEN = 2

#: Largest history window the paper examines (figure 5 sweeps 8..32).
MAX_WINDOW = 32


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` for every pair."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(np.asarray(starts, dtype=np.int64) - offsets, lengths) + (
        np.arange(int(lengths.sum()), dtype=np.int64)
    )


#: Columns sharing one row set: instances, tags, entries.
_ROW_SETS = (
    ("inst_branch", "inst_index", "inst_outcome"),
    ("tag_branch", "tag_scheme", "tag_pc", "tag_number"),
    ("entry_tag", "entry_instance", "entry_depth", "entry_outcome"),
)


@dataclass(eq=False)
class CorrelationTable:
    """Tagged-correlation observations of one trace, as columns.

    ``pcs`` maps branch rows to addresses (ascending).  Instance rows are
    grouped by branch row, execution order within; tag rows are sorted
    by ``(branch, scheme, pc, number)``; entry rows -- one per
    appearance of a tag in an instance's window -- by ``(tag,
    instance)``.  So a branch's instances and tags, and a tag's entries,
    are contiguous slices (``branch_offsets``, ``tag_offsets``,
    ``entry_offsets``).  ``entry_depth`` is the distance back in
    branches (>= 1) and ``entry_outcome`` the tagged branch's outcome.
    A tag appears at most once per instance, so a depth filter yields
    each instance's three-state value directly.
    """

    window: int
    trace_length: int
    pcs: np.ndarray
    inst_branch: np.ndarray
    inst_index: np.ndarray
    inst_outcome: np.ndarray
    tag_branch: np.ndarray
    tag_scheme: np.ndarray
    tag_pc: np.ndarray
    tag_number: np.ndarray
    entry_tag: np.ndarray
    entry_instance: np.ndarray
    entry_depth: np.ndarray
    entry_outcome: np.ndarray

    def __post_init__(self) -> None:
        # A damaged table (say, a cache entry) fails here, not mid-oracle.
        self.window, self.trace_length = int(self.window), int(self.trace_length)
        for names in (("pcs",),) + _ROW_SETS:
            shapes = {getattr(self, name).shape for name in names}
            if len(shapes) != 1 or len(shapes.pop()) != 1:
                raise ValueError(f"correlation columns {names} are malformed")
            for name in names:
                column = getattr(self, name)
                if column.dtype.kind not in ("b" if name.endswith("outcome") else "iu"):
                    raise ValueError(f"correlation column {name} is {column.dtype}")
                column.flags.writeable = False
        self.branch_offsets = _offsets(self.inst_branch, len(self.pcs))
        self.tag_offsets = _offsets(self.tag_branch, len(self.pcs))
        self.entry_offsets = _offsets(self.entry_tag, len(self.tag_branch))
        instance = self.entry_instance
        if len(instance) and not 0 <= instance.min() <= instance.max() < len(
            self.inst_index
        ):
            raise ValueError("correlation entries name unknown instances")

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column by name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def branches(self) -> Dict[int, "BranchView"]:
        """Read-only per-branch views, keyed by address in ascending order."""
        return {pc: BranchView(self, row) for row, pc in enumerate(self.pcs.tolist())}

    def tag_keys(self, rows: np.ndarray) -> list:
        """The :data:`TagKey` of each tag row."""
        columns = (self.tag_scheme, self.tag_pc, self.tag_number)
        return list(zip(*(column[rows].tolist() for column in columns)))

    def find_tags(self, branch: Sequence[int], keys: Sequence[TagKey]) -> np.ndarray:
        """Tag rows of ``keys[i]`` under branch row ``branch[i]``.

        Raises:
            KeyError: When a branch never saw one of the tags.
        """
        if not len(keys):
            return np.zeros(0, dtype=np.int64)
        columns = (self.tag_branch, self.tag_scheme, self.tag_pc, self.tag_number)
        query = [
            np.array(values, dtype=column.dtype)
            for values, column in zip((branch, *zip(*keys)), columns)
        ]
        rows = np.searchsorted(self._tag_codes, self._tag_code(*query))
        rows = np.minimum(rows, max(len(self.tag_branch) - 1, 0))
        found = len(self.tag_branch) > 0 and np.all(
            [column[rows] == value for column, value in zip(columns, query)], axis=0
        )
        if not np.all(found):
            raise KeyError(keys[int(np.argmin(found))])
        return rows

    def _tag_code(self, branch, scheme, pc, number) -> np.ndarray:
        pc_row = np.searchsorted(self.pcs, pc)
        head = (branch.astype(np.int64) * 2 + scheme) * len(self.pcs) + pc_row
        return head * MAX_WINDOW + number

    @cached_property
    def _tag_codes(self) -> np.ndarray:
        # Ascending, as tag rows sort by (branch, scheme, pc, number).
        return self._tag_code(
            self.tag_branch, self.tag_scheme, self.tag_pc, self.tag_number
        )

    def fill_states(self, tags: np.ndarray, window: int) -> np.ndarray:
        """Dense three-state rows of ``tags`` under a ``window``-deep history.

        Row ``r`` spans every instance of ``tags[r]``'s branch in execution
        order, holding :data:`STATE_ABSENT`, :data:`STATE_NOT_TAKEN` or
        :data:`STATE_TAKEN`; rows are concatenated in ``tags`` order.
        """
        tags = np.asarray(tags, dtype=np.int64)
        first = self.branch_offsets[self.tag_branch[tags]]
        lengths = self.branch_offsets[self.tag_branch[tags] + 1] - first
        counts = self.entry_offsets[tags + 1] - self.entry_offsets[tags]
        entries = expand_ranges(self.entry_offsets[tags], counts)
        visible = self.entry_depth[entries] <= window
        entries = entries[visible]
        shift = np.repeat(np.cumsum(lengths) - lengths - first, counts)[visible]
        states = np.zeros(int(lengths.sum()), dtype=np.int8)
        states[shift + self.entry_instance[entries]] = 1 + self.entry_outcome[entries]
        return states


def _offsets(owner: np.ndarray, groups: int) -> np.ndarray:
    """``groups + 1`` slice bounds of a column sorted by owner row."""
    if len(owner) and (owner[0] < 0 or owner[-1] >= groups or (np.diff(owner) < 0).any()):
        raise ValueError("correlation rows are not grouped by owner")
    return np.searchsorted(owner, np.arange(groups + 1)).astype(np.int64)


class BranchView:
    """Read-only view of one static branch's rows of a table.

    Attributes:
        pc: The static branch address.
        trace_indices: Trace positions of the branch's dynamic instances,
            in execution order.
        outcomes: The branch's outcome per instance.
    """

    def __init__(self, table: CorrelationTable, row: int) -> None:
        self.table, self.row, self.pc = table, row, int(table.pcs[row])
        first, last = table.branch_offsets[row : row + 2]
        self.trace_indices = table.inst_index[first:last]
        self.outcomes = table.inst_outcome[first:last]

    def num_instances(self) -> int:
        return len(self.outcomes)

    @cached_property
    def _tag_rows(self) -> Dict[TagKey, int]:
        lo, hi = self.table.tag_offsets[self.row : self.row + 2]
        return dict(zip(self.table.tag_keys(np.arange(lo, hi)), range(lo, hi)))

    @property
    def tags(self) -> Tuple[TagKey, ...]:
        """Every candidate tag seen in the branch's windows, by key."""
        return tuple(self._tag_rows)

    def state_vector(self, tag: TagKey, window: int) -> np.ndarray:
        """Dense per-instance state of ``tag`` under a ``window``-branch history."""
        return self.table.fill_states([self._tag_rows[tag]], window)


def collect_correlation_data(
    trace: Trace, window: int = MAX_WINDOW
) -> CorrelationTable:
    """Tag every branch in every ``window``-deep history, with array ops.

    For each depth ``d`` the pairs ``(i, j = i - d)`` form two columns:

    * the occurrence number of ``j`` is the count of same-address
      positions in ``(j, i)``, read off a searchsorted over the
      address-grouped positions;
    * the backward count is ``bwd_cum[i] - bwd_cum[j + 1]``; a backward
      tag repeats a shallower one exactly when the next same-address
      position after ``j`` is reached with no backward branch in
      between, so such entries are dropped (shallowest wins).

    Args:
        trace: The branch trace to analyse.
        window: History depth, in ``[1, MAX_WINDOW]``.
    """
    if not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window must be in [1, {MAX_WINDOW}], got {window}")
    n = len(trace)
    pcs, branch_of = np.unique(trace.pc, return_inverse=True)
    branch_of = branch_of.reshape(-1).astype(np.int64)
    taken = trace.taken
    # Instance rows: positions grouped by branch, execution order within.
    order = np.argsort(branch_of, kind="stable")
    instance_of = np.empty(n, dtype=np.int64)
    instance_of[order] = np.arange(n)
    grouped = branch_of[order] * (n + 1) + order
    bwd_cum = np.concatenate(([0], np.cumsum(trace.is_backward, dtype=np.int64)))
    # A position repeats as a backward tag when its branch's next
    # position comes with no backward branch in between.
    repeats = np.zeros(n, dtype=bool)
    repeats[order[:-1]] = (branch_of[order[1:]] == branch_of[order[:-1]]) & (
        bwd_cum[order[1:] + 1] == bwd_cum[order[:-1] + 1]
    )
    empty = np.zeros(0, dtype=np.int64)
    codes, positions, priors = [empty], [empty], [empty]
    radix = len(pcs)
    for depth in range(1, min(window, n - 1) + 1):
        i = np.arange(depth, n)
        j = i - depth
        prior = branch_of[j]
        occurrence = np.searchsorted(grouped, prior * (n + 1) + i) - instance_of[j] - 1
        backward = bwd_cum[i] - bwd_cum[j + 1]
        head = branch_of[i] * 2 * radix + prior
        kept = (occurrence == 0) | ~repeats[j]
        codes += [
            (head + TAG_OCCURRENCE * radix) * MAX_WINDOW + occurrence,
            ((head + TAG_BACKWARD * radix) * MAX_WINDOW + backward)[kept],
        ]
        positions += [i, i[kept]]
        priors += [j, j[kept]]

    tag_codes, entry_tag = np.unique(np.concatenate(codes), return_inverse=True)
    entry_tag = entry_tag.reshape(-1)
    instance = instance_of[np.concatenate(positions)]
    sort = np.argsort(entry_tag * max(n, 1) + instance)
    prior = np.concatenate(priors)[sort]
    rest, number = np.divmod(tag_codes, MAX_WINDOW)
    rest, prior_row = np.divmod(rest, radix)
    branch, scheme = np.divmod(rest, 2)
    row_dtype = np.int32 if max(n, len(tag_codes)) < 2**31 else np.int64
    return CorrelationTable(
        window=window,
        trace_length=n,
        pcs=pcs,
        inst_branch=branch_of[order].astype(row_dtype),
        inst_index=order.astype(row_dtype),
        inst_outcome=taken[order],
        tag_branch=branch.astype(row_dtype),
        tag_scheme=scheme.astype(np.int8),
        tag_pc=pcs[prior_row],
        tag_number=number.astype(np.uint8),
        entry_tag=entry_tag[sort].astype(row_dtype),
        entry_instance=instance[sort].astype(row_dtype),
        entry_depth=(order[instance[sort]] - prior).astype(np.uint8),
        entry_outcome=taken[prior],
    )
