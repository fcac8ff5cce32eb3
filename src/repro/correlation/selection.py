"""Oracle selection of the most important correlated branches (section 3.4).

The paper's hypothetical selective-history predictor records only the 1, 2
or 3 *most important* prior branches, chosen by an oracle.  The paper does
not specify the oracle's search procedure; we use the standard
approximation (documented in DESIGN.md):

* every candidate tag is scored alone by the accuracy an *ideal table*
  (per-pattern majority) would reach over the branch's whole run;
* candidates below a support threshold are pruned;
* the best single candidate is found exhaustively, the best pair
  exhaustively over the ``top_k`` singles, and the best triple by greedy
  extension of the best pair.

The reported experiment numbers never use these ideal-table scores
directly: the chosen tags are *replayed* with 2-bit saturating counters
(:mod:`repro.predictors.selective`), exactly as the paper's predictor
operates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.correlation.tagging import (
    BranchView,
    CorrelationTable,
    TagKey,
    expand_ranges,
)


@dataclass(frozen=True)
class SelectionConfig:
    """Oracle search parameters.

    Attributes:
        window: History depth (the paper's n, 8..32; default 16).
        top_k: Number of top-scoring single candidates admitted to the
            pair/triple search.
        min_support_fraction: A candidate must appear in at least this
            fraction of the branch's instances...
        min_support_absolute: ...and at least this many instances.
        tag_kinds: Restrict candidates to these tagging schemes
            (:data:`~repro.correlation.tagging.TAG_OCCURRENCE` and/or
            :data:`~repro.correlation.tagging.TAG_BACKWARD`).  ``None``
            uses both, as the paper does; the ablation benches use the
            restriction to measure what each scheme contributes.
    """

    window: int = 16
    top_k: int = 12
    min_support_fraction: float = 0.05
    min_support_absolute: int = 4
    tag_kinds: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class Selection:
    """The oracle's choice for one static branch.

    Attributes:
        tags: The chosen correlated branches (possibly fewer than
            requested when a branch has too few qualified candidates).
        ideal_accuracy: Ideal-table accuracy of the chosen set; an upper
            bound on what counter-based replay can achieve.
    """

    tags: Tuple[TagKey, ...]
    ideal_accuracy: float


def single_tag_score(branch: BranchView, tag: TagKey, window: int) -> float:
    """Ideal-table accuracy of predicting ``branch`` from ``tag`` alone.

    Instances are bucketed by the tag's three-state outcome (taken /
    not-taken / not-in-path); within each bucket the majority direction is
    counted correct.
    """
    return joint_ideal_accuracy([branch.state_vector(tag, window)], branch.outcomes)


def joint_ideal_accuracy(
    state_vectors: Sequence[np.ndarray], outcomes: np.ndarray
) -> float:
    """Ideal-table accuracy over the joint 3**c-pattern history.

    Args:
        state_vectors: One dense three-state vector per chosen tag.
        outcomes: The branch's outcomes, aligned with the vectors.
    """
    n = len(outcomes)
    if n == 0:
        return 0.0
    combined = np.zeros(n, dtype=np.int64)
    for states in state_vectors:
        combined = combined * 3 + states
    keys = combined * 2 + outcomes
    counts = np.bincount(keys, minlength=2 * 3 ** len(state_vectors))
    pairs = counts.reshape(-1, 2)
    return float(pairs.max(axis=1).sum()) / n


#: Joint keys one oracle block may build: whole branches are grouped
#: until their pair pass (``top_k``-choose-2 keys per instance) would
#: exceed this, bounding the pass's memory on long traces.
PASS_ELEMENT_BUDGET = 1 << 20


def _joint_correct(
    states: np.ndarray,
    rows: Sequence[np.ndarray],
    starts: np.ndarray,
    lengths: np.ndarray,
    outcomes: np.ndarray,
    space: int,
) -> np.ndarray:
    """Ideal-table correct counts of many joint histories in one bincount.

    Candidate ``c``'s pattern at its instance ``x`` joins ``states[row[c]
    + x]`` over ``rows``; its outcome is ``outcomes[starts[c] + x]``.
    """
    pattern = np.zeros(int(lengths.sum()), dtype=np.int64)
    for row in rows:
        pattern = pattern * 3 + states[expand_ranges(row, lengths)]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    keys = (owner * space + pattern) * 2 + outcomes[expand_ranges(starts, lengths)]
    counts = np.bincount(keys, minlength=len(lengths) * space * 2)
    return np.maximum(counts[0::2], counts[1::2]).reshape(-1, space).sum(axis=1)


def _first_best(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """First maximum (what a strict-``>`` scan keeps) of each run of ``sizes``."""
    if not len(sizes):
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    best = np.repeat(np.maximum.reduceat(values, starts), sizes)
    index = np.arange(len(values))
    return np.minimum.reduceat(np.where(values == best, index, len(values)), starts)


def _oracle_block(
    table: CorrelationTable, config: SelectionConfig, lo: int, hi: int
) -> Tuple[List[Selection], List[Selection], List[Selection]]:
    """Selections of 1, 2 and 3 tags for branch rows ``lo:hi``, in one pass.

    Every ``(branch, tag)`` is scored with one bincount and ranked with
    one lexsort by (branch, -score, tag); the pair search over each
    branch's ``top_k`` and the greedy third run as segmented joint-key
    bincounts over all the block's branches at once.  Scores compare as
    integer correct counts, which order exactly like the
    ``correct / instances`` floats they become.
    """
    window, top_k = config.window, config.top_k
    first = table.branch_offsets[lo:hi]
    n = table.branch_offsets[lo + 1 : hi + 1] - first
    starts = first - first[0]
    outcomes = table.inst_outcome[first[0] : first[0] + n.sum()].astype(np.int64)
    taken = np.add.reduceat(outcomes, starts)
    t_lo, t_hi = table.tag_offsets[[lo, hi]]
    e_lo, e_hi = table.entry_offsets[[t_lo, t_hi]]

    # Every tag alone: bucket counts of (tag, tag state, branch outcome).
    visible = table.entry_depth[e_lo:e_hi] <= window
    tag = table.entry_tag[e_lo:e_hi][visible].astype(np.int64) - t_lo
    instance = table.entry_instance[e_lo:e_hi][visible].astype(np.int64) - first[0]
    present = table.entry_outcome[e_lo:e_hi][visible]
    counts = np.bincount(
        tag * 4 + present * 2 + outcomes[instance], minlength=4 * (t_hi - t_lo)
    ).reshape(-1, 4)
    owner = table.tag_branch[t_lo:t_hi].astype(np.int64) - lo
    support = counts.sum(axis=1)
    floor = np.maximum(
        config.min_support_absolute, (config.min_support_fraction * n).astype(np.int64)
    )
    qualified = support >= floor[owner]
    if config.tag_kinds is not None:
        qualified &= np.isin(table.tag_scheme[t_lo:t_hi], config.tag_kinds)
    absent_taken = taken[owner] - counts[:, 1] - counts[:, 3]
    absent = n[owner] - support
    correct = (
        np.maximum(counts[:, 2], counts[:, 3])
        + np.maximum(counts[:, 0], counts[:, 1])
        + np.maximum(absent_taken, absent - absent_taken)
    )

    # Rank; each branch's top_k qualified tags become its slots.
    ranked = np.nonzero(qualified)[0]
    ranked = ranked[np.lexsort((ranked, -correct[ranked], owner[ranked]))]
    qualifying = np.bincount(owner[ranked], minlength=hi - lo)
    rank = np.arange(len(ranked)) - np.repeat(np.cumsum(qualifying) - qualifying, qualifying)
    slots = ranked[rank < top_k]
    k = np.minimum(qualifying, top_k)
    slot0 = np.cumsum(k) - k
    single = np.zeros(hi - lo, dtype=np.int64)
    single[k > 0] = correct[slots[slot0[k > 0]]]
    states = table.fill_states(slots + t_lo, window)
    row = np.cumsum(n[owner[slots]]) - n[owner[slots]]

    # Every pair of each branch's slots, in combinations() order.  A
    # pair is right at most n times, so a perfect single cannot be beaten.
    left, right = np.triu_indices(top_k, 1)
    paired = np.nonzero((k >= 2) & (single < n))[0]
    which, pair = np.nonzero(right[None, :] < k[paired, None])
    pair_branch = paired[which]
    base = slot0[pair_branch]
    pair_correct = _joint_correct(
        states, (row[base + left[pair]], row[base + right[pair]]),
        starts[pair_branch], n[pair_branch], outcomes, 9,
    )
    best_pair = _first_best(pair_correct, k[paired] * (k[paired] - 1) // 2)
    improved = pair_correct[best_pair] > single[paired]
    grown, best_pair = paired[improved], best_pair[improved]
    pair_slots = (slot0[grown] + left[pair[best_pair]], slot0[grown] + right[pair[best_pair]])

    # Greedy third: every other slot appended to an improving, imperfect
    # best pair.
    extendable = np.nonzero((k[grown] >= 3) & (pair_correct[best_pair] < n[grown]))[0]
    others = np.arange(top_k)[None, :]
    which, third = np.nonzero(
        (others < k[grown[extendable], None])
        & (others + slot0[grown[extendable], None] != pair_slots[0][extendable, None])
        & (others + slot0[grown[extendable], None] != pair_slots[1][extendable, None])
    )
    held = extendable[which]
    triple_slots = (pair_slots[0][held], pair_slots[1][held], slot0[grown[held]] + third)
    triple_correct = _joint_correct(
        states, tuple(row[s] for s in triple_slots),
        starts[grown[held]], n[grown[held]], outcomes, 27,
    )
    best_triple = _first_best(triple_correct, k[grown[extendable]] - 2)
    better = best_triple[triple_correct[best_triple] > pair_correct[best_pair[extendable]]]

    # Each count keeps the smaller set it failed to beat.
    def place(selections, branches, chosen_slots, chosen_correct):
        keys = [table.tag_keys(slots[chosen] + t_lo) for chosen in chosen_slots]
        scores = (chosen_correct / n[branches]).tolist()
        for index, score, *tags in zip(branches.tolist(), scores, *keys):
            selections[index] = Selection(tuple(tags), score)

    rate = taken / n
    ones = [Selection((), bias) for bias in np.maximum(rate, 1.0 - rate).tolist()]
    has = np.nonzero(k)[0]
    place(ones, has, (slot0[has],), single[has])
    twos = list(ones)
    place(twos, grown, pair_slots, pair_correct[best_pair])
    threes = list(twos)
    place(
        threes, grown[held[better]], tuple(s[better] for s in triple_slots),
        triple_correct[better],
    )
    return ones, twos, threes


def select_counts(
    data: CorrelationTable, config: SelectionConfig = SelectionConfig()
) -> Dict[int, Dict[int, Selection]]:
    """``{count: {branch address: Selection}}`` for counts 1, 2 and 3, in one pass.

    Branches go in ascending address order, in blocks of whole branches
    under :data:`PASS_ELEMENT_BUDGET`.
    """
    if config.window > data.window:
        raise ValueError(
            f"analysis window {config.window} exceeds collection window "
            f"{data.window}"
        )
    selections: Dict[int, Dict[int, Selection]] = {1: {}, 2: {}, 3: {}}
    n = np.diff(data.branch_offsets)
    if not len(n):
        return selections
    cost = n * max(1, config.top_k * (config.top_k - 1) // 2)
    block = (np.cumsum(cost) - cost) // PASS_ELEMENT_BUDGET
    edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(n)]
    pcs = data.pcs.tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        for count, chosen in zip((1, 2, 3), _oracle_block(data, config, lo, hi)):
            selections[count].update(zip(pcs[lo:hi], chosen))
    return selections


def select_for_trace(
    data: CorrelationTable,
    count: int,
    config: SelectionConfig = SelectionConfig(),
) -> Dict[int, Selection]:
    """Run the oracle for every static branch (a count above 3 selects like 3).

    Returns:
        Map from branch address to its :class:`Selection`.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return select_counts(data, config)[min(count, 3)]
