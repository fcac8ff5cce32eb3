"""Saturating up-down counters and pattern history tables.

Smith's 2-bit saturating counter is the second-level storage of every
adaptive predictor in the paper: the counter increments (saturating) when
the branch is taken, decrements when not taken, and predicts taken when its
most-significant bit is set.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class SaturatingCounter:
    """A single n-bit saturating up-down counter.

    The default width of 2 bits matches the paper.  A counter of width
    ``bits`` saturates at ``2**bits - 1`` and predicts taken when its value
    is at least ``2**(bits-1)`` (MSB set).

    Args:
        bits: Counter width in bits; must be >= 1.
        initial: Starting value.  The paper does not state an initial
            value; we default to weakly-taken (``2**(bits-1)``), the
            common simulator choice -- most branches are taken-biased,
            and on scaled-down traces cold counters matter.
    """

    __slots__ = ("_bits", "_max", "_threshold", "value")

    def __init__(self, bits: int = 2, initial: Optional[int] = None) -> None:
        if bits < 1:
            raise ValueError(f"counter width must be >= 1, got {bits}")
        self._bits = bits
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        if initial is None:
            initial = self._threshold
        if not 0 <= initial <= self._max:
            raise ValueError(
                f"initial value {initial} out of range [0, {self._max}]"
            )
        self.value = initial

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def max_value(self) -> int:
        return self._max

    def predict(self) -> bool:
        """Predict taken iff the most-significant bit is set."""
        return self.value >= self._threshold

    def update(self, taken: bool) -> None:
        """Increment on taken, decrement on not-taken, saturating."""
        if taken:
            if self.value < self._max:
                self.value += 1
        elif self.value > 0:
            self.value -= 1

    def is_saturated(self) -> bool:
        return self.value in (0, self._max)

    def __repr__(self) -> str:
        return f"SaturatingCounter(bits={self._bits}, value={self.value})"


class CounterTable:
    """A fixed-size array of n-bit saturating counters (a PHT).

    Backed by a numpy ``int8``/``int16`` array; indexing is the caller's
    business (branch address bits, history pattern, xor of both, ...).
    """

    __slots__ = ("_bits", "_max", "_threshold", "_table")

    def __init__(self, size: int, bits: int = 2, initial: Optional[int] = None) -> None:
        if size < 1:
            raise ValueError(f"table size must be >= 1, got {size}")
        if bits < 1:
            raise ValueError(f"counter width must be >= 1, got {bits}")
        self._bits = bits
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        if initial is None:
            initial = self._threshold
        if not 0 <= initial <= self._max:
            raise ValueError(f"initial value {initial} out of range")
        dtype = np.int8 if bits <= 7 else np.int16
        self._table = np.full(size, initial, dtype=dtype)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def max_value(self) -> int:
        return self._max

    @property
    def threshold(self) -> int:
        """Counter values at or above this predict taken (MSB set)."""
        return self._threshold

    @property
    def raw(self) -> np.ndarray:
        """The backing counter array (mutable; used by the sim kernels)."""
        return self._table

    def predict(self, index: int) -> bool:
        """Prediction of the counter at ``index``."""
        return bool(self._table[index] >= self._threshold)

    def update(self, index: int, taken: bool) -> None:
        """Train the counter at ``index`` with the resolved outcome."""
        value = self._table[index]
        if taken:
            if value < self._max:
                self._table[index] = value + 1
        elif value > 0:
            self._table[index] = value - 1

    def value(self, index: int) -> int:
        return int(self._table[index])

    def fill(self, value: int) -> None:
        """Reset every counter to ``value``."""
        if not 0 <= value <= self._max:
            raise ValueError(f"value {value} out of range [0, {self._max}]")
        self._table[:] = value


class SortedCells:
    """An unbounded map of keys to integers, as two sorted arrays.

    Vector reads and writes take a sorted array of distinct keys
    (``cells[keys]``, ``cells[keys] = values``), which is how the sim
    kernels merge a whole window of cells at once; :meth:`get` and
    :meth:`put` do one key.  Absent keys read as ``default``.  A key the
    key dtype cannot hold (past int64, or not an integer) turns the key
    column into Python objects.
    """

    __slots__ = ("keys", "values", "default")

    def __init__(self, key_dtype, value_dtype, default: int) -> None:
        self.keys = np.zeros(0, dtype=key_dtype)
        self.values = np.zeros(0, dtype=value_dtype)
        self.default = default

    def __len__(self) -> int:
        return len(self.keys)

    def _find(self, keys: np.ndarray):
        if keys.dtype == object:
            self.keys = self.keys.astype(object)
        positions = np.searchsorted(self.keys, keys)
        found = positions < len(self.keys)
        found[found] = self.keys[positions[found]] == keys[found]
        return positions, found

    def __getitem__(self, keys: np.ndarray) -> np.ndarray:
        positions, found = self._find(keys)
        values = np.full(len(keys), self.default, dtype=self.values.dtype)
        values[found] = self.values[positions[found]]
        return values

    def __setitem__(self, keys: np.ndarray, values: np.ndarray) -> None:
        positions, found = self._find(keys)
        self.values[positions[found]] = values[found]
        missing = ~found
        if missing.any():
            self.keys = np.insert(self.keys, positions[missing], keys[missing])
            self.values = np.insert(
                self.values, positions[missing], values[missing]
            )

    def get(self, key) -> int:
        return int(self[self._one(key)][0])

    def put(self, key, value: int) -> None:
        self[self._one(key)] = np.asarray([value])

    def _one(self, key) -> np.ndarray:
        try:
            return np.asarray([key], dtype=self.keys.dtype)
        except (OverflowError, ValueError):
            return np.asarray([key], dtype=object)


class SparseCounterBank(SortedCells):
    """An unbounded bank of counters, stored only once touched.

    Interference-free predictors give every static branch its own PHT; a
    dense array per branch (2^16 counters for a 16-bit history) would be
    wasteful, and the paper's "perfect BTB" structures are unbounded maps.
    Missing keys behave as freshly-initialised counters.
    """

    __slots__ = ("_bits", "_max", "_threshold")

    def __init__(self, bits: int = 2, initial: Optional[int] = None) -> None:
        if bits < 1:
            raise ValueError(f"counter width must be >= 1, got {bits}")
        self._bits = bits
        self._max = (1 << bits) - 1
        self._threshold = 1 << (bits - 1)
        initial = self._threshold if initial is None else initial
        if not 0 <= initial <= self._max:
            raise ValueError(f"initial value {initial} out of range")
        super().__init__(np.int64, np.int8 if bits <= 7 else np.int16, initial)

    @property
    def max_value(self) -> int:
        return self._max

    @property
    def threshold(self) -> int:
        """Counter values at or above this predict taken (MSB set)."""
        return self._threshold

    def predict(self, key) -> bool:
        return self.get(key) >= self._threshold

    def update(self, key, taken: bool) -> None:
        value = self.get(key)
        if taken:
            self.put(key, min(value + 1, self._max))
        else:
            self.put(key, max(value - 1, 0))

    def value(self, key) -> int:
        return self.get(key)
