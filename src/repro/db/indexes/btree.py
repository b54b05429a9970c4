"""Sorted-array index: the functional equivalent of a B+-tree.

Keys are kept in a sorted numpy array alongside the permutation of row ids,
so a range lookup is two binary searches plus a slice — O(log n + k), the
same asymptotics as a B+-tree range scan, with k "entries scanned" reported
for cost accounting.  Appended rows are merged in (O(n + k log k) for k new
rows) rather than re-sorting the column.
"""

from __future__ import annotations

import numpy as np

from ..predicates import EqualsPredicate, Predicate, RangePredicate
from ..table import Table
from .base import Index, IndexLookup


class SortedIndex(Index):
    """B+-tree equivalent over a numeric or timestamp column."""

    kind = "btree"

    def __init__(self, table: Table, column: str) -> None:
        super().__init__(table.name, column)
        self._sorted_values = np.empty(0, dtype=table.numeric(column).dtype)
        self._row_ids = np.empty(0, dtype=np.int64)
        self.n_entries = 0
        # NaN keys sort last and satisfy no bound, so every search stops at
        # the first NaN.
        self._n_ordered = 0
        self.extend(table)

    def extend(self, table: Table) -> None:
        """Merge rows ``n_entries..`` in: a stable argsort of the new values
        only, each placed after every equal old key
        (``searchsorted(side="right")``).  Ties therefore keep ascending row
        order, exactly as a stable argsort of the whole column does (NaNs
        sort last either way)."""
        new = table.numeric(self.column)[self.n_entries :]
        order = np.argsort(new, kind="stable")
        new_sorted = new[order]
        # Merged position of each new key: after the old keys <= it and
        # after the new keys before it.  Old keys fill the other slots.
        slots = np.searchsorted(self._sorted_values, new_sorted, side="right")
        slots += np.arange(len(new))
        total = self.n_entries + len(new)
        old_slots = np.ones(total, dtype=bool)
        old_slots[slots] = False
        values = np.empty(total, dtype=self._sorted_values.dtype)
        values[slots] = new_sorted
        values[old_slots] = self._sorted_values
        row_ids = np.empty(total, dtype=np.int64)
        row_ids[slots] = order + self.n_entries
        row_ids[old_slots] = self._row_ids
        self._sorted_values, self._row_ids = values, row_ids
        self.n_entries = total
        self._n_ordered += len(new) - int(np.count_nonzero(np.isnan(new)))

    def supports(self, predicate: Predicate) -> bool:
        return (
            isinstance(predicate, (RangePredicate, EqualsPredicate))
            and predicate.column == self.column
        )

    def lookup_batch(self, predicates: list[Predicate]) -> list[IndexLookup]:
        """Range probes: both binary-search ends for every predicate in two
        vectorized ``searchsorted`` calls, then one slice-sort each (the
        sorted output IS the result, so that part cannot be shared)."""
        bounds: list[tuple[float | None, float | None]] = []
        for predicate in predicates:
            if isinstance(predicate, RangePredicate) and predicate.column == self.column:
                bounds.append((predicate.low, predicate.high))
            elif (
                isinstance(predicate, EqualsPredicate)
                and predicate.column == self.column
            ):
                bounds.append((predicate.value, predicate.value))
            else:
                raise self._reject(predicate)
        if not bounds:
            return []
        lows = np.array([0.0 if lo is None else lo for lo, _ in bounds])
        highs = np.array([0.0 if hi is None else hi for _, hi in bounds])
        lo_pos = np.where(
            [lo is None for lo, _ in bounds],
            0,
            self._search(lows, side="left"),
        )
        hi_pos = np.where(
            [hi is None for _, hi in bounds],
            self._n_ordered,
            self._search(highs, side="right"),
        )
        return [
            IndexLookup(
                row_ids=np.sort(self._row_ids[lo:hi]), entries_scanned=max(0, hi - lo)
            )
            for lo, hi in zip(lo_pos.tolist(), hi_pos.tolist())
        ]

    def entries_for(self, predicate: Predicate) -> int:
        """Entries a :meth:`lookup` would scan (= matches), via two searches."""
        if isinstance(predicate, RangePredicate) and predicate.column == self.column:
            return self.count_range(predicate.low, predicate.high)
        if isinstance(predicate, EqualsPredicate) and predicate.column == self.column:
            return self.count_range(predicate.value, predicate.value)
        raise self._reject(predicate)

    def count_range(self, low: float | None, high: float | None) -> int:
        """Cardinality of a range without materializing row ids."""
        lo_pos = 0 if low is None else int(self._search(low, side="left"))
        hi_pos = (
            self._n_ordered if high is None else int(self._search(high, side="right"))
        )
        return max(0, hi_pos - lo_pos)

    def _search(self, keys, side: str):
        """``searchsorted`` over the ordered (non-NaN) keys only."""
        return np.minimum(
            np.searchsorted(self._sorted_values, keys, side=side), self._n_ordered
        )
