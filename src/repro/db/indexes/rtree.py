"""Grid-bucketed spatial index: the functional equivalent of an R-tree.

Points are assigned to fixed-size grid cells over the data's bounding box.
A box lookup gathers candidates from all intersecting cells, then filters
candidates from boundary cells exactly.  ``entries_scanned`` counts every
candidate examined (interior-cell points are accepted without an exact test,
boundary-cell points each cost one check) — the same access-path behaviour
an R-tree range query exhibits.

The index answers every probe with one kernel, :meth:`GridIndex.lookup_batch`:
interior-cell candidates are provably inside the box and boundary cells are
filtered exactly, so the matches are exactly the points inside the box — a
vectorized compare of every point against the box.  ``entries_scanned`` —
every candidate in the covered cell rectangle — comes from 2D prefix sums of
per-cell entry counts.  Appended points that stay inside the data extent
only add their cell counts to the prefix sums (:meth:`GridIndex.extend`).
"""

from __future__ import annotations

import numpy as np

from ..predicates import Predicate, SpatialPredicate
from ..table import Table
from .base import Index, IndexLookup

_EMPTY = np.empty(0, dtype=np.int64)


class GridIndex(Index):
    """Spatial index over a POINT column."""

    kind = "rtree"

    def __init__(self, table: Table, column: str, grid_size: int = 64) -> None:
        super().__init__(table.name, column)
        if grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        self.grid_size = grid_size
        self.n_entries = 0
        # Contiguous per-axis copies: the lookup broadcasts compares against
        # them, and strided (n, 2) column views halve the throughput.
        self._x = np.empty(0)
        self._y = np.empty(0)
        # 2D inclusive prefix sums of per-cell entry counts, so a lookup
        # charges a whole cell rectangle in O(1).
        self._prefix = np.zeros((grid_size + 1, grid_size + 1), dtype=np.int64)
        # Data extent (min and max corners); the span guards against
        # degenerate (single-point) extents.
        self._min = np.zeros(2)
        self._max = np.zeros(2)
        self._span = np.ones(2)
        self.extend(table)

    def extend(self, table: Table) -> None:
        """Absorb points ``n_entries..``.  If every new point lies inside the
        current data extent the cell mapping is unchanged, so their per-cell
        counts add onto the prefix sums; otherwise the extent moved and every
        point is re-bucketed over the new extent."""
        pts = table.points(self.column)
        added = pts[self.n_entries :]
        if len(added) == 0:
            return
        inside = (
            self.n_entries > 0
            and bool(np.all(added.min(axis=0) >= self._min))
            and bool(np.all(added.max(axis=0) <= self._max))
        )
        self._x = np.concatenate([self._x, added[:, 0]])
        self._y = np.concatenate([self._y, added[:, 1]])
        self.n_entries = len(pts)
        if not inside:
            self._min = pts.min(axis=0)
            self._max = pts.max(axis=0)
            span = self._max - self._min
            self._span = np.where(span > 0, span, 1.0)
            self._prefix = np.zeros_like(self._prefix)
            added = pts
        grid = self.grid_size
        cells = self._cell_of(added)
        counts = np.bincount(
            cells[:, 0] * grid + cells[:, 1], minlength=grid * grid
        ).reshape(grid, grid)
        self._prefix[1:, 1:] += counts.cumsum(axis=0).cumsum(axis=1)

    def _cell_of(self, pts: np.ndarray) -> np.ndarray:
        scaled = (pts - self._min) / self._span * self.grid_size
        # Clip in float space first: query corners far outside the data
        # extent can overflow an int64 cast (inf -> garbage).
        scaled = np.clip(scaled, 0.0, self.grid_size - 1)
        return scaled.astype(np.int64)

    def supports(self, predicate: Predicate) -> bool:
        return isinstance(predicate, SpatialPredicate) and predicate.column == self.column

    def _entries(self, boxes: np.ndarray) -> np.ndarray:
        """Entries in each ``(min_x, min_y, max_x, max_y)`` box's covered
        cell rectangle, from the prefix sums."""
        corners = np.stack([boxes[:, :2], boxes[:, 2:]], axis=1).reshape(-1, 2)
        cells = self._cell_of(corners).reshape(len(boxes), 2, 2)
        lo_x, lo_y = cells[:, 0, 0], cells[:, 0, 1]
        hi_x, hi_y = cells[:, 1, 0] + 1, cells[:, 1, 1] + 1
        prefix = self._prefix
        return (
            prefix[hi_x, hi_y]
            - prefix[lo_x, hi_y]
            - prefix[hi_x, lo_y]
            + prefix[lo_x, lo_y]
        )

    def _boxes(self, predicates: list[Predicate]) -> np.ndarray:
        for predicate in predicates:
            if not self.supports(predicate):
                raise self._reject(predicate)
        return np.array(
            [
                [p.box.min_x, p.box.min_y, p.box.max_x, p.box.max_y]  # type: ignore[attr-defined]
                for p in predicates
            ]
        ).reshape(-1, 4)

    def entries_for(self, predicate: Predicate) -> int:
        """Entries a :meth:`lookup` would scan, from the 2D prefix sums."""
        boxes = self._boxes([predicate])
        if self.n_entries == 0:
            return 0
        return int(self._entries(boxes)[0])

    def lookup_batch(self, predicates: list[Predicate]) -> list[IndexLookup]:
        """Answer box predicates with one vectorized compare per chunk."""
        boxes = self._boxes(predicates)
        if not predicates:
            return []
        if self.n_entries == 0:
            return [IndexLookup(row_ids=_EMPTY, entries_scanned=0)] * len(predicates)

        entries = self._entries(boxes).tolist()
        x, y = self._x, self._y
        results: list[IndexLookup] = []
        # Chunks of ~1M point-box compares, combined in place, bound the
        # sweep's scratch memory to a few MB whatever the batch size.
        chunk = max(1, 1_000_000 // self.n_entries)
        for start in range(0, len(predicates), chunk):
            part = boxes[start : start + chunk]
            inside = x[None, :] >= part[:, 0, None]
            inside &= x[None, :] <= part[:, 2, None]
            inside &= y[None, :] >= part[:, 1, None]
            inside &= y[None, :] <= part[:, 3, None]
            for offset in range(len(part)):
                results.append(
                    IndexLookup(
                        row_ids=np.flatnonzero(inside[offset]).astype(np.int64),
                        entries_scanned=entries[start + offset],
                    )
                )
        return results
