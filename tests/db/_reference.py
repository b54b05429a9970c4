"""Pinned per-request execution and grid cell walk — the execution oracles.

The engine runs every execution through one batch pipeline
(``repro/db/batch_executor.py``): ``Database.execute`` is a batch of one,
engine randomness is drawn up front per request, and every index answers
probes with a single ``lookup_batch`` kernel.  This module keeps faithful
copies of the implementations that pipeline replaced:

* :func:`reference_execute` — the request-at-a-time ``Database.execute``:
  draw the hint-obey uniform, plan, run the scan kernel through the
  database's own memoized match/lookup services, aggregate or project,
  then draw instability and noise while applying profile effects;
* :class:`ReferenceGridIndex` — the grid index whose lookup walks the
  box's cells one by one, accepting interior cells whole and filtering
  boundary cells exactly.

``tests/db/test_batch_execution.py`` checks ``execute`` and
``execute_batch`` against :func:`reference_execute` (results, counters,
virtual times, cache deltas, RNG state) and ``GridIndex.lookup_batch``
against the cell walk (``row_ids`` and ``entries_scanned``).

Do not "modernize" this module: its value is that it does NOT change when
the production executor or indexes do.
"""

from __future__ import annotations

import numpy as np

from repro.db import Database, ExecutionResult, SelectQuery, SpatialPredicate, Table
from repro.db.binning import bin_counts
from repro.db.indexes import IndexLookup

_EMPTY = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# Request-at-a-time execution
# ----------------------------------------------------------------------
def reference_execute(db: Database, query: SelectQuery) -> ExecutionResult:
    """Plan and run one query, with profile noise/caching effects applied."""
    before = db._cache_counts()
    obeyed = True
    if query.hints is not None and db.profile.hint_ignore_prob > 0:
        obeyed = db._rng.random() >= db.profile.hint_ignore_prob
    was_planned = (query.key(), obeyed) in db._plan_cache
    plan = db._planned(query, obeyed)

    counters, result_ids, _cards = db._executor.scan_rows(plan)
    table = db.table(plan.scan.table)
    row_ids: np.ndarray | None
    bins: dict[int, float] | None
    if plan.group_by is not None:
        counters.group_rows += len(result_ids)
        points = table.points(plan.group_by.column)[result_ids]
        weight = 1.0
        if table.sample_fraction:
            weight = 1.0 / table.sample_fraction
        bins = bin_counts(points, plan.group_by, weight=weight)
        counters.output_rows += len(bins)
        row_ids = None
    else:
        counters.output_rows += len(result_ids)
        row_ids = table.to_base_ids(result_ids)
        bins = None

    hits, misses = db._cache_delta(before)
    base_ms = db.cost_model.time_ms(counters)
    execution_ms = _apply_profile_effects(db, base_ms, plan)
    return ExecutionResult(
        plan=plan,
        counters=counters,
        base_ms=base_ms,
        execution_ms=execution_ms,
        row_ids=row_ids,
        bins=bins,
        obeyed_hints=obeyed,
        cache_hits=hits,
        cache_misses=misses,
        plan_cached=was_planned,
    )


def _apply_profile_effects(db: Database, base_ms: float, plan) -> float:
    profile = db.profile
    time_ms = base_ms
    if profile.buffer_cache:
        touched = [
            (plan.scan.table, path.predicate.column) for path in plan.scan.access
        ]
        if plan.scan.is_full_scan:
            touched.append((plan.scan.table, "<heap>"))
        if plan.join is not None:
            touched.append((plan.join.inner_table, plan.join.right_column))
        if touched:
            warm = sum(1 for s in touched if s in db._warm_structures)
            warm_fraction = warm / len(touched)
            factor = 1.0 - (1.0 - profile.cache_hit_factor) * warm_fraction
            time_ms *= factor
        for structure in touched:
            db._warm_structures[structure] = True
            db._warm_structures.move_to_end(structure)
        while len(db._warm_structures) > 8:
            db._warm_structures.popitem(last=False)
    if profile.instability_prob > 0 and db._rng.random() < profile.instability_prob:
        time_ms *= profile.instability_factor
    if profile.noise_sigma > 0:
        time_ms *= float(np.exp(profile.noise_sigma * db._rng.standard_normal()))
    return time_ms


# ----------------------------------------------------------------------
# Grid cell walk
# ----------------------------------------------------------------------
class ReferenceGridIndex:
    """Grid index over a POINT column whose lookup walks the box's cells."""

    def __init__(self, table: Table, column: str, grid_size: int = 64) -> None:
        self.grid_size = grid_size
        pts = table.points(column)
        self._points = pts
        self.n_entries = len(pts)
        if self.n_entries == 0:
            self._min = np.zeros(2)
            self._span = np.ones(2)
            self._cells: dict[tuple[int, int], np.ndarray] = {}
            return
        self._min = pts.min(axis=0)
        span = pts.max(axis=0) - self._min
        self._span = np.where(span > 0, span, 1.0)
        cell_xy = self._cell_of(pts)
        order = np.lexsort((cell_xy[:, 1], cell_xy[:, 0]))
        sorted_cells = cell_xy[order]
        boundaries = np.flatnonzero(
            np.any(np.diff(sorted_cells, axis=0) != 0, axis=1)
        )
        starts = np.concatenate(([0], boundaries + 1))
        ends = np.concatenate((boundaries + 1, [self.n_entries]))
        self._cells = {}
        for start, end in zip(starts, ends):
            cx, cy = sorted_cells[start]
            self._cells[(int(cx), int(cy))] = np.sort(order[start:end]).astype(np.int64)

    def _cell_of(self, pts: np.ndarray) -> np.ndarray:
        scaled = (pts - self._min) / self._span * self.grid_size
        scaled = np.clip(scaled, 0.0, self.grid_size - 1)
        return scaled.astype(np.int64)

    def lookup(self, predicate: SpatialPredicate) -> IndexLookup:
        box = predicate.box
        if self.n_entries == 0:
            return IndexLookup(row_ids=_EMPTY, entries_scanned=0)

        corners = np.array([[box.min_x, box.min_y], [box.max_x, box.max_y]])
        cells = self._cell_of(corners)
        (cx0, cy0), (cx1, cy1) = cells
        accepted: list[np.ndarray] = []
        entries_scanned = 0
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                candidates = self._cells.get((cx, cy))
                if candidates is None:
                    continue
                entries_scanned += len(candidates)
                interior = cx0 < cx < cx1 and cy0 < cy < cy1
                if interior:
                    accepted.append(candidates)
                    continue
                pts = self._points[candidates]
                mask = (
                    (pts[:, 0] >= box.min_x)
                    & (pts[:, 0] <= box.max_x)
                    & (pts[:, 1] >= box.min_y)
                    & (pts[:, 1] <= box.max_y)
                )
                accepted.append(candidates[mask])
        if accepted:
            ids = np.sort(np.concatenate(accepted))
        else:
            ids = _EMPTY
        return IndexLookup(row_ids=ids, entries_scanned=entries_scanned)
