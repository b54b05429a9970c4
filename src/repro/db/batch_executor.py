"""The engine's one execution pipeline, with shared scan / index / binning work.

Every engine execution runs here: ``Database.execute`` is a batch of one,
and ``execute_planned``/``true_execution_time_ms``/``true_result`` run the
same row/counter pipeline on a given plan.  ``BatchExecutor.execute``
answers a batch of (already rewritten) queries with bit-identical result
rows and bins, work counters, virtual ``base_ms``/``execution_ms``,
per-request engine-cache hit/miss deltas, and post-batch cache and RNG
state to executing them one at a time in order — while doing the
underlying computation once per *distinct* piece of work instead of once
per request:

* **fused index probes** — every distinct index probe the batch needs is
  computed in one vectorized :meth:`~repro.db.indexes.base.Index.
  lookup_batch` sweep per (table, column) group;
* **shared predicate row sets** — each distinct predicate's RowSet is
  materialized once and shared, so its bitmap (the O(1)-probe intersection
  representation) is built at most once per batch;
* **scan memoization** — requests whose plans share the same (scan, join,
  limit) pipeline reuse the selected rows and their work counters;
* **fused aggregation** — all histograms over the same (table, BIN_ID cell
  grid) are counted in one ``bin_counts_many`` sweep against the table's
  shared :class:`~repro.db.binning.BinLayout`.

The engine's observable state stays identical because the *instrumented
cache protocol is replayed, not bypassed*: for every request, in scheduled
order, the executor issues the same cache get/put sequence a request run
alone would (through ``Database._cached_probe``), supplying precomputed
values only where the protocol would have computed them on a miss.

Engine randomness is drawn up front.  How many draws a request consumes
depends only on its hints and the profile (``Database._engine_draws``),
never on its plan or data, so the executor draws every request's obey,
instability and noise values in scheduled order — the exact stream
request-at-a-time execution consumes — and then runs the phase-separated
pipeline for every profile.  Profile effects (buffer-cache warming,
instability, noise) are applied per request in order from those draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .binning import bin_counts_many
from .cost_model import WorkCounters
from .executor import EngineAccess, ExecutionResult
from .plans import PhysicalPlan
from .query import BinGroupBy, SelectQuery
from .rowset import RowSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database, EngineDraws
    from .indexes import IndexLookup


@dataclass
class BatchSharingStats:
    """How much work one ``execute_batch`` call shared across its requests."""

    n_queries: int = 0
    #: Distinct (table, access-path signature) groups in the batch.
    n_plan_groups: int = 0
    #: Distinct (scan, join, limit) pipelines actually executed.
    n_distinct_scans: int = 0
    #: Requests whose row selection came from the batch scan memo.
    shared_scans: int = 0
    #: Distinct index probes the batch's sweeps computed ...
    n_probes_computed: int = 0
    #: ... and how many vectorized lookup_batch sweeps computed them.
    n_probe_sweeps: int = 0
    #: Distinct predicate row sets the batch's sweeps materialized.
    n_matches_computed: int = 0
    #: Fused (table, bin grid) histogram sweeps ...
    n_bin_sweeps: int = 0
    #: ... distinct histograms they produced ...
    n_bin_results: int = 0
    #: ... and aggregate requests served by reusing one of them.
    shared_bins: int = 0

    def to_dict(self) -> dict:
        return {
            "n_queries": self.n_queries,
            "n_plan_groups": self.n_plan_groups,
            "n_distinct_scans": self.n_distinct_scans,
            "shared_scans": self.shared_scans,
            "n_probes_computed": self.n_probes_computed,
            "n_probe_sweeps": self.n_probe_sweeps,
            "n_matches_computed": self.n_matches_computed,
            "n_bin_sweeps": self.n_bin_sweeps,
            "n_bin_results": self.n_bin_results,
            "shared_bins": self.shared_bins,
        }

    def merge(self, other: "BatchSharingStats") -> None:
        """Accumulate another batch's counters (service-level aggregation)."""
        self.n_queries += other.n_queries
        self.n_plan_groups += other.n_plan_groups
        self.n_distinct_scans += other.n_distinct_scans
        self.shared_scans += other.shared_scans
        self.n_probes_computed += other.n_probes_computed
        self.n_probe_sweeps += other.n_probe_sweeps
        self.n_matches_computed += other.n_matches_computed
        self.n_bin_sweeps += other.n_bin_sweeps
        self.n_bin_results += other.n_bin_results
        self.shared_bins += other.shared_bins


class _BatchAccess(EngineAccess):
    """Engine access that supplies the batch's precomputed probe values.

    Both probes go through the database's one cache protocol, so every
    request drives the instrumented caches exactly as a request run alone
    would; on a miss the protocol takes the value this batch's sweeps
    precomputed.  Access-path row sets are shared across the batch so each
    predicate's bitmap materializes at most once.
    """

    def __init__(self, database: "Database") -> None:
        super().__init__(database)
        self.lookups: dict[tuple, "IndexLookup"] = {}
        self.matches: dict[tuple, RowSet] = {}
        self._access_rowsets: dict[tuple, RowSet] = {}

    def index_lookup(self, table_name: str, predicate) -> "IndexLookup":
        db = self._db
        return db._cached_probe(
            db._lookup_cache, db._compute_lookup, table_name, predicate, self.lookups
        )

    def match_rowset(self, table_name: str, predicate) -> RowSet:
        db = self._db
        return db._cached_probe(
            db._match_cache, db._compute_match, table_name, predicate, self.matches
        )

    def access_rowset(self, table_name: str, predicate, lookup) -> RowSet:
        key = (table_name, predicate.key())
        rowset = self._access_rowsets.get(key)
        if rowset is None:
            rowset = RowSet.from_ids(lookup.row_ids, self._db.table(table_name).n_rows)
            # Materialize the bitmap once for the whole batch: every scan
            # intersecting this access path then takes the O(rows) bitmap
            # strategy instead of an O(k log k) sorted merge.  The result of
            # any intersect strategy is identical (the RowSet invariant), so
            # this only moves work, never changes counters or rows.
            rowset.mask
            self._access_rowsets[key] = rowset
        return rowset


@dataclass
class _Pending:
    """Per-request execution state carried between pipeline phases."""

    query: SelectQuery
    plan: PhysicalPlan
    #: The request's engine draws (None for plan-given, draw-free runs).
    draws: "EngineDraws | None" = None
    plan_cached: bool = False
    scan_key: tuple = ()
    scan_counters: dict[str, float] | None = None
    result_ids: np.ndarray | None = None
    counters: WorkCounters | None = None
    row_ids: np.ndarray | None = None
    bins: dict[int, float] | None = None
    cache_hits: int = 0
    cache_misses: int = 0


class BatchExecutor:
    """Executes a batch of queries with cross-request work sharing."""

    def __init__(self, database: "Database") -> None:
        self._db = database
        self._stats = BatchSharingStats()
        self._access = _BatchAccess(database)
        self._scan_memo: dict[tuple, tuple[dict[str, float], np.ndarray]] = {}
        self._bin_memo: dict[tuple, dict[int, float]] = {}
        self._bins_served: set[tuple] = set()
        self._row_memo: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    def execute(
        self, queries: Sequence[SelectQuery]
    ) -> tuple[list[ExecutionResult], BatchSharingStats]:
        """Execute ``queries`` in order; see the module docstring for the
        equivalence contract.  Returns (results, sharing statistics)."""
        db = self._db
        draws = [db._engine_draws(query.hints is not None) for query in queries]
        pending = [
            self._planned(query, request_draws)
            for query, request_draws in zip(queries, draws)
        ]
        self._stats.n_queries = len(pending)
        self._run(pending)
        self._count_plan_groups(pending)
        results = []
        for item in pending:
            assert item.counters is not None and item.draws is not None
            results.append(
                db._timed_result(
                    item.plan,
                    item.counters,
                    item.row_ids,
                    item.bins,
                    item.draws,
                    obeyed=item.draws.obeyed,
                    was_planned=item.plan_cached,
                    cache_hits=item.cache_hits,
                    cache_misses=item.cache_misses,
                )
            )
        return results, self._stats

    def run_planned(self, query: SelectQuery, plan: PhysicalPlan) -> _Pending:
        """Rows and work counters of ``query`` under an already-chosen plan:
        the same pipeline, drawing nothing and applying no profile effects."""
        item = _Pending(query=query, plan=plan)
        self._run([item])
        return item

    # ------------------------------------------------------------------
    # Pipeline phases
    # ------------------------------------------------------------------
    def _planned(self, query: SelectQuery, draws: "EngineDraws") -> _Pending:
        db = self._db
        before = db._cache_counts()
        plan_cached = (query.key(), draws.obeyed) in db._plan_cache
        plan = db._planned(query, draws.obeyed)
        hits, misses = db._cache_delta(before)
        return _Pending(
            query=query,
            plan=plan,
            draws=draws,
            plan_cached=plan_cached,
            cache_hits=hits,
            cache_misses=misses,
        )

    def _run(self, pending: list[_Pending]) -> None:
        """Rows, bins and counters for planned requests, in phase order."""
        for item in pending:
            item.scan_key = (item.plan.scan, item.plan.join, item.plan.limit)
        self._precompute_probes(pending)
        for item in pending:
            self._scan_one(item)
        self._fused_bins(pending)
        for item in pending:
            self._finish_one(item)

    def _scan_one(self, item: _Pending) -> None:
        db = self._db
        before = db._cache_counts()
        memo = self._scan_memo.get(item.scan_key)
        if memo is not None:
            self._replay_accesses(item.plan)
            self._stats.shared_scans += 1
        else:
            counters, result_ids, _cards = db._executor.scan_rows(
                item.plan, access=self._access
            )
            memo = (counters.as_dict(), result_ids)
            self._scan_memo[item.scan_key] = memo
            self._stats.n_distinct_scans += 1
        item.scan_counters, item.result_ids = memo
        hits, misses = db._cache_delta(before)
        item.cache_hits += hits
        item.cache_misses += misses

    def _replay_accesses(self, plan: PhysicalPlan) -> None:
        """Issue the cache gets a memo-hit scan would have issued anyway.

        This is what keeps per-request hit/miss deltas and LRU state
        bit-identical to request-at-a-time execution: the engine caches see
        the same operation sequence, only the pure row-selection math is
        reused.
        """
        scan = plan.scan
        if not scan.is_full_scan:
            for path in scan.access:
                self._access.index_lookup(scan.table, path.predicate)
        for predicate in scan.residual:
            self._access.match_rowset(scan.table, predicate)
        if plan.join is not None:
            for predicate in plan.join.inner_predicates:
                self._access.match_rowset(plan.join.inner_table, predicate)

    def _fused_bins(self, pending: list[_Pending]) -> None:
        """One histogram sweep per (table, bin grid) over distinct row sets."""
        groups: dict[tuple[str, BinGroupBy], dict[tuple, np.ndarray]] = {}
        for item in pending:
            plan = item.plan
            if plan.group_by is None:
                continue
            bin_key = (item.scan_key, plan.group_by)
            if bin_key in self._bin_memo:
                continue
            group = groups.setdefault((plan.scan.table, plan.group_by), {})
            if bin_key not in group:
                assert item.result_ids is not None
                group[bin_key] = item.result_ids
        for (table_name, group_by), members in groups.items():
            table = self._db.table(table_name)
            weight = 1.0 / table.sample_fraction if table.sample_fraction else 1.0
            histograms = bin_counts_many(
                self._db.bin_layout(table_name, group_by),
                list(members.values()),
                weight=weight,
            )
            for bin_key, bins in zip(members.keys(), histograms):
                self._bin_memo[bin_key] = bins
            self._stats.n_bin_sweeps += 1
            self._stats.n_bin_results += len(members)

    def _finish_one(self, item: _Pending) -> None:
        """Aggregation/projection: the request's result and final counters."""
        plan = item.plan
        assert item.scan_counters is not None and item.result_ids is not None
        counters = WorkCounters(**item.scan_counters)
        if plan.group_by is not None:
            counters.group_rows += len(item.result_ids)
            bin_key = (item.scan_key, plan.group_by)
            bins = self._bin_memo[bin_key]
            if bin_key in self._bins_served:
                self._stats.shared_bins += 1
            else:
                self._bins_served.add(bin_key)
            counters.output_rows += len(bins)
            item.bins = dict(bins)
        else:
            counters.output_rows += len(item.result_ids)
            row_ids = self._row_memo.get(item.scan_key)
            if row_ids is None:
                row_ids = self._db.table(plan.scan.table).to_base_ids(item.result_ids)
                self._row_memo[item.scan_key] = row_ids
            item.row_ids = row_ids
        item.counters = counters

    # ------------------------------------------------------------------
    # Fused precompute
    # ------------------------------------------------------------------
    def _precompute_probes(self, pending: list[_Pending]) -> None:
        """Compute every index probe / predicate row set the batch will miss
        on, one vectorized sweep per (table, column) group.

        Presence checks use :meth:`InstrumentedCache.peek` so the
        instrumented counters stay untouched; the values are injected later
        through the replayed get/put protocol in :class:`_BatchAccess`.
        """
        db = self._db
        need_lookups: dict[tuple, tuple[str, object]] = {}
        need_matches: dict[tuple, tuple[str, object]] = {}
        seen_scans: set[tuple] = set()
        for item in pending:
            plan = item.plan
            if item.scan_key in seen_scans:
                continue
            seen_scans.add(item.scan_key)
            scan = plan.scan
            if not scan.is_full_scan:
                for path in scan.access:
                    key = (scan.table, path.predicate.key())
                    if key not in need_lookups and db._lookup_cache.peek(key) is None:
                        need_lookups[key] = (scan.table, path.predicate)
            for predicate in scan.residual:
                key = (scan.table, predicate.key())
                if key not in need_matches and db._match_cache.peek(key) is None:
                    need_matches[key] = (scan.table, predicate)
            if plan.join is not None:
                for predicate in plan.join.inner_predicates:
                    key = (plan.join.inner_table, predicate.key())
                    if key not in need_matches and db._match_cache.peek(key) is None:
                        need_matches[key] = (plan.join.inner_table, predicate)

        # One fused sweep per (table, column) index answers both the lookup
        # needs and the index-backed match needs; index-less matches fall
        # back to exact per-predicate masks.
        sweeps: dict[tuple[str, str], list[tuple[tuple, object, bool]]] = {}
        for key, (table_name, predicate) in need_lookups.items():
            sweeps.setdefault((table_name, predicate.column), []).append(
                (key, predicate, True)
            )
        for key, (table_name, predicate) in need_matches.items():
            index = db.index(table_name, predicate.column)
            if index is not None and index.supports(predicate):
                sweeps.setdefault((table_name, predicate.column), []).append(
                    (key, predicate, False)
                )
            else:
                self._access.matches[key] = predicate.matching_rowset(
                    db.table(table_name)
                )
                self._stats.n_matches_computed += 1
        for (table_name, column), entries in sweeps.items():
            index = db.index(table_name, column)
            assert index is not None
            lookups = index.lookup_batch([predicate for _, predicate, _ in entries])
            n_rows = db.table(table_name).n_rows
            for (key, _predicate, is_lookup), lookup in zip(entries, lookups):
                if is_lookup:
                    self._access.lookups[key] = lookup
                    self._stats.n_probes_computed += 1
                else:
                    rowset = RowSet.from_ids(lookup.row_ids, n_rows)
                    rowset.mask  # bitmap intersections for the whole batch
                    self._access.matches[key] = rowset
                    self._stats.n_matches_computed += 1
            self._stats.n_probe_sweeps += 1

    def _count_plan_groups(self, pending: list[_Pending]) -> None:
        groups = set()
        for item in pending:
            plan = item.plan
            signature = tuple(
                (path.index_kind, path.predicate.column) for path in plan.scan.access
            )
            groups.add((plan.scan.table, signature))
        self._stats.n_plan_groups = len(groups)
