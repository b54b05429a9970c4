"""Replicated planning state: run the MDP rewriter on any shard worker.

The sharded service (DESIGN.md §4.4) scatters the *planning* stage the way
PR 5 scattered execution: request groups plan on shard workers and only
the gather stays on the router.  Planning must come out bit-identical to
the router's own planner, and the planner touches the engine through a
small, enumerable surface:

* option building — sample-table catalog entries (``base_table``) and
  LIMIT-rule cardinalities (sample counts, statistics fallbacks);
* the sampling QTE — sample-table counts, whole-table row counts, and
  optimizer statistics for featurization;
* the accurate QTE — *true* selectivities and execution times, which only
  the router's full engine can produce.

So a worker's planner runs against a :class:`PlannerSpec` replica: full
copies of every sample table (they are small by construction), pre-built
:class:`~repro.db.statistics.TableStatistics` for every table, and
:class:`TableHeader` catalog stand-ins carrying the base tables' row
counts — never the base rows themselves.  The accurate QTE's oracle values
resolve through one batched router RPC per lockstep wave
(:class:`ProxiedAccurateQTE`); everything else resolves locally.  Planning
draws no engine RNG, so identical inputs give identical decisions and
virtual planning times — the twin-planning property
``tests/serving/test_sharded_planning.py`` pins down.

Coherence rides the same invalidation path as execution sharding: when the
router's catalog mutates, :func:`planner_sync_for` captures the fresh
header/sample/statistics state for the mutated table and every worker
applies it (:meth:`PlannerReplica.apply_sync`), dropping its planner memos
exactly where the router's tag eviction drops its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..core.agent import MalivaAgent
from ..core.rewriter import MDPQueryRewriter, RewriteDecision
from ..db import Database, SimProfile, SelectQuery
from ..db.predicates import Predicate
from ..db.statistics import TableStatistics
from ..db.table import Table
from ..qte import AccurateQTE, SamplingQTE

#: RPC channel: ``(pairs, queries) -> (selectivities, true_times)``, where
#: ``pairs`` are (table name, predicate) probes and ``queries`` are
#: rewritten queries needing true execution times.  The router answers via
#: :func:`resolve_probe_rpc` against its own accurate QTE.
ProbeRpc = Callable[
    [Sequence[tuple[str, Predicate]], Sequence[SelectQuery]],
    tuple[list[float], list[float]],
]


@dataclass(frozen=True)
class TableHeader:
    """Catalog stand-in for a base table the worker never materializes.

    Carries exactly the attributes the planning paths read off a table
    object — name, row count, sample lineage — and is installed directly
    into the planner database's catalog.  Anything that would touch rows
    raises on the missing attribute, which is the guard against a planner
    path silently depending on data the replica does not have.
    """

    name: str
    n_rows: int
    base_table: str | None = None
    sample_fraction: float | None = None

    @property
    def is_sample(self) -> bool:
        return self.base_table is not None


@dataclass
class QteSpec:
    """Pickle-safe reconstruction state for a worker-side QTE."""

    kind: str  # "accurate" | "sampling"
    unit_cost_ms: float
    overhead_ms: float
    # Sampling-QTE only:
    attributes: tuple[str, ...] = ()
    sample_table: str | None = None
    ridge: float = 1e-2
    weights: np.ndarray | None = None
    training_rmse_log: float | None = None


@dataclass
class PlannerSpec:
    """Everything a worker needs to plan bit-identically to the router."""

    agent: MalivaAgent
    qte: QteSpec
    #: Full copies of every sample table (small by construction).
    sample_tables: list[Table]
    #: sample table name -> columns to index (mirrors the router).
    indexed_columns: dict[str, tuple[str, ...]]
    #: Catalog stand-ins for the base tables (row counts, no rows).
    headers: list[TableHeader]
    #: Pre-built optimizer statistics for *every* table — the router's own
    #: objects, so estimates are bit-identical by construction.
    stats: dict[str, TableStatistics]


@dataclass
class PlannerSync:
    """Fresh planner state for one mutated table (the coherence payload)."""

    headers: list[TableHeader] = field(default_factory=list)
    sample_tables: list[Table] = field(default_factory=list)
    indexed_columns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stats: dict[str, TableStatistics] = field(default_factory=dict)


def planner_spec_for(maliva) -> PlannerSpec | None:
    """Capture a :class:`PlannerSpec` from a trained middleware.

    Returns None when the QTE is not one the replica knows how to
    reconstruct — the serving layer falls back to router-side planning.
    """
    qte = maliva.qte
    if isinstance(qte, SamplingQTE):
        qte_spec = QteSpec(
            kind="sampling",
            unit_cost_ms=qte.unit_cost_ms,
            overhead_ms=qte.overhead_ms,
            attributes=qte.attributes,
            sample_table=qte.sample_table,
            ridge=qte.ridge,
            weights=qte._weights,
            training_rmse_log=qte.training_rmse_log,
        )
    elif isinstance(qte, AccurateQTE):
        qte_spec = QteSpec(
            kind="accurate",
            unit_cost_ms=qte.unit_cost_ms,
            overhead_ms=qte.overhead_ms,
        )
    else:
        return None
    database = maliva.database
    sample_tables: list[Table] = []
    headers: list[TableHeader] = []
    indexed: dict[str, tuple[str, ...]] = {}
    stats: dict[str, TableStatistics] = {}
    for name in database.table_names:
        table = database.table(name)
        stats[name] = database.stats(name)
        if table.is_sample:
            sample_tables.append(table)
            indexed[name] = tuple(sorted(database.indexes_for(name)))
        else:
            headers.append(TableHeader(name=name, n_rows=table.n_rows))
    return PlannerSpec(
        agent=maliva.agent,
        qte=qte_spec,
        sample_tables=sample_tables,
        indexed_columns=indexed,
        headers=headers,
        stats=stats,
    )


def planner_sync_for(database: Database, table_name: str) -> PlannerSync:
    """Fresh replica state for one (just-invalidated) router table."""
    sync = PlannerSync()
    if not database.has_table(table_name):
        return sync
    table = database.table(table_name)
    sync.stats[table_name] = database.stats(table_name)
    if table.is_sample:
        sync.sample_tables.append(table)
        sync.indexed_columns[table_name] = tuple(
            sorted(database.indexes_for(table_name))
        )
    else:
        sync.headers.append(TableHeader(name=table_name, n_rows=table.n_rows))
    return sync


def resolve_probe_rpc(
    qte: AccurateQTE,
    pairs: Sequence[tuple[str, Predicate]],
    queries: Sequence[SelectQuery],
) -> tuple[list[float], list[float]]:
    """Router-side half of the accurate-QTE RPC.

    Resolves through the router QTE's own memo-first paths (fused cold
    collection first), so answering a worker's wave warms the router's
    memos exactly as planning the same wave locally would.
    """
    qte.collect_pairs(pairs)
    values = [qte._true_selectivity(t, p) for t, p in pairs]
    times = [qte._true_time(q) for q in queries]
    return values, times


class ProxiedAccurateQTE(AccurateQTE):
    """Worker-side accurate QTE: oracle values over a batched router RPC.

    The lockstep planner announces each wave through
    :meth:`~repro.qte.QueryTimeEstimator.collect_wave`, so the proxy
    resolves all of a wave's cold selectivities *and* true times in one
    round trip; the per-request ``estimate`` calls that follow hit the
    memos.  The scalar paths keep single-item RPC fallbacks for
    non-lockstep callers.
    """

    name = "accurate-proxied"

    def __init__(
        self,
        database: Database,
        rpc: ProbeRpc,
        unit_cost_ms: float,
        overhead_ms: float,
    ) -> None:
        super().__init__(database, unit_cost_ms, overhead_ms)
        self._rpc = rpc

    def collect_wave(
        self, wave: Sequence[tuple[SelectQuery, Sequence[Predicate]]]
    ) -> None:
        pairs: list[tuple[str, Predicate]] = []
        seen_pairs: set[tuple] = set()
        queries: list[SelectQuery] = []
        seen_queries: set[tuple] = set()
        for rewritten, probes in wave:
            for probe in probes:
                key = (rewritten.table, probe.key())
                if key not in self._sel_memo and key not in seen_pairs:
                    seen_pairs.add(key)
                    pairs.append((rewritten.table, probe))
            qkey = rewritten.key()
            if qkey not in self._time_memo and qkey not in seen_queries:
                seen_queries.add(qkey)
                queries.append(rewritten)
        if not pairs and not queries:
            return
        values, times = self._rpc(pairs, queries)
        for (table_name, probe), value in zip(pairs, values):
            self._sel_memo.put((table_name, probe.key()), float(value))
        for rewritten, time_ms in zip(queries, times):
            self._time_memo.put(rewritten.key(), float(time_ms))

    def collect_pairs(self, pairs: Sequence[tuple[str, Predicate]]) -> None:
        pending: dict[tuple, tuple[str, Predicate]] = {}
        for table_name, predicate in pairs:
            key = (table_name, predicate.key())
            if key not in pending and key not in self._sel_memo:
                pending[key] = (table_name, predicate)
        if not pending:
            return
        values, _times = self._rpc(list(pending.values()), [])
        for key, value in zip(pending, values):
            self._sel_memo.put(key, float(value))

    def _true_selectivity(self, table_name: str, predicate: Predicate) -> float:
        key = (table_name, predicate.key())
        cached = self._sel_memo.get(key)
        if cached is None:
            values, _times = self._rpc([(table_name, predicate)], [])
            cached = float(values[0])
            self._sel_memo.put(key, cached)
        return cached

    def _true_time(self, rewritten: SelectQuery) -> float:
        key = rewritten.key()
        cached = self._time_memo.get(key)
        if cached is None:
            _values, times = self._rpc([], [rewritten])
            cached = float(times[0])
            self._time_memo.put(key, cached)
        return cached


class PlannerReplica:
    """A worker's planning stack: replica engine + QTE + MDP rewriter."""

    #: Cap on mirrored router decisions kept per replica (FIFO eviction).
    MIRROR_CAPACITY = 4096

    def __init__(self, spec: PlannerSpec, rpc: ProbeRpc) -> None:
        self.database = self._build_database(spec)
        self.qte = self._build_qte(spec.qte, rpc)
        self.rewriter = MDPQueryRewriter(spec.agent, self.database, self.qte)
        # Router decision-cache puts broadcast to this replica: a miss
        # leader planned on shard A must not replan on shard B in a later
        # batch.  Mirrored decisions ARE router decisions, so serving one
        # is bit-identical to replanning it.
        self._mirror: dict[tuple, RewriteDecision] = {}
        self.mirror_hits = 0

    def absorb_mirror(
        self, items: Sequence[tuple[tuple, RewriteDecision]]
    ) -> None:
        """Install broadcast ``((query key, tau), decision)`` pairs."""
        mirror = self._mirror
        for key, decision in items:
            mirror[key] = decision
            while len(mirror) > self.MIRROR_CAPACITY:
                mirror.pop(next(iter(mirror)))

    @staticmethod
    def _build_database(spec: PlannerSpec) -> Database:
        database = Database(profile=SimProfile.deterministic())
        for table in spec.sample_tables:
            database.add_table(table, analyze=False)
            for column in spec.indexed_columns.get(table.name, ()):
                database.create_index(table.name, column)
        for header in spec.headers:
            # Catalog stand-ins bypass add_table: headers have no rows to
            # index or analyze, and statistics are pre-seeded below.
            database._tables[header.name] = header  # type: ignore[assignment]
        database._stats.update(spec.stats)
        return database

    def _build_qte(self, spec: QteSpec, rpc: ProbeRpc):
        if spec.kind == "sampling":
            assert spec.sample_table is not None
            qte = SamplingQTE(
                self.database,
                spec.attributes,
                spec.sample_table,
                unit_cost_ms=spec.unit_cost_ms,
                overhead_ms=spec.overhead_ms,
                ridge=spec.ridge,
            )
            qte._weights = spec.weights
            qte.training_rmse_log = spec.training_rmse_log
            return qte
        assert spec.kind == "accurate", f"unknown QTE kind {spec.kind!r}"
        return ProxiedAccurateQTE(
            self.database, rpc, spec.unit_cost_ms, spec.overhead_ms
        )

    def rewrite_batch(
        self, queries: Sequence[SelectQuery], taus: Sequence[float | None]
    ) -> list[RewriteDecision]:
        """Plan a miss-leader chunk, serving mirrored decisions from cache."""
        decisions: list[RewriteDecision | None] = [None] * len(queries)
        miss_positions: list[int] = []
        for position, (query, tau) in enumerate(zip(queries, taus)):
            mirrored = self._mirror.get((query.key(), tau))
            if mirrored is not None:
                decisions[position] = mirrored
                self.mirror_hits += 1
            else:
                miss_positions.append(position)
        if miss_positions:
            planned = self.rewriter.rewrite_batch(
                [queries[p] for p in miss_positions],
                [taus[p] for p in miss_positions],
            )
            for position, decision in zip(miss_positions, planned):
                decisions[position] = decision
        return decisions  # type: ignore[return-value]

    def apply_sync(self, sync: PlannerSync) -> None:
        """Install fresh replica state for a mutated router table."""
        database = self.database
        for header in sync.headers:
            database._tables[header.name] = header  # type: ignore[assignment]
        for table in sync.sample_tables:
            if database.has_table(table.name):
                database.replace_table(table)
            else:
                database.add_table(table, analyze=False)
            existing = database.indexes_for(table.name)
            for column in sync.indexed_columns.get(table.name, ()):
                if column not in existing:
                    database.create_index(table.name, column)
        database._stats.update(sync.stats)
        # Drop every derived memo the mutation could have staled — the
        # replica mirrors the router's tag eviction conservatively.  The
        # decision mirror goes with them: the router's own cache evicts the
        # mutated table's tags, and mirrored decisions carry no tags.
        database.clear_caches()
        self.qte.invalidate()
        self.rewriter._build_cache.clear()
        self._mirror.clear()
