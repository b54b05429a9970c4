"""Multi-process sharded serving behind a fault-tolerant shard router.

:class:`ShardedMalivaService` is the production-scaling layer DESIGN.md
§4.3–§4.4 reserve below :class:`~repro.serving.service.MalivaService`:
the staged resolve → schedule pipeline is inherited unchanged, and both
heavy stages are swapped for scatter/gather across N workers, each running
in its own process over a row slice (contiguous ``rows``, round-robin
``rows-strided``) or an owned set of whole tables:

* **planning** — decision-cache miss groups are chunked round-robin across
  the workers' :class:`~repro.serving.planner_replica.PlannerReplica`
  stacks (replicated sample tables, statistics, and catalog headers);
  accurate-QTE oracle values resolve through one batched router RPC per
  lockstep wave, serviced inline while the router gathers.  Decisions are
  bit-identical to router planning, so the decision cache and virtual
  planning times are unchanged.  Unsupported QTEs fall back to the
  router's own ``rewrite_batch``.
* **rows execution** — every scatter-eligible plan (no join) is sent to
  *all* shards; each worker scans its slice with fused index probes and
  fused BIN_ID sweeps and reports stage cardinalities
  (:class:`~repro.db.sharding.ScanCardinalities`), global-id rows, and raw
  integer bin counts; the router merges them into the canonical
  single-engine outcome (:func:`repro.db.sharding.merge_scatter`) and
  charges profile effects once, on its own engine.
* **table execution** — each query runs wholly on the shard owning its
  scan table (joins require the inner table to be co-located); the
  worker's execution *is* canonical because it holds the full tables.
* **fallback** — joins in rows modes, hint-ignoring draws, and unowned
  tables execute on the router's full engine, preserving the equivalence
  contract trivially.

Failure model (DESIGN.md §4.5): the workers are a
:class:`~repro.serving.fleet.Fleet` — the substrate the replicated router
tier shares — so a worker that times out past its per-call RPC deadline,
EOFs, breaks its pipe, or replies garbage is *dead*, never *wrong*, and is
respawned warm after a capped exponential backoff until its respawn
budget trips the circuit breaker.  This module keeps only the shard
tier's reactions:

* **recovering the affected work on the router.**  Scattered entries whose
  report set is incomplete re-execute through ``execute_planned`` on the
  router engine, *in scheduled order, inside the same assembly loop* — the
  engine consumed its hint draws and plan-cache sequence during
  classification, so the recovered outcome is bit-identical to both the
  healthy scatter outcome and the single-engine service.  Plan chunks lost
  to a dead planner replica replan on the router (the twin-planning
  property makes those decisions bit-identical too).  A batch never fails
  because a worker died.
* **respawning rank-aware.**  A respawned worker gets a fresh
  :class:`~repro.db.sharding.ShardSpec` from the *live* catalog
  (:func:`~repro.db.sharding.rebuild_shard_spec`), collapsing every
  missed ``sync_table`` into the spec itself, plus a fresh planner
  replica.
* **rebalancing on retirement.**  Surviving rows-mode shards re-slice to
  the smaller arity (rank order follows shard-id order, so merged
  concatenation stays canonical) and orphaned table-mode groups are
  re-adopted round-robin.  Subsequent batches scatter across the smaller
  fleet; with zero survivors every request runs on the router.

Fault injection threads through the fleet's channels: the router-side
handles consult an optional :class:`~repro.serving.faults.FaultPlan` once
per worker op and ship the chosen action (crash / hang / garble) inside
the op message, so workers misbehave at exactly the scheduled call —
deterministically, inline and in real processes.

A note on per-request engine-cache deltas: outcomes served by this class
attribute cache activity from the *execute phase only*.  Scattered queries
report 0/0 (their physical cache traffic lands in per-shard
``ShardStats`` windows), and fallback queries report the
``execute_planned`` window — the classification-stage plan lookup is a
batch cost, not a per-request one.  The single-engine service folds that
plan lookup into each request's delta, so the two deployments agree on
every equivalence-contract field but not on this observability counter.

Coherence: the service registers the same engine invalidation hook as the
single-engine service; any catalog change on the router database —
`append_rows`, `create_index`, direct `Database` calls included — re-slices
the affected table and broadcasts a ``sync_table`` to every worker, which
replaces its copy, rebuilds its indexes, and evicts derived cache state.
Router planning decisions are additionally mirrored to worker replicas
(``mirror`` op) so repeated miss leaders plan from cache shard-side; the
mirror is evicted wholesale on every planner sync, which keeps it exactly
as coherent as the replica state it fronts.

Worker transport is a duplex pipe per shard; the shard spec is pickled
across it (:class:`~repro.db.sharding.ShardSpec` is deliberately plain
data), so the design is start-method agnostic.  ``processes=False`` runs
the same handler table inline — bit-identical, handy for tests and for
single-core hosts where process parallelism cannot pay for its transport.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..core.middleware import Maliva, RequestOutcome
from ..db import SelectQuery
from ..db.caches import CacheStatsReport
from ..db.sharding import (
    FULL,
    PARTIAL,
    ShardBatchReply,
    ShardEngine,
    ShardEntry,
    build_shard_specs,
    merge_scatter,
    rebuild_shard_spec,
    reslice_for_sync,
    rows_partitioned,
    scatter_eligible,
)
from ..errors import QueryError
from .faults import FaultPlan, WorkerFault
from .fleet import (
    Fleet,
    Handlers,
    InlineChannel,
    PipeChannel,
    SupervisedSlot,
    WorkerChannel,
    await_replies,
    worker_loop,
)
from .planner_replica import (
    PlannerReplica,
    PlannerSpec,
    PlannerSync,
    planner_spec_for,
    planner_sync_for,
    resolve_probe_rpc,
)
from .requests import VizRequest
from .service import MalivaService, _InflightExecution, _PlannedBatch
from .stats import RequestRecord, ShardStats


class _ShardWorker:
    """One shard worker's state and op handlers (in a process or inline).

    While a ``plan`` op runs, the worker's accurate-QTE proxy may need
    oracle values only the router's full engine holds, and calls
    ``probe_rpc``.  In a worker process that sends an in-band
    ``("rpc", (pairs, queries))`` message up the same pipe and blocks on
    the answer, which the router services during its gather loop
    (:meth:`_ShardOps.collect_plan`); the final ``("ok", ...)`` reply
    closes the op as usual, so the pipe protocol stays in lockstep.
    Inline, ``probe_rpc`` is the router's resolver itself.
    """

    def __init__(self, probe_rpc) -> None:
        self.engine: ShardEngine | None = None
        self.replica: PlannerReplica | None = None
        self._probe_rpc = probe_rpc

    def handlers(self) -> Handlers:
        return {
            "init": self._init,
            "execute": lambda entries: self.engine.execute(entries),
            "sync": self._sync,
            "init_planner": self._init_planner,
            "plan": self._plan,
            "sync_planner": lambda sync: self.replica.apply_sync(sync),
            "mirror": lambda items: self.replica.absorb_mirror(items),
            "cache_stats": lambda _payload: self.engine.cache_stats(),
        }

    def _init(self, spec) -> None:
        self.engine = ShardEngine(spec)

    def _sync(self, payload) -> None:
        table, indexed_columns = payload
        self.engine.sync_table(table, indexed_columns)

    def _init_planner(self, spec: PlannerSpec) -> None:
        self.replica = PlannerReplica(spec, self._probe_rpc)

    def _plan(self, payload):
        queries, taus = payload
        before = self.replica.mirror_hits
        started = time.perf_counter()
        decisions = self.replica.rewrite_batch(queries, taus)
        wall_s = time.perf_counter() - started
        return decisions, wall_s, self.replica.mirror_hits - before


def _shard_worker_main(conn) -> None:
    """Shard worker process: serve the shard op table over ``conn``."""

    def probe_rpc(pairs, queries):
        conn.send(("rpc", (list(pairs), list(queries))))
        return conn.recv()

    worker_loop(conn, _ShardWorker(probe_rpc).handlers())


class _ShardOps(WorkerChannel):
    """The shard tier's typed worker ops and reply-shape checks.

    Mixed over either fleet transport: :class:`ShardWorkerHandle` (a
    worker process) or :class:`InlineShardHandle` (in-process).
    """

    label = "shard worker"
    #: Router-side resolver for the worker planner's oracle probes.
    _rpc = None

    def submit_execute(self, entries: Sequence[ShardEntry]) -> None:
        self._send("execute", list(entries))

    def collect(
        self, deadline_s: float | None = None, expected: int | None = None
    ) -> ShardBatchReply:
        reply = self._expect(self._recv_ok(deadline_s), ShardBatchReply, "execute")
        if expected is not None and len(reply.reports) != expected:
            raise WorkerFault(
                f"{self}: expected {expected} reports, got {len(reply.reports)}"
            )
        return reply

    def init_planner(self, spec: PlannerSpec, rpc) -> None:
        """Build the worker's planning replica; ``rpc`` answers its probes."""
        self._rpc = rpc
        self._request_none("init_planner", spec, deadline_s=None)

    def submit_plan(self, queries, taus) -> None:
        self._send("plan", (list(queries), list(taus)))

    def collect_plan(
        self, deadline_s: float | None = None, expected: int | None = None
    ):
        """Gather a plan reply, servicing worker probe RPCs inline.

        A worker process blocked on oracle values sends ``("rpc",
        payload)`` instead of its final reply; the router answers on the
        spot (which also warms its own QTE memos, exactly as local
        planning would) and keeps waiting for the ``("ok", (decisions,
        wall_s, hits))`` close.  The deadline applies to each wait
        independently — a worker making RPC progress is alive, not hung.
        """
        status, payload = self._recv_message(deadline_s)
        while status == "rpc":
            try:
                pairs, queries = payload
                self._conn.send(self._rpc(pairs, queries))
            except (BrokenPipeError, OSError, ValueError, TypeError) as error:
                raise WorkerFault(f"{self}: probe rpc failed: {error}") from error
            status, payload = self._recv_message(deadline_s)
        if status != "ok":
            raise WorkerFault(f"{self} failed:\n{payload}")
        if (
            not isinstance(payload, tuple)
            or len(payload) != 3
            or not isinstance(payload[0], list)
        ):
            raise WorkerFault(f"{self}: garbled plan reply {payload!r}")
        decisions, wall_s, mirror_hits = payload
        if expected is not None and len(decisions) != expected:
            raise WorkerFault(
                f"{self}: expected {expected} decisions, got {len(decisions)}"
            )
        return decisions, float(wall_s), int(mirror_hits)

    def mirror_decisions(self, items, deadline_s: float | None = None) -> None:
        self._request_none("mirror", list(items), deadline_s)

    def sync_table(
        self, table, indexed_columns, deadline_s: float | None = None
    ) -> None:
        self._request_none("sync", (table, tuple(indexed_columns)), deadline_s)

    def sync_planner(
        self, sync: PlannerSync, deadline_s: float | None = None
    ) -> None:
        self._request_none("sync_planner", sync, deadline_s)

    def cache_stats(self, deadline_s: float | None = None) -> CacheStatsReport:
        reply = self._request("cache_stats", None, deadline_s)
        return self._expect(reply, CacheStatsReport, "cache_stats")


class ShardWorkerHandle(_ShardOps, PipeChannel):
    """A shard engine in a worker process, driven over a duplex pipe."""

    def __init__(
        self,
        spec,
        start_method: str | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        # Warm start: the spec travels pickled; the worker builds tables
        # and indexes before the service answers its first request.
        super().__init__(
            spec.shard_id, spec, _shard_worker_main, start_method, fault_plan
        )


class InlineShardHandle(_ShardOps, InlineChannel):
    """A shard engine driven in-process (no transport, same semantics)."""

    def __init__(self, spec, fault_plan: FaultPlan | None = None) -> None:
        worker = _ShardWorker(lambda pairs, queries: self._rpc(pairs, queries))
        super().__init__(spec.shard_id, spec, worker.handlers(), fault_plan)


class _ScatterState:
    """One scatter/gather in progress: targets, cursors, gathered reports.

    Produced by :meth:`ShardedMalivaService._scatter_begin` after the first
    submit round; :meth:`ShardedMalivaService._scatter_finish` drains the
    remaining collect/submit rounds.  Splitting the loop at that seam lets
    the async tier plan the next batch while workers crunch round one.
    """

    __slots__ = (
        "targets",
        "offsets",
        "rows_mode",
        "deadline_s",
        "aborted",
        "reports",
        "round_ids",
    )

    def __init__(
        self,
        targets: dict[int, tuple[SupervisedSlot, list[ShardEntry]]],
        rows_mode: bool,
        deadline_s: float | None,
    ) -> None:
        self.targets = targets
        self.offsets = {shard_id: 0 for shard_id in targets}
        self.rows_mode = rows_mode
        self.deadline_s = deadline_s
        self.aborted = False
        self.reports: dict[int, list] = {}
        self.round_ids: list[tuple[int, int]] = []


class _ShardedInflight:
    """Classification + scatter bookkeeping between execute begin/finish."""

    __slots__ = (
        "execute_started",
        "jobs",
        "scatter_positions",
        "owner_positions",
        "fallback_indexes",
        "recovered",
        "scatter_ids",
        "scatter_state",
    )


class ShardedMalivaService(MalivaService):
    """Scatter/gather serving over N supervised shard engines."""

    def __init__(
        self,
        maliva: Maliva,
        *,
        n_shards: int = 2,
        shard_by: str = "rows",
        processes: bool = True,
        start_method: str | None = None,
        worker_batch_size: int | None = None,
        plan_on_shards: bool = True,
        rpc_deadline_ms: float | None = 10_000.0,
        deadline_tau_factor: float = 1.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        respawn_backoff_cap_s: float = 2.0,
        mirror_decisions: bool = True,
        fault_plan: FaultPlan | None = None,
        **kwargs,
    ) -> None:
        # The fleet validates its options before anything is built; its
        # slots stay empty until start(), which keeps the invalidation hook
        # the base constructor registers a no-op until then.
        self._fleet = Fleet(
            n_shards,
            size_option="n_shards",
            rpc_deadline_ms=rpc_deadline_ms,
            deadline_tau_factor=deadline_tau_factor,
            max_respawns=max_respawns,
            respawn_backoff_s=respawn_backoff_s,
            respawn_backoff_cap_s=respawn_backoff_cap_s,
            stats=lambda: self.stats.shards,
        )
        if worker_batch_size is not None and worker_batch_size < 1:
            raise QueryError("worker_batch_size must be at least 1")
        self._closed = False
        self._plan_scattered = False
        #: True between _execute_begin and _execute_finish: the worker
        #: pipes carry in-flight execute replies, so no other op may use
        #: them until the batch is collected.
        self._execute_inflight = False
        #: Decisions planned on the router during an overlapped batch,
        #: mirrored to worker replicas once the pipes are free again.
        self._pending_mirror: list[tuple[list, list, list]] = []
        super().__init__(maliva, **kwargs)
        self.n_shards = n_shards
        self.shard_by = shard_by
        self.processes = processes
        #: Cap on entries per worker round-trip; a saturated worker serves
        #: an oversized batch in successive chunks (outcome-invariant).
        self.worker_batch_size = worker_batch_size
        self.mirror_decisions = mirror_decisions
        self._fault_plan = fault_plan
        self._start_method = start_method
        specs = build_shard_specs(maliva.database, n_shards, shard_by)
        self._table_owner = {
            name: spec.shard_id for spec in specs for name in spec.owned_tables
        }
        try:
            self._fleet.start(
                lambda slot: self._build_handle(specs[slot.worker_id]),
                respawn=self._respawn_handle,
            )
            # Replicate the planning state so decision-cache misses scatter
            # too.  An unsupported QTE leaves planning on the router
            # (_rewrite_misses falls through to the base class), counted as
            # plan fallbacks.
            planner_spec = planner_spec_for(maliva) if plan_on_shards else None
            if planner_spec is not None:
                for slot in self._slots:
                    slot.handle.init_planner(planner_spec, self._probe_rpc)
                self._plan_scattered = True
        except Exception:
            self.close()
            raise
        self.stats.shards = self._new_shard_stats()

    def _build_handle(self, spec):
        if self.processes:
            return ShardWorkerHandle(spec, self._start_method, self._fault_plan)
        return InlineShardHandle(spec, self._fault_plan)

    # ------------------------------------------------------------------
    # Lifecycle and observability
    # ------------------------------------------------------------------
    @property
    def _slots(self) -> list[SupervisedSlot]:
        """Every slot, indexed by shard id (retired ones included)."""
        return self._fleet.slots

    def _active_slots(self) -> list[SupervisedSlot]:
        return self._fleet.active_slots()

    @property
    def _handles(self) -> list:
        """Live handles, in shard-id order (dead/retired slots omitted)."""
        return [slot.handle for slot in self._fleet.live_slots()]

    def _new_shard_stats(self) -> ShardStats:
        return ShardStats(shard_by=self.shard_by, n_shards=self.n_shards)

    def reset_stats(self) -> None:
        super().reset_stats()
        self.stats.shards = self._new_shard_stats()

    def close(self) -> None:
        """Stop every shard worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._fleet.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass

    def report(self) -> dict:
        report = super().report()
        # Worker cache probes share the duplex pipes with in-flight execute
        # replies; skip them mid-batch (the async tier may report between
        # overlapped chunks) rather than desync the protocol.
        if not self._closed and not self._execute_inflight:
            caches: dict[str, dict] = {}
            deadline_s = self._fleet.call_deadline_s()
            for slot in self._fleet.live_slots():
                try:
                    stats = slot.handle.cache_stats(deadline_s)
                except WorkerFault:
                    self._fleet.record_death(slot)
                    continue
                caches[str(slot.worker_id)] = stats.to_dict()
            report["shard_caches"] = caches
        return report

    # ------------------------------------------------------------------
    # Supervision reactions: rank-aware respawn, rebalance on retirement
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        """Respawn dead slots past their backoff; rebalance on retirement.

        Runs at the top of every plan/execute stage — never mid-batch, so
        a batch sees a stable fleet from classification through merge and
        a death inside the batch only routes work back to the router.
        """
        if self._closed:
            return
        _respawned, retired = self._fleet.ensure()
        if retired:
            self._rebalance()

    def _respawn_handle(self, slot: SupervisedSlot):
        """Warm-respawn one slot from the live catalog, bit-coherent."""
        active = self._active_slots()
        owned = sorted(
            name
            for name, owner in self._table_owner.items()
            if owner == slot.worker_id
        )
        spec = rebuild_shard_spec(
            self.maliva.database,
            slot.worker_id,
            active.index(slot),
            len(active),
            self.shard_by,
            owned,
        )
        handle = self._build_handle(spec)
        try:
            if self._plan_scattered:
                planner_spec = planner_spec_for(self.maliva)
                if planner_spec is not None:
                    handle.init_planner(planner_spec, self._probe_rpc)
        except Exception:
            handle.close(graceful=False)
            raise
        return handle

    def _rebalance(self) -> None:
        """Re-partition the survivors after a breaker retirement.

        Rows modes re-slice every table at the new (smaller) arity —
        rank order follows shard-id order, so ``sorted(shard_id)``
        concatenation of reports stays the canonical row order.  Table
        mode re-adopts orphaned base-table groups (base plus its
        samples, which must stay co-located) round-robin.
        """
        if self.stats.shards is not None:
            self.stats.shards.n_rebalances += 1
        active = self._active_slots()
        if not active:
            # Whole fleet retired: every request recovers on the router.
            return
        database = self.maliva.database
        deadline_s = self._fleet.setup_deadline_s()
        if rows_partitioned(self.shard_by):
            for name in sorted(database.table_names):
                indexed = tuple(sorted(database.indexes_for(name)))
                slices = reslice_for_sync(
                    database, name, len(active), self.shard_by
                )
                for slot, fresh in zip(active, slices):
                    # A dead survivor respawns from the live catalog at the
                    # new arity; no sync needed now.
                    if slot.handle is not None:
                        self._fleet.attempt(
                            slot, lambda h: h.sync_table(fresh, indexed, deadline_s)
                        )
            return
        orphaned = sorted(
            name
            for name, owner in self._table_owner.items()
            if self._slots[owner].retired
        )
        groups: dict[str, list[str]] = {}
        for name in orphaned:
            if not database.has_table(name):  # pragma: no cover - dropped
                continue
            table = database.table(name)
            base = table.base_table if table.is_sample else name
            groups.setdefault(base, []).append(name)
        for position, base in enumerate(sorted(groups)):
            slot = active[position % len(active)]
            for name in sorted(groups[base]):
                self._table_owner[name] = slot.worker_id
                if slot.handle is None:
                    continue
                table = database.table(name)
                indexed = tuple(sorted(database.indexes_for(name)))
                self._fleet.attempt(
                    slot, lambda h: h.sync_table(table, indexed, deadline_s)
                )

    # ------------------------------------------------------------------
    # Cross-shard coherence
    # ------------------------------------------------------------------
    def _on_table_invalidated(self, table_name: str) -> None:
        super()._on_table_invalidated(table_name)
        if self._execute_inflight:
            # The router's decision cache is already evicted (above), but a
            # sync broadcast would interleave with in-flight execute
            # replies on the worker pipes.  The async tier quiesces via
            # drain() before mutating; anything else is a caller bug.
            raise QueryError(
                f"table {table_name!r} mutated while a sharded execute "
                f"batch is in flight; drain the async service before "
                f"mutating"
            )
        if self._closed or not self._slots:
            return
        database = self.maliva.database
        if not database.has_table(table_name):  # pragma: no cover - dropped
            return
        indexed = tuple(sorted(database.indexes_for(table_name)))
        deadline_s = self._fleet.setup_deadline_s()
        active = self._active_slots()
        if rows_partitioned(self.shard_by):
            if active:
                slices = reslice_for_sync(
                    database, table_name, len(active), self.shard_by
                )
                for slot, fresh in zip(active, slices):
                    # Dead slots skip the sync: their respawn rebuilds from
                    # the live catalog and cannot go stale.
                    if slot.handle is not None:
                        self._fleet.attempt(
                            slot, lambda h: h.sync_table(fresh, indexed, deadline_s)
                        )
        else:
            owner = self._table_owner.get(table_name)
            if owner is not None:
                slot = self._slots[owner]
                if not slot.retired and slot.handle is not None:
                    table = database.table(table_name)
                    self._fleet.attempt(
                        slot, lambda h: h.sync_table(table, indexed, deadline_s)
                    )
        if self._plan_scattered:
            # Planner replicas carry their own copy of the mutated table's
            # header/sample/statistics state; every live worker refreshes
            # it (and evicts its decision mirror with it).
            sync = planner_sync_for(database, table_name)
            self._fleet.broadcast(lambda h: h.sync_planner(sync, deadline_s))
        if self.stats.shards is not None:
            self.stats.shards.n_syncs += 1

    # ------------------------------------------------------------------
    # The scattered plan stage
    # ------------------------------------------------------------------
    def _probe_rpc(self, pairs, queries):
        """Router half of the worker planners' oracle-value channel."""
        return resolve_probe_rpc(self.maliva.qte, pairs, queries)

    def _rewrite_misses(self, queries, taus):
        """Scatter the deduplicated miss leaders across worker planners.

        Leaders are chunked round-robin over the *live* fleet —
        deterministic given fleet health, and bit-identical to router
        planning regardless of which worker plans what (the twin-planning
        property), so fleet churn never changes a decision.  Chunks lost
        to a dead worker replan on the router; planned decisions are then
        mirrored back to the live replicas so repeat leaders hit their
        shard-side cache.
        """
        shard_stats = self.stats.shards
        if self._closed:
            raise QueryError("sharded service is closed")
        if self._execute_inflight:
            # Overlapped planning: the duplex pipes are mid-execute-batch,
            # so worker plan RPCs (and supervision's sync traffic) would
            # desync them.  Plan on the router — bit-identical by the
            # twin-planning property — and mirror once the batch lands.
            decisions = MalivaService._rewrite_misses(self, queries, taus)
            if shard_stats is not None:
                shard_stats.n_plan_overlapped += len(queries)
            if self.mirror_decisions and self._plan_scattered:
                self._pending_mirror.append(
                    (list(queries), list(taus), list(decisions))
                )
            return decisions
        if self._plan_scattered:
            self._ensure_workers()
        live = self._fleet.live_slots()
        if not self._plan_scattered or not live:
            if shard_stats is not None:
                shard_stats.n_plan_fallback += len(queries)
            return super()._rewrite_misses(queries, taus)
        per_slot: dict[int, list[int]] = {}
        for position in range(len(queries)):
            slot = live[position % len(live)]
            per_slot.setdefault(slot.worker_id, []).append(position)
        deadline_s = self._fleet.call_deadline_s(max(taus) if taus else None)
        submitted: list[int] = []
        router_positions: list[int] = []
        for shard_id in sorted(per_slot):
            slot = self._slots[shard_id]
            positions = per_slot[shard_id]
            try:
                slot.handle.submit_plan(
                    [queries[p] for p in positions],
                    [taus[p] for p in positions],
                )
            except WorkerFault:
                self._fleet.record_death(slot)
                router_positions.extend(positions)
                if shard_stats is not None:
                    shard_stats.record_plan_recovered(shard_id, len(positions))
                continue
            submitted.append(shard_id)
        decisions: list = [None] * len(queries)
        for shard_id in submitted:
            slot = self._slots[shard_id]
            positions = per_slot[shard_id]
            try:
                planned, wall_s, mirror_hits = slot.handle.collect_plan(
                    deadline_s, len(positions)
                )
            except WorkerFault:
                self._fleet.record_death(slot)
                router_positions.extend(positions)
                if shard_stats is not None:
                    shard_stats.record_plan_recovered(shard_id, len(positions))
                continue
            for position, decision in zip(positions, planned):
                decisions[position] = decision
            if shard_stats is not None:
                shard_stats.record_plan(
                    shard_id, len(planned), wall_s, mirror_hits
                )
        if router_positions:
            # Replan the lost chunks locally — bit-identical decisions, so
            # the decision cache and virtual planning times are unchanged.
            router_positions.sort()
            replanned = super()._rewrite_misses(
                [queries[p] for p in router_positions],
                [taus[p] for p in router_positions],
            )
            for position, decision in zip(router_positions, replanned):
                decisions[position] = decision
        if shard_stats is not None:
            shard_stats.n_plan_scattered += len(queries) - len(router_positions)
        self._broadcast_mirror(queries, taus, decisions)
        return decisions

    def _broadcast_mirror(self, queries, taus, decisions) -> None:
        """Mirror freshly planned decisions to the live worker replicas."""
        if not self.mirror_decisions or not self._plan_scattered:
            return
        items = [
            ((query.key(), tau), decision)
            for query, tau, decision in zip(queries, taus, decisions)
            if decision is not None
        ]
        if not items:
            return
        deadline_s = self._fleet.setup_deadline_s()
        delivered = self._fleet.broadcast(
            lambda h: h.mirror_decisions(items, deadline_s)
        )
        if delivered and self.stats.shards is not None:
            self.stats.shards.n_mirrored_decisions += len(items)

    def _flush_pending_mirror(self) -> None:
        """Deliver mirrors deferred by overlapped (router-side) planning."""
        if not self._pending_mirror:
            return
        pending, self._pending_mirror = self._pending_mirror, []
        for queries, taus, decisions in pending:
            self._broadcast_mirror(queries, taus, decisions)
            if self.stats.shards is not None:
                self.stats.shards.n_deferred_mirrors += len(queries)

    # ------------------------------------------------------------------
    # The scattered execute stage
    # ------------------------------------------------------------------
    def _execute_begin(self, planned: _PlannedBatch) -> _InflightExecution:
        """Classify and scatter-submit the first worker round, then return.

        Shard processes crunch the submitted round while the caller (the
        async tier) plans the next micro-batch; :meth:`_execute_finish`
        collects, runs any remaining rounds, and assembles.  Between the
        two calls the worker pipes are reserved for execute replies —
        ``_execute_inflight`` reroutes planning to the router and defers
        mirror/sync traffic.  Quality-scored batches keep the base token:
        they execute sequentially inside finish.
        """
        if self.quality_fn is not None or self._closed:
            # Base token; finish routes through self._execute_stage, which
            # runs the sequential quality path (and raises when closed).
            return super()._execute_begin(planned)
        if self._execute_inflight:
            raise QueryError(
                "sharded service already has an execute batch in flight"
            )
        state = self._sharded_execute_begin(planned)
        self._execute_inflight = True
        return _InflightExecution(planned=planned, state=state)

    async def _execute_wait(self, token: _InflightExecution) -> None:
        """Poll the submitted round's worker pipes without blocking the loop.

        Returns once every live worker's reply has arrived — or once the
        reply deadline passes, letting the synchronous collect path in
        :meth:`_execute_finish` surface the timeout through the
        supervisor.  Later rounds of a chunked batch block inside finish
        as usual.
        """
        state = token.state
        if not isinstance(state, _ShardedInflight):
            await super()._execute_wait(token)
            return
        scatter = state.scatter_state
        await await_replies(
            [scatter.targets[shard_id][0] for shard_id, _ in scatter.round_ids],
            scatter.deadline_s,
        )

    def _execute_finish(self, token: _InflightExecution) -> list[RequestOutcome]:
        state = token.state
        if not isinstance(state, _ShardedInflight):
            return super()._execute_finish(token)
        try:
            outcomes = self._sharded_execute_finish(token.planned, state)
            return [outcome for outcome in outcomes if outcome is not None]
        finally:
            self._execute_inflight = False
            self._flush_pending_mirror()

    def _execute_stage(
        self,
        requests: Sequence[VizRequest],
        resolved: list[tuple[SelectQuery, float]],
        order: list[int],
        decisions: list[object | None],
        cached_flags: list[bool],
        shared_s: float,
    ) -> list[RequestOutcome | None]:
        if self.quality_fn is not None:
            # Quality scoring interleaves extra engine work per request;
            # the sequential single-engine path preserves its semantics.
            return super()._execute_stage(
                requests, resolved, order, decisions, cached_flags, shared_s
            )
        if self._closed:
            raise QueryError("sharded service is closed")
        planned = _PlannedBatch(
            requests=list(requests),
            resolved=resolved,
            order=order,
            decisions=decisions,
            cached_flags=cached_flags,
            shared_s=shared_s,
        )
        return self._sharded_execute_finish(
            planned, self._sharded_execute_begin(planned)
        )

    def _sharded_execute_begin(self, planned: _PlannedBatch) -> _ShardedInflight:
        """Classification plus the first scatter round (the overlap point)."""
        resolved = planned.resolved
        order = planned.order
        decisions = planned.decisions
        database = self.maliva.database
        state = _ShardedInflight()
        state.execute_started = time.perf_counter()
        self._ensure_workers()

        rows_mode = rows_partitioned(self.shard_by)
        active = self._active_slots()
        scatter_slots = [slot for slot in active if slot.handle is not None]
        # Rows-mode scatter needs reports from *every* active slot (the
        # partition's arity); one dead survivor routes the whole
        # scatter-eligible set through router recovery instead.
        scatter_ready = (
            rows_mode and bool(active) and len(scatter_slots) == len(active)
        )
        blocking_shard: int | None = None
        if rows_mode and not scatter_ready:
            for slot in self._slots:
                if slot.retired or slot.handle is None:
                    blocking_shard = slot.worker_id
                    break

        # Classify the scheduled batch.  begin_execution consumes the
        # hint-obey draw and the plan-cache sequence in scheduled order,
        # exactly as single-engine execution would — which is also what
        # makes recovered entries bit-identical: they re-execute below in
        # that same order, against the same consumed draws.
        jobs = []  # (index, query, tau, decision, plan, obeyed, was_planned)
        scatter_positions: dict[int, int] = {}  # index -> entry position
        owner_positions: dict[int, tuple[int, int]] = {}  # index -> (shard, pos)
        fallback_indexes: list[int] = []  # structural router executions
        recovered: dict[int, list[int]] = {}  # shard -> health-recovered idx
        entries: list[ShardEntry] = []
        per_owner_entries: dict[int, list[ShardEntry]] = {}
        for index in order:
            query, tau = resolved[index]
            decision = decisions[index]
            rewritten = decision.rewritten  # type: ignore[union-attr]
            plan, obeyed, was_planned = database.begin_execution(rewritten)
            jobs.append((index, query, tau, decision, plan, obeyed, was_planned))
            if not obeyed:
                fallback_indexes.append(index)
                continue
            if rows_mode:
                if not scatter_eligible(plan):
                    fallback_indexes.append(index)
                elif scatter_ready:
                    scatter_positions[index] = len(entries)
                    entries.append(ShardEntry(rewritten, plan, PARTIAL))
                else:
                    recovered.setdefault(
                        blocking_shard if blocking_shard is not None else 0, []
                    ).append(index)
            else:
                owner = self._table_owner.get(plan.scan.table)
                co_located = owner is not None and (
                    plan.join is None
                    or self._table_owner.get(plan.join.inner_table) == owner
                )
                if not co_located:
                    fallback_indexes.append(index)
                    continue
                slot = self._slots[owner]
                if slot.retired or slot.handle is None:
                    recovered.setdefault(owner, []).append(index)
                else:
                    shard_entries = per_owner_entries.setdefault(owner, [])
                    owner_positions[index] = (owner, len(shard_entries))
                    shard_entries.append(ShardEntry(rewritten, plan, FULL))

        # Scatter (workers run while the router plans the next batch or
        # handles fallbacks), in rounds of at most worker_batch_size
        # entries per shard.  Reports may come back incomplete if workers
        # die mid-stream.
        state.jobs = jobs
        state.scatter_positions = scatter_positions
        state.owner_positions = owner_positions
        state.fallback_indexes = fallback_indexes
        state.recovered = recovered
        state.scatter_ids = sorted(slot.worker_id for slot in scatter_slots)
        deadline_s = self._fleet.call_deadline_s(
            max((resolved[i][1] for i in order), default=None)
        )
        state.scatter_state = self._scatter_begin(
            entries,
            per_owner_entries,
            scatter_slots if rows_mode else None,
            deadline_s,
        )
        return state

    def _sharded_execute_finish(
        self, planned: _PlannedBatch, state: _ShardedInflight
    ) -> list[RequestOutcome | None]:
        """Drain the scatter, assemble outcomes, and record request stats."""
        requests = planned.requests
        resolved = planned.resolved
        order = planned.order
        cached_flags = planned.cached_flags
        shared_s = planned.shared_s
        database = self.maliva.database
        shard_stats = self.stats.shards
        execute_started = state.execute_started
        jobs = state.jobs
        scatter_positions = state.scatter_positions
        owner_positions = state.owner_positions
        fallback_indexes = state.fallback_indexes
        recovered = state.recovered
        scatter_ids = state.scatter_ids
        reports = self._scatter_finish(state.scatter_state)

        # Assemble outcomes in scheduled order.  A scatter entry is
        # shard-served only if *every* required shard reported it; anything
        # less re-executes on the router, bit-identically.
        outcomes: list[RequestOutcome | None] = [None] * len(requests)
        fallback_set = set(fallback_indexes)
        recovered_shard = {
            index: shard_id
            for shard_id, indexes in recovered.items()
            for index in indexes
        }
        mid_recovered: dict[int, int] = {}
        n_shard_served = 0
        for index, query, tau, decision, plan, obeyed, was_planned in jobs:
            rewritten = decision.rewritten  # type: ignore[union-attr]
            if index in fallback_set or index in recovered_shard:
                result = database.execute_planned(
                    plan, rewritten, obeyed=obeyed, was_planned=was_planned
                )
            elif index in scatter_positions:
                position = scatter_positions[index]
                complete = all(
                    len(reports.get(sid, [])) > position for sid in scatter_ids
                )
                if complete:
                    counters, row_ids, bins = merge_scatter(
                        database,
                        plan,
                        [reports[sid][position] for sid in scatter_ids],
                        # Contiguous slices concatenate in canonical order;
                        # strided slices interleave and need the merge's
                        # sort.
                        presorted=self.shard_by != "rows-strided",
                    )
                    result = database.complete_execution(
                        plan,
                        counters,
                        row_ids,
                        bins,
                        obeyed=obeyed,
                        was_planned=was_planned,
                    )
                    n_shard_served += 1
                else:
                    result = database.execute_planned(
                        plan, rewritten, obeyed=obeyed, was_planned=was_planned
                    )
                    victim = min(
                        scatter_ids, key=lambda sid: len(reports.get(sid, []))
                    )
                    mid_recovered[victim] = mid_recovered.get(victim, 0) + 1
            else:
                shard_id, position = owner_positions[index]
                shard_reports = reports.get(shard_id, [])
                if len(shard_reports) > position:
                    shard_report = shard_reports[position]
                    result = database.complete_execution(
                        plan,
                        shard_report.counters,
                        shard_report.row_ids,
                        shard_report.bins,
                        obeyed=obeyed,
                        was_planned=was_planned,
                    )
                    n_shard_served += 1
                else:
                    result = database.execute_planned(
                        plan, rewritten, obeyed=obeyed, was_planned=was_planned
                    )
                    mid_recovered[shard_id] = mid_recovered.get(shard_id, 0) + 1
            outcomes[index] = self.maliva.assemble_outcome(
                query, decision, tau, result
            )

        if shard_stats is not None:
            shard_stats.n_scattered += n_shard_served
            shard_stats.n_fallback += len(fallback_set)
            for shard_id, indexes in recovered.items():
                shard_stats.record_recovered(shard_id, len(indexes))
            for shard_id, count in mid_recovered.items():
                shard_stats.record_recovered(shard_id, count)

        execute_share = (time.perf_counter() - execute_started) / len(requests)
        for index in order:
            outcome = outcomes[index]
            assert outcome is not None
            request = requests[index]
            self.stats.record(
                RequestRecord(
                    request_id=request.request_id,
                    session_id=request.effective_session(),
                    tau_ms=resolved[index][1],
                    planning_ms=outcome.planning_ms,
                    execution_ms=outcome.execution_ms,
                    viable=outcome.viable,
                    wall_s=execute_share + shared_s,
                    cache_hits=outcome.cache_hits,
                    cache_misses=outcome.cache_misses,
                    decision_cached=cached_flags[index],
                )
            )
        self.stats.record_stage("execute", time.perf_counter() - execute_started)
        return outcomes

    def _scatter(
        self,
        entries: list[ShardEntry],
        per_owner_entries: dict[int, list[ShardEntry]],
        scatter_slots: list[SupervisedSlot] | None,
        deadline_s: float | None,
    ) -> dict[int, list]:
        """Ship entry batches to the shards and gather their reports.

        Rows mode sends the same entry list to every scatter slot; table
        mode sends each owner its own list.  Batches are chunked to
        ``worker_batch_size`` per round-trip; every shard's chunk is
        submitted before any reply is collected, so worker processes run
        the round concurrently.  A worker failure marks its slot dead and
        — in rows mode, where later rounds could not be merged anyway —
        aborts further rounds after draining the current one; the reports
        map simply comes back incomplete and the caller recovers the
        unreported entries on the router.

        Split into :meth:`_scatter_begin` (build targets, submit round
        one) and :meth:`_scatter_finish` (collect/submit the remaining
        rounds) so the async tier can plan between the two.
        """
        return self._scatter_finish(
            self._scatter_begin(entries, per_owner_entries, scatter_slots, deadline_s)
        )

    def _scatter_begin(
        self,
        entries: list[ShardEntry],
        per_owner_entries: dict[int, list[ShardEntry]],
        scatter_slots: list[SupervisedSlot] | None,
        deadline_s: float | None,
    ) -> _ScatterState:
        """Build the scatter targets and submit the first round."""
        targets: dict[int, tuple[SupervisedSlot, list[ShardEntry]]] = {}
        if scatter_slots is not None:
            if entries:
                for slot in scatter_slots:
                    targets[slot.worker_id] = (slot, entries)
        else:
            for shard_id, shard_entries in per_owner_entries.items():
                slot = self._slots[shard_id]
                if slot.handle is None:  # pragma: no cover - died post-classify
                    continue
                targets[shard_id] = (slot, shard_entries)
        state = _ScatterState(targets, scatter_slots is not None, deadline_s)
        if targets:
            state.round_ids = self._submit_round(state)
        return state

    def _submit_round(self, state: _ScatterState) -> list[tuple[int, int]]:
        """Submit one chunked round to every live target; workers overlap."""
        chunk = self.worker_batch_size
        round_ids: list[tuple[int, int]] = []
        for shard_id in sorted(state.targets):
            slot, shard_entries = state.targets[shard_id]
            if slot.handle is None:
                continue
            offset = state.offsets[shard_id]
            if offset >= len(shard_entries):
                continue
            stop = (
                len(shard_entries)
                if chunk is None
                else min(offset + chunk, len(shard_entries))
            )
            try:
                slot.handle.submit_execute(shard_entries[offset:stop])
            except WorkerFault:
                self._fleet.record_death(slot)
                if state.rows_mode:
                    state.aborted = True
                continue
            state.offsets[shard_id] = stop
            round_ids.append((shard_id, stop - offset))
        return round_ids

    def _collect_round(
        self, state: _ScatterState, round_ids: list[tuple[int, int]]
    ) -> None:
        """Gather one submitted round into the state's reports map."""
        shard_stats = self.stats.shards
        for shard_id, expected in round_ids:
            slot, _ = state.targets[shard_id]
            if slot.handle is None:
                continue
            # Drain every submitted shard even after a failure — an
            # uncollected reply would desync the pipe protocol for
            # whatever batch comes next.
            try:
                reply = slot.handle.collect(state.deadline_s, expected)
            except WorkerFault:
                self._fleet.record_death(slot)
                if state.rows_mode:
                    state.aborted = True
                continue
            state.reports.setdefault(shard_id, []).extend(reply.reports)
            if shard_stats is not None:
                shard_stats.record_shard(shard_id, reply)

    def _scatter_finish(self, state: _ScatterState) -> dict[int, list]:
        """Collect the in-flight round, then run any remaining rounds."""
        round_ids = state.round_ids
        while round_ids:
            self._collect_round(state, round_ids)
            if state.aborted:
                break
            round_ids = self._submit_round(state)
        return state.reports
