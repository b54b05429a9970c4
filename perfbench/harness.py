"""The timed closed loop, its answer check, and the metrics derived from it.

Latency model: every round submits the next request of all sessions as one
``answer_many`` call, so every request of a round gets its reply when the
call returns.  A request's latency runs from the end of its session's
previous reply to its own reply: a write between rounds counts against
every read of the next round.  The client-side work between rounds
(digesting answers, keeping the twin database in step) is not timed.

An untraced run serves its rounds ``SERVINGS`` times, on identically
built stacks, one after the other.  The program is deterministic, so
every serving does the same work round for round (its garbage-collector
pauses included).  Each serving is host-normalized round by round, and a
round's latency, or a write's time, is that of its fastest serving.  A
stall of the shared host (another tenant on the core for a few rounds)
rarely hits the same round in every serving, while the program's own
slow rounds are slow in all of them.
"""

from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from measure import (
    AnswerCheck,
    bracket_factors,
    host_factor,
    host_probe_s,
    median,
    percentile,
)
from tracer import LayerTotals
from workloads import N_SESSIONS, WRITE_ROWS, resampled_rows

#: p99 needs 1000 samples with ten beyond it; a phase serves at least this many.
MIN_REQUESTS = 1000
#: Untraced servings of the same rounds per run; a round counts with the
#: fastest.  With two, a host stall still set p99 in two runs of six
#: (taxi-sqlite, 2-CPU VM).
SERVINGS = 3
#: Appends timed after each serving on workloads that do not write in it;
#: every serving appends the same rows, and each append counts with its
#: fastest serving.
PROBE_WRITES = 3


def phase_rounds(workload, seconds: float) -> int:
    """Rounds each phase serves: ``seconds`` at the workload's nominal
    rate, shared among the run's ``SERVINGS`` phases.

    The work is fixed rather than the duration, so the two commits of a
    comparison serve identical requests (and, on hot-ingest, grow the
    table identically); the nominal rates make the phases of a run last
    about ``seconds`` together on a 2-CPU host.
    """
    return max(
        math.ceil(seconds / SERVINGS * workload.rounds_per_second),
        math.ceil(MIN_REQUESTS / N_SESSIONS),
    )


@dataclass
class PhaseResult:
    n_rounds: int = 0
    n_attempted: int = 0
    n_failed: int = 0
    timed_s: float = 0.0
    #: Wall ms of every round (its write, if any, plus its answer_many).
    round_ms: list[float] = field(default_factory=list)
    #: Wall ms of every write.
    write_ms: list[float] = field(default_factory=list)
    #: Round of every write (it runs before that round's answer_many).
    write_rounds: list[int] = field(default_factory=list)
    #: Virtual (paper) accounting: requests within tau, answered, total ms.
    n_viable: int = 0
    n_answered: int = 0
    total_virtual_ms: float = 0.0
    #: Heap rows read (scan + fetch) and rows qualifying, for every answer.
    rows_examined: float = 0.0
    rows_qualifying: float = 0.0
    #: Distinct original queries served (repeat share of the workload).
    query_keys: set = field(default_factory=set)
    #: Host-normalized ms of the appends timed after the phase (write probe).
    probe_write_ms: list[float] = field(default_factory=list)
    #: Host-speed probe before the first round and after every round (untimed).
    probe_s: list[float] = field(default_factory=list)
    #: Digest of every answer, in submission order (phase-to-phase identity).
    digests: list[bytes] = field(default_factory=list)
    check: AnswerCheck = field(default_factory=AnswerCheck)


def run_phase(workload, setup, seed: int, n_rounds: int, *, twin=None, tracer=None):
    """Serve ``n_rounds`` rounds of the workload's clients through ``setup``.

    ``twin`` is an identically built database that no timed request reads;
    on a writing workload it receives the same appends, and answers are
    checked against it before each write changes it.
    """
    clients = workload.clients(seed, setup)
    write_rng = workload.write_rng(seed)
    service = setup.service
    phase = PhaseResult()
    gc.collect()
    phase.probe_s.append(host_probe_s())
    for round_id in range(n_rounds):
        requests = clients.next_round()
        rows = None
        every = workload.write_every_rounds
        if every and round_id and round_id % every == 0:
            rows = resampled_rows(setup.database, setup.table, WRITE_ROWS, write_rng)
            if twin is not None:
                phase.check.verify(twin.true_result)
                twin.append_rows(setup.table, rows)
        if tracer is not None:
            tracer.round_id = round_id
            tracer.active = True

        started = time.perf_counter()
        if rows is not None:
            service.append_rows(setup.table, rows)
            phase.write_ms.append((time.perf_counter() - started) * 1000.0)
            phase.write_rounds.append(round_id)
        try:
            outcomes = service.answer_many(requests)
        except Exception:  # a failed round counts against error_rate
            traceback.print_exc(file=sys.stderr)
            outcomes = []
        round_s = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False

        phase.timed_s += round_s
        phase.n_rounds += 1
        phase.round_ms.append(round_s * 1000.0)
        _account(phase, requests, outcomes)
        phase.probe_s.append(host_probe_s())
    return phase


def _account(phase: PhaseResult, requests, outcomes) -> None:
    """Client-side bookkeeping of one round (outside the timed window)."""
    phase.n_attempted += len(requests)
    if len(outcomes) != len(requests):
        phase.n_failed += len(requests)
        phase.digests.extend([b""] * len(requests))
        return
    for outcome in outcomes:
        phase.query_keys.add(outcome.original.key())
        result = outcome.result
        phase.digests.append(
            phase.check.record(outcome.rewritten, result.row_ids, result.bins)
        )
        counters = result.counters
        phase.rows_examined += counters.seq_rows + counters.fetched_rows
        phase.rows_qualifying += (
            sum(result.bins.values()) if result.bins is not None else len(result.row_ids)
        )
        total_ms = outcome.planning_ms + outcome.execution_ms
        phase.n_answered += 1
        phase.total_virtual_ms += total_ms
        phase.n_viable += total_ms <= outcome.tau_ms


def probe_writes(workload, setup, seed: int) -> list[float]:
    """Host-normalized ms of ``PROBE_WRITES`` appends after a serving."""
    rng = workload.write_rng(seed)
    times = []
    for _ in range(PROBE_WRITES):
        rows = resampled_rows(setup.database, setup.table, WRITE_ROWS, rng)
        before = host_factor()
        started = time.perf_counter()
        setup.service.append_rows(setup.table, rows)
        wall_ms = (time.perf_counter() - started) * 1000.0
        times.append(wall_ms * (before + host_factor()) / 2.0)
    return times


def timings(phases: list[PhaseResult], normalize: bool = True) -> dict:
    """Throughput and latencies of servings of the same rounds.

    Host-normalized round by round (``measure.bracket_factors``) or raw
    wall.  Every round and every write counts with its fastest serving;
    throughput is the requests of one serving over the sum of those rounds.
    """
    rounds, writes = [], []
    for phase in phases:
        if normalize:
            factors = bracket_factors(phase.probe_s)
        else:
            factors = np.ones(phase.n_rounds)
        rounds.append(np.asarray(phase.round_ms) * factors)
        writes.append(np.asarray(phase.write_ms) * factors[phase.write_rounds])
    round_ms = np.min(rounds, axis=0)
    write_ms = np.min(writes, axis=0)
    first = phases[0]
    per_round = first.n_attempted // max(first.n_rounds, 1)
    latencies = np.repeat(round_ms, per_round)
    timed_s = float(round_ms.sum()) / 1000.0
    return {
        "timed_s": timed_s,
        "throughput_rps": min(p.n_answered for p in phases) / timed_s,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "write_p50_ms": median(write_ms) if len(write_ms) else None,
    }


def end_to_end(phases: list[PhaseResult], setup_s: float, rss_mb: float) -> dict:
    """The user-facing metrics of the untraced servings of one run.

    Times are host-normalized (see ``timings``); the raw wall figures go
    to the run record.
    """
    timed = timings(phases)
    write_ms = timed["write_p50_ms"]
    if write_ms is None:
        write_ms = median(np.min([p.probe_write_ms for p in phases], axis=0))
    attempted = sum(phase.n_attempted for phase in phases)
    answered = sum(phase.n_answered for phase in phases)
    return {
        "throughput_rps": (timed["throughput_rps"], "req/s"),
        "latency_p50_ms": (timed["latency_p50_ms"], "ms"),
        "latency_p99_ms": (timed["latency_p99_ms"], "ms"),
        "write_p50_ms": (write_ms, "ms"),
        # Failed requests count as misses.
        "vqp": (sum(phase.n_viable for phase in phases) / attempted, "share"),
        "aqrt_ms": (
            sum(phase.total_virtual_ms for phase in phases) / max(answered, 1),
            "ms",
        ),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


class Snapshot:
    """Cumulative counters the program exposes, read before and after a phase."""

    def __init__(self, setup) -> None:
        service = setup.service
        self.decision = service.decision_cache_stats
        self.engine = {s.name: s.snapshot() for s in setup.database.cache_stats().caches}
        self.qte = [s.snapshot() for s in setup.maliva.qte.cache_stats()]
        backend = setup.backend
        self.backend_rows = backend.stats.rows_returned if backend is not None else 0


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(tracer, phase: PhaseResult, before: Snapshot, after: Snapshot, setup) -> dict:
    """Per-layer metrics of one traced phase (see METRICS.md)."""
    totals = tracer.totals()

    def layer(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    decision = after.decision.delta(before.decision)
    engine = {name: after.engine[name].delta(stats) for name, stats in before.engine.items()}
    qte_hits = sum(a.hits - b.hits for a, b in zip(after.qte, before.qte))
    qte_misses = sum(a.misses - b.misses for a, b in zip(after.qte, before.qte))
    sharing = setup.service.stats.execute_sharing
    counters = tracer.counters
    planned = counters.get("core.decisions", 0.0)
    plan_calls = layer("core.rewrite_batch").calls
    metrics = {
        "viz.to_query_s": (layer("viz.to_query").total_s, "s"),
        "serving.self_s": (layer("serving.answer_many").self_s, "s"),
        "serving.decision_hit_rate": (_rate(decision.hits, decision.misses), "share"),
        "serving.batch_size_mean": (planned / plan_calls if plan_calls else 0.0, "count"),
        "core.rewrite_batch_s": (layer("core.rewrite_batch").total_s, "s"),
        "core.rewrite_batch.self_s": (layer("core.rewrite_batch").self_s, "s"),
        "core.predict_rows_s": (layer("core.predict_rows").total_s, "s"),
        "core.predict_rows.calls": (layer("core.predict_rows").calls, "count"),
        "core.mdp_steps_mean": (
            counters.get("core.steps", 0.0) / planned if planned else 0.0,
            "count",
        ),
        "core.finish_batch.self_s": (layer("core.finish_batch").self_s, "s"),
        "qte.collect_wave_s": (layer("qte.collect_wave").total_s, "s"),
        "qte.estimate_s": (layer("qte.estimate").total_s, "s"),
        "qte.estimate.calls": (layer("qte.estimate").calls, "count"),
        "qte.memo_hit_rate": (_rate(qte_hits, qte_misses), "share"),
        "db.execute_batch_s": (layer("db.execute_batch").total_s, "s"),
        "db.execute_batch.self_s": (layer("db.execute_batch").self_s, "s"),
        "db.index_lookup_s": (layer("db.index_lookup").total_s, "s"),
        "db.index_lookup.calls": (layer("db.index_lookup").calls, "count"),
        "db.true_time_s": (layer("db.true_time").total_s, "s"),
        "db.true_time.calls": (layer("db.true_time").calls, "count"),
        "db.append_rows_s": (layer("db.append_rows").total_s, "s"),
        "db.engine_hit_rate": (
            _rate(
                sum(s.hits for s in engine.values()),
                sum(s.misses for s in engine.values()),
            ),
            "share",
        ),
        "db.shared_scans": (sharing.shared_scans, "count"),
        "db.shared_bins": (sharing.shared_bins, "count"),
        "db.rows_examined_per_row_returned": (
            phase.rows_examined / phase.rows_qualifying if phase.rows_qualifying else 0.0,
            "ratio",
        ),
        "backends.execute_s": (layer("backends.execute").total_s, "s"),
        "backends.execute.calls": (layer("backends.execute").calls, "count"),
        "backends.compile_s": (layer("backends.compile").total_s, "s"),
        "backends.rows_returned": (after.backend_rows - before.backend_rows, "count"),
        "trace.coverage": (tracer.root_seconds() / phase.timed_s, "share"),
    }
    for cache in ("match", "lookup", "plan", "true_time", "estimate"):
        metrics[f"db.{cache}_hit_rate"] = (
            _rate(engine[cache].hits, engine[cache].misses),
            "share",
        )
    return metrics


def trace_patches():
    """The public entry points the traced run wraps, one layer name each."""
    from repro.backends import SqlBackend
    from repro.core import Maliva
    from repro.core.qnetwork import QNetwork
    from repro.db import Database
    from repro.db.indexes import GridIndex, InvertedIndex, SortedIndex
    from repro.qte import AccurateQTE, SamplingQTE
    from repro.serving import MalivaService
    from repro.viz import RequestTranslator

    def count_decisions(tracer, decisions) -> None:
        tracer.count("core.decisions", len(decisions))
        tracer.count("core.steps", sum(d.n_explored for d in decisions))

    patches = [
        (RequestTranslator, "to_query", "viz.to_query"),
        (MalivaService, "answer_many", "serving.answer_many"),
        (MalivaService, "append_rows", "serving.append_rows"),
        (Maliva, "rewrite_batch", "core.rewrite_batch", count_decisions),
        (Maliva, "finish_batch", "core.finish_batch"),
        (QNetwork, "predict_rows", "core.predict_rows"),
        (Database, "execute_batch", "db.execute_batch"),
        (Database, "true_execution_time_ms", "db.true_time"),
        (Database, "append_rows", "db.append_rows"),
        (SqlBackend, "execute", "backends.execute"),
        (SqlBackend, "compile", "backends.compile"),
    ]
    for qte in (AccurateQTE, SamplingQTE):
        patches.append((qte, "collect_wave", "qte.collect_wave"))
        patches.append((qte, "estimate", "qte.estimate"))
    for index in (GridIndex, SortedIndex, InvertedIndex):
        patches.append((index, "lookup", "db.index_lookup"))
        patches.append((index, "lookup_batch", "db.index_lookup"))
    return patches
