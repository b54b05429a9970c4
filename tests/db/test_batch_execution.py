"""Execution equivalence: ``execute`` and ``execute_batch`` == the oracle.

The invariant of the engine's one execution pipeline: for any workload
(mixed aggregate/row queries, hint sets, overlapping predicates, LIMITs,
sample-table rewrites, duplicates), any engine profile, and any cache
temperature, ``Database.execute`` (a batch of one) and
``Database.execute_batch`` produce results bit-identical to the pinned
request-at-a-time oracle (``tests/db/_reference.py``) run in the same
order — row ids, bins, work counters, ``base_ms``/``execution_ms``,
obeyed-hints flags, and the per-request engine-cache hit/miss deltas — and
leave the engine caches and RNG in an identical state.

The property is checked on *twin databases* (same construction seeds): one
serves the workload through the oracle, the others through ``execute`` and
``execute_batch``, and both the outcomes and the post-workload cache
counters and RNG state must agree.  Noisy profiles check that drawing every
request's engine randomness up front consumes the RNG stream exactly as
request-at-a-time execution does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import (
    BoundingBox,
    Database,
    EngineProfile,
    KeywordPredicate,
    RangePredicate,
    SpatialPredicate,
    bin_counts,
    bin_counts_many,
    build_bin_layout,
)

from ..conftest import build_twitter_db, random_query_workload
from ._reference import ReferenceGridIndex, reference_execute

PROFILES = {
    "deterministic": EngineProfile.deterministic,
    "postgres": EngineProfile.postgres,
    "commercial": EngineProfile.commercial,
}


def _twin_dbs(profile_name: str, count: int = 2) -> tuple[Database, ...]:
    build = lambda: build_twitter_db(  # noqa: E731 - tiny local factory
        n_tweets=2_500,
        n_users=125,
        sample_fraction=0.05,
        profile=PROFILES[profile_name](),
    )
    return tuple(build() for _ in range(count))


def assert_results_identical(sequential, batched) -> None:
    assert len(sequential) == len(batched)
    for index, (left, right) in enumerate(zip(sequential, batched)):
        context = f"request {index}"
        assert left.base_ms == right.base_ms, context
        assert left.execution_ms == right.execution_ms, context
        assert left.counters.as_dict() == right.counters.as_dict(), context
        assert left.obeyed_hints == right.obeyed_hints, context
        assert left.cache_hits == right.cache_hits, context
        assert left.cache_misses == right.cache_misses, context
        assert left.plan_cached == right.plan_cached, context
        assert left.kind == right.kind, context
        assert left.result_size == right.result_size, context
        if left.bins is not None:
            assert right.bins == left.bins, context
        else:
            assert np.array_equal(left.row_ids, right.row_ids), context


def assert_cache_state_identical(db_a: Database, db_b: Database) -> None:
    left = {c.name: (c.hits, c.misses, c.invalidations) for c in db_a.cache_stats().caches}
    right = {c.name: (c.hits, c.misses, c.invalidations) for c in db_b.cache_stats().caches}
    assert left == right
    assert db_a._rng.bit_generator.state == db_b._rng.bit_generator.state


# ----------------------------------------------------------------------
# The equivalence property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("profile_name", ["deterministic", "postgres", "commercial"])
@pytest.mark.parametrize("workload_seed", [0, 1])
def test_batch_bit_identical_to_sequential(profile_name, workload_seed):
    db_seq, db_one, db_bat = _twin_dbs(profile_name, count=3)
    workload = random_query_workload(db_seq, seed=workload_seed, n=40)
    sequential = [reference_execute(db_seq, query) for query in workload]
    singles = [db_one.execute(query) for query in workload]
    batched, sharing = db_bat.execute_batch(workload)
    assert_results_identical(sequential, singles)
    assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_one)
    assert_cache_state_identical(db_seq, db_bat)
    assert sharing.n_queries == len(workload)
    # Duplicates in the workload must have been deduplicated, not re-run.
    assert sharing.n_distinct_scans < len(workload)
    assert sharing.shared_scans >= len(workload) - sharing.n_distinct_scans


def test_warm_caches_preserve_equivalence():
    """Second pass over the same workload: every probe is a cache hit on
    both sides, and per-request hit/miss deltas still agree exactly."""
    db_seq, db_one, db_bat = _twin_dbs("deterministic", count=3)
    workload = random_query_workload(db_seq, seed=3, n=25)
    for _ in range(2):
        sequential = [reference_execute(db_seq, query) for query in workload]
        singles = [db_one.execute(query) for query in workload]
        batched, _ = db_bat.execute_batch(workload)
        assert_results_identical(sequential, singles)
        assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_one)
    assert_cache_state_identical(db_seq, db_bat)
    # The warm pass sees hits where the cold pass missed.
    assert any(result.cache_hits > 0 for result in batched)


def test_probe_sweeps_cover_profiles():
    """Every profile runs the phase-separated pipeline: hinted batches on
    hint-ignoring profiles draw their obey uniforms up front and still
    answer their probes with fused lookup_batch sweeps."""
    db_det = build_twitter_db(n_tweets=2_500, n_users=125, sample_fraction=0.05)
    workload = random_query_workload(db_det, seed=5, n=15)
    _, sharing = db_det.execute_batch(workload)
    assert sharing.n_probe_sweeps > 0

    for profile in (EngineProfile.postgres(), EngineProfile.commercial()):
        database = build_twitter_db(
            n_tweets=2_500, n_users=125, sample_fraction=0.05, profile=profile
        )
        hinted = [
            q for q in random_query_workload(database, seed=5, n=15) if q.hints
        ]
        assert hinted, "workload should contain hinted queries"
        _, sharing = database.execute_batch(hinted)
        assert sharing.n_probe_sweeps > 0, profile.name


def test_batch_after_mutation_sees_fresh_data():
    """``append_rows`` between batches must invalidate every shared
    structure — match/lookup caches, scan memos are per-batch, and the
    whole-column bin layout — so no stale rows leak into later batches."""
    db_seq, db_bat = _twin_dbs("deterministic")
    workload = random_query_workload(db_seq, seed=7, n=20)
    sequential = [reference_execute(db_seq, query) for query in workload]
    batched, _ = db_bat.execute_batch(workload)
    assert_results_identical(sequential, batched)

    tweets = db_seq.table("tweets")
    new_rows = {
        "id": np.arange(tweets.n_rows, tweets.n_rows + 50),
        "text": ["fresh mutation tweet"] * 50,
        "created_at": np.full(50, float(np.median(tweets.numeric("created_at")))),
        "coordinates": np.tile(
            np.median(tweets.points("coordinates"), axis=0), (50, 1)
        ),
        "users_statues_count": np.zeros(50, dtype=np.int64),
        "users_followers_count": np.zeros(50, dtype=np.int64),
        "user_id": np.zeros(50, dtype=np.int64),
    }
    db_seq.append_rows("tweets", new_rows)
    db_bat.append_rows("tweets", new_rows)

    sequential = [reference_execute(db_seq, query) for query in workload]
    batched, _ = db_bat.execute_batch(workload)
    assert_results_identical(sequential, batched)
    assert_cache_state_identical(db_seq, db_bat)
    # And nothing serves stale shared state: a batched heatmap over the
    # inserted keyword must count exactly the 50 new rows.
    from repro.db import BinGroupBy, SelectQuery

    probe = SelectQuery(
        table="tweets",
        predicates=(KeywordPredicate("text", "mutation"),),
        group_by=BinGroupBy("coordinates", 0.5, 0.5),
    )
    probes, _ = db_bat.execute_batch([probe])
    assert sum(probes[0].bins.values()) == 50.0


def test_execute_batch_empty_and_singleton():
    db_seq, db_bat = _twin_dbs("deterministic")
    results, sharing = db_bat.execute_batch([])
    assert results == [] and sharing.n_queries == 0
    workload = random_query_workload(db_seq, seed=11, n=3)[:1]
    sequential = [reference_execute(db_seq, workload[0])]
    batched, sharing = db_bat.execute_batch(workload)
    assert sharing.n_queries == 1
    assert_results_identical(sequential, batched)


# ----------------------------------------------------------------------
# Fused building blocks
# ----------------------------------------------------------------------
def test_lookup_batch_matches_lookup(small_db):
    rng = np.random.default_rng(2)
    spatial = [
        SpatialPredicate(
            "spot",
            BoundingBox(
                float(x0), float(y0), float(x0 + rng.uniform(0.5, 12)),
                float(y0 + rng.uniform(0.5, 12)),
            ),
        )
        for x0, y0 in rng.uniform(-12, 8, size=(20, 2))
    ]
    ranges = [
        RangePredicate("value", float(lo), float(lo + rng.uniform(1, 60)))
        for lo in rng.uniform(0, 80, size=20)
    ] + [RangePredicate("value", None, 50.0), RangePredicate("value", 50.0, None)]
    keywords = [KeywordPredicate("note", word) for word in ("alpha", "beta", "zzz")]
    table = small_db.table("rows")
    walk = ReferenceGridIndex(table, "spot")
    for column, predicates in (("spot", spatial), ("value", ranges), ("note", keywords)):
        index = small_db.index("rows", column)
        fused = index.lookup_batch(predicates)
        for predicate, batch_lookup in zip(predicates, fused):
            # The grid's kernel against the pinned cell walk; the other
            # indexes against their batch of one and the exact mask.
            single = walk.lookup(predicate) if column == "spot" else index.lookup(predicate)
            assert np.array_equal(single.row_ids, batch_lookup.row_ids)
            assert single.entries_scanned == batch_lookup.entries_scanned
            assert np.array_equal(batch_lookup.row_ids, predicate.matching_ids(table))
    assert small_db.index("rows", "spot").lookup_batch([]) == []


def test_bin_counts_many_matches_bin_counts(small_db):
    from repro.db import BinGroupBy

    table = small_db.table("rows")
    points = table.points("spot")
    group_by = BinGroupBy("spot", 2.5, 2.5)
    layout = build_bin_layout(points, group_by)
    rng = np.random.default_rng(4)
    selections = [
        np.sort(rng.choice(table.n_rows, size=size, replace=False)).astype(np.int64)
        for size in (0, 1, 17, 120, table.n_rows)
    ]
    for weight in (1.0, 12.5):
        fused = bin_counts_many(layout, selections, weight=weight)
        for ids, bins in zip(selections, fused):
            assert bins == bin_counts(points[ids], group_by, weight=weight)
