"""Memos keyed by distinct queries stay bounded across a long serve.

Overfilling each memo keeps it at its capacity, and a value recomputed
after eviction equals the value first memoized — eviction may cost a
recomputation, never a different answer.
"""

from __future__ import annotations

from repro.db import RangePredicate, SelectQuery
from repro.qte import AccurateQTE
from repro.serving.planner_replica import ProxiedAccurateQTE

TRUE_TIME_CAPACITY = 1024
MEMO_CAPACITY = 8192
OVERFLOW = 40


def _predicate(i: int) -> RangePredicate:
    low = (i % 9_000) / 100.0
    return RangePredicate("value", low, low + 10.0 + i / 1e6)


def _query(i: int) -> SelectQuery:
    return SelectQuery(table="rows", predicates=(_predicate(i),), output=("id",))


def test_true_time_cache_stays_at_capacity(small_db):
    queries = [_query(i) for i in range(TRUE_TIME_CAPACITY + OVERFLOW)]
    first = [small_db.true_execution_time_ms(query) for query in queries]
    assert len(small_db._true_time_cache) == TRUE_TIME_CAPACITY
    assert queries[0].key() not in small_db._true_time_cache
    again = [small_db.true_execution_time_ms(query) for query in queries[:OVERFLOW]]
    assert again == first[:OVERFLOW]
    assert len(small_db._true_time_cache) == TRUE_TIME_CAPACITY


def test_accurate_selectivity_memo_stays_at_capacity(small_db):
    qte = AccurateQTE(small_db)
    predicates = [_predicate(i) for i in range(MEMO_CAPACITY + OVERFLOW)]
    first = [qte._true_selectivity("rows", p) for p in predicates]
    assert len(qte._sel_memo) == MEMO_CAPACITY
    assert ("rows", predicates[0].key()) not in qte._sel_memo
    again = [qte._true_selectivity("rows", p) for p in predicates[:OVERFLOW]]
    assert again == first[:OVERFLOW]
    assert len(qte._sel_memo) == MEMO_CAPACITY


def test_accurate_time_memo_stays_at_capacity(small_db):
    qte = AccurateQTE(small_db)
    queries = [_query(i) for i in range(MEMO_CAPACITY + OVERFLOW)]
    first = [qte._true_time(query) for query in queries]
    assert len(qte._time_memo) == MEMO_CAPACITY
    assert queries[0].key() not in qte._time_memo
    again = [qte._true_time(query) for query in queries[:OVERFLOW]]
    assert again == first[:OVERFLOW]
    assert len(qte._time_memo) == MEMO_CAPACITY


def test_proxied_qte_memos_stay_at_capacity(small_db):
    """The worker-side proxy fills the same memos from router RPCs."""
    calls = []

    def rpc(pairs, queries):
        calls.append((len(pairs), len(queries)))
        return (
            [predicate.low / 100.0 for _table, predicate in pairs],
            [query.predicates[0].high for query in queries],
        )

    qte = ProxiedAccurateQTE(small_db, rpc, 40.0, 2.0)
    predicates = [_predicate(i) for i in range(MEMO_CAPACITY + OVERFLOW)]
    queries = [_query(i) for i in range(MEMO_CAPACITY + OVERFLOW)]
    qte.collect_wave(
        [(query, [predicate]) for query, predicate in zip(queries, predicates)]
    )
    assert calls == [(len(predicates), len(queries))]
    assert len(qte._sel_memo) == MEMO_CAPACITY
    assert len(qte._time_memo) == MEMO_CAPACITY
    # Evicted entries resolve through the RPC again, to the same values.
    assert qte._true_selectivity("rows", predicates[0]) == predicates[0].low / 100.0
    assert qte._true_time(queries[0]) == queries[0].predicates[0].high
    assert len(calls) == 3
    assert len(qte._sel_memo) == MEMO_CAPACITY
    assert len(qte._time_memo) == MEMO_CAPACITY
