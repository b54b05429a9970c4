"""Self-tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import numpy as np
import pytest

from measure import (
    REFERENCE_PROBE_S,
    AnswerCheck,
    ThinTailError,
    bracket_factors,
    host_factor,
    percentile,
)
from tracer import Span, Tracer


# -- percentiles ----------------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(ThinTailError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == pytest.approx(989.01)


def test_p50_needs_twenty_samples():
    with pytest.raises(ThinTailError):
        percentile([1.0] * 19, 50)
    assert percentile(list(range(20)), 50) == pytest.approx(9.5)


def test_host_factor_follows_the_median_probe_not_one_outlier():
    probes = [REFERENCE_PROBE_S] * 10 + [2 * REFERENCE_PROBE_S] * 4
    probes.append(50 * REFERENCE_PROBE_S)  # one preempted probe
    assert host_factor(probes) == pytest.approx(1.0)
    assert host_factor([2 * REFERENCE_PROBE_S] * 3) == pytest.approx(0.5)


def test_each_round_is_scaled_by_the_probes_around_it():
    ref = REFERENCE_PROBE_S
    probes = [ref, ref, 3 * ref, ref]
    factors = bracket_factors(probes)
    assert len(factors) == 3  # one probe before the first round, one after each
    assert factors == pytest.approx([1.0, 0.5, 0.5])


# -- spans ----------------------------------------------------------------
def _tracer(spans) -> Tracer:
    tracer = Tracer()
    for name, start, end, parent in spans:
        tracer.spans.append(Span(name, start, end, parent, 0))
    return tracer


def test_self_time_subtracts_direct_children():
    tracer = _tracer(
        [
            ("serving", 0, 100, None),  # 0
            ("core", 10, 40, 0),  # 1
            ("qte", 15, 25, 1),  # 2
            ("db", 50, 70, 0),  # 3
        ]
    )
    totals = tracer.totals()
    assert totals["serving"].self_s == pytest.approx(50e-9)
    assert totals["serving"].total_s == pytest.approx(100e-9)
    assert totals["core"].self_s == pytest.approx(20e-9)
    assert totals["qte"].self_s == pytest.approx(10e-9)
    assert totals["db"].self_s == pytest.approx(20e-9)
    assert tracer.root_seconds() == pytest.approx(100e-9)
    # Self times of all spans partition the root span.
    assert sum(t.self_s for t in totals.values()) == pytest.approx(100e-9)


def test_same_name_nesting_counts_once():
    tracer = _tracer(
        [
            ("db.index_lookup", 0, 30, None),  # a batch lookup ...
            ("db.index_lookup", 5, 15, 0),  # ... calling single lookups
            ("db.index_lookup", 15, 25, 0),
        ]
    )
    entry = tracer.totals()["db.index_lookup"]
    assert entry.calls == 1
    assert entry.total_s == pytest.approx(30e-9)
    assert entry.self_s == pytest.approx(30e-9)


class _Layer:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_patched_calls_nest_and_uninstall_restores():
    original_outer = _Layer.__dict__["outer"]
    tracer = Tracer()
    with tracer.installed([(_Layer, "outer", "outer"), (_Layer, "inner", "inner")]):
        tracer.active = True
        assert _Layer().outer() == 2
        tracer.active = False
        assert _Layer().outer() == 2  # inactive: no spans
    assert _Layer.__dict__["outer"] is original_outer
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]


# -- answer check -----------------------------------------------------------
class _Query:
    def __init__(self, key):
        self._key = key

    def key(self):
        return self._key


class _Result:
    def __init__(self, row_ids=None, bins=None):
        self.row_ids = row_ids
        self.bins = bins


def test_answer_check_catches_a_corrupted_row_set():
    reference = {
        "rows": _Result(row_ids=np.array([3, 7, 11, 19], dtype=np.int64)),
        "bins": _Result(bins={4: 2.0, 9: 1.0}),
    }
    check = AnswerCheck()
    check.record(_Query("rows"), np.array([3, 7, 11, 19]), None)
    check.record(_Query("bins"), None, {9: 1.0, 4: 2.0})
    assert check.verify(lambda q: reference[q.key()]) == 0

    check.record(_Query("rows"), np.array([3, 7, 12, 19]), None)  # one row off
    check.record(_Query("rows"), np.array([3, 7, 11]), None)  # one row lost
    check.record(_Query("bins"), None, {4: 2.0, 9: 1.5})  # one count off
    assert check.verify(lambda q: reference[q.key()]) == 3
    assert (check.n_checked, check.n_mismatched) == (5, 3)
