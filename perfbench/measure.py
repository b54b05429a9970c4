"""Measurement helpers: percentiles that refuse thin tails, the host-speed
probe, and answer digests.

Kept free of ``repro`` imports so the self-tests exercise them alone.
"""

from __future__ import annotations

import hashlib
import math
import resource
import time

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class ThinTailError(ValueError):
    """Raised when too few samples lie beyond a requested percentile."""


def percentile(values, q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Refuses when fewer than :data:`MIN_TAIL_SAMPLES` samples lie beyond
    it, so a p99 needs at least 1000 samples.
    """
    n = len(values)
    beyond = math.floor(n * (100.0 - q) / 100.0 + 1e-9)
    if beyond < MIN_TAIL_SAMPLES:
        raise ThinTailError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE_ARRAY = np.arange(20_000, dtype=np.float64)
#: Median ``host_probe_s()`` between explore-cold rounds on the reference
#: host (a 2-CPU Xeon VM); host-normalized times are wall times scaled to
#: a host this fast.
REFERENCE_PROBE_S = 0.00043


def _probe_task() -> None:
    total = 0
    table = {}
    for i in range(1_500):
        total += i * i % 7
        table[i & 255] = total
    (_PROBE_ARRAY * 1.0001).sum()
    np.sort(_PROBE_ARRAY[::-1])


def host_probe_s() -> float:
    """Wall seconds of a fixed CPU task mixing interpreter and numpy work.

    Run between rounds, it tracks how fast the host runs this process at
    that moment: on a shared host, other tenants slow it and the program
    alike, by up to a third for minutes at a time.  The task runs three
    times back to back and the fastest run counts: the first run after
    program work pays for cold caches (up to twice the time), which would
    make the probe track the program's memory footprint, not the host.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        _probe_task()
        best = min(best, time.perf_counter() - started)
    return best


def host_factor(probes=None) -> float:
    """Factor scaling wall times to the reference host.

    ``REFERENCE_PROBE_S`` over the median of ``probes`` (taken while the
    times were measured), or of 15 probes taken now.
    """
    if probes is None:
        probes = [host_probe_s() for _ in range(15)]
    return REFERENCE_PROBE_S / median(probes)


def bracket_factors(probes) -> np.ndarray:
    """Per-round factors scaling wall times to the reference host.

    ``probes`` holds a probe before the first round and one after every
    round; round ``i`` is scaled by ``REFERENCE_PROBE_S`` over the mean of
    the probes on either side of it.  The host's speed changes within
    seconds on a shared machine, so a round is scaled by the host speed
    around it rather than by the phase's median.
    """
    probes = np.asarray(probes, dtype=np.float64)
    return REFERENCE_PROBE_S / ((probes[:-1] + probes[1:]) / 2.0)


def result_digest(row_ids, bins) -> bytes:
    """Order-sensitive digest of a result's rows and bins.

    Two results digest equal exactly when their row ids match element for
    element and their bins hold the same ids with the same float values.
    """
    digest = hashlib.blake2b(digest_size=16)
    if row_ids is None:
        digest.update(b"rows:none")
    else:
        digest.update(b"rows:")
        digest.update(np.ascontiguousarray(row_ids, dtype=np.int64).tobytes())
    if bins is None:
        digest.update(b"bins:none")
    else:
        items = sorted(bins.items())
        digest.update(b"bins:")
        digest.update(np.asarray([k for k, _ in items], dtype=np.int64).tobytes())
        digest.update(np.asarray([v for _, v in items], dtype=np.float64).tobytes())
    return digest.digest()


class AnswerCheck:
    """Compares each answer with a reference result of the same query.

    The harness records ``(query key, query, digest)`` per answered request
    while serving; :meth:`verify` later computes one reference per distinct
    query with ``reference_fn`` (a noiseless execution on a database no
    timed request reads) and counts the answers whose digest differs.
    """

    def __init__(self) -> None:
        self._pending: list[tuple[tuple, object, bytes]] = []
        self.n_checked = 0
        self.n_mismatched = 0

    def record(self, query, row_ids, bins) -> bytes:
        """Queue one answer for :meth:`verify`; returns its digest."""
        digest = result_digest(row_ids, bins)
        self._pending.append((query.key(), query, digest))
        return digest

    def verify(self, reference_fn) -> int:
        """Check every pending answer; returns the mismatches found now."""
        references: dict[tuple, bytes] = {}
        mismatched = 0
        for key, query, digest in self._pending:
            expected = references.get(key)
            if expected is None:
                result = reference_fn(query)
                expected = result_digest(result.row_ids, result.bins)
                references[key] = expected
            if digest != expected:
                mismatched += 1
        self.n_checked += len(self._pending)
        self.n_mismatched += mismatched
        self._pending = []
        return mismatched
