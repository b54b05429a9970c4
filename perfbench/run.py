"""Outside-in benchmark of the Maliva serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 15 --trace 0

A run serves a fixed number of rounds several times, each time on a
fresh build of the serving stack, one serving after the other; the
servings together last about ``--seconds`` on a 2-CPU host.
``--trace 0`` serves them three times untraced and prints the end-to-end
metrics, counting every round with its fastest serving; ``--trace 1``
serves them untraced, then traced, and prints the per-layer metrics of
the traced serving with the tracing overhead.  The twin comes first: the
servings' database, built alike but without agent or service, which the
answer check reads and no timed request does.  ``setup_s`` is the median
of the servings' builds.  See METRICS.md for every metric and workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (scale, host, versions, counts).  The exit code is 1
when an answer check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sqlite3
import sys
import time
from pathlib import Path

import numpy

from measure import host_factor, median, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a git clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_record(args, workload, setup, servings, n_writes: int, failed: int) -> dict:
    first = servings[0]
    attempted = sum(phase.n_attempted for phase in servings)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "dataset": workload.dataset,
        "scale": workload.scale,
        "rows_per_table": setup.rows_per_table(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "n_sessions": first.n_attempted // max(first.n_rounds, 1),
        "n_servings": len(servings),
        "n_rounds": first.n_rounds,
        "n_requests": attempted,
        "n_writes": n_writes,
        "distinct_query_share": len(first.query_keys) / max(first.n_attempted, 1),
        "n_checked": first.check.n_checked,
        "n_mismatched": first.check.n_mismatched,
        "error_rate": failed / max(attempted, 1),
    }


def _diverged(base, other) -> int:
    """Answers of ``other`` that differ from ``base``'s, answer for answer."""
    differing = sum(a != b for a, b in zip(base.digests, other.digests))
    return differing + abs(len(base.digests) - len(other.digests))


def _build(workload, builds: list):
    """One build of the workload's serving stack.

    Appends ``(raw seconds, host-normalized seconds, stages)``; the host is
    probed before and after the build.
    """
    gc.collect()
    before = host_factor()
    started = time.perf_counter()
    setup = workload.build()
    seconds = time.perf_counter() - started
    factor = (before + host_factor()) / 2.0
    builds.append((seconds, seconds * factor, setup.stages))
    return setup


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import (
        SERVINGS,
        Snapshot,
        end_to_end,
        per_layer,
        phase_rounds,
        probe_writes,
        run_phase,
        timings,
        trace_patches,
    )
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r} (have: {sorted(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2

    n_rounds = phase_rounds(workload, args.seconds)
    # The twin: the servings' database, built alike but read by no timed
    # request; only the answer check reads it.
    twin = workload.prepare().database
    builds: list = []
    harness_s: dict[str, float] = {"write_probe_s": 0.0}
    # Servings of the same rounds, each on a fresh build, one after the
    # other: SERVINGS untraced ones (--trace 0), or an untraced one then a
    # traced one (--trace 1).  The first is checked against the twin; the
    # others must answer exactly as it did.
    n_servings = SERVINGS if args.trace == 0 else 2
    servings: list = []
    tracer = Tracer()
    for index in range(n_servings):
        if servings:  # free the previous stack before building the next
            serving.close()
            del serving
        serving = _build(workload, builds)
        if args.trace and index == n_servings - 1:
            before = Snapshot(serving)
            with tracer.installed(trace_patches()):
                servings.append(
                    run_phase(workload, serving, args.seed, n_rounds, tracer=tracer)
                )
            after = Snapshot(serving)
        else:
            checked_by = None if servings else twin
            servings.append(
                run_phase(workload, serving, args.seed, n_rounds, twin=checked_by)
            )
            if args.trace == 0 and not workload.write_every_rounds:
                probed = time.perf_counter()
                servings[-1].probe_write_ms = probe_writes(workload, serving, args.seed)
                harness_s["write_probe_s"] += time.perf_counter() - probed
    base, phase = servings[0], servings[-1]
    rss_mb = peak_rss_mb()
    checked = time.perf_counter()
    base.check.verify(twin.true_result)
    harness_s["check_s"] = time.perf_counter() - checked
    if args.trace == 0:
        metrics = end_to_end(
            servings, median([normalized for _, normalized, _ in builds]), rss_mb
        )
    else:
        metrics = per_layer(tracer, phase, before, after, serving)
        metrics["trace.overhead"] = (
            timings([phase])["timed_s"] / timings([base])["timed_s"] - 1.0,
            "share",
        )
        for stage in ("datasets.build_s", "core.train_s", "backends.ingest_s"):
            metrics[stage] = (
                median([stages[stage] for _, _, stages in builds]),
                "s",
            )
    serving.close()

    diverged = sum(_diverged(base, other) for other in servings[1:])
    failed = sum(p.n_failed for p in servings) + base.check.n_mismatched + diverged
    n_writes = sum(len(p.write_ms) + len(p.probe_write_ms) for p in servings)
    record = run_record(args, workload, serving, servings, n_writes, failed)
    record["n_diverged"] = diverged
    record["raw_wall"] = {
        **timings(servings, normalize=False),
        "setup_s": median([seconds for seconds, _, _ in builds]),
    }
    record["servings"] = [
        {
            "host_probe_ms": median(p.probe_s) * 1000.0,
            "raw_p50_ms": median(p.round_ms),
            "timed_s": p.timed_s,
        }
        for p in servings
    ]
    record["harness_s"] = {
        "builds": [seconds for seconds, _, _ in builds],
        **harness_s,
    }
    correct = failed == 0
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(p.n_attempted for p in servings),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
