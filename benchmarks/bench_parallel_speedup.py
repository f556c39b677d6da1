"""Parallel exploration speedup on the largest tractable scenario.

The sharded multiprocess backend promises two things, in this order:

* determinism -- ``jobs`` controls only how many OS processes execute
  the shards, never which shards exist or what they report, so
  ``total_runs`` (and every other ``ExplorationStats`` field) must be
  identical across all job counts; asserted unconditionally;
* speedup -- on a multi-core box, jobs=4 completes the sweep at least
  2x faster than jobs=1.  The speedup assertion is gated on
  ``os.cpu_count() >= 4``: on fewer cores the extra processes just
  time-slice one CPU and the honest measurement is recorded without a
  bar.

The workload is x-safe-agreement at n=4, x=2 under one injected crash
-- the largest registry scenario a serial DPOR sweep finishes in well
under five minutes (plain safe-agreement at n=4 does not).
"""

import os
import time

import pytest

from repro.runtime import explore
from repro.scenarios import check_scenarios

from .harness import header, write_report

JOB_COUNTS = sorted({1, 2, 4, os.cpu_count() or 1})


def _scenario():
    return check_scenarios(n=4, x=2)["x-safe-agreement"]


def _timed_sweep(sc, jobs):
    start = time.perf_counter()
    stats = explore(sc.build, sc.check,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=sc.max_runs,
                    reduction="dpor", jobs=jobs)
    return stats, time.perf_counter() - start


def test_parallel_speedup_fast():
    """Cheap half of the acceptance bar: determinism at n=3."""
    sc = check_scenarios(n=3, x=2)["x-safe-agreement"]
    s1, _ = _timed_sweep(sc, jobs=1)
    s4, _ = _timed_sweep(sc, jobs=4)
    assert s1 == s4
    assert s1.complete_runs > 0


@pytest.mark.slow
def test_parallel_speedup_report():
    """Full n=4 sweep at every job count; regenerates the results table."""
    sc = _scenario()
    rows = []
    for jobs in JOB_COUNTS:
        stats, elapsed = _timed_sweep(sc, jobs)
        rows.append((jobs, stats, elapsed))

    totals = {stats.total_runs for _, stats, _ in rows}
    assert len(totals) == 1, f"total_runs varies with jobs: {totals}"
    first = rows[0][1]
    assert all(stats == first for _, stats, _ in rows), \
        "ExplorationStats varies with jobs"

    base_time = rows[0][2]
    cores = os.cpu_count() or 1
    lines = header(
        "Parallel DPOR exploration: x-safe-agreement (n=4, x=2, 1 crash)",
        "Sharded multiprocess backend vs the same shards on one process.",
        "total_runs must be identical at every job count (determinism);",
        "the >=2x speedup bar at jobs=4 applies only when >=4 CPU cores",
        f"are available (this machine: {cores}).")
    lines.append(f"{'jobs':>5} {'total_runs':>11} {'elapsed_s':>10} "
                 f"{'runs/sec':>9} {'speedup':>8}")
    series = []
    for jobs, stats, elapsed in rows:
        speedup = base_time / elapsed if elapsed > 0 else float("inf")
        rate = stats.total_runs / elapsed if elapsed > 0 else float("inf")
        series.append({"jobs": jobs, "total_runs": stats.total_runs,
                       "elapsed_seconds": elapsed, "speedup": speedup})
        lines.append(f"{jobs:>5} {stats.total_runs:>11} {elapsed:>10.2f} "
                     f"{rate:>9.0f} {speedup:>8.2f}")
        if jobs == 4 and cores >= 4:
            assert speedup >= 2.0, \
                f"jobs=4 speedup bar missed on {cores} cores: {speedup:.2f}"
    if cores < 4:
        lines.append("")
        lines.append(f"note: measured on a {cores}-core machine -- "
                     f"workers beyond {cores} time-slice the same "
                     "CPUs, so the jobs=4 bar is not asserted here; the "
                     "determinism assertion (identical total_runs and "
                     "full ExplorationStats at every job count) ran "
                     "unconditionally and passed.")
    path = write_report("parallel_speedup", lines,
                        data={"cores": cores, "series": series})
    assert path.endswith("parallel_speedup.txt")
