"""The checker's benchmark: one workload, end to end or layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 \\
        --seconds 60 --trace 0

The workload runs as a series of *passes*, each in a fresh interpreter
(``one_pass.py``), until ``--seconds`` is used up (at least three
passes).  Every item of every pass is checked against its pinned
output; figures are medians over passes.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- from process launch to the first item's start
  (interpreter start, imports, scenario build, worker launch);
* ``verdict_s`` -- seconds spent running the pass's items, first start
  to last verdict, without the benchmark's own checks between items;
* ``item_ms_p95`` -- per-item latency, 95th percentile;
* ``peak_rss_mb`` -- the largest peak RSS of any process of a pass.

``failed / attempted`` is the failed-item ratio: an item fails if it
raises, returns a wrong verdict or wrong statistics, or differs from
the same item in another pass.

``--trace 1`` alternates untraced and traced passes (at least two of
each) and reports the per-layer metrics of the traced ones (see
``tracing.py``), with ``trace.overhead_ratio`` = traced over untraced
``verdict_s``, and the median item and counterexample latency of the
untraced ones.  Traced
passes write their spans to ``perfbench/traces/``; every run writes its
raw pass records to ``perfbench/results/``.  The line before the result
is a JSON ``context`` record: core count, Python version, worker
processes, pass and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import monotonic
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: A run must finish within this many seconds, whatever ``--seconds``.
RUN_LIMIT_S = 170.0
MIN_PASSES = 3

FAMILIES = ("calculus", "construction", "blocking", "byzantine",
            "renaming", "snapshot", "message", "audit")


def _declared(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class PassFailed(RuntimeError):
    pass


def _run_pass(workload: str, seed: int, traced: bool, index: int,
              budget: float) -> Dict[str, Any]:
    trace_file = ""
    if traced:
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        trace_file = os.path.join(
            HERE, "traces", f"{workload}-seed{seed}-pass{index}.json")
    env = dict(os.environ)
    # Byte code is cached inside the benchmark's own directory, never
    # beside the sources.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(HERE, ".pycache")
    # String hashing orders sets, which moves work counters (not
    # results) between processes: fix it so counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    launched_at = monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "one_pass.py"), workload,
         str(seed), repr(launched_at), "1" if traced else "0",
         trace_file],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass {index} exceeded {budget:.0f}s")
    finally:
        # Reap anything the pass left behind in its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"pass {index} exited with {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["elapsed_s"] = monotonic() - launched_at
    return record


def _p95(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "item_ms_p95": 1e3 * statistics.median(
            _p95(p["latency_s"]) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _small_latencies(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median item and counterexample latency, pooled over passes.

    Millisecond-scale items move 15-25% between runs on a shared
    2-vCPU machine (twice the spread of ``verdict_s``), too much to
    gate a change on, so these two are reported beside the layers.
    """
    latencies = [lat for p in passes for lat in p["latency_s"]]
    violating = [lat for p in passes
                 for lat, bad in zip(p["latency_s"], p["violating"]) if bad]
    return {"item_ms_p50": 1e3 * statistics.median(latencies),
            "counterexample_ms_p50": 1e3 * statistics.median(violating)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_figures(p: Dict[str, Any]) -> Dict[str, float]:
    layers, counters, extra = p["layers"], p["counters"], p["extra"]

    def entries(layer):
        return layers.get(layer, [0, 0, 0.0, 0.0])[0]

    def self_s(layer):
        return layers.get(layer, [0, 0, 0.0, 0.0])[2]

    def total_s(layer):
        return layers.get(layer, [0, 0, 0.0, 0.0])[3]

    def count(name):
        return counters.get(name, 0)

    figures = {}
    for layer in ("store.apply", "scheduler.step", "scenario.build",
                  "scenario.check", "ops.conflicts", "dpor.shrink",
                  "run.run_processes", "frontier.record"):
        figures[f"{layer}.calls"] = entries(layer)
        figures[f"{layer}.s"] = self_s(layer)
    figures.update({
        "dpor.steps_per_run": _ratio(count("dpor.steps"),
                                     count("dpor.runs")),
        "dpor.self_s": self_s("dpor"),
        "dpor.sleep_hit_ratio": _ratio(
            count("dpor.sleep_hits") + count("parallel.sleep_hits"),
            count("dpor.sleep_checks") + count("parallel.sleep_checks")),
        "fingerprint.calls": entries("fingerprint"),
        "fingerprint.s": self_s("fingerprint"),
        "fingerprint.hit_ratio": _ratio(count("dpor.cache_hits"),
                                        count("fingerprint.nodes")),
        "dpor.ddmin_replays": count("dpor.ddmin_replays"),
        "generative.generate_config.s": total_s(
            "generative.generate_config"),
        "parallel.frontier_expansion_s": count(
            "parallel.frontier_expansion_s"),
        "parallel.shard_execution_s": count("parallel.shard_execution_s"),
        "parallel.merge_s": count("parallel.merge_s"),
        "parallel.shards": count("parallel.shards"),
        "parallel.worker_busy_ratio": _ratio(count("parallel.busy_s"),
                                             count("parallel.capacity_s")),
        "netshard.frames_per_shard": _ratio(extra.get("netshard.frames", 0),
                                            extra.get("netshard.shards", 0)),
        "netshard.retries": extra.get("netshard.retries", 0),
        "netshard.regrants": extra.get("netshard.regrants", 0),
        "netshard.inprocess_shards": extra.get(
            "netshard.inprocess_shards", 0),
        "wire.codec.s": self_s("wire.codec"),
        "wire.bytes": count("wire.bytes"),
        "netshard.worker_exit_s": extra.get("netshard.worker_exit_s", 0.0),
        "frontier.bytes": extra.get("frontier.bytes", 0),
    })
    for family in FAMILIES:
        figures[f"sweep.{family}.s"] = total_s(f"sweep.{family}")
    return figures


def _per_layer(untraced, traced) -> Dict[str, float]:
    per_pass = [_layer_figures(p) for p in traced]
    figures = {name: statistics.median(f[name] for f in per_pass)
               for name in per_pass[0]}
    # Socket against fork on the same state space, from untraced passes.
    for venue in ("fork", "socket"):
        figures[f"venue.{venue}.s"] = statistics.median(
            dict(zip(p["items"], p["latency_s"])).get(
                f"{venue}:x-safe-agreement:n4", 0.0) for p in untraced)
    figures["venue.socket_over_fork"] = _ratio(figures["venue.socket.s"],
                                               figures["venue.fork.s"])
    figures.update(_small_latencies(untraced))
    figures["trace.overhead_ratio"] = _ratio(
        statistics.median(p["verdict_s"] for p in traced),
        statistics.median(p["verdict_s"] for p in untraced))
    return figures


def _check_agreement(passes: List[Dict[str, Any]]) -> List[str]:
    """Every pass must produce the same output for every item."""
    reference = {}
    mismatches = []
    for p in passes:
        for name, out in zip(p["items"], p["outputs"]):
            if out is None:
                continue
            if name not in reference:
                reference[name] = out
            elif reference[name] != out:
                mismatches.append(f"{name}: output differs between passes")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    started = monotonic()
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    while True:
        trace_next = bool(args.trace) and len(traced) < len(untraced)
        done = untraced + traced
        elapsed = monotonic() - started
        if args.trace:
            enough = min(len(untraced), len(traced)) >= 2
        else:
            enough = len(untraced) >= MIN_PASSES
        longest = max((p["elapsed_s"] for p in done), default=0.0)
        if enough and (elapsed + longest > args.seconds
                       or elapsed + 2 * longest > RUN_LIMIT_S):
            break
        try:
            record = _run_pass(args.workload, args.seed, trace_next,
                               len(done), RUN_LIMIT_S - elapsed)
        except PassFailed as exc:
            print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
            return 1
        (traced if trace_next else untraced).append(record)

    done = untraced + traced
    failures = [f for p in done for f in p["failures"]]
    failures += _check_agreement(done)
    attempted = sum(len(p["items"]) for p in done)
    if args.trace:
        values = _per_layer(untraced, traced)
        units = _declared("per_layer")
    else:
        values = _end_to_end(untraced)
        units = _declared("end_to_end")
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    context = {
        "workload": args.workload, "seed": args.seed,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "worker_processes": workload.workers,
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "items_per_pass": len(untraced[0]["items"]),
        "item_samples": sum(len(p["items"]) for p in untraced),
        "counterexample_samples": sum(sum(p["violating"])
                                      for p in untraced),
        "failures": failures[:20],
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"context": context, "metrics": values,
                   "passes": done}, handle)
    for name, unit in units.items():
        print(f"{name:<32} {values[name]:>14.6g} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
