"""One pass of one workload, in a fresh interpreter.

Usage (run.py does this; each pass is its own process so that import
and set-up cost is paid, and measured, every time)::

    python3 perfbench/one_pass.py WORKLOAD SEED LAUNCHED_AT TRACE [TRACE_FILE]

``LAUNCHED_AT`` is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so the pass's set-up
time covers interpreter start, imports, scenario construction and
worker launch.  Prints one JSON line: timings, per-item outputs (for
the traced == untraced comparison), failures and, when traced, the
layer figures.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _digest(out) -> object:
    if hasattr(out, "to_dict"):
        return out.to_dict()
    return {key: value for key, value in out.items()
            if not callable(value)}


def main(argv) -> int:
    name, seed, launched_at, traced = (argv[0], int(argv[1]),
                                       float(argv[2]), argv[3] == "1")
    trace_file = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from tracing import Tracer, install
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    tracer = Tracer() if traced else None
    items = workload.setup(seed, ROOT, tracer)
    installed, leftovers = None, 0
    first_start = monotonic()
    latencies, outputs, failures, extra = [], [], [], {}
    try:
        for index, item in enumerate(items):
            if tracer is not None and item.layers != installed:
                # Each item traces the layers it names; a change of
                # layers swaps the wrappers between items, untimed.
                leftovers += tracer.uninstall()
                install(tracer, item.layers)
                installed = item.layers
            error = None
            start = perf_counter()
            try:
                if tracer is not None:
                    with tracer.item_span(index, item.name):
                        out = item.run()
                else:
                    out = item.run()
            except Exception as exc:  # noqa: BLE001 - an item failure
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
            for key, value in workload.after(item, traced).items():
                extra[key] = extra.get(key, 0) + value
            if error is None:
                error = item.verify(out)
            if error is not None:
                failures.append(f"{item.name}: {error}")
                outputs.append(None)
            else:
                outputs.append(_digest(out))
    finally:
        if tracer is not None:
            leftovers += tracer.uninstall()
        workload.close()
    if leftovers:
        failures.append(f"{leftovers} tracing wrapper(s) left installed")
    failures += workload.cross_check(
        {item.name: out for item, out in zip(items, outputs)})
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {
        "setup_s": first_start - launched_at,
        "verdict_s": sum(latencies),
        "items": [item.name for item in items],
        "groups": [item.group for item in items],
        "violating": [item.violating for item in items],
        "latency_s": latencies,
        "outputs": outputs,
        "failures": failures,
        "peak_rss_mb": peak_kb / 1024.0,
        "extra": extra,
    }
    if tracer is not None:
        record["layers"] = tracer.layers
        record["counters"] = tracer.counters
        if trace_file:
            tracer.dump(trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
