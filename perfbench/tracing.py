"""Outside-in tracing for the benchmark: wrappers around layer calls.

Nothing in ``src/repro`` knows it is being traced.  :func:`install`
replaces public functions and methods of the layers named in
:data:`LAYERS` with wrappers that time each call, and
:meth:`Tracer.uninstall` puts every original back (and proves it did).

Two kinds of record are kept in memory and written out at the end:

* a **span** -- ``(id, name, parent id, item id, start, end, self)`` --
  for every benchmark item and every call into a coarse layer (an
  exploration, a shrink, a shard pool, an in-process shard, a
  ``run_processes`` run, one sweep configuration);
* a **layer aggregate** -- entries, calls, self seconds and the seconds
  of entries -- for every layer, including the hot ones
  (``store.apply``, the scheduler step, ``conflicts``, fingerprinting,
  scenario build and check, the wire codec, journal records) whose
  hundreds of thousands of calls per item would cost more to store as
  spans than to run.

Self time is a frame's duration minus the time of the wrapped calls
made inside it, whatever their layer, so the self times of all layers
plus the benchmark's own item overhead add up to the traced wall time.
A call that enters a layer from outside it counts as an *entry*; calls
nested inside the same layer (``Fingerprinter.object_parts`` calling
``object_fingerprint``) count as calls but not again as entries.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_MARK = "__perfbench_wrapper__"


class Tracer:
    """Spans, per-layer aggregates and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        #: layer -> [entries, calls, self seconds, seconds of entries]
        self.layers: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.item: Optional[int] = None
        self._stack: List[List[Any]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next_span = 0
        self.dpor_depth = 0

    # -- recording ------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, layer: str, fn: Callable, *, span: bool = False,
             pre: Optional[Callable] = None,
             post: Optional[Callable] = None) -> Callable:
        """A timing wrapper for ``fn`` attributed to ``layer``.

        ``pre(args, kwargs)`` may rewrite the keyword arguments before
        the call (used to attach a metrics collector);
        ``post(result, exc, kwargs)`` sees the outcome.
        """
        agg = self.layers.setdefault(layer, [0, 0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if span:
                tracer._next_span += 1
                frame = [layer, 0.0, tracer._next_span,
                         tracer._span_parent()]
            else:
                frame = [layer, 0.0, None]
            if pre is not None:
                pre(args, kwargs)
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                agg[1] += 1
                if parent is None or parent[0] != layer:
                    agg[0] += 1
                    agg[3] += duration
                agg[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if span:
                    spans.append((frame[2], layer, frame[3], tracer.item,
                                  start, end, duration - frame[1]))
                if post is not None:
                    post(result, exc, kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _span_parent(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    @contextmanager
    def item_span(self, item: int, name: str):
        """Time one benchmark item as a root span."""
        self.item = item
        self._next_span += 1
        frame = ["bench.item", 0.0, self._next_span, None]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((frame[2], name, None, item, start, end,
                               end - start - frame[1]))
            self.item = None

    # -- patching -------------------------------------------------------

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every ``repro`` module that binds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> int:
        """Restore every patched attribute; return wrappers left behind."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftovers = sum(1 for owner, attr, original in self._patches
                        if getattr(owner, attr) is not original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for value in list(vars(module).values()):
                if getattr(value, _MARK, False):
                    leftovers += 1
                elif isinstance(value, type):
                    leftovers += sum(
                        1 for member in vars(value).values()
                        if getattr(member, _MARK, False))
        self._patches.clear()
        return leftovers

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "name", "parent", "item", "start",
                                  "end", "self_s"],
                       "spans": self.spans,
                       "layers": {name: {"entries": a[0], "calls": a[1],
                                         "self_s": a[2], "total_s": a[3]}
                                  for name, a in self.layers.items()},
                       "counters": self.counters}, handle)


# ---------------------------------------------------------------------------
# Layer installers.  Each takes the tracer and wraps one layer's public
# entry points; ``install`` runs the ones a workload exercises in the
# traced process.
# ---------------------------------------------------------------------------

def _metrics_pre(args, kwargs) -> None:
    if kwargs.get("metrics") is None:
        from repro.analysis.metrics import ExplorationMetrics
        kwargs["metrics"] = ExplorationMetrics()
        kwargs["metrics"].injected = True


def _install_store(tracer: Tracer) -> None:
    from repro.memory.store import ObjectStore
    from repro.runtime.scheduler import Scheduler
    tracer.patch(ObjectStore, "apply",
                 tracer.wrap("store.apply", ObjectStore.apply))

    def count_step(result, exc, kwargs) -> None:
        if tracer.dpor_depth:
            tracer.add("dpor.steps", 1)

    tracer.patch(Scheduler, "_step",
                 tracer.wrap("scheduler.step", Scheduler._step,
                             post=count_step))


def _install_ops(tracer: Tracer) -> None:
    from repro.runtime.ops import conflicts
    tracer.patch_function(conflicts, tracer.wrap("ops.conflicts",
                                                 conflicts))


def _install_fingerprint(tracer: Tracer) -> None:
    from repro.runtime.fingerprint import Fingerprinter

    def count_node(result, exc, kwargs) -> None:
        tracer.add("fingerprint.nodes", 1)

    for method in ("fingerprint", "object_parts", "heavy_parts",
                   "object_fingerprint", "process_heavy", "assemble"):
        tracer.patch(Fingerprinter, method, tracer.wrap(
            "fingerprint", getattr(Fingerprinter, method),
            post=count_node if method == "assemble" else None))


def _exploration_post(tracer: Tracer, layer: str):
    def post(result, exc, kwargs) -> None:
        if layer == "dpor":
            tracer.dpor_depth -= 1
        stats = result if exc is None else getattr(exc, "stats", None)
        if stats is not None:
            tracer.add(f"{layer}.runs", stats.total_runs)
        metrics = kwargs.get("metrics")
        if metrics is None or not getattr(metrics, "injected", False):
            return
        tracer.add(f"{layer}.sleep_hits", metrics.sleep_set_hits)
        tracer.add(f"{layer}.sleep_checks", metrics.sleep_set_checks)
        tracer.add(f"{layer}.cache_hits", metrics.cache_hits)
        if layer == "parallel":
            for phase in ("frontier_expansion", "shard_execution",
                          "merge"):
                tracer.add(f"parallel.{phase}_s",
                           metrics.phases.get(phase, 0.0))
            tracer.add("parallel.shards", metrics.shard_count)
            rows = [row for row in metrics.workers if row["worker"] >= 0]
            tracer.add("parallel.busy_s",
                       sum(row["busy_seconds"] for row in rows))
            tracer.add("parallel.capacity_s",
                       metrics.phases.get("shard_execution", 0.0)
                       * len(rows))
    return post


def _install_dpor(tracer: Tracer) -> None:
    from repro.runtime import dpor

    def pre(args, kwargs) -> None:
        tracer.dpor_depth += 1
        _metrics_pre(args, kwargs)

    tracer.patch_function(dpor.explore_dpor, tracer.wrap(
        "dpor", dpor.explore_dpor, span=True, pre=pre,
        post=_exploration_post(tracer, "dpor")))


def _install_shrink(tracer: Tracer) -> None:
    from repro.runtime import dpor

    def post(result, exc, kwargs) -> None:
        if result is not None:
            tracer.add("dpor.ddmin_replays", result.ddmin_attempts)

    tracer.patch_function(dpor.shrink_schedule, tracer.wrap(
        "dpor.shrink", dpor.shrink_schedule, span=True, post=post))


def traced_scenario(tracer: Tracer, scenario):
    """A copy of ``scenario`` whose build and check calls are timed."""
    import dataclasses
    return dataclasses.replace(
        scenario, build=tracer.wrap("scenario.build", scenario.build),
        check=tracer.wrap("scenario.check", scenario.check))


def _install_scenario(tracer: Tracer) -> None:
    from repro.generative.generator import scenario_for

    def traced_for(cfg):
        return traced_scenario(tracer, scenario_for(cfg))

    setattr(traced_for, _MARK, True)
    tracer.patch_function(scenario_for, traced_for)


def _install_run(tracer: Tracer) -> None:
    from repro.runtime.run import run_processes
    tracer.patch_function(run_processes, tracer.wrap(
        "run.run_processes", run_processes, span=True))


def _install_parallel(tracer: Tracer) -> None:
    from repro.runtime import parallel

    tracer.patch_function(parallel.explore_parallel, tracer.wrap(
        "parallel", parallel.explore_parallel, span=True, pre=_metrics_pre,
        post=_exploration_post(tracer, "parallel")))
    tracer.patch_function(parallel.execute_shard, tracer.wrap(
        "parallel.execute_shard", parallel.execute_shard, span=True))


def _install_wire(tracer: Tracer) -> None:
    from repro.runtime import wire
    from repro.runtime.frontier import FrontierStore

    def decoded(result, exc, kwargs) -> None:
        if result is not None:
            tracer.add("wire.bytes", result[1])

    def encoded(result, exc, kwargs) -> None:
        if result is not None:
            tracer.add("wire.bytes", len(result))

    tracer.patch_function(wire.try_decode, tracer.wrap(
        "wire.codec", wire.try_decode, post=decoded))
    tracer.patch_function(wire.send_frame, tracer.wrap(
        "wire.codec", wire.send_frame))
    tracer.patch_function(wire.encode_frame, tracer.wrap(
        "wire.codec", wire.encode_frame, post=encoded))
    for method in ("record_grant", "record_completion"):
        tracer.patch(FrontierStore, method, tracer.wrap(
            "frontier.record", getattr(FrontierStore, method)))


#: Layer installers by name; each benchmark item lists the ones it
#: exercises in the traced process.  Shard workers run in other
#: processes, so sharded items install only coordinator-side layers.
LAYERS: Dict[str, Callable[[Tracer], None]] = {
    "store": _install_store,
    "ops": _install_ops,
    "fingerprint": _install_fingerprint,
    "dpor": _install_dpor,
    "shrink": _install_shrink,
    "scenario": _install_scenario,
    "run": _install_run,
    "parallel": _install_parallel,
    "wire": _install_wire,
}


def install(tracer: Tracer, layers) -> None:
    for name in layers:
        LAYERS[name](tracer)
