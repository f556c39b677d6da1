"""The benchmark's workloads: their items, pinned outputs and venues.

A workload turns a seed into a list of *items* (one exploration, or one
generated sweep configuration), each run through the public API and
checked against a pinned expected output.  Every workload here runs
without a single expected failure; a wrong verdict, wrong statistics or
a raised error is an item failure.

Why these two (see ``BENCHMARK.json``):

* ``explore`` -- a few large state spaces, each explored to its
  verdict: the registry scenarios serially with the ``check`` CLI
  defaults (DPOR, state cache on), where replay, race detection and
  fingerprinting do nearly all the work; and the same x-safe-agreement
  space sharded through both venues, the TCP shard service with a
  durable frontier journal served to two ``python -m repro worker``
  processes, and the fork-pipe pool at ``jobs=2``.
* ``sweep`` -- ~300 tiny generated configurations: per-exploration
  fixed cost, adversary-driven runs and counterexample finding dominate.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
from time import monotonic
from typing import Any, Callable, Dict, List, Optional

#: Expected ``ExplorationStats`` as (complete, truncated, max depth,
#: pruned) for serial DPOR with the state cache on (the CLI default).
SERIAL_PINS = {
    ("safe-agreement", 3): (3124, 0, 16, 11202),
    ("adopt-commit", 3): (289, 0, 12, 685),
    ("x-safe-agreement", 3): (44, 0, 14, 101),
    ("queue-2cons", 3): (2, 0, 5, 2),
    ("x-safe-agreement", 4): (3198, 0, 25, 10845),
}

#: Expected merged statistics of sharded exploration.  The frontier has
#: ``4 * max(16, cpu_count, jobs)`` shards, so these hold on machines
#: with at most 16 cores; the fork pool and the socket service must
#: both produce them (fork == socket, bit for bit).
SHARD_PINS = {
    ("x-safe-agreement", 4): (3956, 0, 25, 19430),
}

#: broken-demo's violation: statistics at the failing run and the
#: ddmin-shrunk prefix, identical serially and sharded (the violation
#: is found while the frontier is expanded).
BROKEN_DEMO_PIN = {"stats": (3, 0, 6, 2), "prefix": [1, 1, 1],
                   "error": "AssertionError"}

#: The sweep runs configurations ``0 .. SWEEP_COUNT-1`` of generator
#: batch ``SWEEP_BATCH`` in an order the workload seed shuffles.  The
#: batch stays fixed because a configuration's cost is set by its
#: family and parameters: batches of other seeds differ by up to 20% in
#: duration, as the few exhaustive 3-process blocking configurations
#: they happen to draw decide it.
SWEEP_COUNT = 300
SWEEP_BATCH = 0

#: ``explore``'s serial items: the registry scenarios at ``check``
#: defaults.
SERIAL = (("safe-agreement", 3), ("adopt-commit", 3),
          ("x-safe-agreement", 3), ("queue-2cons", 3), ("broken-demo", 3),
          ("x-safe-agreement", 4))
#: ``explore``'s sharded items, each run through the socket service and
#: through the fork pool.
SHARDED = (("x-safe-agreement", 4), ("broken-demo", 3))

WORKERS = 2


def stats_tuple(stats) -> tuple:
    return (stats.complete_runs, stats.truncated_runs,
            stats.max_depth_seen, stats.pruned_runs)


class Item:
    """One unit of work: ``run()`` is timed, ``verify()`` is not."""

    def __init__(self, name: str, run: Callable[[], Any],
                 verify: Callable[[Any], Optional[str]],
                 group: str = "", layers: tuple = ()) -> None:
        self.name = name
        self.run = run
        self.verify = verify
        self.group = group
        #: Layers whose wrappers a traced pass installs around this item
        #: (see tracing.py).
        self.layers = layers
        self.violating = False


# ---------------------------------------------------------------------------
# Exploration items (serial, fork pool, socket service).
# ---------------------------------------------------------------------------

def _explored(call: Callable[[], Any]) -> Dict[str, Any]:
    """Run an exploration; fold a found counterexample into the output."""
    from repro.runtime import CounterexampleFound
    try:
        stats = call()
    except CounterexampleFound as exc:
        ce = exc.counterexample
        return {"stats": stats_tuple(exc.stats),
                "violation": {"prefix": list(ce.prefix),
                              "error": type(ce.error).__name__},
                "reproduces": ce.reproduces}
    return {"stats": stats_tuple(stats), "violation": None}


def _verify_explored(expected_stats: tuple, violation: Optional[dict]):
    def verify(out: Dict[str, Any]) -> Optional[str]:
        if out["stats"] != expected_stats:
            return f"stats {out['stats']} != pinned {expected_stats}"
        if violation is None:
            return None if out["violation"] is None else \
                f"unexpected violation {out['violation']}"
        if out["violation"] != violation:
            return f"violation {out['violation']} != pinned {violation}"
        if not out.pop("reproduces")():
            return "counterexample does not reproduce"
        return None
    return verify


#: Layers traced around serial explorations.
SERIAL_LAYERS = ("store", "ops", "fingerprint", "dpor", "shrink")
#: Layers traced around sharded explorations.  Fork workers inherit the
#: coordinator's memory, wrappers included, but their records never
#: come back, and socket workers are other programs: only
#: coordinator-side layers, so the hot per-step wrappers stay out of
#: the workers.
SHARD_LAYERS = ("parallel", "shrink", "wire")


def _exploration_item(label: str, name: str, n: int, run, pins,
                      group: str, layers: tuple) -> Item:
    """An exploration item checked against its pin (or the violation)."""
    if name != "broken-demo":
        return Item(label, run, _verify_explored(pins[(name, n)], None),
                    group, layers)
    pin = BROKEN_DEMO_PIN
    item = Item(label, run, _verify_explored(
        pin["stats"], {"prefix": pin["prefix"], "error": pin["error"]}),
        group, layers)
    item.violating = True
    return item


def _scenario(name: str, n: int, tracer):
    from repro.scenarios import check_scenarios
    sc = check_scenarios(n=n)[name]
    if tracer is not None:
        from tracing import traced_scenario
        sc = traced_scenario(tracer, sc)
    return sc


def _serial_item(name: str, n: int, tracer) -> Item:
    from repro import runtime
    sc = _scenario(name, n, tracer)

    def run():
        return _explored(lambda: runtime.explore(
            sc.build, sc.check, crash_plan_factory=sc.crash_plan_factory,
            max_steps=sc.max_steps, max_runs=sc.max_runs,
            reduction="dpor"))

    return _exploration_item(f"serial:{name}:n{n}", name, n, run,
                             SERIAL_PINS, "serial", SERIAL_LAYERS)


def _sharded_item(name: str, n: int, tracer, pool=None,
                  frontier_path: Optional[str] = None) -> Item:
    from repro.runtime import parallel
    from repro.scenarios import ScenarioRef
    sc = _scenario(name, n, tracer)

    def run():
        kwargs: Dict[str, Any] = {"jobs": WORKERS}
        if pool is not None:
            from repro.runtime import FrontierStore
            if os.path.exists(frontier_path):
                os.unlink(frontier_path)
            kwargs = {"jobs": 1, "pool": pool(name, n, sc),
                      "frontier": FrontierStore(frontier_path)}
        return _explored(lambda: parallel.explore_parallel(
            sc.build, sc.check, crash_plan_factory=sc.crash_plan_factory,
            max_steps=sc.max_steps, max_runs=sc.max_runs,
            scenario=ScenarioRef(name, n=n), **kwargs))

    venue = "fork" if pool is None else "socket"
    return _exploration_item(f"{venue}:{name}:n{n}", name, n, run,
                             SHARD_PINS, venue, SHARD_LAYERS)


# ---------------------------------------------------------------------------
# Socket workers: separate ``python -m repro worker`` processes.
# ---------------------------------------------------------------------------

class SocketWorkers:
    """Two CLI workers, launched before the first item and reaped after.

    The workers dial a port the benchmark picked.  During set-up the
    benchmark itself listens there until both workers have connected
    (so interpreter start and imports are paid before the first item,
    not inside its verdict time), then closes; each worker treats that
    as one failed connection attempt and dials again on its normal
    backoff, reaching the :class:`ShardServer` that the socket item
    binds to the same port.
    """

    def __init__(self, root: str) -> None:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(("127.0.0.1", 0))
        probe.listen(WORKERS)
        probe.settimeout(60.0)
        self.port = probe.getsockname()[1]
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.procs = [subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--connect",
             f"127.0.0.1:{self.port}", "--name", f"perfbench-w{i}"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
            for i in range(WORKERS)]
        try:
            for _ in range(WORKERS):
                conn, _addr = probe.accept()
                conn.close()
        finally:
            probe.close()
        self.verdict_at: Optional[float] = None

    def stop(self) -> None:
        """Stop the workers now (the untraced runs)."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()

    def wait_exit(self, limit: float) -> Dict[str, float]:
        """Let the workers leave on their own, for at most ``limit`` s.

        Returns the seconds from the verdict until the last worker
        exited, and the RPC retries the workers reported on exit.
        """
        retries = 0
        exited = self.verdict_at
        for proc in self.procs:
            remaining = max(0.0, self.verdict_at + limit - monotonic())
            try:
                out, _ = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            exited = max(exited, monotonic())
            for line in out.splitlines():
                if line.startswith("[worker]") and "RPC retr" in line:
                    retries += int(line.split(",")[1].split()[0])
        return {"netshard.worker_exit_s": exited - self.verdict_at,
                "netshard.retries": retries}


def _socket_pool(workers: SocketWorkers, servers: Dict[str, Any]):
    def make(name, n, sc):
        from repro.runtime import ShardServer
        server = ShardServer(
            "127.0.0.1", workers.port,
            config={"scenario": name, "n": n, "x": 2,
                    "max_steps": sc.max_steps, "max_runs": sc.max_runs,
                    "reduction": "dpor", "state_cache": True})
        servers[name] = server
        return server
    return make


# ---------------------------------------------------------------------------
# Sweep items.
# ---------------------------------------------------------------------------

def _sweep_item(index: int, tracer) -> Item:
    from repro import generative
    from repro.generative.oracle import VIOLATION
    generate = generative.generate_config
    family = generate(SWEEP_BATCH, index).family
    execute = generative.execute_config
    if tracer is not None:
        generate = tracer.wrap("generative.generate_config", generate,
                               span=True)
        execute = tracer.wrap(f"sweep.{family}", execute, span=True)

    def run():
        return execute(generate(SWEEP_BATCH, index))

    def verify(outcome) -> Optional[str]:
        item.violating = outcome.observed == VIOLATION
        if not outcome.agree:
            return f"oracle disagreement: {outcome.describe()}"
        return None

    item = Item(f"generated:{SWEEP_BATCH}:{index}", run, verify,
                family, SERIAL_LAYERS + ("scenario", "run"))
    return item


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class Workload:
    """Base: ``setup`` builds the items; ``after`` tidies up per item."""

    name = ""
    workers = 0

    def setup(self, seed: int, root: str, tracer) -> List[Item]:
        raise NotImplementedError

    def after(self, item: Item, traced: bool) -> Dict[str, float]:
        return {}

    def cross_check(self, outputs: Dict[str, Any]) -> List[str]:
        """Failures found by comparing items of one pass."""
        return []

    def close(self) -> None:
        pass


def _shuffled(seed: int, items: List[Item]) -> List[Item]:
    random.Random(seed).shuffle(items)
    return items


class Sweep(Workload):
    name = "sweep"

    def setup(self, seed, root, tracer):
        return _shuffled(seed, [_sweep_item(index, tracer)
                                for index in range(SWEEP_COUNT)])


class Explore(Workload):
    """Large state spaces: over the socket service, serially, forked.

    Socket items run first, while the workers launched in set-up are
    still dialling; the workers are gone before the serial and fork
    items start, so no venue competes with another's processes.  The
    x-safe-agreement n=4 space runs in all three venues in one pass,
    which makes socket-versus-fork a same-machine-state comparison.
    """

    name = "explore"
    workers = WORKERS

    def setup(self, seed, root, tracer):
        work = os.path.join(root, "perfbench", "work")
        os.makedirs(work, exist_ok=True)
        self.frontier_path = os.path.join(work,
                                          f"frontier-{os.getpid()}.jsonl")
        self.servers: Dict[str, Any] = {}
        self.workers_ = SocketWorkers(root)
        pool = _socket_pool(self.workers_, self.servers)
        socket_items = [
            _sharded_item(name, n, tracer, pool=pool,
                          frontier_path=self.frontier_path)
            for name, n in SHARDED]
        serial_items = [_serial_item(name, n, tracer)
                        for name, n in SERIAL]
        fork_items = [_sharded_item(name, n, tracer) for name, n in SHARDED]
        return (_shuffled(seed, socket_items)
                + _shuffled(seed, serial_items + fork_items))

    def after(self, item, traced):
        if item.name != "socket:x-safe-agreement:n4":
            return {}
        self.workers_.verdict_at = monotonic()
        out: Dict[str, float] = {}
        if os.path.exists(self.frontier_path):
            out["frontier.bytes"] = os.path.getsize(self.frontier_path)
            os.unlink(self.frontier_path)
        tallies = self.servers["x-safe-agreement"].tallies
        shards = tallies["remote_shards"] + tallies["inprocess_shards"]
        out.update({
            "netshard.frames": tallies["frames_in"] + tallies["frames_out"],
            "netshard.shards": shards,
            "netshard.regrants": tallies["regrants"],
            "netshard.inprocess_shards": tallies["inprocess_shards"],
        })
        if traced:
            out.update(self.workers_.wait_exit(limit=30.0))
        else:
            self.workers_.stop()
        return out

    def cross_check(self, outputs):
        failures = []
        for name, n in SHARDED:
            label = f"{name}:n{n}"
            fork, sock = outputs.get(f"fork:{label}"), outputs.get(
                f"socket:{label}")
            if fork is not None and sock is not None and fork != sock:
                failures.append(f"{label}: socket {sock} != fork {fork}")
        return failures

    def close(self) -> None:
        self.workers_.stop()
        if os.path.exists(self.frontier_path):
            os.unlink(self.frontier_path)


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (Explore, Sweep)}
