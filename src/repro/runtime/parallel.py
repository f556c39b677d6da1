"""Multiprocess schedule exploration: shard the tree, merge deterministically.

Exhaustive checking is embarrassingly parallel *if* the schedule tree is
split carefully: ``build()`` is a pure factory, so any process can replay
a prefix from scratch and own the whole subtree below it.  The coordinator
here

1. expands a **frontier** serially -- BFS over the schedule tree until at
   least ``prefix_factor x max(16, cpu_count, jobs)`` open prefixes exist
   (terminal/truncated states met on the way are checked and counted
   immediately).  Under DPOR the expansion schedules *every* non-sleeping
   candidate at each pre-frontier state -- a trivially persistent set --
   and propagates sleep sets to the frontier nodes with the exact rule
   the serial engine uses, so the union of shard subtrees covers the same
   Mazurkiewicz traces the serial search would;
2. farms each frontier prefix out to the shard pool
   (:func:`repro.runtime.netshard.run_pool`: forked
   :class:`~repro.runtime.netshard.ShardWorker` children on socketpairs,
   or remote workers when a ``ShardServer`` is the ``pool``), each
   worker replaying its prefix and exploring the subtree with the
   ordinary serial engine in *collect* mode (property failures are
   recorded, not raised, so every shard finishes);
3. **merges** shard statistics in frontier order via
   :meth:`ExplorationStats.merge` -- run counts and the winning violation
   (first by lexicographic prefix order) are therefore reproducible
   regardless of worker timing -- and only then shrinks the winning
   schedule with ddmin, in-process.

Determinism contract: the frontier target is independent of ``jobs``
(for any ``jobs <= max(16, cpu_count)``), so ``jobs=1`` and ``jobs=N``
explore the *identical* shards and report identical statistics and
counterexamples; ``jobs`` only controls how many OS processes execute
them.  Degradation is graceful: with ``jobs=1``, a single shard, or no
``fork`` start method, shards run in-process; a worker that dies or
wedges mid-shard (e.g. SIGKILL, SIGSTOP) has its shard re-granted and,
past the re-grant budget, re-executed in-process, which is sound
because shards are deterministic.
"""

from __future__ import annotations

import os
from typing import (Any, Callable, Dict, Generator, List, Optional, Tuple,
                    Union)

from .dpor import (Counterexample, CounterexampleFound, _explore_core,
                   _System, replay_schedule, shrink_schedule)
from .explore import (ExplorationInterrupted, ExplorationStats,
                      ShardViolation, _explore_naive, _max_runs_interrupt,
                      _past_deadline, _run_prefix, _timeout_interrupt)
from .netshard import run_pool
from .ops import conflicts
from .run import RunResult

Builder = Callable[[], Tuple[Dict[int, Generator], Any]]

#: Frontier prefixes generated per potential worker (tunable; larger
#: values give better load balance at the cost of more serial expansion).
DEFAULT_PREFIX_FACTOR = 4

#: Floor on the worker-count term of the frontier target.  Keeping the
#: target at ``prefix_factor * max(_FRONTIER_BASE, cpu_count, jobs)``
#: makes the sharding -- and hence all merged statistics -- identical
#: for every ``jobs <= max(_FRONTIER_BASE, cpu_count)``.
_FRONTIER_BASE = 16


def resolve_jobs(jobs: Union[int, str, None]) -> int:
    """Normalize a ``--jobs`` value: ``"auto"`` means ``cpu_count``.

    Raises ``ValueError`` on anything that is not a positive integer or
    the string ``"auto"`` (CLI callers turn that into exit code 2).
    """
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs == "auto":
            return os.cpu_count() or 1
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(
            f"jobs must be a positive integer or 'auto', got {jobs!r}")
    return jobs


# ---------------------------------------------------------------------------
# Frontier expansion.
# ---------------------------------------------------------------------------

def _expand_frontier(build: Builder,
                     check: Callable[[RunResult], None],
                     crash_plan_factory,
                     max_steps: int,
                     max_runs: int,
                     target: int,
                     use_sleep: bool,
                     counters: Optional[Dict[str, Any]] = None,
                     deadline: Optional[float] = None):
    """Serial BFS until at least ``target`` open prefixes exist.

    Returns ``(stats, shards)`` where each shard is ``(prefix,
    sleep_set)`` in lexicographic prefix order.  Terminal and truncated
    states met during expansion are counted (and checked -- violations
    are *collected* into ``stats.violation``, first-by-prefix wins) so
    frontier + shard statistics add up exactly to a full exploration.
    With ``use_sleep`` (DPOR mode) every non-sleeping candidate is
    scheduled at each expanded state -- a trivially persistent set -- and
    children inherit sleep sets by the serial engine's exact rule.
    ``counters`` is the optional plain-dict metrics channel (frontier
    watermark and sleep-set accounting; never exploration statistics).
    """
    from collections import deque

    stats = ExplorationStats()
    open_nodes: deque = deque([((), frozenset())])
    while open_nodes and len(open_nodes) < target:
        if counters is not None and len(open_nodes) > counters.get(
                "peak_frontier", 0):
            counters["peak_frontier"] = len(open_nodes)
        prefix, sleep = open_nodes.popleft()
        if stats.total_runs >= max_runs:
            raise _max_runs_interrupt(max_runs, stats)
        if _past_deadline(deadline):
            raise _timeout_interrupt(stats)
        stats.max_depth_seen = max(stats.max_depth_seen, len(prefix))
        if use_sleep:
            sysm = _System(build, crash_plan_factory)
            for pid in prefix:
                sysm.execute(pid)
            cands = sysm.candidates()
            if not cands:
                stats.complete_runs += 1
                result = sysm.result()
            else:
                result = None
        else:
            result, cands = _run_prefix(build, list(prefix),
                                        crash_plan_factory, max_steps)
            if result is not None:
                stats.complete_runs += 1
        if result is not None:
            try:
                check(result)
            except Exception as exc:  # noqa: BLE001 - collected
                stats = stats.merge(ExplorationStats(
                    violation=ShardViolation(
                        order_key=tuple(prefix), schedule=tuple(prefix),
                        message=f"{type(exc).__name__}: {exc}",
                        error_type=type(exc).__name__)))
            continue
        if len(prefix) >= max_steps:
            stats.truncated_runs += 1
            continue
        if use_sleep:
            explorable = [p for p in cands if p not in sleep]
            if counters is not None:
                counters["sleep_checks"] = (counters.get("sleep_checks", 0)
                                            + len(cands))
                counters["sleep_hits"] = (counters.get("sleep_hits", 0)
                                          + len(cands) - len(explorable))
            if not explorable:
                stats.pruned_runs += 1
                continue
            pending_fps = sysm.alive_footprints()
            done: set = set()
            for pick in explorable:
                # Child sleep set: exactly the serial engine's rule,
                # evaluated against the footprint ``pick`` executes.
                child_sys = _System(build, crash_plan_factory)
                for pid in prefix:
                    child_sys.execute(pid)
                child_sys.candidates()
                fp = child_sys.execute(pick)
                child_sleep = frozenset(
                    q for q in (set(sleep) | done) - {pick}
                    if q in pending_fps
                    and not conflicts(pending_fps[q], fp))
                open_nodes.append((prefix + (pick,), child_sleep))
                done.add(pick)
        else:
            for pick in cands:
                open_nodes.append((prefix + (pick,), frozenset()))
    if counters is not None and len(open_nodes) > counters.get(
            "peak_frontier", 0):
        counters["peak_frontier"] = len(open_nodes)
    return stats, sorted(open_nodes, key=lambda shard: shard[0])


# ---------------------------------------------------------------------------
# Shard execution (the unit of work of every pool venue).
# ---------------------------------------------------------------------------

def execute_shard(build: Builder,
                  check: Callable[[RunResult], None],
                  crash_plan_factory=None,
                  *,
                  prefix: Tuple[int, ...],
                  sleep: frozenset,
                  max_steps: int = 24,
                  max_runs: int = 200_000,
                  reduction: str = "dpor",
                  state_cache: bool = True,
                  deadline: Optional[float] = None):
    """Explore one frontier shard; the unit of work every venue runs.

    This is the exact computation a local or remote
    :class:`repro.runtime.netshard.ShardWorker` and the in-process
    fallback perform for a ``(prefix, sleep_set)`` shard -- one function, so
    "where a shard ran" can never change what it computed.  Returns
    ``(stats, counters)`` for a completed shard, or ``(partial_stats,
    counters, reason)`` when the budget interrupted it (the partial
    coverage rides back instead of being lost).  Violations are
    *collected* into the statistics, never raised.
    """
    shard_counters: Dict[str, Any] = {}
    try:
        if reduction == "dpor":
            shard_stats = _explore_core(
                build, check, crash_plan_factory=crash_plan_factory,
                max_steps=max_steps, max_runs=max_runs, prefix=prefix,
                root_sleep=sleep, collect=True,
                counters=shard_counters, deadline=deadline,
                state_cache=state_cache)
        else:
            shard_stats = _explore_naive(build, check,
                                         crash_plan_factory, max_steps,
                                         max_runs, root=prefix,
                                         collect=True,
                                         counters=shard_counters,
                                         deadline=deadline)
    except ExplorationInterrupted as exc:
        return (exc.stats or ExplorationStats(), shard_counters,
                exc.reason)
    return shard_stats, shard_counters


# ---------------------------------------------------------------------------
# The coordinator.
# ---------------------------------------------------------------------------

def explore_parallel(build: Optional[Builder] = None,
                     check: Optional[Callable[[RunResult], None]] = None,
                     *,
                     crash_plan_factory=None,
                     max_steps: int = 24,
                     max_runs: int = 200_000,
                     jobs: Union[int, str] = 1,
                     reduction: str = "dpor",
                     prefix_factor: int = DEFAULT_PREFIX_FACTOR,
                     shrink: bool = True,
                     scenario=None,
                     fault_plan: Optional[Dict[int, str]] = None,
                     metrics: Optional[Any] = None,
                     deadline: Optional[float] = None,
                     state_cache: bool = True,
                     frontier: Optional[Any] = None,
                     pool: Optional[Callable[..., List[Any]]] = None
                     ) -> ExplorationStats:
    """Sharded exhaustive exploration across a worker pool.

    Same contract as :func:`repro.runtime.explore.explore`: ``check``
    failures raise (``CounterexampleFound`` with a ddmin-shrunk,
    replayable counterexample under DPOR; plain ``AssertionError`` under
    naive), exceeding ``max_runs`` total runs raises ``RuntimeError``.
    All statistics and the winning counterexample depend only on the
    sharding (``prefix_factor``), never on ``jobs`` or worker timing.

    ``scenario`` may be a :class:`repro.scenarios.ScenarioRef`; workers
    then rebuild ``build``/``check`` by name instead of relying on
    fork-inherited closures (and the coordinator fills in any missing
    ``build``/``check``/``crash_plan_factory`` from it).  ``fault_plan``
    injects worker faults by shard index (tests only).

    ``metrics`` is an optional
    :class:`repro.analysis.metrics.ExplorationMetrics` collector: the
    coordinator records per-phase wall-clock (frontier expansion, shard
    execution, merge, shrink), per-worker shard counts and busy time,
    and the engines' sleep-set/frontier counters.  All of it lives
    outside ``ExplorationStats``, whose jobs-independent bit-for-bit
    contract is unaffected by metrics collection.

    ``deadline`` (absolute ``time.monotonic()`` instant; valid across
    ``fork`` on Linux since CLOCK_MONOTONIC is system-wide) bounds the
    wall clock: the frontier expansion and every shard check it, and an
    exceeded budget -- like an exceeded ``max_runs`` -- surfaces as
    :class:`~repro.runtime.explore.ExplorationInterrupted` carrying the
    statistics merged from the frontier and every shard that reported
    back, so the caller can emit a partial record instead of losing the
    coverage already paid for.

    ``state_cache`` (DPOR only) enables each shard's prefix-equivalence
    state cache.  Caches are strictly *per shard* -- a worker never sees
    hits against a sibling shard's subtrees -- so shard statistics, and
    therefore the merged result, stay identical for ``jobs=1`` and
    ``jobs=N`` with the cache on exactly as with it off.

    ``frontier`` is an optional
    :class:`repro.runtime.frontier.FrontierStore`.  When given, the
    exploration is **durable**: a fresh store records the expansion
    result and shard list in its header, every completed shard is
    journaled (fsynced) as it settles, and an existing store is loaded
    instead of re-expanding -- only the shards its journal has not
    settled are re-executed, and the journaled completions are merged
    back in.  Because :meth:`ExplorationStats.merge` is commutative and
    shards are deterministic, a resumed run's final statistics are
    bit-for-bit identical to an uninterrupted run's.  The store's
    fingerprint is validated against this call's configuration
    (:class:`repro.runtime.frontier.FrontierMismatch` on divergence).

    ``pool`` substitutes the execution venue: any callable with the
    signature of the default, :func:`repro.runtime.netshard.run_pool`.
    ``serve`` passes a :class:`repro.runtime.netshard.ShardServer` --
    the same pool, listening on TCP instead of forking.  The venue is
    absent from the checkpoint fingerprint, like ``jobs``: a
    socket-served checkpoint resumes under ``check --resume``.
    """
    if scenario is not None and (build is None or check is None):
        resolved = scenario.resolve()
        build = build or resolved.build
        check = check or resolved.check
        if crash_plan_factory is None:
            crash_plan_factory = resolved.crash_plan_factory
    if build is None or check is None:
        raise ValueError("explore_parallel needs build+check or a scenario")
    if reduction not in ("naive", "dpor"):
        raise ValueError(f"unknown reduction {reduction!r} "
                         f"(expected 'naive' or 'dpor')")
    jobs = resolve_jobs(jobs)
    use_sleep = reduction == "dpor"
    target = prefix_factor * max(_FRONTIER_BASE, os.cpu_count() or 1, jobs)
    from time import perf_counter
    # The frontier store needs the expansion counters even when no
    # metrics collector is attached at checkpoint time -- a later
    # resume may attach one.
    counters: Optional[Dict[str, Any]] = (
        {} if (metrics is not None or frontier is not None) else None)
    # Everything that fixes which state space is explored and how it is
    # sharded; a resume under any other value would merge statistics
    # from a different exploration (jobs is deliberately absent -- the
    # sharding contract makes it irrelevant to the result).
    fingerprint = {
        "scenario": ([scenario.name, scenario.n, scenario.x]
                     if scenario is not None else None),
        "max_steps": max_steps,
        "max_runs": max_runs,
        "reduction": reduction,
        "prefix_factor": prefix_factor,
        "state_cache": bool(state_cache),
    }
    phase_start = perf_counter()
    prior_completed: Dict[int, Tuple[ExplorationStats, Dict[str, Any]]] = {}
    if frontier is not None and frontier.exists():
        frontier.load()
        frontier.validate(fingerprint)
        stats = frontier.expansion_stats
        shards = frontier.shards
        if counters is not None:
            counters.update(frontier.expansion_counters)
        prior_completed = dict(frontier.completed)
    else:
        stats, shards = _expand_frontier(build, check, crash_plan_factory,
                                         max_steps, max_runs, target,
                                         use_sleep, counters=counters,
                                         deadline=deadline)
        if frontier is not None:
            frontier.begin(fingerprint, stats, counters or {}, shards)
    if metrics is not None:
        metrics.record_phase("frontier_expansion",
                             perf_counter() - phase_start)
        metrics.shard_count = len(shards)

    # Worker-side shard runner.  Given a ScenarioRef, each process
    # resolves the scenario once for itself; otherwise it runs the
    # closures inherited at the fork.
    ctx_holder: Dict[str, Any] = {}

    def shard_context():
        if not ctx_holder:
            source = scenario.resolve() if scenario is not None else None
            ctx_holder["ctx"] = (
                (source.build, source.check, source.crash_plan_factory)
                if source is not None
                else (build, check, crash_plan_factory))
        return ctx_holder["ctx"]

    def run_shard(payload):
        # Shards always report their counters -- a plain dict riding
        # back beside the statistics -- because the worker cannot know
        # whether the coordinator is collecting metrics.  A budget
        # interruption inside the shard comes back as a third tuple
        # element (reason) rather than an error string, so the partial
        # statistics reach the coordinator, which merges them before
        # re-raising.
        prefix, sleep = payload
        b, c, cpf = shard_context()
        return execute_shard(b, c, cpf, prefix=prefix, sleep=sleep,
                             max_steps=max_steps, max_runs=max_runs,
                             reduction=reduction,
                             state_cache=state_cache, deadline=deadline)

    def fold_counters(shard_counters: Dict[str, Any]) -> None:
        if counters is None:
            return
        for key, delta in shard_counters.items():
            if key == "peak_frontier":
                counters[key] = max(counters.get(key, 0), delta)
            else:
                counters[key] = counters.get(key, 0) + delta

    # Journaled completions from the store's previous life merge first
    # (shard order); merge() is commutative, so the order relative to
    # this run's fresh outcomes cannot matter -- but merging them *now*
    # means an interrupt below still reports their coverage.
    for shard_idx in sorted(prior_completed):
        prior_stats, prior_counters = prior_completed[shard_idx]
        stats = stats.merge(prior_stats)
        fold_counters(prior_counters)
    pending = (frontier.pending_indices(len(shards))
               if frontier is not None else list(range(len(shards))))
    pool_payloads = [shards[i] for i in pending]

    on_grant = on_settle = None
    if frontier is not None:
        def on_grant(pool_idx: int, wid: int) -> None:
            frontier.record_grant(pending[pool_idx], wid)

        def on_settle(pool_idx: int, outcome) -> None:
            value, error = outcome
            # Only fully-explored shards are durable facts; errored or
            # budget-interrupted shards stay pending for the next life.
            if error is None and value is not None and len(value) == 2:
                frontier.record_completion(pending[pool_idx],
                                           value[0], value[1])

    task_log: Optional[List[Dict[str, Any]]] = \
        [] if metrics is not None else None
    phase_start = perf_counter()
    pool_fn = pool if pool is not None else run_pool
    try:
        outcomes = pool_fn(pool_payloads, run_shard, jobs,
                           fault_plan=fault_plan, task_log=task_log,
                           deadline=deadline, on_grant=on_grant,
                           on_settle=on_settle)
    except ExplorationInterrupted:
        # The pool's retry ladder ran out of wall clock; re-raise with
        # the coverage merged so far (expansion plus any journaled
        # completions).
        if frontier is not None:
            frontier.close()
        raise _timeout_interrupt(stats)
    if metrics is not None:
        metrics.record_phase("shard_execution",
                             perf_counter() - phase_start)
        metrics.record_worker_tasks(task_log)
    if frontier is not None:
        frontier.close()
    phase_start = perf_counter()
    interrupt_reason: Optional[str] = None
    for pool_idx, outcome in enumerate(outcomes):
        value, error = outcome
        shard_idx = pending[pool_idx]
        if error is not None:
            raise RuntimeError(
                f"parallel exploration failed on shard {shard_idx} "
                f"(prefix {list(shards[shard_idx][0])}): {error}")
        if len(value) == 3:
            # An interrupted shard: merge its partial statistics, then
            # surface the first (by shard order) interruption reason.
            shard_stats, shard_counters, reason = value
            if interrupt_reason is None:
                interrupt_reason = reason
        else:
            shard_stats, shard_counters = value
        stats = stats.merge(shard_stats)
        fold_counters(shard_counters)
    if metrics is not None:
        metrics.record_phase("merge", perf_counter() - phase_start)
        metrics.record_stats(stats)
        metrics.absorb_counters(counters)

    viol = stats.violation
    if viol is not None:
        # The winning (first-by-prefix-order) violation.  Shrinking and
        # raising happen in the coordinator so the artifact carries live
        # closures regardless of which worker found it.
        if reduction == "naive":
            raise AssertionError(viol.message)
        if shrink:
            phase_start = perf_counter()
            counterexample = shrink_schedule(
                build, check, list(viol.schedule),
                crash_plan_factory=crash_plan_factory,
                max_steps=max(max_steps, len(viol.schedule)))
            if metrics is not None:
                metrics.record_phase("shrink",
                                     perf_counter() - phase_start)
                metrics.ddmin_replays += counterexample.ddmin_attempts
        else:
            schedule = list(viol.schedule)
            result = replay_schedule(
                build, schedule, crash_plan_factory=crash_plan_factory,
                max_steps=max(max_steps, len(schedule)))
            counterexample = Counterexample(
                prefix=schedule, tail=[], original_schedule=schedule,
                error=AssertionError(viol.message), result=result,
                build=build, check=check,
                crash_plan_factory=crash_plan_factory,
                max_steps=max(max_steps, len(schedule)))
        raise CounterexampleFound(counterexample, stats)
    # A found violation outranks a budget interruption (above); with no
    # violation, a shard-side interruption surfaces with the statistics
    # merged from every shard that reported back.
    if interrupt_reason == "max_runs" or stats.total_runs > max_runs:
        raise _max_runs_interrupt(max_runs, stats)
    if interrupt_reason == "timeout":
        raise _timeout_interrupt(stats)
    return stats
