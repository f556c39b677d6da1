"""Dynamic partial-order reduction for exhaustive schedule exploration.

The naive explorer (`repro.runtime.explore`) enumerates *every*
interleaving, which is O(branching^depth) and caps exhaustive checking at
2-3 processes.  Most of those interleavings are redundant: two steps that
touch disjoint shared locations commute, so any pair of schedules that
differ only in the order of independent adjacent steps reach the same
state.  This module explores at least one representative per
Mazurkiewicz trace (equivalence class of schedules under commuting
independent steps) instead of every schedule, using the two standard
stateless model-checking devices:

* **Persistent sets via dynamic backtracking** (Flanagan & Godefroid
  2005): at each state, start with a single enabled process; whenever a
  later step is found to *race* with an earlier one (conflicting
  footprints, not already ordered by happens-before), add the racer to
  the backtrack set of the state the earlier step executed from.
  Happens-before is tracked with per-process vector clocks over the
  executed steps (program order + footprint-conflict order).  We add a
  backtrack point for *every* racing earlier step, a superset of the
  classic last-racer rule -- slightly more exploration, comfortably
  sound.
* **Sleep sets** (Godefroid 1996): a process whose next step was already
  explored from this state, and which is independent of everything
  executed since, need not be re-scheduled -- subtrees whose every
  candidate sleeps are pruned outright.

Independence is decided by the read/write *footprints* that every shared
object reports for its operations (:class:`repro.runtime.ops.Footprint`,
:meth:`repro.memory.base.SharedObject.footprint`): two steps of different
processes are independent iff neither writes a location the other reads
or writes.  Crash events touch no shared state and commute with
everything.  Footprints may over-approximate (conservative) but must
never omit an accessed location.

When the property ``check()`` fails on some schedule, the failing
schedule is **shrunk** by delta debugging (:func:`shrink_schedule`): the
scheduler repeatedly removes chunks of the schedule prefix, completes
each candidate deterministically (lowest pid first), and keeps any
strictly shorter prefix that still fails, down to a locally-minimal
(1-minimal) prefix.  The result is a replayable
:class:`Counterexample` artifact raised inside a
:class:`CounterexampleFound` error.

Soundness of the reduction is pinned by ``tests/runtime/test_dpor.py``:
DPOR and the naive enumerator must visit the same set of terminal states
(statuses + decisions) on seeded micro-programs, including under crash
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional,
                    Sequence, Set, Tuple)

from .adversary import Adversary
from .crash import CrashPlan
from .explore import (ExplorationStats, ShardViolation, _max_runs_interrupt,
                      _past_deadline, _timeout_interrupt)
from .ops import EMPTY_FOOTPRINT, Footprint, Invocation, SpinOp, conflicts
from .process import ProcessHandle, ProcessStatus
from .run import RunResult
from .scheduler import Scheduler
from .trace import Trace

#: Type of the ``build`` callback: returns a fresh ``(programs, store)``.
Builder = Callable[[], Tuple[Dict[int, Generator], Any]]


class _InertAdversary(Adversary):
    """The DPOR engine drives the scheduler directly; never consulted."""

    def pick(self, enabled, step):  # pragma: no cover - defensive
        raise AssertionError("DPOR scheduler must not consult an adversary")


class _System:
    """A live system replayed step by step under explorer control.

    Wraps a fresh ``build()`` result plus a scheduler, exposing exactly
    what the DPOR engine needs: the filtered candidate set at the current
    state, the pending footprint of each live process, and one-step
    execution returning the footprint actually exercised.

    ``fp_memo`` is an optional footprint memo *shared across rebuilds*
    of one exploration: footprints are pure functions of ``(pid, obj,
    method, args)`` for objects declaring
    :attr:`~repro.memory.base.SharedObject.FOOTPRINT_PURE` (the
    default), so re-synced systems skip re-deriving them.
    """

    def __init__(self, build: Builder,
                 crash_plan_factory: Optional[Callable[[], CrashPlan]],
                 fp_memo: Optional[Dict[Any, Optional[Footprint]]] = None
                 ) -> None:
        programs, store = build()
        self._fp_memo = fp_memo if fp_memo is not None else {}
        self.store = store
        self.handles = {pid: ProcessHandle(pid, gen)
                        for pid, gen in programs.items()}
        self.scheduler = Scheduler(
            handles=self.handles,
            store=store,
            adversary=_InertAdversary(),
            crash_plan=(crash_plan_factory() if crash_plan_factory
                        else None),
            trace=Trace(enabled=False),
            max_steps=10 ** 9,
        )
        self.deadlocked = False

    # ------------------------------------------------------------------
    def _stutters(self, handle: ProcessHandle) -> bool:
        """Exact stutter pruning, identical to the naive explorer: a
        process whose single-condition spin already failed since the last
        state-changing step would deterministically fail again."""
        return (isinstance(handle.pending, SpinOp)
                and handle.pending.period == 1
                and handle.spin_failures > 0)

    def candidates(self) -> List[int]:
        """Schedulable processes at the current state (sorted).

        Pre-advances never-started generators to their first yield so
        every live process has a known pending operation (processes that
        finish without yielding decide immediately -- an invisible,
        footprint-free event).  If every enabled process is a provably
        stuck spinner, they are retired as BLOCKED and the state is
        terminal (permanent deadlock, exactly detected).
        """
        for handle in self.handles.values():
            if handle.alive and handle.pending is None:
                handle.advance()
        enabled = sorted(pid for pid, h in self.handles.items() if h.alive)
        cands = [pid for pid in enabled
                 if not self._stutters(self.handles[pid])]
        if enabled and not cands:
            self.deadlocked = True
            for pid in enabled:
                self.handles[pid].mark_blocked()
            return []
        return cands

    def pending_footprint(self, pid: int) -> Optional[Footprint]:
        """Footprint of ``pid``'s next operation (None = unknown).

        Memoized per ``(pid, obj, method, args)`` when the target object
        declares its footprints pure (``FOOTPRINT_PURE``, the default);
        unhashable arguments fall back to direct derivation.
        """
        op = self.handles[pid].pending
        if op is None:
            return None
        inv = op.invocation if isinstance(op, SpinOp) else op
        if not isinstance(inv, Invocation):
            return None
        key = (pid, inv.obj, inv.method, inv.args)
        try:
            fp = self._fp_memo.get(key)
        except TypeError:  # unhashable args: derive directly
            return self.store.footprint(pid, inv)
        if fp is not None:
            return fp
        obj = self.store[inv.obj]
        fp = obj.footprint(pid, inv.method, inv.args)
        if obj.FOOTPRINT_PURE:
            self._fp_memo[key] = fp
        return fp

    def alive_footprints(self) -> Dict[int, Optional[Footprint]]:
        return {pid: self.pending_footprint(pid)
                for pid, h in self.handles.items() if h.alive}

    def execute(self, pid: int) -> Optional[Footprint]:
        """Execute one step of ``pid``; returns the footprint exercised.

        A step that turns out to be a crash event touches no shared
        state and reports :data:`~repro.runtime.ops.EMPTY_FOOTPRINT`.
        """
        handle = self.handles[pid]
        if handle.pending is None:
            handle.advance()
        if handle.pending is None:
            return EMPTY_FOOTPRINT  # decided without yielding
        fp = self.pending_footprint(pid)
        self.scheduler._step(handle)
        if handle.status is ProcessStatus.CRASHED:
            return EMPTY_FOOTPRINT
        return fp

    def result(self) -> RunResult:
        decisions = {pid: h.decision for pid, h in self.handles.items()
                     if h.decided}
        return RunResult(
            statuses={pid: h.status for pid, h in self.handles.items()},
            decisions=decisions,
            steps=self.scheduler.steps,
            deadlocked=self.deadlocked,
            out_of_steps=False,
            trace=None,
            store=self.store,
        )


# ---------------------------------------------------------------------------
# Counterexamples and shrinking.
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """A replayable failing schedule, shrunk to a locally-minimal prefix.

    ``prefix`` is the minimal scheduling decisions that trigger the
    failure; ``tail`` is the deterministic completion (lowest enabled pid
    first) appended to reach a terminal state.  ``schedule`` (prefix +
    tail) replayed against a fresh ``build()`` under the same crash plan
    reproduces the violation -- :meth:`replay` does exactly that.
    """

    prefix: List[int]
    tail: List[int]
    original_schedule: List[int]
    error: BaseException
    result: RunResult
    build: Builder
    check: Callable[[RunResult], None]
    crash_plan_factory: Optional[Callable[[], CrashPlan]] = None
    max_steps: int = 1_000_000
    #: Replays ddmin spent shrinking (0 when shrinking was skipped).
    ddmin_attempts: int = 0

    @property
    def schedule(self) -> List[int]:
        """The full concrete failing schedule (prefix + completion)."""
        return self.prefix + self.tail

    def replay(self) -> RunResult:
        """Re-execute the counterexample schedule from a fresh build."""
        return replay_schedule(self.build, self.schedule,
                               crash_plan_factory=self.crash_plan_factory,
                               max_steps=self.max_steps)

    def reproduces(self) -> bool:
        """Does the schedule still make ``check`` fail on a fresh run?"""
        try:
            self.check(self.replay())
        except Exception:
            return True
        return False

    def describe(self) -> str:
        lines = [
            f"counterexample ({len(self.prefix)}-step prefix, shrunk "
            f"from a {len(self.original_schedule)}-step schedule):",
            f"  prefix   : {self.prefix}",
            f"  completion (lowest pid first): {self.tail}",
            f"  violation: {type(self.error).__name__}: {self.error}",
            f"  outcome  : {self.result.summary()}",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class CounterexampleFound(AssertionError):
    """Raised by the DPOR explorer when ``check()`` fails on a schedule.

    Carries the shrunk, replayable :attr:`counterexample` plus the
    exploration :attr:`stats` accumulated up to the failure.  Subclasses
    ``AssertionError`` so existing ``pytest.raises(AssertionError)``
    expectations keep working.
    """

    def __init__(self, counterexample: Counterexample,
                 stats: Optional[ExplorationStats] = None) -> None:
        self.counterexample = counterexample
        self.stats = stats
        super().__init__(counterexample.describe())


def _drive(build: Builder,
           candidate: List[int],
           crash_plan_factory: Optional[Callable[[], CrashPlan]],
           max_steps: int):
    """Run ``candidate`` as a scheduling hint, then complete it.

    Entries naming a non-schedulable process are skipped (that is what
    lets delta debugging remove chunks without invalidating the rest);
    after the hint is exhausted the run is completed deterministically,
    lowest enabled pid first.  Returns ``(prefix_run, tail, result)``
    where ``prefix_run`` is the subsequence of ``candidate`` actually
    executed, or ``None`` if no terminal state is reached in
    ``max_steps`` steps.
    """
    sysm = _System(build, crash_plan_factory)
    prefix_run: List[int] = []
    for pid in candidate:
        if len(prefix_run) >= max_steps:
            return None
        cands = sysm.candidates()
        if not cands:
            break
        if pid not in cands:
            continue
        sysm.execute(pid)
        prefix_run.append(pid)
    tail: List[int] = []
    while True:
        cands = sysm.candidates()
        if not cands:
            break
        if len(prefix_run) + len(tail) >= max_steps:
            return None
        pid = cands[0]
        sysm.execute(pid)
        tail.append(pid)
    return prefix_run, tail, sysm.result()


def replay_schedule(build: Builder,
                    schedule: List[int],
                    crash_plan_factory: Optional[Callable[[], CrashPlan]]
                    = None,
                    max_steps: int = 1_000_000) -> RunResult:
    """Replay a recorded schedule against a fresh ``build()``.

    The schedule is followed step by step (entries naming processes that
    are no longer schedulable are skipped) and the run is completed
    deterministically if the schedule stops short of a terminal state.
    """
    out = _drive(build, schedule, crash_plan_factory, max_steps)
    if out is None:
        raise RuntimeError(
            f"schedule did not reach a terminal state in {max_steps} steps")
    return out[2]


def shrink_schedule(build: Builder,
                    check: Callable[[RunResult], None],
                    schedule: List[int],
                    crash_plan_factory: Optional[Callable[[], CrashPlan]]
                    = None,
                    max_steps: int = 1_000_000,
                    max_attempts: int = 2000) -> Counterexample:
    """Delta-debug a failing schedule to a locally-minimal prefix.

    ``schedule`` must make ``check`` fail (any exception counts as the
    failure being reproduced).  Chunks of the scheduling prefix are
    removed ddmin-style -- halves first, then ever smaller chunks down to
    single steps -- and every candidate is completed deterministically;
    a candidate is kept when it still fails with a strictly shorter
    prefix.  The result is 1-minimal: removing any single remaining
    prefix entry makes the failure disappear (or yields no shorter
    prefix).
    """

    def attempt(candidate: List[int]):
        out = _drive(build, candidate, crash_plan_factory, max_steps)
        if out is None:
            return None
        prefix_run, tail, result = out
        try:
            check(result)
        except Exception as exc:  # noqa: BLE001 - the failure under study
            return prefix_run, tail, exc, result
        return None

    base = attempt(list(schedule))
    if base is None:
        raise ValueError(
            "schedule does not reproduce a check failure; nothing to shrink")
    best_prefix, best_tail, best_exc, best_result = base
    attempts = 1
    chunk = max(1, len(best_prefix) // 2)
    while attempts < max_attempts:
        shrunk_this_round = False
        i = 0
        while i < len(best_prefix) and attempts < max_attempts:
            candidate = best_prefix[:i] + best_prefix[i + chunk:]
            attempts += 1
            out = attempt(candidate)
            if out is not None and len(out[0]) < len(best_prefix):
                best_prefix, best_tail, best_exc, best_result = out
                shrunk_this_round = True
                # re-examine position i: new content shifted into place
            else:
                i += chunk
        if chunk == 1 and not shrunk_this_round:
            break
        chunk = max(1, chunk // 2)
    return Counterexample(
        prefix=best_prefix,
        tail=best_tail,
        original_schedule=list(schedule),
        error=best_exc,
        result=best_result,
        build=build,
        check=check,
        crash_plan_factory=crash_plan_factory,
        max_steps=max_steps,
        ddmin_attempts=attempts,
    )


# ---------------------------------------------------------------------------
# The DPOR search itself.
# ---------------------------------------------------------------------------

class _Node:
    """One state on the current DFS path.

    ``in_pid`` / ``in_fp`` / ``in_clock`` describe the incoming step (the
    step that produced this state); the root carries ``None`` for all
    three.  ``cv_proc`` maps each process to the vector clock of its last
    executed step -- the happens-before past of its next transition.
    """

    __slots__ = ("in_pid", "in_fp", "in_clock", "cv_proc", "candidates",
                 "pending_fps", "sleep", "backtrack", "done", "visited")

    def __init__(self, in_pid, in_fp, in_clock, cv_proc, candidates,
                 pending_fps, sleep) -> None:
        self.in_pid: Optional[int] = in_pid
        self.in_fp: Optional[Footprint] = in_fp
        self.in_clock: Optional[Dict[int, int]] = in_clock
        self.cv_proc: Dict[int, Dict[int, int]] = cv_proc
        self.candidates: List[int] = candidates
        self.pending_fps: Dict[int, Optional[Footprint]] = pending_fps
        self.sleep: Set[int] = sleep
        self.backtrack: Set[int] = set()
        self.done: Set[int] = set()
        self.visited = False


def _make_node(sysm: _System, parent: Optional[_Node], pick: Optional[int],
               fp: Optional[Footprint], path: List[_Node],
               sleep: Set[int]) -> _Node:
    """Build the node reached by executing ``pick`` (with footprint
    ``fp``) from ``parent``; ``path`` holds the states *before* this one.
    """
    if parent is None:
        cv_proc: Dict[int, Dict[int, int]] = {}
        in_clock = None
    else:
        index = len(path)  # 1-based index of the incoming step
        clock = dict(parent.cv_proc.get(pick, {}))
        for j in range(1, len(path)):
            step = path[j]
            if conflicts(step.in_fp, fp):
                for q, k in step.in_clock.items():
                    if clock.get(q, 0) < k:
                        clock[q] = k
        clock[pick] = index
        cv_proc = dict(parent.cv_proc)
        cv_proc[pick] = clock
        in_clock = clock
    candidates = sysm.candidates()
    pending_fps = sysm.alive_footprints()
    return _Node(pick, fp, in_clock, cv_proc, candidates, pending_fps,
                 sleep)


def _update_backtracks(path: List[_Node]) -> None:
    """Race detection at the newly-reached state (the last node of
    ``path``): every candidate's pending step is checked against every
    earlier executed step it conflicts with but is not already
    happens-after; each such race plants a backtrack point at the state
    the earlier step executed from (the candidate itself if it was
    schedulable there, otherwise conservatively every candidate of that
    state)."""
    node = path[-1]
    depth = len(path) - 1
    for p in node.candidates:
        f_p = node.pending_fps.get(p)
        past = node.cv_proc.get(p, {})
        for j in range(depth, 0, -1):
            step = path[j]
            q = step.in_pid
            if q == p or j <= past.get(q, 0):
                continue
            if conflicts(step.in_fp, f_p):
                pre = path[j - 1]
                if p in pre.candidates:
                    if p not in pre.done and p not in pre.sleep:
                        pre.backtrack.add(p)
                else:
                    pre.backtrack.update(pre.candidates)


def _work_remains(path: List[_Node]) -> bool:
    return any(
        any(p not in node.done and p not in node.sleep
            for p in node.backtrack)
        for node in path)


def _explore_core(build: Builder,
                  check: Callable[[RunResult], None],
                  crash_plan_factory: Optional[Callable[[], CrashPlan]]
                  = None,
                  max_steps: int = 24,
                  max_runs: int = 200_000,
                  shrink: bool = True,
                  prefix: Sequence[int] = (),
                  root_sleep: Sequence[int] = (),
                  collect: bool = False,
                  counters: Optional[Dict[str, Any]] = None,
                  deadline: Optional[float] = None
                  ) -> ExplorationStats:
    """DPOR exploration of the subtree rooted at ``prefix``.

    With an empty ``prefix`` this is the full serial search.  With a
    non-empty prefix (shard mode, see :mod:`repro.runtime.parallel`) the
    prefix is replayed first and DFS proceeds only *below* its final
    state: backtrack points that race detection plants into prefix
    states are ignored here, which is sound because the frontier
    expansion that produced the shard scheduled every non-sleeping
    candidate at each pre-frontier state, so sibling shards cover those
    orderings.  ``root_sleep`` carries the shard root's sleep set across
    the process boundary.

    With ``collect=True`` the first check failure is recorded as
    ``stats.violation`` (schedule measured from the true root, prefix
    included) and the walk returns instead of raising, so a coordinator
    can pick the winning violation deterministically across shards.

    ``counters`` is an optional plain-dict metrics channel (plain
    data, so shard workers can ship it back in a frame): sleep-set
    hit accounting, ddmin replay counts, and shrink wall-clock go
    there, never into ``ExplorationStats`` -- collecting metrics cannot
    perturb the deterministic statistics contract.
    """
    stats = ExplorationStats()
    fp_memo: Dict[Any, Optional[Footprint]] = {}
    sysm = _System(build, crash_plan_factory, fp_memo)
    path: List[_Node] = [_make_node(sysm, None, None, None, [], set())]
    for pid in prefix:
        node = path[-1]
        node.visited = True
        if pid not in node.candidates:
            raise RuntimeError(
                f"shard prefix diverged: {pid} not schedulable at depth "
                f"{len(path) - 1} (candidates: {node.candidates})")
        node.done.add(pid)
        fp = sysm.execute(pid)
        child = _make_node(sysm, node, pid, fp, path, set())
        path.append(child)
    base = len(path) - 1
    path[-1].sleep = set(root_sleep)
    synced = True

    def check_budget() -> None:
        if stats.total_runs >= max_runs and _work_remains(path[base:]):
            raise _max_runs_interrupt(max_runs, stats)
        if _past_deadline(deadline) and _work_remains(path[base:]):
            raise _timeout_interrupt(stats)

    def pop_top() -> None:
        nonlocal synced
        path.pop()
        synced = False

    while len(path) > base:
        node = path[-1]
        depth = len(path) - 1
        if not node.visited:
            node.visited = True
            stats.max_depth_seen = max(stats.max_depth_seen, depth)
            if not node.candidates:
                # Terminal state (all decided/crashed, or exact deadlock).
                stats.complete_runs += 1
                result = sysm.result()
                try:
                    check(result)
                except Exception as exc:  # noqa: BLE001 - property failed
                    schedule = [n.in_pid for n in path[1:]]
                    if collect:
                        stats.violation = ShardViolation(
                            order_key=tuple(prefix),
                            schedule=tuple(schedule),
                            message=f"{type(exc).__name__}: {exc}",
                            error_type=type(exc).__name__)
                        return stats
                    if shrink:
                        from time import perf_counter
                        shrink_start = perf_counter()
                        counterexample = shrink_schedule(
                            build, check, schedule,
                            crash_plan_factory=crash_plan_factory,
                            max_steps=max(max_steps, len(schedule)))
                        if counters is not None:
                            counters["shrink_seconds"] = (
                                counters.get("shrink_seconds", 0.0)
                                + perf_counter() - shrink_start)
                            counters["ddmin_replays"] = (
                                counters.get("ddmin_replays", 0)
                                + counterexample.ddmin_attempts)
                    else:
                        counterexample = Counterexample(
                            prefix=schedule, tail=[],
                            original_schedule=schedule, error=exc,
                            result=result, build=build, check=check,
                            crash_plan_factory=crash_plan_factory,
                            max_steps=max(max_steps, len(schedule)))
                    raise CounterexampleFound(counterexample, stats) \
                        from exc
                pop_top()
                check_budget()
                continue
            if depth >= max_steps:
                stats.truncated_runs += 1
                pop_top()
                check_budget()
                continue
            explorable = [p for p in node.candidates if p not in node.sleep]
            if counters is not None:
                counters["sleep_checks"] = (counters.get("sleep_checks", 0)
                                            + len(node.candidates))
                counters["sleep_hits"] = (counters.get("sleep_hits", 0)
                                          + len(node.candidates)
                                          - len(explorable))
            if not explorable:
                # Every candidate sleeps: the whole subtree is equivalent
                # to schedules already explored elsewhere.
                stats.pruned_runs += 1
                pop_top()
                continue
            node.backtrack.add(explorable[0])
        pick = min((p for p in node.backtrack
                    if p not in node.done and p not in node.sleep),
                   default=None)
        if pick is None:
            # Fully explored; candidates never scheduled here were pruned
            # by the persistent-set/sleep-set argument.
            stats.pruned_runs += sum(1 for p in node.candidates
                                     if p not in node.done)
            pop_top()
            continue
        if not synced:
            sysm = _System(build, crash_plan_factory, fp_memo)
            for n in path[1:]:
                sysm.execute(n.in_pid)
            synced = True
        node.done.add(pick)
        fp = sysm.execute(pick)
        child_sleep = {
            q for q in (node.sleep | node.done) - {pick}
            if q in node.pending_fps
            and not conflicts(node.pending_fps[q], fp)}
        child = _make_node(sysm, node, pick, fp, path, child_sleep)
        path.append(child)
        _update_backtracks(path)
    return stats


def explore_dpor(build: Builder,
                 check: Callable[[RunResult], None],
                 crash_plan_factory: Optional[Callable[[], CrashPlan]]
                 = None,
                 max_steps: int = 24,
                 max_runs: int = 200_000,
                 shrink: bool = True,
                 jobs=None,
                 prefix_factor: Optional[int] = None,
                 metrics: Optional[Any] = None,
                 deadline: Optional[float] = None
                 ) -> ExplorationStats:
    """Explore one representative schedule per Mazurkiewicz trace.

    Same contract as :func:`repro.runtime.explore.explore` -- ``build()``
    returns a fresh ``(programs, store)`` pair, ``check(result)`` asserts
    the safety property on every complete run, prefixes longer than
    ``max_steps`` count as truncated, and exceeding ``max_runs`` complete
    + truncated runs raises ``RuntimeError`` (inclusive bound) -- but
    schedules equivalent up to commuting independent steps are explored
    only once.  ``stats.pruned_runs`` reports a *lower bound* on the
    schedules avoided (unexplored candidate branches plus sleep-blocked
    subtrees); the true saving is typically far larger, since each pruned
    branch roots a whole subtree.

    On a ``check`` failure the failing schedule is shrunk
    (:func:`shrink_schedule`, unless ``shrink=False``) and a
    :class:`CounterexampleFound` is raised from the original error.

    ``jobs=None`` (default) runs the classic single-process search; any
    explicit value routes to sharded exploration
    (:func:`repro.runtime.parallel.explore_parallel`), whose run counts
    depend on the sharding but never on how many workers execute it.

    ``metrics`` is an optional
    :class:`repro.analysis.metrics.ExplorationMetrics` collector;
    timing and sleep-set/ddmin counters are recorded beside the returned
    statistics, which stay bit-for-bit unchanged.

    ``deadline`` is an absolute ``time.monotonic()`` instant (computed
    by :func:`repro.runtime.explore.explore` from its ``timeout``);
    crossing it raises
    :class:`~repro.runtime.explore.ExplorationInterrupted` with the
    partial statistics.
    """
    if jobs is not None:
        from .parallel import DEFAULT_PREFIX_FACTOR, explore_parallel
        return explore_parallel(
            build, check, crash_plan_factory=crash_plan_factory,
            max_steps=max_steps, max_runs=max_runs, jobs=jobs,
            reduction="dpor", shrink=shrink,
            prefix_factor=prefix_factor or DEFAULT_PREFIX_FACTOR,
            metrics=metrics, deadline=deadline)
    if metrics is None:
        return _explore_core(build, check,
                             crash_plan_factory=crash_plan_factory,
                             max_steps=max_steps, max_runs=max_runs,
                             shrink=shrink, deadline=deadline)
    from time import perf_counter
    counters: Dict[str, Any] = {}
    start = perf_counter()
    try:
        stats = _explore_core(build, check,
                              crash_plan_factory=crash_plan_factory,
                              max_steps=max_steps, max_runs=max_runs,
                              shrink=shrink, counters=counters,
                              deadline=deadline)
    finally:
        # A serial run is one shard; shrink time was split out into the
        # counters channel, so keep the shard phase to the search proper.
        elapsed = perf_counter() - start
        metrics.record_phase(
            "shard_execution",
            max(0.0, elapsed - counters.get("shrink_seconds", 0.0)))
        metrics.absorb_counters(counters)
    metrics.record_stats(stats)
    return stats
