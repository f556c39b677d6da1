"""Crash-failure injection.

The ASM(n, t, x) model allows an arbitrary subset of at most ``t`` processes
to crash at arbitrary points (paper, Section 2.3).  A :class:`CrashPlan`
makes the adversary's choice explicit and reproducible: each victim is
paired with a :class:`CrashPoint` saying *when* (before which of its own
atomic steps, or before the k-th operation matching a predicate) the process
stops executing steps.

Crashing "while executing sa_propose()" -- the scenario at the heart of the
paper's blocking lemmas -- is expressed with an operation predicate, e.g.
crash before the process's second write to the safe-agreement snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional

from .ops import Invocation, SpinOp


@dataclass
class CrashPoint:
    """When a victim process crashes.

    Exactly one trigger is used:

    * ``own_step`` -- crash immediately *before* executing its ``own_step``-th
      atomic step (1-based).  ``own_step=1`` means the process never executes
      any step ("initially dead").
    * ``before_matching`` + ``occurrence`` -- crash immediately before
      executing the ``occurrence``-th (1-based) operation for which the
      predicate returns True.  The predicate receives the underlying
      :class:`Invocation` (spin ops are unwrapped).
    """

    own_step: Optional[int] = None
    before_matching: Optional[Callable[[Invocation], bool]] = None
    occurrence: int = 1
    _matches_seen: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if (self.own_step is None) == (self.before_matching is None):
            raise ValueError(
                "specify exactly one of own_step / before_matching")
        if self.own_step is not None and self.own_step < 1:
            raise ValueError("own_step is 1-based and must be >= 1")
        if self.occurrence < 1:
            raise ValueError("occurrence is 1-based and must be >= 1")

    def should_crash(self, steps_taken: int, op: Any) -> bool:
        """Decide whether the victim crashes instead of executing ``op``.

        ``steps_taken`` is the number of steps the process has already
        executed.  Mutates the match counter for predicate triggers, so this
        must be called exactly once per scheduled step of the victim.
        """
        if self.own_step is not None:
            return steps_taken + 1 >= self.own_step
        inv = op.invocation if isinstance(op, SpinOp) else op
        if isinstance(inv, Invocation) and self.before_matching(inv):
            self._matches_seen += 1
            return self._matches_seen >= self.occurrence
        return False

    def reset(self) -> None:
        """Zero the predicate match counter so the point can be reused.

        Predicate triggers count matches across calls; a point carried
        into a second run without a reset would fire ``occurrence``
        matches too early.  The scheduler resets every plan it is handed
        (see :class:`~repro.runtime.scheduler.Scheduler`), so one plan
        object may safely back many runs (e.g. a ``crash_plan_factory``
        returning a shared instance to ``explore``).
        """
        self._matches_seen = 0

    def fingerprint_state(self) -> tuple:
        """Configuration plus mutable trigger state, for the state
        fingerprint (:mod:`repro.runtime.fingerprint`): two system
        states whose crash points have seen different match counts must
        never share a fingerprint."""
        return (self.own_step, self.before_matching, self.occurrence,
                self._matches_seen)


class CrashPlan:
    """Maps victim pids to crash points.

    The plan is validated against a model's ``t`` by the run harness.
    Predicate triggers keep per-run counters, but the scheduler calls
    :meth:`reset` at the start of every run, so a single plan object may
    back any number of runs (a ``crash_plan_factory`` returning a shared
    instance is safe).
    """

    def __init__(self, points: Optional[Dict[int, CrashPoint]] = None) -> None:
        self.points: Dict[int, CrashPoint] = dict(points or {})

    @classmethod
    def none(cls) -> "CrashPlan":
        return cls()

    @classmethod
    def initially_dead(cls, pids: Iterable[int]) -> "CrashPlan":
        """Victims crash before taking any step."""
        return cls({pid: CrashPoint(own_step=1) for pid in pids})

    @classmethod
    def at_own_step(cls, schedule: Dict[int, int]) -> "CrashPlan":
        """``schedule[pid] = k``: pid crashes before its k-th step."""
        return cls({pid: CrashPoint(own_step=k)
                    for pid, k in schedule.items()})

    @classmethod
    def before_operation(cls, pid: int,
                         predicate: Callable[[Invocation], bool],
                         occurrence: int = 1) -> "CrashPlan":
        """Single victim, crashing before a matching operation."""
        return cls({pid: CrashPoint(before_matching=predicate,
                                    occurrence=occurrence)})

    @classmethod
    def before_operation_each(cls, pids: Iterable[int],
                              predicate: Callable[[Invocation], bool],
                              occurrence: int = 1) -> "CrashPlan":
        """Every listed victim crashes before its own matching operation.

        Each victim gets a private :class:`CrashPoint` (match counters
        are per-point), all sharing the same stateless ``predicate`` --
        e.g. ``op_on("XSA_REG", "write")`` to crash each victim right
        before it would publish.  A victim whose execution never reaches
        a matching operation simply never crashes, which is exactly the
        semantics the blocking-lemma scenarios need: only processes
        that *win* ownership can die inside the window that matters.
        """
        return cls({pid: CrashPoint(before_matching=predicate,
                                    occurrence=occurrence)
                    for pid in pids})

    def add(self, pid: int, point: CrashPoint) -> "CrashPlan":
        if pid in self.points:
            raise ValueError(f"pid {pid} already has a crash point")
        self.points[pid] = point
        return self

    def merge(self, other: "CrashPlan") -> "CrashPlan":
        merged = CrashPlan(dict(self.points))
        for pid, point in other.points.items():
            merged.add(pid, point)
        return merged

    @property
    def victims(self) -> frozenset:
        return frozenset(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def should_crash(self, pid: int, steps_taken: int, op: Any) -> bool:
        point = self.points.get(pid)
        if point is None:
            return False
        return point.should_crash(steps_taken, op)

    def reset(self) -> None:
        """Reset every crash point's per-run state (match counters)."""
        for point in self.points.values():
            point.reset()

    # -- state-fingerprint hooks ---------------------------------------
    def fingerprint_state(self) -> tuple:
        """Canonicalisable view of the plan: per-victim point state,
        sorted by pid (see :mod:`repro.runtime.fingerprint`)."""
        return tuple(sorted(
            (pid, point.fingerprint_state())
            for pid, point in self.points.items()))

    def fingerprint_step_pids(self) -> frozenset:
        """Pids whose own-step counters this plan's behaviour depends
        on.  Only ``own_step`` victims are step-sensitive; predicate
        points key on operation matches, whose counters
        :meth:`fingerprint_state` already pins."""
        return frozenset(pid for pid, point in self.points.items()
                         if point.own_step is not None)

    def __repr__(self) -> str:
        return f"CrashPlan({self.points!r})"


def op_on(obj: str, method: Optional[str] = None
          ) -> Callable[[Invocation], bool]:
    """Predicate factory: match invocations on an object (and method)."""

    def predicate(inv: Invocation) -> bool:
        if inv.obj != obj:
            return False
        return method is None or inv.method == method

    return predicate
