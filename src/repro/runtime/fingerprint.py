"""Canonical state fingerprinting of a live system.

A :class:`Fingerprinter` turns the complete observable state of a live
system -- every shared object's audited state, every process's
continuation point, the scheduler step counter, and the mutable state of
any crash/fault plan -- into a stable, hashable *canonical form*: two
systems with equal fingerprints are in the same state.

The DPOR explorer (:mod:`repro.runtime.dpor`) is stateless and does
not fingerprint (``docs/performance.md`` says why).  The class and the
``fingerprint_state`` hooks remain as a standalone utility whose
methods the benchmark's traced pass still wraps.

Soundness contract
------------------

A fingerprint collision (two distinct states with equal fingerprints)
would silently merge genuinely different behaviours; a fingerprint
*split* (one state fingerprinted two ways) only costs a missed match.
Canonicalisation is therefore biased hard toward splitting:

* every recognised value kind canonicalises structurally (dicts and
  sets are sorted, so insertion order never matters);
* scalars carry a type tag, so ``True``/``1`` and ``1``/``1.0`` -- equal
  and hash-equal in Python -- never merge;
* anything *unrecognised* gets a globally-unique opaque token (the
  object is kept alive so ``id`` reuse cannot alias tokens).  Unknown
  values can only ever cause misses, never unsound merges.

The state covered is exactly what a run's outcome can observe: the
per-object :meth:`~repro.memory.base.SharedObject.fingerprint_state`
view (``audit_state`` by default, normalised so lazily materialised
defaults compare equal to absent entries), generator continuations
(code identity, resume offset, locals, ``yield from`` chains), pending
operations, statuses, decisions, inboxes, the global step counter and
deadlock flag, and the plan hooks
(:meth:`~repro.runtime.crash.CrashPlan.fingerprint_state` and friends).
Check callbacks must therefore judge a run only through the
:class:`~repro.runtime.run.RunResult` surface backed by that state
(decisions, statuses, steps, deadlock, audit-visible object state) --
not through observability instrumentation such as ``store.op_count``.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from types import FunctionType, GeneratorType, MethodType
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

__all__ = ["Fingerprinter"]

#: Canonical tags, interned once (tuple identity helps dict hashing).
_TAG_BOOL = "b"
_TAG_FLOAT = "f"
_TAG_TUPLE = "t"
_TAG_LIST = "l"
_TAG_SET = "s"
_TAG_DICT = "d"
_TAG_DATACLASS = "dc"
_TAG_FUNCTION = "fn"
_TAG_METHOD = "m"
_TAG_GENERATOR = "g"
_TAG_EXCEPTION = "e"
_TAG_SHARED = "so"
_TAG_PROXY = "px"
_TAG_OPAQUE = "?"
_TAG_CYCLE = "cyc"

_ATOMIC = (int, str, bytes, type(None))


def _item_key(item: Tuple[Any, Any]) -> Any:
    """Sort key for dict items: the raw key only (values may not be
    mutually comparable; keys within one dict usually are)."""
    return item[0]


def _atomic_tree(value: Any) -> bool:
    """True iff ``value`` is a tuple tree of value-hashed atoms.

    For such values ``==`` and :meth:`Fingerprinter.canon` distinguish
    exactly the same states (no id-based opaque tokens can hide inside),
    so canonical forms may be memoised by the value itself without any
    risk of an unsound merge."""
    if type(value) is tuple:
        return all(_atomic_tree(v) for v in value)
    return type(value) in (int, str, bool, float, bytes, type(None))


class Fingerprinter:
    """Computes canonical, collision-averse state fingerprints.

    Fingerprints are comparable only between calls on one instance (its
    opaque-token table and the identity of the tokens it mints are
    meaningful only within it).  Subclass and override
    :meth:`object_fingerprint` to experiment with coarser object views.
    """

    def __init__(self) -> None:
        #: id(obj) -> unique opaque token; ``_opaque_refs`` keeps every
        #: tokenised object alive so CPython cannot reuse its id.
        self._opaque: Dict[int, Tuple[str, int]] = {}
        self._opaque_refs: List[Any] = []
        self._runtime_classes: Optional[tuple] = None
        #: (plan qualname, atomic state tree) -> plan fingerprint; plan
        #: trigger states repeat heavily across the exploration tree.
        self._plan_memo: Dict[tuple, tuple] = {}

    # -- canonicalisation ----------------------------------------------
    def canon(self, value: Any, _active: Optional[frozenset] = None) -> Any:
        """Return a hashable canonical form of ``value``.

        Equal canonical forms imply semantically equal values for every
        recognised kind; unrecognised values map to per-object opaque
        tokens (never equal across distinct objects).
        """
        # Exact-type fast paths first: state values are overwhelmingly
        # plain builtins, and the isinstance chain below is hot.
        cls = value.__class__
        if cls is bool:
            return (_TAG_BOOL, value)
        if cls is int or cls is str:
            return value
        if cls is float:
            return (_TAG_FLOAT, value)
        if value is None:
            return None
        if isinstance(value, float):
            return (_TAG_FLOAT, value)
        if isinstance(value, _ATOMIC) or isinstance(value, Enum):
            return value
        vid = id(value)
        active = _active or frozenset()
        if vid in active:
            return (_TAG_CYCLE,)
        active = active | {vid}
        if isinstance(value, tuple):
            return (_TAG_TUPLE,
                    tuple(self.canon(v, active) for v in value))
        if isinstance(value, list):
            return (_TAG_LIST,
                    tuple(self.canon(v, active) for v in value))
        if isinstance(value, (set, frozenset)):
            # Insertion-order insensitivity: sort elements.  Mutually
            # comparable raw elements (the common case) sort directly;
            # mixed kinds fall back to sorting the canonical forms by
            # repr.  Either order is deterministic for a given element
            # set, which is all canonicalisation needs.
            try:
                elems = sorted(value)
            except TypeError:
                return (_TAG_SET, tuple(sorted(
                    (self.canon(v, active) for v in value), key=repr)))
            return (_TAG_SET,
                    tuple(self.canon(v, active) for v in elems))
        if isinstance(value, dict):
            # Same scheme for key order: raw-key sort when comparable
            # (e.g. the all-str keys of ``f_locals``), canonical-repr
            # sort otherwise.  The emitted pairs always carry the
            # *canonical* key, so 1 and True still never merge.
            try:
                items = sorted(value.items(), key=_item_key)
            except TypeError:
                return (_TAG_DICT, tuple(sorted(
                    ((self.canon(k, active), self.canon(v, active))
                     for k, v in value.items()), key=repr)))
            return (_TAG_DICT, tuple(
                (self.canon(k, active), self.canon(v, active))
                for k, v in items))
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return (_TAG_DATACLASS, type(value).__qualname__, tuple(
                (f.name, self.canon(getattr(value, f.name), active))
                for f in dataclasses.fields(value)))
        if isinstance(value, MethodType):
            return (_TAG_METHOD, id(value.__func__.__code__),
                    self.canon(value.__self__, active))
        if isinstance(value, FunctionType):
            cells = tuple(
                self.canon(self._cell_value(c), active)
                for c in (value.__closure__ or ()))
            return (_TAG_FUNCTION, id(value.__code__),
                    self.canon(value.__defaults__, active), cells)
        if isinstance(value, GeneratorType):
            return (_TAG_GENERATOR, self.continuation(value, active))
        if isinstance(value, BaseException):
            return (_TAG_EXCEPTION, type(value).__qualname__,
                    self.canon(value.args, active))
        shared = self._known_runtime(value, active)
        if shared is not None:
            return shared
        return self._opaque_token(value)

    @staticmethod
    def _cell_value(cell: Any) -> Any:
        try:
            return cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            return "<empty-cell>"

    def _known_runtime(self, value: Any,
                       active: frozenset) -> Optional[tuple]:
        """Structural forms for runtime types that appear inside state
        values (shared-object references and store proxies); imported
        lazily -- then cached -- to keep this module dependency-free."""
        classes = self._runtime_classes
        if classes is None:
            from ..memory.base import SharedObject
            from .ops import ObjectProxy
            classes = self._runtime_classes = (SharedObject, ObjectProxy)
        shared_cls, proxy_cls = classes
        if isinstance(value, shared_cls):
            return (_TAG_SHARED, value.name)
        if isinstance(value, proxy_cls):
            return (_TAG_PROXY, value._name)
        return None

    def _opaque_token(self, value: Any) -> Tuple[str, int]:
        token = self._opaque.get(id(value))
        if token is None:
            token = (_TAG_OPAQUE, len(self._opaque_refs))
            self._opaque[id(value)] = token
            self._opaque_refs.append(value)
        return token

    # -- per-component fingerprints ------------------------------------
    def object_fingerprint(self, obj: Any) -> tuple:
        """Canonical form of one shared object's audited state.

        Entries whose value equals the object's
        :meth:`~repro.memory.base.SharedObject.audit_default` are
        dropped, so lazily materialising a default (a snapshot of a
        never-written instance, say) does not change the fingerprint.
        """
        items = []
        for key, value in obj.fingerprint_state().items():
            try:
                default = obj.audit_default(key)
                if value is default or value == default:
                    continue
            except Exception:  # noqa: BLE001 - exotic ==; keep the entry
                pass
            items.append((self.canon(key), self.canon(value)))
        items.sort(key=repr)
        return (type(obj).__qualname__, tuple(items))

    def continuation(self, gen: Any,
                     active: Optional[frozenset] = None) -> tuple:
        """Continuation point of a (possibly delegating) generator:
        code identity + resume offset + canonicalised locals, walking
        the ``yield from`` chain."""
        parts = []
        while gen is not None and hasattr(gen, "gi_code"):
            frame = gen.gi_frame
            if frame is None:
                parts.append(("done", id(gen.gi_code)))
                break
            parts.append((id(gen.gi_code), frame.f_lasti,
                          self.canon(dict(frame.f_locals), active)))
            gen = getattr(gen, "gi_yieldfrom", None)
        return tuple(parts)

    def process_heavy(self, handle: Any) -> tuple:
        """The expensive, rarely-changing part of a process fingerprint:
        status, decision, pending op, the inbox (the last operation's
        result, about to be sent into the generator), and the generator
        continuation.  This part changes only when the process itself
        executes a step (or is crashed / retired by the deadlock
        detector); the incremental driver in :mod:`repro.runtime.dpor`
        reuses the parent state's value for every other process."""
        cont = ()
        if handle.alive and handle.started and handle.generator is not None:
            cont = self.continuation(handle.generator)
        return (handle.status,
                self.canon(handle.decision),
                self.canon(handle.pending),
                self.canon(handle.inbox),
                cont)

    def process_fingerprint(self, handle: Any,
                            track_steps: bool) -> tuple:
        """Canonical form of one process: the heavy part
        (:meth:`process_heavy`) plus the volatile counters -- spin
        verification and, with ``track_steps``, the process's own step
        counter (required whenever a crash/fault plan keys behaviour on
        it)."""
        return self.assemble_process(self.process_heavy(handle), handle,
                                     track_steps)

    @staticmethod
    def assemble_process(heavy: tuple, handle: Any,
                         track_steps: bool) -> tuple:
        """Combine a (possibly reused) heavy part with the volatile
        per-process counters read fresh from ``handle``."""
        return (heavy, handle.spin_failures,
                handle.steps_taken if track_steps else None)

    def plan_fingerprint(self, plan: Any) -> tuple:
        """Canonical form of a crash/fault plan's mutable trigger state.

        Plans expose :meth:`fingerprint_state`; unknown plan types fall
        back to canonicalising their full ``vars()`` (complete, hence
        sound -- at worst every run misses via opaque tokens).
        """
        hook = getattr(plan, "fingerprint_state", None)
        state = hook() if hook is not None else vars(plan)
        if _atomic_tree(state):
            key = (type(plan).__qualname__, state)
            fp = self._plan_memo.get(key)
            if fp is None:
                fp = (key[0], self.canon(state))
                self._plan_memo[key] = fp
            return fp
        return (type(plan).__qualname__, self.canon(state))

    def plan_step_pids(self, plan: Any) -> Optional[FrozenSet[int]]:
        """Pids whose own-step counters the plan's behaviour depends on
        (``None`` = unknown, treat every pid as step-sensitive)."""
        hook = getattr(plan, "fingerprint_step_pids", None)
        return hook() if hook is not None else None

    # -- the whole-system fingerprint ----------------------------------
    def object_parts(self, system: Any) -> Dict[str, tuple]:
        """Per-object fingerprint parts, keyed by object name."""
        return {name: self.object_fingerprint(obj)
                for name, obj in system.store.shared_objects().items()}

    def heavy_parts(self, system: Any) -> Dict[int, tuple]:
        """Per-process heavy fingerprint parts, keyed by pid."""
        return {pid: self.process_heavy(handle)
                for pid, handle in system.handles.items()}

    def assemble(self, system: Any, obj_parts: Dict[str, tuple],
                 heavy: Dict[int, tuple]) -> tuple:
        """Combine per-component parts into the full state fingerprint.

        The volatile pieces -- spin-failure counters, plan trigger
        state, the global step counter, the deadlock flag, and (for
        plan-sensitive pids) per-process step counters -- are read fresh
        from ``system`` on every call; only the heavy parts are supplied
        by the caller (computed fresh or reused incrementally).
        """
        objs = tuple((name, obj_parts[name])
                     for name in sorted(obj_parts))
        plan = system.scheduler.crash_plan
        if plan is None:
            plan_fp = None
            step_pids: Optional[FrozenSet[int]] = frozenset()
        else:
            plan_fp = self.plan_fingerprint(plan)
            step_pids = self.plan_step_pids(plan)
        procs = tuple(
            (pid, self.assemble_process(
                heavy[pid], system.handles[pid],
                step_pids is None or pid in step_pids))
            for pid in sorted(system.handles))
        return (objs, procs, system.scheduler.steps, system.deadlocked,
                plan_fp)

    def fingerprint(self, system: Any) -> tuple:
        """Canonical fingerprint of a live ``_System`` state.

        Covers every input the remainder of a run can depend on: shared
        objects (sorted by name), processes (sorted by pid), the global
        step counter, the exact-deadlock flag, and plan trigger state.
        """
        return self.assemble(system, self.object_parts(system),
                             self.heavy_parts(system))
