"""The shard pool: the lease protocol over framed sockets.

Every sharded exploration runs its frontier shards here.  A
:class:`ShardServer` hands shards out under
:class:`~repro.runtime.lease.LeaseTable` leases, and
:class:`ShardWorker` sessions loop request -> execute -> complete over
the checksummed frames of :mod:`repro.runtime.wire`.  ``--jobs``
workers are forked children, each on one end of a ``socketpair`` the
server watches beside its TCP connections; remote workers dial in over
TCP (``python -m repro worker``).  Both speak the same frames, so lease
expiry, re-grant, first-settle-wins dedup, the in-process retry ladder
and child teardown exist once.  The transport is treated as an
adversary, in the spirit of the source paper's BG discipline (a slow
or crashed simulator must never block the simulation):

* every frame read/write carries a deadline (:mod:`wire <.wire>`);
* remote workers retry under capped exponential backoff with
  *deterministic* jitter (:func:`backoff_delay`), reconnect, and
  **re-identify** by name, so their live leases survive a blip;
* a lapsed lease (or a dead local worker) re-grants its shard up to
  ``_REGRANT_MAX`` times, then the coordinator runs it in-process under
  the retry ladder, and with no live worker left it runs the rest
  itself: worker loss costs throughput, never coverage;
* completions are accepted only from the shard's *current* lease
  holder, so a stale or replayed frame is rejected (pinned by the
  ``netshard-accept-stale-result`` planted mutant);
* the server answers ``done`` to every connection before it closes,
  so workers leave at once instead of walking their reconnect backoff.

:func:`run_pool` is :func:`repro.runtime.parallel.explore_parallel`'s
default pool; a :class:`ShardServer` instance is the ``pool`` of
``python -m repro serve``.  Either way expansion, checkpointing,
merging and shrinking are the same code, so serial, ``--jobs`` and
socket runs are bit-for-bit identical by construction -- and the
``network`` tier asserts it (see ``docs/distributed_exploration.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import os
import select
import selectors
import signal
import socket
import threading
from collections import deque
from time import monotonic, perf_counter
from time import sleep as _real_sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import wire
from .explore import ExplorationInterrupted, ExplorationStats
from .frontier import stats_from_dict, stats_to_dict
from .lease import (DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_LEASE_TIMEOUT,
                    LeaseTable)

#: Seconds the coordinator waits for a first worker before it runs
#: shards in-process itself (solo mode).  Once any worker has joined,
#: solo mode starts the moment *no* worker is live.
DEFAULT_SOLO_AFTER = 5.0

#: Seconds between selector wake-ups (lease sweep + solo-mode check).
_POLL_INTERVAL = 0.05

#: Client connect/RPC backoff ladder (seconds): base doubles per
#: attempt up to the cap, then deterministic jitter is applied.
CONNECT_BACKOFF_BASE = 0.05
CONNECT_BACKOFF_CAP = 2.0

#: Reconnect-and-retry attempts a worker gives one RPC before deciding
#: the server is gone.  Module-level so tests can shrink it.
RPC_ATTEMPTS = 6

#: Seconds a worker idles after an ``idle`` reply before re-requesting
#: (a ``done`` pushed by the server ends the wait early).
_IDLE_WAIT = 0.2

#: Lease timeout / heartbeat interval of local (forked) workers.
#: Module-level so tests can shrink both.
_LEASE_TIMEOUT = DEFAULT_LEASE_TIMEOUT
_HEARTBEAT_INTERVAL = DEFAULT_HEARTBEAT_INTERVAL

#: Times a shard may be re-granted before only the coordinator may run
#: it: a *deterministically* worker-killing shard costs a bounded
#: number of workers, the in-process fallback none.
_REGRANT_MAX = 2

#: In-process attempts granted to a shard before its error surfaces.
_RETRY_MAX_ATTEMPTS = 3

#: Base/cap of the exponential backoff slept between retry attempts
#: (0.05s, 0.1s, ... capped).  Module-level so tests can shrink them.
_RETRY_BACKOFF_BASE = 0.05
_RETRY_BACKOFF_CAP = 1.0

#: Seconds granted at each stage of local worker teardown (exit after
#: ``done``, SIGTERM, SIGKILL).  Module-level so tests can shrink it.
_JOIN_TIMEOUT = 2.0

_WORKER_SEQ = itertools.count()


class WorkerUnavailable(RuntimeError):
    """A worker exhausted its connect attempts without ever connecting."""


class ServerGone(RuntimeError):
    """A worker's server stopped answering after it had been connected.

    Usually benign: the exploration finished (or the coordinator was
    killed) while this worker was between RPCs.
    """


def backoff_delay(key: str, attempt: int,
                  base: float = CONNECT_BACKOFF_BASE,
                  cap: float = CONNECT_BACKOFF_CAP) -> float:
    """Capped exponential backoff with deterministic jitter.

    ``base * 2**attempt`` capped at ``cap``, scaled into ``[0.5, 1.0)``
    of itself by a jitter derived from ``sha256(key, attempt)`` -- no
    wall clock, no global RNG.  Distinct workers (distinct ``key``)
    therefore spread their retries instead of stampeding in lockstep,
    while any given worker's schedule is exactly reproducible.
    """
    # Clamp the exponent: past ~2**64 the doubling is academically above
    # any cap and literally above float range.
    raw = min(base * (2.0 ** min(attempt, 64)), cap)
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / 2 ** 64
    return raw * (0.5 + 0.5 * unit)


def fork_available() -> bool:
    """Can this platform start workers by ``fork``?

    Local workers execute closures inherited at fork time, so
    ``spawn``-only platforms degrade to in-process execution.
    """
    return "fork" in mp.get_all_start_methods()


def _run_task(runner: Callable[[Any], Any], payload: Any,
              fault: Optional[str], in_worker: bool, attempt: int = 0):
    """``runner(payload)``, honouring an injected test fault.

    Kinds (comma-separated): ``sigkill`` / ``sigstop`` kill / wedge a
    *local worker* before it runs the task (ignored in-process);
    ``raise`` fails the task everywhere; ``flaky`` fails in workers and
    on the first in-process retry (``attempt`` 1), succeeding from the
    second -- it tells the retry ladder from a single re-execution.
    """
    kinds = set(fault.split(",")) if fault else set()
    if in_worker and "sigkill" in kinds:
        os.kill(os.getpid(), signal.SIGKILL)
    if in_worker and "sigstop" in kinds:
        os.kill(os.getpid(), signal.SIGSTOP)
    if "raise" in kinds:
        raise RuntimeError("injected shard fault")
    if "flaky" in kinds and (in_worker or attempt < 2):
        raise RuntimeError("injected flaky shard fault")
    return runner(payload)


def _value_fields(value: Any) -> Dict[str, Any]:
    """The ``complete``-frame fields that carry one task's value.

    A shard result ``(stats, counters[, interruption reason])`` travels
    as ``stats`` / ``counters`` / ``reason``; any other value travels as
    ``value`` and must be JSON-encodable.
    """
    if isinstance(value, tuple) and value and \
            isinstance(value[0], ExplorationStats):
        fields = {"stats": stats_to_dict(value[0]),
                  "counters": dict(value[1])}
        if len(value) == 3:
            fields["reason"] = value[2]
        return fields
    return {"value": value}


def _decode_value(body: Dict[str, Any]) -> Any:
    """Inverse of :func:`_value_fields` on a received ``complete``."""
    if "stats" not in body:
        return body.get("value")
    value = (stats_from_dict(body["stats"]),
             dict(body.get("counters") or {}))
    reason = body.get("reason")
    return value if reason is None else value + (reason,)


def run_pool(payloads: Sequence[Any],
             runner: Callable[[Any], Any],
             jobs: int,
             fault_plan: Optional[Dict[int, str]] = None,
             task_log: Optional[List[Dict[str, Any]]] = None,
             deadline: Optional[float] = None,
             on_grant: Optional[Callable[[int, int], None]] = None,
             on_settle: Optional[Callable[[int, Any], None]] = None
             ) -> List[Tuple[Any, Optional[str]]]:
    """Run ``runner(payload)`` for every payload on up to ``jobs`` forks.

    Returns one ``(value, error_message_or_None)`` outcome per payload,
    in payload order.  The workers are forked :class:`ShardWorker`
    children of a listener-less :class:`ShardServer`, so values cross a
    socket: they must be JSON-encodable (or shard results, see
    :func:`_value_fields`).  With ``jobs <= 1``, one payload or no
    ``fork``, every payload runs in-process at once, one attempt each.
    ``fault_plan`` maps payload index to an injected fault (tests only,
    see :func:`_run_task`; ``-1: "sigstop"`` wedges every worker as it
    leaves).  ``on_grant(idx, wid)`` / ``on_settle(idx, outcome)``
    observe every grant (``wid`` ``-1`` = the coordinator) and each
    settled outcome once -- the frontier store journals through them.
    ``task_log`` gets one ``{"index", "worker", "seconds"}`` entry per
    execution (metrics only); ``deadline`` bounds the retry ladder.
    """
    server = ShardServer(lease_timeout=_LEASE_TIMEOUT)
    server.begin(payloads, runner, on_grant=on_grant, on_settle=on_settle,
                 task_log=task_log, deadline=deadline)
    server._fault_plan = dict(fault_plan or {})
    if jobs <= 1 or len(payloads) <= 1 or not fork_available():
        for idx in range(len(payloads)):
            server._run_inprocess(idx, range(1))
        return server.outcomes
    return server._serve_local(jobs)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

class _Session:
    """Server-side identity of one logical worker (survives reconnects).

    Keyed by the worker's name: a worker that dials back in gets the
    same ``worker_id``, so its live leases survive the blip.  A
    ``local`` session is a forked child on a socketpair: it cannot
    redial, so losing its connection means it died.
    """

    __slots__ = ("name", "worker_id", "local", "conn", "inflight",
                 "last_heard", "frames_in", "frames_out", "reconnects",
                 "shards")

    def __init__(self, name: str, worker_id: int,
                 local: bool = False) -> None:
        self.name = name
        self.worker_id = worker_id
        self.local = local
        self.conn: Optional[socket.socket] = None
        #: Last granted, not-yet-settled shard (request idempotence).
        self.inflight: Optional[int] = None
        self.last_heard = monotonic()
        self.frames_in = 0
        self.frames_out = 0
        self.reconnects = 0
        self.shards = 0


class _ConnState:
    """Per-connection receive buffer and its bound session."""

    __slots__ = ("conn", "buffer", "session", "last_progress")

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.buffer = bytearray()
        self.session: Optional[_Session] = None
        self.last_progress = monotonic()


class ShardServer:
    """Coordinator side of the shard pool; a drop-in ``pool``.

    Passed as ``explore_parallel(..., pool=server)``, the server binds a
    listening socket, serves shards to any :class:`ShardWorker` that
    connects, and returns outcomes exactly as :func:`run_pool` does --
    which is this server with forked workers instead of a listener.
    The protocol core (:meth:`begin` / :meth:`handle_message` /
    :meth:`tick` / :meth:`run_one_inprocess`) is transport-free, so
    unit tests and the ``netshard-accept-stale-result`` mutant drive it
    directly.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 config: Optional[Dict[str, Any]] = None,
                 lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
                 regrant_max: int = _REGRANT_MAX,
                 solo_after: float = DEFAULT_SOLO_AFTER,
                 io_timeout: float = wire.DEFAULT_FRAME_TIMEOUT,
                 announce: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        self.host = host
        self.port = port
        #: Run configuration shipped to workers in the ``welcome`` frame
        #: (scenario name/sizing and engine knobs; see ``cmd_serve``).
        self.config = dict(config or {})
        self.lease_timeout = lease_timeout
        self.regrant_max = regrant_max
        self.solo_after = solo_after
        self.io_timeout = io_timeout
        self._announce = announce
        #: Transport observability (metrics v4): frame / reconnect /
        #: retry tallies, never part of deterministic statistics.
        self.tallies: Dict[str, Any] = {
            "frames_in": 0, "frames_out": 0, "connections": 0,
            "reconnects": 0, "frame_errors": 0, "stale_rejections": 0,
            "regrants": 0, "remote_shards": 0, "inprocess_shards": 0,
            "workers": [],
        }
        self._sessions_by_name: Dict[str, _Session] = {}
        self._sessions_by_id: Dict[int, _Session] = {}

    # -- protocol core (transport-free) ---------------------------------

    def begin(self, payloads: Sequence[Any],
              runner: Callable[[Any], Any],
              on_grant: Optional[Callable[[int, int], None]] = None,
              on_settle: Optional[Callable[[int, Any], None]] = None,
              task_log: Optional[List[Dict[str, Any]]] = None,
              deadline: Optional[float] = None) -> None:
        """Arm the server with one run's shards and callbacks."""
        self._payloads = list(payloads)
        self._runner = runner
        self._on_grant = on_grant
        self._on_settle = on_settle
        self._task_log = task_log
        self._deadline = deadline
        self._fault_plan: Dict[int, str] = {}
        n = len(self._payloads)
        self._outcomes: List[Optional[Tuple[Any, Optional[str]]]] = \
            [None] * n
        self._completed: set = set()
        self._pending: deque = deque(range(n))
        #: Shards whose re-grant budget is exhausted or whose worker
        #: reported an error: only the coordinator may still run them.
        self._inproc_only: deque = deque()
        self._leases = LeaseTable(timeout=self.lease_timeout)
        self._regrants: Dict[int, int] = {}

    @property
    def done(self) -> bool:
        """Every shard settled?"""
        return len(self._completed) >= len(self._payloads)

    @property
    def outcomes(self) -> List[Optional[Tuple[Any, Optional[str]]]]:
        """Per-payload outcomes settled so far (None = still open)."""
        return list(self._outcomes)

    def handle_message(self, body: Dict[str, Any],
                       now: Optional[float] = None) -> Dict[str, Any]:
        """Apply one protocol message; returns the reply body.

        Pure protocol logic -- no sockets -- so unit tests and the
        planted mutant drive it directly with explicit ``now`` values.
        Unknown or malformed messages get an ``error`` reply rather
        than an exception: a hostile frame must not take the server
        down.
        """
        if now is None:
            now = monotonic()
        kind = body.get("type")
        if kind == "hello":
            return self._handle_hello(body)
        session = self._sessions_by_id.get(body.get("worker_id"))
        if session is None:
            return {"type": "error",
                    "reason": "unknown worker_id (hello first)"}
        if kind == "request":
            return self._handle_request(session, now)
        if kind == "heartbeat":
            shard = body.get("shard")
            renewed = (isinstance(shard, int)
                       and self._leases.renew(shard, session.worker_id,
                                              now=now))
            return {"type": "ok", "renewed": bool(renewed)}
        if kind == "complete":
            return self._handle_complete(session, body)
        return {"type": "error", "reason": f"unknown frame type {kind!r}"}

    def _new_session(self, name: str, local: bool = False) -> _Session:
        session = _Session(name, len(self._sessions_by_id), local)
        self._sessions_by_name[name] = session
        self._sessions_by_id[session.worker_id] = session
        self.tallies["connections"] += 1
        return session

    def _handle_hello(self, body: Dict[str, Any]) -> Dict[str, Any]:
        name = body.get("worker")
        if not isinstance(name, str) or not name:
            return {"type": "error", "reason": "hello without a worker name"}
        session = self._sessions_by_name.get(name)
        if session is None:
            session = self._new_session(name)
        else:
            session.reconnects += 1
            self.tallies["reconnects"] += 1
        return {"type": "welcome", "worker_id": session.worker_id,
                "config": self.config}

    def _handle_request(self, session: _Session,
                        now: float) -> Dict[str, Any]:
        # Request idempotence: a worker whose grant reply was lost asks
        # again and gets the *same* shard back (lease renewed), instead
        # of leaking a second lease onto a different shard.
        if session.inflight is not None:
            idx = session.inflight
            if idx in self._completed:
                session.inflight = None
            elif self._leases.holder(idx) == session.worker_id:
                self._leases.renew(idx, session.worker_id, now=now)
                return self._grant_reply(session, idx)
            else:
                session.inflight = None  # lease lapsed and moved on
        while self._pending:
            idx = self._pending.popleft()
            if idx in self._completed:
                continue
            self._leases.grant(idx, session.worker_id, now=now)
            session.inflight = idx
            if self._on_grant is not None:
                self._on_grant(idx, session.worker_id)
            return self._grant_reply(session, idx)
        if self.done:
            return {"type": "done"}
        return {"type": "idle"}

    def _grant_reply(self, session: _Session, idx: int) -> Dict[str, Any]:
        if session.local:
            # A forked worker reads payloads[idx] from inherited memory.
            return {"type": "grant", "shard": idx}
        prefix, sleep = self._payloads[idx]
        return {"type": "grant", "shard": idx,
                "prefix": list(prefix), "sleep": sorted(sleep)}

    def _handle_complete(self, session: _Session,
                         body: Dict[str, Any]) -> Dict[str, Any]:
        shard = body.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < \
                len(self._payloads):
            return {"type": "error", "reason": f"bad shard index {shard!r}"}
        if session.inflight == shard:
            session.inflight = None
        if body.get("error") is not None:
            # A worker-reported execution failure: release the lease
            # and route the shard to the coordinator's retry ladder (a
            # real scenario error will reproduce there and surface; a
            # worker-environment fluke will not).
            if self._leases.holder(shard) == session.worker_id:
                self._log_task(shard, session.worker_id,
                               body.get("seconds"))
                self._leases.release(shard)
                if shard not in self._completed:
                    self._inproc_only.append(shard)
            return {"type": "ok", "accepted": False}
        if not self._accept_completion(shard, session.worker_id):
            self.tallies["stale_rejections"] += 1
            return {"type": "ok", "accepted": False}
        try:
            value = _decode_value(body)
        except (KeyError, TypeError, ValueError) as exc:
            return {"type": "error",
                    "reason": f"undecodable completion stats: {exc}"}
        self._log_task(shard, session.worker_id, body.get("seconds"))
        session.shards += 1
        self.tallies["remote_shards"] += 1
        self._settle(shard, (value, None))
        return {"type": "ok", "accepted": True}

    def _accept_completion(self, shard: int, worker_id: int) -> bool:
        # Only the shard's *current* lease holder may complete it: a
        # frame from an expired or superseded holder -- including one
        # replayed by the network from a previous incarnation of the
        # run -- is rejected, exactly as LeaseTable rejects a stale
        # heartbeat.  The netshard-accept-stale-result mutant drops
        # this check; the network differential tier catches it.
        if shard in self._completed:
            return False
        return self._leases.holder(shard) == worker_id

    def _log_task(self, idx: int, worker_id: int, seconds: Any) -> None:
        if self._task_log is not None:
            self._task_log.append({"index": idx, "worker": worker_id,
                                   "seconds": float(seconds or 0.0)})

    def _settle(self, idx: int, outcome: Tuple[Any, Optional[str]]
                ) -> None:
        self._outcomes[idx] = outcome
        self._completed.add(idx)
        self._leases.release(idx)
        for session in self._sessions_by_id.values():
            if session.inflight == idx:
                session.inflight = None
        if self._on_settle is not None:
            self._on_settle(idx, outcome)

    def tick(self, now: Optional[float] = None) -> None:
        """Sweep lapsed leases: re-grant or route to the fallback."""
        if now is None:
            now = monotonic()
        for lease in self._leases.expired(now):
            self._lapse(lease.shard, lease.worker)

    def _lapse(self, shard: int, worker_id: int) -> None:
        # The holder stopped heartbeating for a whole lease window (or,
        # for a local worker, died).  A shard may lose its holder
        # regrant_max times before only the coordinator may run it.
        self._leases.release(shard)
        if shard in self._completed:
            return
        session = self._sessions_by_id.get(worker_id)
        if session is not None and session.inflight == shard:
            session.inflight = None
        self._regrants[shard] = self._regrants.get(shard, 0) + 1
        self.tallies["regrants"] += 1
        if self._regrants[shard] > self.regrant_max:
            self._inproc_only.append(shard)
        else:
            self._pending.appendleft(shard)

    def run_one_inprocess(self) -> bool:
        """Execute one eligible shard in the coordinator process.

        Regrant-exhausted and worker-failed shards first, then (in solo
        mode) ordinary pending ones, each under the retry ladder.
        Returns False when nothing was eligible.
        """
        queue = self._inproc_only or self._pending
        while queue:
            idx = queue.popleft()
            if idx in self._completed:
                continue
            self._run_inprocess(idx, range(1, _RETRY_MAX_ATTEMPTS + 1))
            return True
        return False

    def _run_inprocess(self, idx: int, attempts: range) -> None:
        """Run shard ``idx`` here, one try per attempt number, and settle.

        Tries are separated by capped exponential backoff clamped to the
        ``deadline``; a ladder that reaches the deadline raises
        :class:`~repro.runtime.explore.ExplorationInterrupted`.
        """
        if self._on_grant is not None:
            self._on_grant(idx, -1)
        value, error = None, None
        for attempt in attempts:
            if attempt > 1:
                backoff = min(_RETRY_BACKOFF_BASE * (2 ** (attempt - 2)),
                              _RETRY_BACKOFF_CAP)
                if self._deadline is not None:
                    remaining = self._deadline - monotonic()
                    if remaining <= 0:
                        raise ExplorationInterrupted(
                            "timeout",
                            f"wall-clock budget exhausted while retrying "
                            f"task {idx} (last error: {error})")
                    backoff = min(backoff, remaining)
                _real_sleep(backoff)
            start = perf_counter()
            try:
                value, error = _run_task(
                    self._runner, self._payloads[idx],
                    self._fault_plan.get(idx), in_worker=False,
                    attempt=attempt), None
            except Exception as exc:  # noqa: BLE001 - surfaces in merge
                error = f"{type(exc).__name__}: {exc}"
            self._log_task(idx, -1, perf_counter() - start)
            if error is None:
                break
        self.tallies["inprocess_shards"] += 1
        self._settle(idx, (value, error))

    def _live_sessions(self) -> int:
        # Connected and heard from within a lease window: a worker that
        # is SIGSTOPped with its socket open does not count.
        now = monotonic()
        return sum(1 for s in self._sessions_by_id.values()
                   if s.conn is not None
                   and now - s.last_heard < self.lease_timeout)

    # -- socket loop ----------------------------------------------------

    def __call__(self, payloads: Sequence[Any],
                 runner: Callable[[Any], Any],
                 jobs: int = 1,
                 fault_plan: Optional[Dict[int, str]] = None,
                 task_log: Optional[List[Dict[str, Any]]] = None,
                 deadline: Optional[float] = None,
                 on_grant: Optional[Callable[[int, int], None]] = None,
                 on_settle: Optional[Callable[[int, Any], None]] = None
                 ) -> List[Tuple[Any, Optional[str]]]:
        """Serve the payloads over TCP until every one settles.

        The :func:`run_pool` contract; ``jobs`` and ``fault_plan`` are
        ignored (the workers are whoever connects).  Remote workers do
        not know ``deadline``, so the serve loop enforces it.
        """
        self.begin(payloads, runner, on_grant=on_grant,
                   on_settle=on_settle, task_log=task_log,
                   deadline=deadline)
        if not self._payloads:
            return []
        selector = selectors.DefaultSelector()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        conns: Dict[int, _ConnState] = {}
        try:
            listener.bind((self.host, self.port))
            listener.listen(64)
            listener.setblocking(False)
            bound_host, bound_port = listener.getsockname()[:2]
            self.port = bound_port
            selector.register(listener, selectors.EVENT_READ, None)
            if self._announce is not None:
                self._announce(bound_host, bound_port)
            self._serve(selector, conns, listener, stop_at=deadline)
        finally:
            self._finish(selector, conns)
            listener.close()
        return self.outcomes

    def _serve_local(self, jobs: int) -> List[Tuple[Any, Optional[str]]]:
        """Serve the armed shards to ``jobs`` forked local workers."""
        ctx = mp.get_context("fork")
        selector = selectors.DefaultSelector()
        conns: Dict[int, _ConnState] = {}
        children = []
        try:
            for _ in range(min(jobs, len(self._payloads))):
                ours, theirs = socket.socketpair()
                session = self._new_session(
                    f"local-{len(children)}", local=True)
                self._attach(ours, selector, conns, session)
                child = ctx.Process(
                    target=_local_worker_main,
                    args=(theirs, [state.conn for state in conns.values()],
                          session.worker_id, self._payloads, self._runner,
                          self._fault_plan, _HEARTBEAT_INTERVAL),
                    daemon=True)
                child.start()
                children.append(child)
                theirs.close()
            self._serve(selector, conns)
        finally:
            self._finish(selector, conns)
            _reap(children)
        return self.outcomes

    def _serve(self, selector, conns, listener=None,
               stop_at: Optional[float] = None) -> None:
        start = monotonic()
        ran_inprocess = False
        while not self.done:
            if stop_at is not None and monotonic() >= stop_at:
                raise ExplorationInterrupted(
                    "timeout", "wall-clock budget exhausted while "
                    "serving shards")
            # After an in-process shard, poll with no delay: a solo
            # coordinator drains its queue at full speed instead of
            # sleeping _POLL_INTERVAL between shards, while a
            # connecting worker is still noticed every iteration.
            wait = 0.0 if ran_inprocess else _POLL_INTERVAL
            for key, _ in selector.select(timeout=wait):
                if key.fileobj is listener:
                    try:
                        conn, _addr = listener.accept()
                    except OSError:  # pragma: no cover - raced shutdown
                        continue
                    self._attach(conn, selector, conns)
                else:
                    self._service(key.fileobj, selector, conns)
            self.tick()
            self._sweep_stalled(selector, conns)
            ran_inprocess = self._maybe_solo(start)

    def _attach(self, conn: socket.socket, selector, conns,
                session: Optional[_Session] = None) -> None:
        conn.setblocking(True)
        conn.settimeout(self.io_timeout)
        state = _ConnState(conn)
        conns[conn.fileno()] = state
        selector.register(conn, selectors.EVENT_READ, state)
        if session is not None:
            session.conn = conn
            state.session = session

    def _service(self, conn: socket.socket, selector, conns) -> None:
        state = conns.get(conn.fileno())
        if state is None:  # pragma: no cover - raced close
            return
        try:
            data = conn.recv(65536)
        except (OSError, ValueError):
            self._drop_conn(state, selector, conns)
            return
        if not data:
            self._drop_conn(state, selector, conns)
            return
        state.buffer.extend(data)
        state.last_progress = monotonic()
        while True:
            try:
                decoded = wire.try_decode(bytes(state.buffer))
            except wire.WireError:
                # Corrupt, oversize or alien bytes: the stream can no
                # longer be trusted to frame-align.  Tell the peer
                # (best effort) and cut the connection; a live worker
                # reconnects and re-identifies.
                self.tallies["frame_errors"] += 1
                self._reply(state, {"type": "error",
                                    "reason": "malformed frame"})
                self._drop_conn(state, selector, conns)
                return
            if decoded is None:
                return
            body, consumed = decoded
            del state.buffer[:consumed]
            self.tallies["frames_in"] += 1
            reply = self.handle_message(body)
            if body.get("type") == "hello" and reply.get("type") == \
                    "welcome":
                session = self._sessions_by_id[reply["worker_id"]]
                if session.conn is not None and session.conn is not \
                        state.conn:
                    # The old connection is superseded (reconnect);
                    # drop our interest in it.
                    old = conns.get(session.conn.fileno())
                    if old is not None:
                        self._drop_conn(old, selector, conns)
                session.conn = state.conn
                state.session = session
            if state.session is not None:
                state.session.frames_in += 1
                state.session.last_heard = state.last_progress
            if not self._reply(state, reply):
                self._drop_conn(state, selector, conns)
                return

    def _reply(self, state: _ConnState, body: Dict[str, Any]) -> bool:
        try:
            wire.send_frame(state.conn, body,
                            deadline=monotonic() + self.io_timeout)
        except (wire.WireError, OSError):
            return False
        self.tallies["frames_out"] += 1
        if state.session is not None:
            state.session.frames_out += 1
        return True

    def _drop_conn(self, state: _ConnState, selector, conns) -> None:
        conns.pop(state.conn.fileno(), None)
        try:
            selector.unregister(state.conn)
        except (KeyError, ValueError):
            pass
        session = state.session
        if session is not None and session.conn is state.conn:
            # The session survives (leases intact until expiry); only
            # the transport endpoint is gone -- unless it was a local
            # worker, which cannot come back: its shard moves on now.
            session.conn = None
            if session.local and session.inflight is not None and \
                    self._leases.holder(session.inflight) == \
                    session.worker_id:
                self._lapse(session.inflight, session.worker_id)
        try:
            state.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _finish(self, selector, conns) -> None:
        """End the run: answer ``done`` to every connection, close all."""
        for state in list(conns.values()):
            self._reply(state, {"type": "done"})
            self._drop_conn(state, selector, conns)
        selector.close()
        self.tallies["workers"] = [
            {"name": s.name, "worker_id": s.worker_id,
             "frames_in": s.frames_in, "frames_out": s.frames_out,
             "reconnects": s.reconnects, "shards": s.shards}
            for _, s in sorted(self._sessions_by_id.items())]

    def _sweep_stalled(self, selector, conns) -> None:
        # A peer that sent a frame *prefix* and stopped would otherwise
        # hold its buffer open forever: per-frame read deadlines apply
        # to half-open connections too.
        now = monotonic()
        for state in list(conns.values()):
            if state.buffer and now - state.last_progress > \
                    self.io_timeout:
                self.tallies["frame_errors"] += 1
                self._drop_conn(state, selector, conns)

    def _maybe_solo(self, start: float) -> bool:
        """Degradation ladder's last rung: run a shard ourselves.

        Regrant-exhausted and worker-failed shards always; pending ones
        only when no worker is live and one ever joined (or none did
        within ``solo_after``).  True when a shard was executed.
        """
        if not (self._inproc_only or self._pending):
            return False
        if self._inproc_only:
            return self.run_one_inprocess()
        if self._live_sessions():
            return False
        if self._sessions_by_id or monotonic() - start >= \
                self.solo_after:
            return self.run_one_inprocess()
        return False


def _reap(children) -> None:
    """Join local workers, escalating to SIGTERM, then SIGKILL.

    SIGTERM can sit pending forever on a stopped process, SIGKILL
    cannot; the final untimed join reaps the corpse (no zombie leak).
    """
    for child in children:
        child.join(timeout=_JOIN_TIMEOUT)
        if child.is_alive():
            child.terminate()
            child.join(timeout=_JOIN_TIMEOUT)
        if child.is_alive():
            child.kill()
            child.join()


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

class ShardWorker:
    """Remote-machine shard executor: dial a :class:`ShardServer`.

    Connects with deterministic-jitter backoff, identifies itself by a
    stable name, then loops request -> execute -> complete until the
    server says ``done`` (or vanishes after we were connected).  While a
    shard executes, a heartbeat thread renews its lease; a heartbeat
    answered ``renewed: false`` means the lease moved on, and the worker
    *abandons* the shard.  A transport failure mid-RPC reconnects (the
    server keeps the worker id) and retries up to :data:`RPC_ATTEMPTS`
    times.  Scenario code is rebuilt locally, by name, from the
    ``welcome`` config -- never from pickled closures.
    """

    def __init__(self, host: str, port: int, *,
                 name: Optional[str] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 rpc_timeout: float = 10.0,
                 connect_attempts: int = 10,
                 rpc_attempts: int = RPC_ATTEMPTS,
                 backoff_base: float = CONNECT_BACKOFF_BASE,
                 backoff_cap: float = CONNECT_BACKOFF_CAP,
                 sleep: Callable[[float], None] = _real_sleep) -> None:
        self.host = host
        self.port = port
        self.name = name or (f"{socket.gethostname()}-{os.getpid()}-"
                             f"{next(_WORKER_SEQ)}")
        self.heartbeat_interval = heartbeat_interval
        self.rpc_timeout = rpc_timeout
        self.connect_attempts = connect_attempts
        self.rpc_attempts = rpc_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        self._worker_id: Optional[int] = None
        self._config: Optional[Dict[str, Any]] = None
        self._resolved = None
        #: Set once the server said ``done``: the run is over.
        self._finished = False
        self.ever_connected = False
        self.shards_completed = 0
        #: Client-side transport tallies (mirrors the server's).
        self.tallies: Dict[str, int] = {
            "frames_out": 0, "frames_in": 0, "retries": 0,
            "reconnects": 0, "abandoned": 0,
        }

    # -- connection management ------------------------------------------

    def _close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    def _connect(self) -> None:
        """(Re)connect and re-identify, with capped jittered backoff."""
        self._close()
        last_error: Optional[Exception] = None
        for attempt in range(self.connect_attempts):
            if attempt:
                self._sleep(backoff_delay(self.name, attempt - 1,
                                          self.backoff_base,
                                          self.backoff_cap))
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.rpc_timeout)
            except OSError as exc:
                last_error = exc
                continue
            try:
                deadline = monotonic() + self.rpc_timeout
                wire.send_frame(sock, {"type": "hello",
                                       "worker": self.name},
                                deadline=deadline)
                reply = wire.recv_frame(sock, deadline=deadline)
            except (wire.WireError, OSError) as exc:
                last_error = exc
                sock.close()
                continue
            if reply.get("type") == "done":
                sock.close()
                raise ServerGone("the run ended as this worker joined")
            if reply.get("type") != "welcome":
                last_error = ServerGone(
                    f"unexpected hello reply {reply!r}")
                sock.close()
                continue
            if self.ever_connected:
                self.tallies["reconnects"] += 1
            self.ever_connected = True
            self._sock = sock
            self._worker_id = reply["worker_id"]
            self._config = reply.get("config") or {}
            self.tallies["frames_out"] += 1
            self.tallies["frames_in"] += 1
            return
        if self.ever_connected:
            raise ServerGone(f"server unreachable after "
                             f"{self.connect_attempts} attempts: "
                             f"{last_error}")
        raise WorkerUnavailable(
            f"could not reach shard server at {self.host}:{self.port} "
            f"after {self.connect_attempts} attempts: {last_error}")

    def _rpc(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """One request/response exchange, reconnect-and-retry on loss.

        Once the server has said ``done`` every further RPC answers
        ``done`` without touching the (closed) connection.
        """
        last_error: Optional[Exception] = None
        for attempt in range(self.rpc_attempts):
            with self._lock:
                if self._finished:
                    return {"type": "done"}
                try:
                    if self._sock is None:
                        self._connect()
                    assert self._sock is not None
                    frame = dict(body)
                    frame["worker_id"] = self._worker_id
                    deadline = monotonic() + self.rpc_timeout
                    wire.send_frame(self._sock, frame, deadline=deadline)
                    self.tallies["frames_out"] += 1
                    reply = wire.recv_frame(self._sock,
                                            deadline=deadline)
                    self.tallies["frames_in"] += 1
                except (wire.WireError, OSError) as exc:
                    last_error = exc
                    self._close()
                    self.tallies["retries"] += 1
                    continue
            if reply.get("type") == "error":
                # The server rejected the frame itself (desync or
                # malformed): reconnecting re-identifies and resets
                # the stream.
                last_error = wire.WireError(reply.get("reason"))
                with self._lock:
                    self._close()
                self.tallies["retries"] += 1
                continue
            if reply.get("type") == "done":
                self._finished = True
            return reply
        raise ServerGone(f"rpc {body.get('type')!r} failed after "
                         f"{self.rpc_attempts} attempts: {last_error}")

    def _await_done(self, timeout: float) -> None:
        """Idle up to ``timeout`` seconds, waking early on ``done``."""
        with self._lock:
            if self._sock is None:
                return
            try:
                if not select.select([self._sock], [], [], timeout)[0]:
                    return
                reply = wire.recv_frame(
                    self._sock, deadline=monotonic() + self.rpc_timeout)
            except (wire.WireError, OSError, ValueError):
                self._close()  # the next RPC reconnects or gives up
                return
        self.tallies["frames_in"] += 1
        if reply.get("type") == "done":
            self._finished = True

    # -- shard execution ------------------------------------------------

    def _scenario(self):
        if self._resolved is None:
            from ..scenarios import ScenarioRef
            config = self._config or {}
            ref = ScenarioRef(config["scenario"],
                              n=config.get("n", 3), x=config.get("x", 2))
            self._resolved = ref.resolve()
        return self._resolved

    def _run_grant(self, grant: Dict[str, Any]) -> Any:
        """Execute one granted shard; returns ``execute_shard``'s value."""
        from .parallel import execute_shard
        config = self._config or {}
        sc = self._scenario()
        return execute_shard(
            sc.build, sc.check, sc.crash_plan_factory,
            prefix=tuple(grant["prefix"]),
            sleep=frozenset(grant["sleep"]),
            max_steps=config.get("max_steps", 24),
            max_runs=config.get("max_runs", 200_000),
            reduction=config.get("reduction", "dpor"),
            state_cache=config.get("state_cache", True))

    def _execute(self, grant: Dict[str, Any]) -> None:
        shard = grant["shard"]
        stop = threading.Event()
        abandoned = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_interval):
                try:
                    reply = self._rpc({"type": "heartbeat",
                                       "shard": shard})
                except (ServerGone, wire.WireError):
                    abandoned.set()
                    return
                if not reply.get("renewed"):
                    abandoned.set()
                    return

        pulse = threading.Thread(target=beat, daemon=True)
        pulse.start()
        start = perf_counter()
        try:
            fields = _value_fields(self._run_grant(grant))
        except Exception as exc:  # noqa: BLE001 - reported to the server
            fields = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            stop.set()
            pulse.join()
        if abandoned.is_set():
            # The lease moved on while we executed; the server would
            # reject this completion as stale, so do not bother it.
            self.tallies["abandoned"] += 1
            return
        fields.update(type="complete", shard=shard,
                      seconds=perf_counter() - start)
        if self._rpc(fields).get("accepted"):
            self.shards_completed += 1

    def run(self) -> int:
        """Serve until the coordinator finishes; returns shards done.

        Raises :class:`WorkerUnavailable` only when the server was
        *never* reachable; a server that disappears after we joined is
        a normal end of run.
        """
        idle_spins = 0
        try:
            with self._lock:
                if self._sock is None:
                    self._connect()
            while not self._finished:
                reply = self._rpc({"type": "request"})
                kind = reply.get("type")
                if kind == "grant":
                    idle_spins = 0
                    self._execute(reply)
                elif kind == "idle":
                    self._await_done(min(_IDLE_WAIT * (idle_spins + 1),
                                         1.0))
                    idle_spins += 1
                else:
                    break  # done, or unknown vocabulary: give up
        except ServerGone:
            pass  # run over (or coordinator died); either way, stop
        finally:
            self._close()
        return self.shards_completed


class _LocalWorker(ShardWorker):
    """A forked pool worker: a :class:`ShardWorker` on a socketpair.

    Its session exists before the fork (no ``hello``), it runs
    ``runner(payloads[shard])`` from inherited memory, and it cannot
    redial: a lost socket means the coordinator is gone.
    """

    def __init__(self, sock: socket.socket, worker_id: int,
                 payloads: Sequence[Any], runner: Callable[[Any], Any],
                 fault_plan: Dict[int, str],
                 heartbeat_interval: float) -> None:
        super().__init__("localhost", 0, name=f"local-{worker_id}",
                         heartbeat_interval=heartbeat_interval,
                         # The coordinator's death shows as EOF; a long
                         # in-process shard may keep it silent for long.
                         rpc_timeout=24 * 3600.0)
        self._sock = sock
        self._worker_id = worker_id
        self.ever_connected = True
        self._payloads = payloads
        self._runner = runner
        self._fault_plan = fault_plan

    def _connect(self) -> None:
        raise ServerGone("the coordinator closed its socketpair end")

    def _run_grant(self, grant: Dict[str, Any]) -> Any:
        idx = grant["shard"]
        return _run_task(self._runner, self._payloads[idx],
                         self._fault_plan.get(idx), in_worker=True)


def _local_worker_main(sock: socket.socket, server_ends, worker_id: int,
                       payloads, runner, fault_plan: Dict[int, str],
                       heartbeat_interval: float) -> None:
    """Entry point of a forked local worker."""
    for end in server_ends:
        # Drop the coordinator's ends inherited at the fork, so each
        # side sees EOF the moment the other dies.
        end.close()
    _LocalWorker(sock, worker_id, payloads, runner, fault_plan,
                 heartbeat_interval).run()
    if "sigstop" in (fault_plan.get(-1) or "").split(","):
        os.kill(os.getpid(), signal.SIGSTOP)
