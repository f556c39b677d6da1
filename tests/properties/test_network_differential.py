"""The ``network`` tier: serial vs fork-pool vs socket must agree exactly.

The socket shard service's contract is the fork pool's, one layer out:
the *transport* controls only where shards execute, never which shards
exist or what they report.  These tests pin that claim bit-for-bit on
every registry scenario -- identical ``ExplorationStats`` and identical
:func:`deterministic_view` metrics records between ``jobs=1``,
``jobs=4`` and a live TCP :class:`ShardServer` with real
:class:`ShardWorker` sessions -- and then keep pinning it while a
:class:`ChaosProxy` mangles the frame stream, a worker process is
SIGKILLed mid-run, and the coordinator itself is killed -9 and resumed
via ``check --resume``.  Run just this tier with ``pytest -m network``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.__main__ import main
from repro.analysis.metrics import ExplorationMetrics, deterministic_view
from repro.runtime import CounterexampleFound, explore
from repro.runtime.frontier import KILL_AFTER_ENV
from repro.runtime.netshard import ShardServer, ShardWorker
from repro.runtime.parallel import explore_parallel
from repro.scenarios import SOUND_SCENARIOS, ScenarioRef, check_scenarios
from tests.support.chaos import ChaosProxy

pytestmark = pytest.mark.network

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _scenario(name, n=3):
    return check_scenarios(n=n)[name]


def _serial(sc, metrics=None):
    return explore(sc.build, sc.check,
                   crash_plan_factory=sc.crash_plan_factory,
                   max_steps=sc.max_steps, max_runs=sc.max_runs,
                   reduction="dpor", jobs=1, metrics=metrics)


class _SocketRun:
    """One exploration served over a real TCP socket, workers in-thread.

    The coordinator (``explore_parallel`` with the server as its pool)
    runs in a background thread; the caller gets the bound address to
    attach workers or a chaos proxy, then :meth:`finish` joins
    everything and returns (or raises) the exploration outcome.
    """

    def __init__(self, name, sc, n=3, lease_timeout=5.0,
                 metrics=None, max_runs=None, frontier=None,
                 **server_kwargs):
        self.sc = sc
        max_runs = max_runs or sc.max_runs
        config = {"scenario": name, "n": n, "x": 2,
                  "max_steps": sc.max_steps, "max_runs": max_runs,
                  "reduction": "dpor", "state_cache": True}
        self._ready = threading.Event()
        self._addr = {}

        def announce(host, port):
            self._addr["addr"] = (host, port)
            self._ready.set()

        self.server = ShardServer(config=config,
                                  lease_timeout=lease_timeout,
                                  solo_after=60.0, announce=announce,
                                  **server_kwargs)
        self._box = {}
        self._workers = []

        def coordinate():
            try:
                self._box["stats"] = explore_parallel(
                    sc.build, sc.check,
                    crash_plan_factory=sc.crash_plan_factory,
                    max_steps=sc.max_steps, max_runs=max_runs,
                    jobs=1, reduction="dpor",
                    scenario=ScenarioRef(name, n=n), metrics=metrics,
                    frontier=frontier, pool=self.server)
            except BaseException as exc:  # noqa: BLE001 - re-raised
                self._box["error"] = exc

        self._coord = threading.Thread(target=coordinate, daemon=True)
        self._coord.start()

    @property
    def address(self):
        assert self._ready.wait(10.0), "server never bound its socket"
        return self._addr["addr"]

    def wait_bound(self, timeout=10.0):
        """True once the socket is listening; False when the run ended
        without sharding (2-process scenarios finish during frontier
        expansion, so their pools -- and the listener -- never run)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self._ready.is_set():
                return True
            if not self._coord.is_alive():
                return False
            time.sleep(0.01)
        raise AssertionError("server neither bound nor finished")

    def attach_worker(self, name, host=None, port=None, **kwargs):
        bound_host, bound_port = self.address
        worker = ShardWorker(host or bound_host, port or bound_port,
                             name=name, heartbeat_interval=0.2, **kwargs)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self._workers.append((worker, thread))
        return worker

    def finish(self, timeout=180.0):
        self._coord.join(timeout=timeout)
        assert not self._coord.is_alive(), "coordinator wedged"
        for _worker, thread in self._workers:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "worker thread wedged"
        if "error" in self._box:
            raise self._box["error"]
        return self._box["stats"]


class TestSocketDifferential:
    @pytest.mark.parametrize("name", SOUND_SCENARIOS)
    def test_serial_fork_and_socket_agree_bit_for_bit(self, name):
        sc = _scenario(name)
        serial_metrics = ExplorationMetrics(scenario=name, jobs=1)
        serial = _serial(sc, metrics=serial_metrics)
        fork_metrics = ExplorationMetrics(scenario=name, jobs=4)
        fork = explore(sc.build, sc.check,
                       crash_plan_factory=sc.crash_plan_factory,
                       max_steps=sc.max_steps, max_runs=sc.max_runs,
                       reduction="dpor", jobs=4, metrics=fork_metrics)
        socket_metrics = ExplorationMetrics(scenario=name, jobs=1)
        run = _SocketRun(name, sc, metrics=socket_metrics)
        sharded = run.wait_bound()
        if sharded:
            run.attach_worker(f"{name}-w0")
            run.attach_worker(f"{name}-w1")
        stats = run.finish()

        assert serial == fork
        assert serial == stats  # every field, not just totals
        reference = deterministic_view(
            serial_metrics.finalize().to_dict())
        assert deterministic_view(
            fork_metrics.finalize().to_dict()) == reference
        assert deterministic_view(
            socket_metrics.finalize().to_dict()) == reference
        if sharded:
            # The comparison must not be vacuous: the workers really
            # served shards over the socket, and nothing fell through
            # the cracks.
            tallies = run.server.tallies
            assert tallies["remote_shards"] > 0, tallies
            assert tallies["remote_shards"] \
                + tallies["inprocess_shards"] \
                >= serial_metrics.shard_count
            # Remote workers report their shards and busy time too.
            assert any(row["worker"] >= 0 and row["shards"] > 0
                       for row in socket_metrics.workers), \
                socket_metrics.workers

    def test_broken_demo_socket_finds_identical_counterexample(self):
        sc = check_scenarios()["broken-demo"]
        with pytest.raises(CounterexampleFound) as serial_exc:
            _serial(sc)
        run = _SocketRun("broken-demo", sc)
        if run.wait_bound():
            run.attach_worker("demo-w0")
        with pytest.raises(CounterexampleFound) as socket_exc:
            run.finish()
        assert socket_exc.value.counterexample.prefix == \
            serial_exc.value.counterexample.prefix
        assert socket_exc.value.counterexample.schedule == \
            serial_exc.value.counterexample.schedule
        assert socket_exc.value.stats == serial_exc.value.stats


class TestInterruptedShards:
    def test_budget_interrupted_shards_stay_pending_like_jobs_two(
            self, tmp_path):
        """A shard stopped by ``max_runs`` is not complete: a served
        run must leave the same shards pending in the journal as a
        ``jobs=2`` run, so a resume re-explores them."""
        from repro.runtime import ExplorationInterrupted, FrontierStore
        name = "adopt-commit"
        sc = _scenario(name)
        pending = {}
        for venue in ("fork", "socket"):
            path = str(tmp_path / f"{venue}.jsonl")
            with pytest.raises(ExplorationInterrupted) as excinfo:
                if venue == "fork":
                    explore_parallel(
                        sc.build, sc.check,
                        crash_plan_factory=sc.crash_plan_factory,
                        max_steps=sc.max_steps, max_runs=10, jobs=2,
                        scenario=ScenarioRef(name),
                        frontier=FrontierStore(path))
                else:
                    run = _SocketRun(name, sc, max_runs=10,
                                     frontier=FrontierStore(path))
                    run.attach_worker("budget-w0")
                    run.attach_worker("budget-w1")
                    run.finish()
            assert excinfo.value.reason == "max_runs"
            store = FrontierStore(path)
            store.load()
            pending[venue] = store.pending_indices(len(store.shards))
        assert pending["fork"], "no shard hit the budget; test is vacuous"
        assert pending["socket"] == pending["fork"]


class TestChaos:
    def test_chaotic_transport_changes_nothing(self):
        """Drop, duplicate, delay, truncate, reorder and disconnect
        faults on live connections cost retries, never results."""
        name = "adopt-commit"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc, lease_timeout=2.0)
        host, port = run.address
        proxy = ChaosProxy(host, port, seed=7, drop=0.02, duplicate=0.03,
                           delay=0.03, delay_seconds=0.005, truncate=0.01,
                           reorder=0.02, disconnect=0.01)
        proxy_host, proxy_port = proxy.start()
        try:
            for i in range(2):
                run.attach_worker(f"chaos-w{i}", host=proxy_host,
                                  port=proxy_port, rpc_timeout=1.0,
                                  rpc_attempts=10)
            stats = run.finish()
        finally:
            proxy.stop()
        assert stats == serial
        assert sum(proxy.injected.values()) > 0, \
            "the chaos proxy injected no faults; the test is vacuous"

    def test_duplicated_completion_frames_are_deduplicated(self):
        """A duplicate-heavy proxy replays completion frames; the
        server must apply each shard exactly once."""
        name = "safe-agreement"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc)
        host, port = run.address
        proxy = ChaosProxy(host, port, seed=3, duplicate=0.5)
        proxy_host, proxy_port = proxy.start()
        try:
            run.attach_worker("dup-w0", host=proxy_host, port=proxy_port,
                              rpc_timeout=1.0, rpc_attempts=10)
            stats = run.finish()
        finally:
            proxy.stop()
        assert stats == serial
        assert proxy.injected["duplicate"] > 0


class TestProcessDeath:
    def test_worker_sigkill_mid_run_changes_nothing(self, tmp_path):
        """SIGKILL a live remote worker process: its leases lapse, the
        shards re-grant, and the merged statistics are untouched."""
        name = "adopt-commit"
        sc = _scenario(name)
        serial = _serial(sc)
        run = _SocketRun(name, sc, lease_timeout=1.0)
        host, port = run.address
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{host}:{port}", "--name", "doomed"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            # Let it take (at least) one grant, then kill it cold.
            deadline = time.monotonic() + 30.0
            while (run.server.tallies["remote_shards"] == 0
                   and proc.poll() is None
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - belt and braces
                proc.kill()
        # All remotes are now gone: the coordinator's degradation
        # ladder (re-grant, then in-process) finishes the run alone.
        stats = run.finish()
        assert stats == serial
        tallies = run.server.tallies
        assert tallies["remote_shards"] > 0, "worker never served"
        assert tallies["inprocess_shards"] > 0, \
            "the coordinator never had to fall back"

    def test_cli_worker_exits_when_the_run_ends(self):
        """The server answers ``done`` before it closes, so a CLI
        worker leaves within moments of the verdict, without walking
        its reconnect backoff."""
        name = "adopt-commit"
        sc = _scenario(name)
        run = _SocketRun(name, sc)
        host, port = run.address
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{host}:{port}", "--name", "prompt"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        try:
            assert run.finish() == _serial(sc)
            verdict_at = time.monotonic()
            out, _ = proc.communicate(timeout=60)
            exit_s = time.monotonic() - verdict_at
        finally:
            if proc.poll() is None:  # pragma: no cover - belt and braces
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert exit_s < 2.0, exit_s
        (summary,) = [line for line in out.splitlines()
                      if line.startswith("[worker]")]
        assert ", 0 RPC retr(ies)," in summary, summary

    def test_coordinator_kill9_then_check_resume(self, tmp_path, capsys):
        """kill -9 the serve coordinator mid-journal; plain ``check
        --resume`` finishes the run bit-for-bit (the store is
        transport-agnostic)."""
        name = "adopt-commit"
        out = str(tmp_path / "reference.jsonl")
        expected = main(["check", name, "--jobs", "1",
                         "--metrics-out", out])
        assert expected == 0
        with open(out) as handle:
            (reference,) = [json.loads(line) for line in handle]
        capsys.readouterr()

        store = str(tmp_path / "frontier.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env[KILL_AFTER_ENV] = "2"  # SIGKILL after two journal entries
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", name,
             "--checkpoint", store, "--solo-after", "0.1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == -signal.SIGKILL, \
            (proc.returncode, proc.stdout, proc.stderr)
        assert os.path.exists(store)

        resumed_out = str(tmp_path / "resumed.jsonl")
        code = main(["check", name, "--resume", store, "--jobs", "1",
                     "--metrics-out", resumed_out])
        assert f"resuming from {store}" in capsys.readouterr().out
        assert code == expected
        with open(resumed_out) as handle:
            (record,) = [json.loads(line) for line in handle]
        assert deterministic_view(record) == deterministic_view(reference)

    def test_serve_and_worker_cli_end_to_end(self, tmp_path):
        """The documented two-command flow: ``serve`` in one process,
        ``worker`` in another, metrics v4 net tallies on the record."""
        name = "adopt-commit"
        out = str(tmp_path / "serve.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", name,
             "--bind", "127.0.0.1:0", "--solo-after", "120",
             "--metrics-out", out],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            addr = None
            for _ in range(10):  # banner lines precede the address
                line = serve.stdout.readline()
                if "[serve] listening on " in line:
                    addr = line.strip().rsplit(" ", 1)[-1]
                    break
            assert addr is not None, "serve never announced its address"
            worker = subprocess.run(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", addr],
                env=env, capture_output=True, text=True, timeout=300)
            assert worker.returncode == 0, \
                (worker.stdout, worker.stderr)
            assert "shard(s) completed" in worker.stdout
            serve_out, _ = serve.communicate(timeout=300)
            assert serve.returncode == 0, serve_out
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
        with open(out) as handle:
            (record,) = [json.loads(line) for line in handle]
        assert record["schema_version"] == 4
        assert record["net"]["remote_shards"] > 0
        assert record["net"]["inprocess_shards"] == 0
        # And the socket record's deterministic view equals serial's.
        ref_out = str(tmp_path / "reference.jsonl")
        assert main(["check", name, "--jobs", "1",
                     "--metrics-out", ref_out]) == 0
        with open(ref_out) as handle:
            (reference,) = [json.loads(line) for line in handle]
        assert deterministic_view(record) == deterministic_view(reference)
