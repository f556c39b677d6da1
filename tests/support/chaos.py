"""A fault-injecting TCP relay for the shard protocol (tests only).

The ``network`` differential tier routes live shard traffic through
:class:`ChaosProxy` to prove that transport faults cost retries, never
results.  Nothing in the library uses it, so it lives with the tests.
"""

import itertools
import socket
import threading
from time import sleep as _real_sleep
from typing import Dict, List, Optional, Tuple

from repro.runtime import wire


class ChaosProxy:
    """A fault-injecting TCP relay for netshard traffic.

    Sits between workers and the server and mangles the *frame* stream
    (it splits raw bytes on wire headers without decoding payloads):
    per frame and per direction it may drop it, delay it, duplicate
    it, truncate it mid-frame (then cut the connection, as a crashing
    peer would), hold it back one frame (reorder), or disconnect both
    sides cold.  All decisions come from a seeded RNG, so a chaotic
    run is exactly reproducible -- this is ``MessageFaultPlan`` for
    the transport layer, and the ``network`` differential tier runs
    the full exploration through it and still demands bit-for-bit
    deterministic results.
    """

    def __init__(self, upstream_host: str, upstream_port: int, *,
                 listen_host: str = "127.0.0.1", listen_port: int = 0,
                 seed: int = 0, drop: float = 0.0,
                 duplicate: float = 0.0, delay: float = 0.0,
                 delay_seconds: float = 0.02, truncate: float = 0.0,
                 reorder: float = 0.0, disconnect: float = 0.0) -> None:
        self.upstream = (upstream_host, upstream_port)
        self.listen_host = listen_host
        self.listen_port = listen_port
        self.seed = seed
        self.rates = {"drop": drop, "duplicate": duplicate,
                      "delay": delay, "truncate": truncate,
                      "reorder": reorder, "disconnect": disconnect}
        self.delay_seconds = delay_seconds
        #: Count of injected faults by kind (tests assert chaos fired).
        self.injected: Dict[str, int] = {kind: 0 for kind in self.rates}
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._conn_seq = itertools.count()

    def start(self) -> Tuple[str, int]:
        """Bind, start relaying in background threads; returns address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.listen_host, self.listen_port))
        listener.listen(16)
        listener.settimeout(0.1)
        self._listener = listener
        self.listen_port = listener.getsockname()[1]
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self.listen_host, self.listen_port

    def stop(self) -> None:
        """Stop accepting and tear the relay threads down."""
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self.upstream,
                                                    timeout=5.0)
            except OSError:
                client.close()
                continue
            conn_id = next(self._conn_seq)
            for label, src, dst in (("c2s", client, upstream),
                                    ("s2c", upstream, client)):
                pump = threading.Thread(
                    target=self._pump,
                    args=(src, dst, f"{conn_id}:{label}"),
                    daemon=True)
                pump.start()
                self._threads.append(pump)

    def _pump(self, src: socket.socket, dst: socket.socket,
              stream_key: str) -> None:
        import random
        rng = random.Random(f"{self.seed}:{stream_key}")
        buffer = b""
        held: List[bytes] = []
        src.settimeout(0.2)
        try:
            while not self._stopping.is_set():
                try:
                    data = src.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    break
                if not data:
                    break
                buffer += data
                frames, buffer = wire.split_frames(buffer)
                for frame in frames:
                    fault = self._roll(rng)
                    if fault == "drop":
                        continue
                    if fault == "duplicate":
                        dst.sendall(frame)
                        dst.sendall(frame)
                    elif fault == "delay":
                        _real_sleep(self.delay_seconds)
                        dst.sendall(frame)
                    elif fault == "truncate":
                        dst.sendall(frame[:max(1, len(frame) // 2)])
                        raise _Cut()
                    elif fault == "disconnect":
                        raise _Cut()
                    elif fault == "reorder":
                        held.append(frame)
                        continue
                    else:
                        dst.sendall(frame)
                    while held:
                        dst.sendall(held.pop(0))
        except (_Cut, OSError):
            pass
        finally:
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass

    def _roll(self, rng) -> Optional[str]:
        point = rng.random()
        cumulative = 0.0
        for kind, rate in self.rates.items():
            cumulative += rate
            if point < cumulative:
                self.injected[kind] += 1
                return kind
        return None


class _Cut(Exception):
    """Internal: a chaos fault severed this relay direction."""
