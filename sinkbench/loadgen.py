"""The load generator: pre-encoded NDJSON lines over raw sockets.

One process, two connections (ingest and subscriber) and two threads.
Lines are built during set-up (:mod:`inputs`), so sending one costs a
``sendall``, and the figures measure the sink, not the client.
:func:`open_loop` sends lines on a fixed due-time schedule that does not
slow when the sink slows; a second thread reads acks and events.

Every line's due time, send time and ack are recorded in a
:class:`Ledger`; events are kept as raw lines with their receipt time and
parsed after the run.
"""

from __future__ import annotations

import json
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from inputs import Line

_ACK_PREFIX = b'{"v":1,"type":"ack"'
_EVENT_PREFIX = b'{"v":1,"type":"event"'


class LoadError(RuntimeError):
    """The sink answered something the generator cannot account for."""


class Wire:
    """One NDJSON connection to the sink, read without blocking."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self.closed = False
        hello = self.read_line(timeout)
        if not hello.startswith(b'{"v":1,"type":"hello"'):
            raise LoadError(f"expected hello, got {hello[:80]!r}")

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_ready(self) -> List[Tuple[float, bytes]]:
        """Read what the socket holds now; complete lines with receipt time."""
        data = self.sock.recv(1 << 20)
        now = time.perf_counter()
        if not data:
            self.closed = True
            return []
        self._buf += data
        *lines, self._buf = self._buf.split(b"\n")
        return [(now, line) for line in lines if line]

    def read_line(self, timeout: float) -> bytes:
        """Block for one line (connection set-up only)."""
        deadline = time.perf_counter() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self.sock], [], [], left)[0]:
                raise LoadError("timed out waiting for the sink")
            data = self.sock.recv(1 << 16)
            if not data:
                raise LoadError("sink closed the connection")
            self._buf += data
        line, _, self._buf = self._buf.partition(b"\n")
        return line

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class Ledger:
    """What the generator sent and what came back (one per run)."""

    #: seq -> [due, sent, acked, accepted]; -1 until known.
    lines: Dict[int, list] = field(default_factory=dict)
    #: (receipt time, raw event line), in receipt order per connection.
    events: List[Tuple[float, bytes]] = field(default_factory=list)
    errors: List[bytes] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def on_line(self, t: float, raw: bytes) -> None:
        """File one inbound line received at ``t``."""
        if raw.startswith(_EVENT_PREFIX):
            with self._lock:
                self.events.append((t, raw))
        elif raw.startswith(_ACK_PREFIX):
            ack = json.loads(raw)
            entry = self.lines[ack["seq"]]
            entry[2] = t
            entry[3] = ack["accepted"]
        elif not raw.startswith(b'{"v":1,"type":"subscribed"'):
            with self._lock:
                self.errors.append(raw)

    def n_acked(self) -> int:
        return sum(1 for entry in self.lines.values() if entry[2] >= 0)


def subscribe(wire: Wire, deployments: Sequence[str], seq0: int) -> None:
    """Subscribe ``wire`` to every deployment and wait for the answers."""
    from repro.service import protocol

    for i, name in enumerate(deployments):
        wire.send(protocol.encode(protocol.subscribe(name, seq0 + i)))
    for _ in deployments:
        reply = wire.read_line(30.0)
        if not reply.startswith(b'{"v":1,"type":"subscribed"'):
            raise LoadError(f"subscribe failed: {reply[:200]!r}")


def _pump(wires: Sequence[Wire], ledger: Ledger, timeout: float) -> None:
    """Wait up to ``timeout`` for input on ``wires`` and file it."""
    live = [w for w in wires if not w.closed]
    if not live:
        return
    ready, _, _ = select.select(live, [], [], max(0.0, timeout))
    for wire in ready:
        for t, raw in wire.read_ready():
            ledger.on_line(t, raw)


def open_loop(ingest: Wire, subscriber: Wire, lines: Sequence[Line],
              ledger: Ledger, rate_pps: float,
              ack_timeout: float = 60.0) -> float:
    """Send ``lines`` at ``rate_pps`` offered packets per second.

    Line ``i`` is due at ``t0 + (packets before it) / rate_pps``; the
    sender sleeps until then and sends, however late the sink is.  A
    reader thread files acks and events from both connections.  Returns
    the first due time, once every line is acked.
    """
    stop = threading.Event()
    failure: List[BaseException] = []

    def _reader() -> None:
        try:
            while not stop.is_set():
                _pump([ingest, subscriber], ledger, 0.05)
        except BaseException as exc:
            failure.append(exc)

    for line in lines:
        ledger.lines[line.seq] = [-1.0, -1.0, -1.0, -1]
    reader = threading.Thread(target=_reader, daemon=True)
    reader.start()
    t0 = time.perf_counter() + 0.05
    offset = 0
    try:
        for line in lines:
            due = t0 + offset / rate_pps
            offset += len(line.packets)
            left = due - time.perf_counter()
            if left > 0:
                time.sleep(left)
            entry = ledger.lines[line.seq]
            entry[0] = due
            ingest.send(line.data)
            entry[1] = time.perf_counter()
        deadline = time.perf_counter() + ack_timeout
        while ledger.n_acked() < len(lines):
            if failure or time.perf_counter() > deadline:
                raise LoadError(
                    f"{len(lines) - ledger.n_acked()} lines never acked"
                ) from (failure[0] if failure else None)
            time.sleep(0.005)
    finally:
        stop.set()
        reader.join(timeout=10)
    return t0


def drain_events(wires: Sequence[Wire], ledger: Ledger,
                 timeout: float = 60.0) -> None:
    """Read until every wire hits EOF (the sink closes them on drain)."""
    deadline = time.perf_counter() + timeout
    while any(not w.closed for w in wires):
        if time.perf_counter() > deadline:
            raise LoadError("sink did not close its connections")
        _pump(wires, ledger, 0.1)
