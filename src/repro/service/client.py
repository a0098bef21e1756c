"""Client SDK for the diagnosis sink: sync and async packet submission.

Both clients speak :mod:`repro.service.protocol` and share the same
semantics:

* ``submit`` sends one ingest batch and blocks until it is acked.  A
  backpressure ack (``accepted: 0`` + ``retry_after``) is retried after
  the server's hint — the SDK never drops a packet — and the retry count
  is reported on the returned :class:`SubmitResult`.
* A lost connection triggers reconnection with jittered exponential
  backoff (:class:`BackoffPolicy`); the in-flight batch is resent after
  reconnect.  Ingest is idempotent at the diagnosis level only if the
  batch was not processed, so the SDK resends only batches whose ack was
  never received — the standard at-least-once tradeoff, documented here
  rather than hidden.
* ``events`` subscribes to a deployment's incident stream and iterates
  the event objects as they arrive.

Packets can be ``(node_id, epoch, generated_at, values)`` tuples (what
:func:`repro.core.streaming.iter_packets` yields) or pre-built row
objects (:func:`repro.traces.io.row_obj`).
Each batch is sent as one attachment ``ingest`` (a JSON header line,
then the ids, epochs, times and metrics as raw little-endian int64 and
float64 columns; see :func:`repro.service.protocol.ingest`), built once
per batch and re-stamped with a fresh ``seq`` on each retry.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.service import protocol


@dataclass
class BackoffPolicy:
    """Jittered exponential backoff for reconnects.

    Delay before attempt ``n`` (0-based) is
    ``min(base * factor**n, max_delay)`` scaled by a uniform jitter in
    ``[1 - jitter, 1 + jitter]`` — the jitter de-synchronizes a fleet of
    clients reconnecting after a sink restart.
    """

    base: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    max_attempts: int = 8

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.base * (self.factor ** attempt), self.max_delay)
        return raw * rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)


@dataclass
class SubmitResult:
    """Outcome of one (possibly retried) ingest submission."""

    accepted: int
    queued: int  #: server-side shard queue depth after the ack
    backpressure_retries: int = 0
    reconnects: int = 0


class ServiceUnavailable(ConnectionError):
    """Raised when reconnection attempts are exhausted."""


def _packet_obj(packet) -> dict:
    """Normalize any accepted packet shape into the wire row object."""
    if isinstance(packet, dict):
        return packet
    node_id, epoch, generated_at, values = packet
    return {
        "node_id": int(node_id),
        "epoch": int(epoch),
        "generated_at": float(generated_at),
        "values": values.tolist() if isinstance(values, np.ndarray) else list(values),
    }


class ServiceClient:
    """Blocking client (one TCP connection, request/ack in lockstep).

    Args:
        host, port: The sink's TCP listener.
        timeout: Socket timeout for connects and acks.
        backoff: Reconnect policy.
        rng: Jitter source (inject a seeded ``random.Random`` in tests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7433,
        timeout: float = 30.0,
        backoff: Optional[BackoffPolicy] = None,
        rng: Optional[random.Random] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.backoff = backoff or BackoffPolicy()
        self.rng = rng or random.Random()
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._seq = 0
        self.hello: Optional[dict] = None  #: the server's greeting

    # -- connection management -----------------------------------------

    def connect(self) -> None:
        """Connect (or reconnect) and read the server hello."""
        self.close()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rwb")
        greeting = self._read_message()
        if greeting.get("type") != "hello":
            raise ConnectionError(f"expected hello, got {greeting!r}")
        self.hello = greeting

    def _ensure_connected(self) -> int:
        """Connect if needed, with backoff; returns reconnect attempts used."""
        if self._file is not None:
            return 0
        attempts = 0
        while True:
            try:
                self.connect()
                return attempts
            except (ConnectionError, OSError) as exc:
                if attempts >= self.backoff.max_attempts:
                    raise ServiceUnavailable(
                        f"{self.host}:{self.port} unreachable after "
                        f"{attempts} retries: {exc}"
                    ) from exc
                time.sleep(self.backoff.delay(attempts, self.rng))
                attempts += 1

    def clone(self) -> "ServiceClient":
        """A fresh, unconnected client with this one's endpoint/policy.

        The multi-connection loadgen fanout opens one connection per
        deployment this way; the clone gets its own jitter source so
        sibling connections don't back off in lockstep.
        """
        return ServiceClient(
            host=self.host,
            port=self.port,
            timeout=self.timeout,
            backoff=self.backoff,
        )

    def close(self) -> None:
        for closer in (self._file, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._file = None
        self._sock = None

    def __enter__(self) -> "ServiceClient":
        self._ensure_connected()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- wire helpers ---------------------------------------------------

    def _read_message(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def _roundtrip(self, message: dict) -> dict:
        """Send one message and read its reply, reconnecting on failure."""
        reconnects = 0
        while True:
            reconnects += self._ensure_connected()
            try:
                self._file.write(protocol.encode(message))
                self._file.flush()
                reply = self._read_message()
                reply["_reconnects"] = reconnects
                return reply
            except (ConnectionError, OSError, socket.timeout):
                self.close()
                reconnects += 1
                if reconnects > self.backoff.max_attempts:
                    raise ServiceUnavailable(
                        f"lost {self.host}:{self.port} and could not "
                        f"recover within {self.backoff.max_attempts} attempts"
                    )
                time.sleep(self.backoff.delay(reconnects - 1, self.rng))

    # -- public API -----------------------------------------------------

    def submit(self, deployment: str, packets: Iterable) -> SubmitResult:
        """Submit one batch; block until accepted (retrying backpressure)."""
        objs = [_packet_obj(p) for p in packets]
        if not objs:
            return SubmitResult(accepted=0, queued=0)
        message = protocol.ingest(deployment, objs)
        retries = 0
        reconnects = 0
        while True:
            self._seq += 1
            message["seq"] = self._seq
            reply = self._roundtrip(message)
            reconnects += reply.pop("_reconnects", 0)
            if reply.get("type") == "error":
                raise protocol.ProtocolError(
                    reply.get("code", "bad_request"),
                    reply.get("message", "rejected"),
                    reply.get("seq"),
                )
            if reply.get("type") != "ack":
                raise ConnectionError(f"expected ack, got {reply!r}")
            if reply["accepted"]:
                return SubmitResult(
                    accepted=reply["accepted"],
                    queued=reply["queued"],
                    backpressure_retries=retries,
                    reconnects=reconnects,
                )
            retries += 1
            time.sleep(float(reply.get("retry_after", 0.05)))

    def events(
        self,
        deployment: str,
        max_events: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[dict]:
        """Subscribe and yield incident-event objects as they arrive.

        Runs on this client's connection — don't interleave ``submit``
        calls from another thread; use a second client for ingest.
        Stops after ``max_events`` events, on ``timeout`` seconds of
        silence, or when the server closes (its drain flushes final
        close events first).
        """
        self._ensure_connected()
        self._seq += 1
        reply = self._roundtrip(protocol.subscribe(deployment, self._seq))
        reply.pop("_reconnects", None)
        if reply.get("type") != "subscribed":
            raise ConnectionError(f"expected subscribed, got {reply!r}")
        if timeout is not None:
            self._sock.settimeout(timeout)
        seen = 0
        while max_events is None or seen < max_events:
            try:
                message = self._read_message()
            except (ConnectionError, socket.timeout, OSError):
                return
            if message.get("type") != "event":
                continue
            yield message["event"]
            seen += 1

    def metrics(self, http_port: int) -> dict:
        """Convenience ``GET /metrics`` against the operator port."""
        return http_get_json(self.host, http_port, "/metrics")

    def model(self, http_port: int) -> dict:
        """Convenience ``GET /model`` (serving version + lifecycle state)."""
        return http_get_json(self.host, http_port, "/model")

    def rotate_model(self, http_port: int, path: str) -> dict:
        """Rotate the sink to the saved model at ``path`` (server host)."""
        return http_post_json(self.host, http_port, "/model", {"path": path})


def _http_exchange(
    host: str, port: int, request: bytes, timeout: float
) -> tuple:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    payload = b"".join(chunks)
    head, _, body = payload.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1].decode("latin-1")
    return status, body


def http_get_json(host: str, port: int, path: str, timeout: float = 10.0) -> dict:
    """Tiny dependency-free HTTP GET → parsed JSON body."""
    request = (
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n"
    )
    status, body = _http_exchange(host, port, request.encode("latin-1"), timeout)
    if status != "200":
        raise ConnectionError(f"GET {path} -> HTTP {status}")
    return json.loads(body)


def http_post_json(
    host: str, port: int, path: str, body: dict, timeout: float = 120.0
) -> dict:
    """Dependency-free HTTP POST of a JSON body → parsed JSON reply.

    Raises :class:`ConnectionError` on any non-200 status, with the
    server's error message when it sent one.  The generous default
    timeout covers a forced refit, which runs a full NMF absorb before
    replying.
    """
    payload = json.dumps(body).encode("utf-8")
    request = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + payload
    status, reply = _http_exchange(host, port, request, timeout)
    if status != "200":
        detail = ""
        try:
            detail = json.loads(reply).get("error", "")
        except ValueError:
            pass
        raise ConnectionError(
            f"POST {path} -> HTTP {status}" + (f": {detail}" if detail else "")
        )
    return json.loads(reply)


# --------------------------------------------------------------------------
# asyncio client
# --------------------------------------------------------------------------


@dataclass
class AsyncServiceClient:
    """Asyncio twin of :class:`ServiceClient` (submit + events).

    Use as an async context manager::

        async with AsyncServiceClient(port=port) as client:
            await client.submit("city-a", packets)
    """

    host: str = "127.0.0.1"
    port: int = 7433
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    rng: random.Random = field(default_factory=random.Random)
    _reader: Optional[asyncio.StreamReader] = field(default=None, repr=False)
    _writer: Optional[asyncio.StreamWriter] = field(default=None, repr=False)
    _seq: int = field(default=0, repr=False)
    hello: Optional[dict] = None

    async def connect(self) -> None:
        await self.aclose()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        greeting = await self._read_message()
        if greeting.get("type") != "hello":
            raise ConnectionError(f"expected hello, got {greeting!r}")
        self.hello = greeting

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        for attempt in range(self.backoff.max_attempts + 1):
            try:
                await self.connect()
                return
            except (ConnectionError, OSError) as exc:
                if attempt >= self.backoff.max_attempts:
                    raise ServiceUnavailable(
                        f"{self.host}:{self.port} unreachable: {exc}"
                    ) from exc
                await asyncio.sleep(self.backoff.delay(attempt, self.rng))

    async def aclose(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        await self._ensure_connected()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def _read_message(self) -> dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def submit(self, deployment: str, packets: Iterable) -> SubmitResult:
        """Submit one batch; await the ack, honouring backpressure."""
        objs = [_packet_obj(p) for p in packets]
        if not objs:
            return SubmitResult(accepted=0, queued=0)
        message = protocol.ingest(deployment, objs)
        retries = 0
        while True:
            await self._ensure_connected()
            self._seq += 1
            message["seq"] = self._seq
            self._writer.write(protocol.encode(message))
            await self._writer.drain()
            reply = await self._read_message()
            if reply.get("type") == "error":
                raise protocol.ProtocolError(
                    reply.get("code", "bad_request"),
                    reply.get("message", "rejected"),
                    reply.get("seq"),
                )
            if reply.get("type") != "ack":
                raise ConnectionError(f"expected ack, got {reply!r}")
            if reply["accepted"]:
                return SubmitResult(
                    accepted=reply["accepted"],
                    queued=reply["queued"],
                    backpressure_retries=retries,
                )
            retries += 1
            await asyncio.sleep(float(reply.get("retry_after", 0.05)))

    async def events(
        self, deployment: str, max_events: Optional[int] = None
    ):
        """Async iterator over a deployment's incident events."""
        await self._ensure_connected()
        self._seq += 1
        self._writer.write(
            protocol.encode(protocol.subscribe(deployment, self._seq))
        )
        await self._writer.drain()
        reply = await self._read_message()
        if reply.get("type") != "subscribed":
            raise ConnectionError(f"expected subscribed, got {reply!r}")
        seen = 0
        while max_events is None or seen < max_events:
            try:
                message = await self._read_message()
            except (ConnectionError, OSError):
                return
            if message.get("type") != "event":
                continue
            yield message["event"]
            seen += 1


def iter_trace_packets(frame) -> Iterator[tuple]:
    """Canonical-arrival-order packets of a trace (re-export for clients).

    Thin alias of :func:`repro.core.streaming.iter_packets` so SDK users
    don't need to import the core package to replay a trace faithfully.
    """
    from repro.core.streaming import iter_packets

    return iter_packets(frame)
