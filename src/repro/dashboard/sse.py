"""Server-sent-events hub: the dashboard's live incident feed.

The hub is *just another subscriber*: it subscribes to every deployment
per the existing subscribe contract
(:meth:`~repro.service.backends.ShardRouter.subscribe`) and fans the
arriving event lines out to attached browsers as SSE frames.  The lines
are the bytes a shard worker encoded once for every subscriber; each
frame is spliced from one of them —
``b"event: incident\ndata: " + line[:-1] + b"\n\n"``, byte for byte
what :func:`format_sse` makes of the event message.  Nothing in the
diagnosis path knows the dashboard exists.

The one invariant that matters is that a stalled browser can never
backpressure ingest.  Every client gets a *bounded* frame queue; the
fan-out uses ``put_nowait`` and treats a full queue as proof the client
stopped reading: the client is evicted on the spot —
``repro_dashboard_clients_evicted_total`` increments, its transport is
aborted (unblocking a handler stuck in ``drain()`` against a full TCP
buffer), and the pump moves on.  Eviction costs O(1) and drops only the
evicted client's frames; every other subscriber — SSE or TCP — sees the
identical, complete event stream.

Per-client memory is therefore bounded by ``max_queue`` frames (an
incident-event frame is a few hundred bytes), and the hub itself adds
one queue hop per event — measured under 5% ingest overhead with an
attached client (``benchmarks/test_bench_dashboard.py``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable, Dict, Optional, Set

__all__ = ["DashboardHub", "SSEClient", "format_sse"]

#: Queue sentinel: the hub closed this client (eviction or shutdown).
_CLOSE = object()

#: Comment frame sent when a client has been idle for a keepalive period.
KEEPALIVE_FRAME = b": keepalive\n\n"

#: What :func:`format_sse` puts before an incident event's JSON.
_INCIDENT_HEAD = b"event: incident\ndata: "

#: Per-connection write-buffer bound (transport high-water mark and
#: ``SO_SNDBUF``) for SSE streams.  Small on purpose: a stalled client's
#: backlog must accumulate in its bounded hub queue — the thing slow
#: consumer eviction watches — not in elastic socket buffers.
SSE_BUFFER_BYTES = 16384


def format_sse(
    data: dict,
    event: Optional[str] = None,
    retry_ms: Optional[int] = None,
) -> bytes:
    """Frame one JSON payload as a server-sent event.

    Compact JSON (no newlines) keeps the frame a single ``data:`` line,
    so the payload parses with any SSE client and with none at all
    (``grep '^data:'``).
    """
    lines = []
    if event:
        lines.append(f"event: {event}")
    if retry_ms is not None:
        lines.append(f"retry: {int(retry_ms)}")
    lines.append("data: " + json.dumps(data, separators=(",", ":")))
    return ("\n".join(lines) + "\n\n").encode("utf-8")


class SSEClient:
    """One attached browser: a bounded frame queue plus eviction state."""

    def __init__(
        self,
        max_queue: int,
        deployment: Optional[str] = None,
        on_close: Optional[Callable[[], None]] = None,
    ):
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self.deployment = deployment
        self.on_close = on_close
        self.evicted = False

    async def next_frame(self, keepalive_s: float) -> Optional[bytes]:
        """The next frame to write, a keepalive after idleness, or
        ``None`` once the hub closed this client."""
        try:
            frame = await asyncio.wait_for(self.queue.get(), keepalive_s)
        except asyncio.TimeoutError:
            return KEEPALIVE_FRAME
        return None if frame is _CLOSE else frame


class _Feed:
    """The hub's subscription to one deployment: a subscriber outbox
    that tags the event lines it receives with the deployment."""

    __slots__ = ("deployment", "outbox")

    def __init__(self, deployment: str, outbox: asyncio.Queue):
        self.deployment = deployment
        self.outbox = outbox

    def put_nowait(self, lines: bytes) -> None:
        self.outbox.put_nowait((self.deployment, lines))


class DashboardHub:
    """Subscribe-protocol fan-out to SSE clients (runs on the service loop).

    Args:
        service: The owning :class:`~repro.service.server.DiagnosisService`.
        max_queue: Frames buffered per client before slow-consumer
            eviction (``ServiceConfig.dashboard_queue``).
        rescan_s: How often the pump checks for newly materialized
            deployments to subscribe to.
    """

    def __init__(self, service, max_queue: int = 256, rescan_s: float = 0.5):
        self.service = service
        self.max_queue = max_queue
        self.rescan_s = rescan_s
        self._outbox: Optional[asyncio.Queue] = None
        self._feeds: Dict[str, _Feed] = {}
        self._clients: Set[SSEClient] = set()
        self._pump: Optional[asyncio.Task] = None
        registry = service.registry
        self._m_attached = registry.counter(
            "repro_dashboard_clients_total",
            "Dashboard SSE clients ever attached",
        )
        self._m_evicted = registry.counter(
            "repro_dashboard_clients_evicted_total",
            "Dashboard SSE clients evicted for slow consumption",
        )
        self._m_events = registry.counter(
            "repro_dashboard_events_total",
            "Incident events fanned out by the dashboard SSE hub",
        )
        registry.gauge(
            "repro_dashboard_clients",
            "Dashboard SSE clients currently attached",
            fn=lambda: float(len(self._clients)),
        )

    # -- lifecycle (service start/stop) --------------------------------

    async def start(self) -> None:
        self._outbox = asyncio.Queue()
        self._pump = asyncio.get_running_loop().create_task(
            self._run(), name="dashboard-hub"
        )

    async def stop(self) -> None:
        """Close every client and stop the pump (before the listeners
        close, so no handler is left blocked on a dead stream).

        The pump is stopped with a queue sentinel, not ``cancel()``: a
        cancel landing exactly as the pump's rescan timeout expires gets
        swallowed as ``TimeoutError`` by ``wait_for`` (the documented
        race), which would leave ``await self._pump`` hanging forever.
        The sentinel wakes the pump immediately and exits its loop
        deterministically.
        """
        if self._pump is not None:
            self._outbox.put_nowait(_CLOSE)
            await self._pump
            self._pump = None
        for deployment, feed in self._feeds.items():
            self.service.backend.unsubscribe(deployment, feed)
        self._feeds.clear()
        for client in list(self._clients):
            self._close(client)
        self._clients.clear()

    # -- client attachment ---------------------------------------------

    def attach(
        self,
        deployment: Optional[str] = None,
        on_close: Optional[Callable[[], None]] = None,
    ) -> SSEClient:
        """Register one SSE client; ``on_close`` is invoked on eviction
        or hub shutdown (the HTTP handler passes a transport abort)."""
        client = SSEClient(self.max_queue, deployment, on_close)
        self._clients.add(client)
        self._m_attached.inc()
        return client

    def detach(self, client: SSEClient) -> None:
        self._clients.discard(client)

    # -- pump ----------------------------------------------------------

    async def _run(self) -> None:
        while True:
            self._rescan()
            try:
                message = await asyncio.wait_for(
                    self._outbox.get(), self.rescan_s
                )
            except asyncio.TimeoutError:
                continue
            if message is _CLOSE:
                return
            self._broadcast(*message)

    def on_deployment(self, deployment: str) -> None:
        """Materialization hook: the backend calls this the moment a new
        shard/route exists, so the hub is subscribed before the first
        batch's events are published (the pump's periodic rescan is just
        a safety net).  Added to ``_feeds`` first because
        ``backend.subscribe`` materializes on miss and would re-enter."""
        if self._outbox is None or deployment in self._feeds:
            return
        feed = self._feeds[deployment] = _Feed(deployment, self._outbox)
        self.service.backend.subscribe(deployment, feed)

    def _rescan(self) -> None:
        """Subscribe to any deployment materialized since the last look.

        The hub wants *all* deployments; every deployment's feed
        delivers into the one hub outbox — like one TCP connection
        holding several subscriptions.
        """
        for deployment in self.service.backend.deployments():
            self.on_deployment(deployment)

    def _broadcast(self, deployment: str, lines: bytes) -> None:
        """Fan one batch of a deployment's event lines out as frames."""
        events = lines[:-1].split(b"\n")  # every line ends in one newline
        self._m_events.inc(len(events))
        frames = None
        for client in list(self._clients):
            if (
                client.deployment is not None
                and deployment != client.deployment
            ):
                continue
            if frames is None:
                frames = [_INCIDENT_HEAD + event + b"\n\n" for event in events]
            for frame in frames:
                try:
                    client.queue.put_nowait(frame)
                except asyncio.QueueFull:
                    self._evict(client)
                    break

    # -- eviction ------------------------------------------------------

    def _evict(self, client: SSEClient) -> None:
        """Slow consumer: count the eviction, then close the client."""
        self._m_evicted.inc()
        self._clients.discard(client)
        self._close(client)

    def _close(self, client: SSEClient) -> None:
        client.evicted = True
        try:
            client.queue.get_nowait()  # make room for the sentinel
        except asyncio.QueueEmpty:
            pass
        client.queue.put_nowait(_CLOSE)
        if client.on_close is not None:
            try:
                client.on_close()
            except Exception:
                pass  # the transport may already be gone
