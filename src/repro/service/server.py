"""The diagnosis sink server: a front door over shard workers.

Architecture (the paper's sink, made multi-tenant and horizontally
scalable):

* The server owns the listeners and the wire contract.  Every
  deployment's :class:`~repro.core.streaming.StreamingDiagnosisSession`
  lives in a :class:`~repro.service.worker.ShardWorker`, which the
  :class:`~repro.service.backends.ShardRouter` reaches either on the
  server's own event loop (the default) or in a consistent-hash-routed
  pool of worker processes (``ServiceConfig(workers=N)`` /
  ``vn2 serve --workers N``).  See :mod:`repro.service.backends`.
* Every named *deployment* gets its own shard — a private session fed
  in arrival order.  Shards share nothing but the fitted model
  (read-only after training), so a hot deployment cannot stall
  another's diagnosis — its producers are backpressured instead.
* Backpressure is explicit: when a batch would push a shard's queue past
  ``queue_size`` packets, the server acks ``accepted: 0`` with a
  ``retry_after`` hint.  An acked packet is never dropped; a rejected
  batch is never partially queued.
* Two listeners: a TCP NDJSON port for ingest/subscribe
  (:mod:`repro.service.protocol`) and a minimal HTTP port for operators
  (``GET /health``, ``GET /metrics``, ``GET /incidents``;
  ``/metrics?format=prometheus`` is the merged all-worker scrape).

Determinism: one deployment's packets are processed in arrival order by
one shard worker, through the same per-state NNLS path as
:meth:`VN2.diagnose_stream`, so the served event stream for a trace
replayed in canonical order is bit-identical to a local batch replay —
on *both* transports (each keeps per-deployment FIFO end to end).

For synchronous callers (tests, benchmarks, examples) use
:func:`start_service_thread`, which runs the event loop in a daemon
thread and returns a handle with the bound ports and a blocking
``stop()``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.pipeline import VN2
from repro.obs import MetricsRegistry
from repro.service import protocol
from repro.service.backends import ShardRouter
from repro.service.metrics import sum_shard_totals

#: Bytes allowed per NDJSON line: a row-shaped MAX_BATCH ingest of 43
#: decimal floats per packet fits.  An attachment is read by its byte
#: count (``protocol.attachment_size``), not by this limit.
_LINE_LIMIT = 1 << 24

_STOP = object()  # outbox sentinel: flush and close the connection


@dataclass
class ServiceConfig:
    """Knobs of one :class:`DiagnosisService` instance.

    Attributes:
        host: Bind address for both listeners.
        port: TCP ingest/subscribe port (0 = ephemeral, see
            :attr:`DiagnosisService.port` after start).
        http_port: Operator HTTP port (0 = ephemeral).
        queue_size: Per-shard ingest bound, in *packets*; a batch that
            would exceed it is backpressured.
        retry_after_s: The hint sent with a backpressure ack.
        threshold_ratio / min_strength / time_gap_s / radius_m /
        max_epoch_gap: Forwarded to every shard's
            :class:`~repro.core.streaming.StreamingDiagnosisSession`.
        max_closed_incidents: Closed-incident retention per shard (a
            long-lived sink should set this; ``None`` keeps all).
        positions: Optional node positions shared by all shards.
        latency_window: Ingest-latency samples retained per shard.
        workers: Shard worker processes.  ``0`` hosts the one shard
            worker on the server's event loop; ``N >= 1`` forks N worker
            processes (see :mod:`repro.service.backends`).
        heartbeat_s: Worker heartbeat period (worker processes).
        drain_timeout_s: Seconds a graceful drain waits for every worker
            to flush and say goodbye before hard-stopping the pool.
        keep_exception_states: Exception states each shard retains for
            background refits (0 disables retention).  Auto-enabled
            (4096) when a refit trigger below is configured.
        refit_every_s: Period of the model manager's refit check;
            ``None`` (the default) disables background refits.
        drift_threshold: When set, a refit check only fires once some
            shard's drift score reaches this value; ``None`` refits on
            every period that has enough retained states.
        refit_min_states: Minimum retained exception states before a
            (non-forced) refit is attempted.
        dashboard: Serve the live dashboard (``GET /dashboard``,
            ``/api/topology``, ``/api/series``, ``/api/incidents/stream``).
            Off by default: when disabled those routes 404 and zero
            dashboard code runs.
        dashboard_queue: SSE frames buffered per dashboard client before
            the slow consumer is evicted (see :mod:`repro.dashboard.sse`).
        dashboard_keepalive_s: Idle seconds between SSE keepalive
            comments (holds proxies/browsers open through quiet spells).
    """

    host: str = "127.0.0.1"
    port: int = 7433
    http_port: int = 7434
    queue_size: int = 8192
    retry_after_s: float = 0.05
    threshold_ratio: Optional[float] = None
    min_strength: float = 0.2
    time_gap_s: float = 600.0
    radius_m: float = 60.0
    max_epoch_gap: Optional[int] = None
    max_closed_incidents: Optional[int] = 10000
    positions: Optional[Dict[int, Tuple[float, float]]] = None
    latency_window: int = 4096
    workers: int = 0
    heartbeat_s: float = 0.5
    drain_timeout_s: float = 30.0
    keep_exception_states: int = 0
    refit_every_s: Optional[float] = None
    drift_threshold: Optional[float] = None
    refit_min_states: int = 32
    dashboard: bool = False
    dashboard_queue: int = 256
    dashboard_keepalive_s: float = 15.0

    def __post_init__(self):
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {self.queue_size}")
        if self.retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be > 0, got {self.retry_after_s}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat_s must be > 0, got {self.heartbeat_s}"
            )
        if self.refit_every_s is not None and self.refit_every_s <= 0:
            raise ValueError(
                f"refit_every_s must be > 0, got {self.refit_every_s}"
            )
        if self.drift_threshold is not None and self.drift_threshold < 0:
            raise ValueError(
                f"drift_threshold must be >= 0, got {self.drift_threshold}"
            )
        if self.keep_exception_states < 0:
            raise ValueError(
                "keep_exception_states must be >= 0, "
                f"got {self.keep_exception_states}"
            )
        if self.refit_min_states < 1:
            raise ValueError(
                f"refit_min_states must be >= 1, got {self.refit_min_states}"
            )
        if self.dashboard_queue < 1:
            raise ValueError(
                f"dashboard_queue must be >= 1, got {self.dashboard_queue}"
            )
        if self.dashboard_keepalive_s <= 0:
            raise ValueError(
                "dashboard_keepalive_s must be > 0, "
                f"got {self.dashboard_keepalive_s}"
            )
        if (
            self.keep_exception_states == 0
            and (self.refit_every_s is not None
                 or self.drift_threshold is not None)
        ):
            # A refit trigger without retained states would never have
            # anything to absorb; retain a bounded reservoir per shard.
            self.keep_exception_states = 4096


class _Connection:
    """One TCP client: a reader loop plus a serialized outbox writer."""

    def __init__(self, service, reader, writer):
        self.service = service
        self.reader = reader
        self.writer = writer
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.subscriptions: Set[str] = set()  #: subscribed deployments
        self.writer_task: Optional[asyncio.Task] = None
        self._closed = False

    def send(self, message: dict) -> None:
        self.outbox.put_nowait(message)

    async def _write_loop(self) -> None:
        """Write the outbox: message dicts are encoded here, event lines
        (bytes a shard worker encoded, see ``ShardRoute.publish``) go out
        as they are.  Whatever queued up behind the first item goes out
        in the same ``write``, then the writer drains once."""
        outbox = self.outbox
        while True:
            item = await outbox.get()
            chunks = []
            stop = False
            while True:
                if item is _STOP:
                    stop = True
                    break
                chunks.append(
                    item if type(item) is bytes else protocol.encode(item)
                )
                try:
                    item = outbox.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if chunks:
                self.writer.write(b"".join(chunks))
                await self.writer.drain()
            if stop:
                return

    async def flush_and_close(self) -> None:
        """Drain the outbox, then close (idempotent; double calls happen
        when a client disconnects during a server drain)."""
        if self._closed:
            return
        self._closed = True
        self.outbox.put_nowait(_STOP)
        if self.writer_task is not None:
            try:
                await self.writer_task
            except (ConnectionError, OSError):
                pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class DiagnosisService:
    """The multi-deployment sink server (see module docstring).

    Args:
        tool: A fitted/loaded :class:`~repro.core.pipeline.VN2` model,
            shared read-only by every shard.
        config: Service knobs; defaults are production-ish.
    """

    def __init__(self, tool: VN2, config: Optional[ServiceConfig] = None):
        tool._require_fitted()
        self.tool = tool
        self.config = config or ServiceConfig()
        #: Front-door metrics registry: per-deployment ingest counters
        #: and service gauges, independent of the process default.
        #: (Shard workers keep their own registries; the merged scrape is
        #: rendered by the router via :func:`repro.obs.merge_dumps`.)
        self.registry = MetricsRegistry(enabled=True)
        #: One counter per error code; each error reply adds one.
        self._protocol_errors = {
            code: self.registry.counter(
                "repro_service_protocol_errors_total",
                "Error replies sent on the ingest/subscribe port, by code",
                {"code": code},
            )
            for code in protocol.ERROR_CODES
        }
        from repro.service.models import ModelManager

        #: Routes deployments to shard workers; see
        #: :mod:`repro.service.backends`.
        self.backend = ShardRouter(self)
        #: Online model lifecycle: drift-triggered refits + rotation.
        self.models = ModelManager(self)
        #: SSE fan-out for the live dashboard; ``None`` when disabled —
        #: the dashboard is a pure observer riding the subscribe
        #: protocol, so turning it off removes every trace of it.
        self.dashboard = None
        if self.config.dashboard:
            from repro.dashboard.sse import DashboardHub

            self.dashboard = DashboardHub(
                self, max_queue=self.config.dashboard_queue
            )
        _service_ref = weakref.ref(self)
        self.registry.gauge(
            "repro_service_deployments",
            "Deployment shards currently materialized",
            fn=lambda: (
                float(len(_service_ref().backend.deployments()))
                if _service_ref() is not None else 0.0
            ),
        )
        self.registry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the listeners were bound",
            fn=lambda: (
                time.monotonic() - _service_ref()._started_at
                if _service_ref() is not None
                and _service_ref()._started_at is not None else 0.0
            ),
        )
        self._connections: Set[_Connection] = set()
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._started_at: Optional[float] = None
        self._stopping = False
        self.port: Optional[int] = None  #: bound TCP port (after start)
        self.http_port: Optional[int] = None  #: bound HTTP port (after start)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Start the shard workers, then bind both listeners; resolves
        :attr:`port` / :attr:`http_port`.  Workers spawn before the
        listeners accept traffic (readiness is gated separately — see
        :meth:`~repro.service.backends.ShardRouter.wait_ready`)."""
        config = self.config
        await self.backend.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_tcp, config.host, config.port, limit=_LINE_LIMIT
        )
        self._http_server = await asyncio.start_server(
            self._handle_http, config.host, config.http_port
        )
        self.port = self._tcp_server.sockets[0].getsockname()[1]
        self.http_port = self._http_server.sockets[0].getsockname()[1]
        await self.models.start()
        if self.dashboard is not None:
            await self.dashboard.start()
        self._started_at = time.monotonic()

    async def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (the SIGTERM path) every queued packet
        is diagnosed and open incidents are flush-closed to subscribers
        before connections go away."""
        if self._stopping:
            return
        self._stopping = True
        await self.models.stop()
        if self.dashboard is not None:
            # Abort SSE clients first: on 3.12+ ``wait_closed`` below
            # waits for handlers, and a handler blocked writing to a
            # dead browser would stall shutdown.
            await self.dashboard.stop()
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                server.close()
        if drain:
            await self.backend.drain()
        else:
            await self.backend.abort()
        for connection in list(self._connections):
            await connection.flush_and_close()
        for server in (self._tcp_server, self._http_server):
            if server is not None:
                await server.wait_closed()

    def _deployment_materialized(self, deployment: str) -> None:
        """Backend hook: a new shard/route exists.  Lets the dashboard
        hub subscribe before the deployment's first events publish."""
        if self.dashboard is not None:
            self.dashboard.on_deployment(deployment)

    # ------------------------------------------------------------------
    # TCP: ingest + subscribe
    # ------------------------------------------------------------------

    async def _handle_tcp(self, reader, writer) -> None:
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        connection.writer_task = asyncio.get_running_loop().create_task(
            connection._write_loop()
        )
        connection.send(protocol.hello())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # line over limit, or peer vanished mid-line
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                    size = protocol.attachment_size(message)
                except protocol.FramingError as exc:
                    self._reply_error(connection, exc)
                    break  # the next line cannot be found
                except protocol.ProtocolError as exc:
                    # bad_json: no n_packets to read, so an attachment
                    # meant for this line is read as lines
                    self._reply_error(connection, exc)
                    continue
                attachment = None
                if size:
                    try:
                        attachment = await reader.readexactly(size)
                    except (asyncio.IncompleteReadError, ConnectionError):
                        break  # EOF inside the attachment: nothing enqueued
                try:
                    self._dispatch(connection, message, attachment)
                except protocol.ProtocolError as exc:
                    self._reply_error(connection, exc)
        finally:
            for deployment in connection.subscriptions:
                self.backend.unsubscribe(deployment, connection.outbox)
            await connection.flush_and_close()
            self._connections.discard(connection)

    def _reply_error(self, connection: _Connection,
                     exc: protocol.ProtocolError) -> None:
        self._protocol_errors[exc.code].inc()
        connection.send(protocol.error(exc.code, str(exc), exc.seq))

    def _dispatch(self, connection: _Connection, message: dict,
                  attachment: Optional[bytes]) -> None:
        """Answer one message; ``attachment`` is the bytes that followed
        an ``n_packets`` header (already read), or None."""
        mtype, seq = protocol._check_envelope(message)
        if attachment is not None and mtype != "ingest":
            raise protocol.ProtocolError(
                "bad_request", "only an ingest carries n_packets", seq
            )
        if mtype == "ingest":
            seq, deployment, batch = protocol.parse_ingest(message, attachment)
            accepted, queued = self.backend.try_enqueue(
                deployment, batch, time.monotonic()
            )
            if accepted:
                connection.send(protocol.ack(seq, len(batch), queued))
            else:
                connection.send(
                    protocol.ack(
                        seq, 0, queued,
                        retry_after=self.config.retry_after_s,
                    )
                )
        elif mtype == "subscribe":
            deployment = protocol.check_deployment(message.get("deployment"), seq)
            self.backend.subscribe(deployment, connection.outbox)
            connection.subscriptions.add(deployment)
            connection.send(protocol.subscribed(seq, deployment))
        else:
            raise protocol.ProtocolError(
                "bad_type", f"unknown message type {mtype!r}", seq
            )

    # ------------------------------------------------------------------
    # HTTP: operator surface
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The ``GET /metrics`` document.

        Synchronous by contract (tests call it via ``run_sync``): the
        session-side counters are those the latest worker ack (or
        drain) carried, on either transport — no worker round trip.
        """
        per_shard = self.backend.shard_snapshots()
        totals = sum_shard_totals(per_shard)
        uptime = (
            None if self._started_at is None
            else round(time.monotonic() - self._started_at, 3)
        )
        return {
            "server": {
                "uptime_s": uptime,
                "deployments": len(per_shard),
                "queue_size": self.config.queue_size,
                "protocol_version": protocol.PROTOCOL_VERSION,
                "backend": self.backend.name,
                "model_version": self.tool.model_version,
            },
            "totals": totals,
            "deployments": per_shard,
        }

    def health_snapshot(self) -> dict:
        """The ``GET /health`` document."""
        import repro

        described = self.backend.describe()
        uptime = (
            None if self._started_at is None
            else round(time.monotonic() - self._started_at, 3)
        )
        return {
            "status": "draining" if self._stopping else "ok",
            "version": repro.__version__,
            "model_version": self.tool.model_version,
            "uptime_s": uptime,
            "deployments": len(self.backend.deployments()),
            "backend": described["backend"],
            "workers": described["workers"],
            "dashboard": self.dashboard is not None,
        }

    async def topology_doc(self, deployment: Optional[str] = None) -> dict:
        """The ``GET /api/topology`` document (cluster-aware).

        Per-node summaries and incident docs come from the router, which
        queries every worker and merges (one deployment lives on exactly
        one worker, so the merge never collides).  Shape is validated by
        :func:`repro.dashboard.topology.validate_topology_doc`.
        """
        from repro.dashboard.topology import assemble_topology, model_doc

        nodes = await self.backend.node_summaries_doc(deployment)
        incidents = await self.backend.incidents_doc(deployment)
        deployments = {
            name: assemble_topology(
                nodes.get(name, []),
                incidents.get(name),
                self.config.positions,
            )
            for name in sorted(set(nodes) | set(incidents))
        }
        uptime = (
            None if self._started_at is None
            else round(time.monotonic() - self._started_at, 3)
        )
        return {
            "ts": time.time(),
            "server": {
                "backend": self.backend.name,
                "model_version": self.tool.model_version,
                "uptime_s": uptime,
            },
            "deployments": deployments,
            "model": model_doc(self.tool),
        }

    async def _handle_http(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            headers = {}
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2 or parts[0] not in ("GET", "POST"):
                self._http_reply(writer, 405, {"error": "GET/POST only"})
                return
            method = parts[0]
            path, _, query = parts[1].partition("?")
            params = {}
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key:
                    params[key] = value
            if method == "POST":
                try:
                    length = int(headers.get("content-length", "0") or 0)
                except ValueError:
                    length = -1
                if length < 0 or length > _LINE_LIMIT:
                    self._http_reply(
                        writer, 400, {"error": "bad Content-Length"}
                    )
                    return
                raw = await reader.readexactly(length) if length else b""
                try:
                    body = json.loads(raw) if raw else {}
                except ValueError:
                    self._http_reply(
                        writer, 400, {"error": "invalid JSON body"}
                    )
                    return
                if path == "/model":
                    doc, status = await self._model_post(body)
                    self._http_reply(writer, status, doc)
                else:
                    self._http_reply(
                        writer, 404, {"error": f"no route POST {path}"}
                    )
            elif path == "/health":
                self._http_reply(writer, 200, self.health_snapshot())
            elif path == "/model":
                self._http_reply(writer, 200, self.models.doc())
            elif path == "/metrics":
                if params.get("format") == "prometheus":
                    # The merged rollup: front door + every worker.
                    merged = await self.backend.merged_registry()
                    self._http_reply_text(writer, 200, merged.to_prometheus())
                else:
                    self._http_reply(writer, 200, self.metrics_snapshot())
            elif path == "/incidents":
                doc = await self.backend.incidents_doc(
                    params.get("deployment")
                )
                self._http_reply(writer, 200, {"deployments": doc})
            elif path in (
                "/dashboard", "/api/topology", "/api/series",
                "/api/incidents/stream",
            ):
                if self.dashboard is None:
                    self._http_reply(writer, 404, {
                        "error": "dashboard disabled; start the sink with "
                        "vn2 serve --dashboard "
                        "(ServiceConfig(dashboard=True))",
                    })
                elif path == "/dashboard":
                    self._http_reply_raw(
                        writer, 200, _dashboard_page(),
                        "text/html; charset=utf-8",
                    )
                elif path == "/api/topology":
                    doc = await self.topology_doc(
                        params.get("deployment") or None
                    )
                    self._http_reply(writer, 200, doc)
                elif path == "/api/series":
                    merged = await self.backend.merged_registry()
                    self._http_reply(writer, 200, {
                        "ts": time.time(), "metrics": merged.snapshot(),
                    })
                else:
                    # The one streaming route: _serve_sse owns the socket
                    # until the client goes away (or is evicted).
                    await self._serve_sse(writer, params)
                    return
            else:
                self._http_reply(writer, 404, {"error": f"no route {path}"})
            await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_sse(self, writer, params) -> None:
        """``GET /api/incidents/stream``: the dashboard's live feed.

        Attaches one bounded-queue client to the hub and pumps frames
        until the browser disconnects or the hub closes the client
        (slow-consumer eviction aborts the transport, which surfaces
        here as a connection error).  Data payloads are the verbatim
        subscribe-protocol event messages — byte-identical JSON to what
        a TCP subscriber (``vn2 watch``) receives.
        """
        import socket as _socket

        from repro.dashboard.sse import SSE_BUFFER_BYTES, format_sse

        # Keep a stalled browser's backlog in the hub's *bounded* client
        # queue — where eviction is defined — rather than in elastic
        # transport/kernel buffers that would hide the stall for
        # hundreds of KB.  SSE frames are a few hundred bytes; these
        # limits are generous for any client that actually reads.
        writer.transport.set_write_buffer_limits(high=SSE_BUFFER_BYTES)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(
                    _socket.SOL_SOCKET, _socket.SO_SNDBUF, SSE_BUFFER_BYTES
                )
            except OSError:  # pragma: no cover - exotic transports
                pass
        client = self.dashboard.attach(
            params.get("deployment") or None,
            on_close=writer.transport.abort,
        )
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        writer.write(format_sse(
            {
                "type": "hello",
                "deployments": sorted(self.backend.deployments()),
                "model_version": self.tool.model_version,
            },
            event="hello",
            retry_ms=2000,
        ))
        try:
            await writer.drain()
            while True:
                frame = await client.next_frame(
                    self.config.dashboard_keepalive_s
                )
                if frame is None:
                    break  # hub closed this client (eviction/shutdown)
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self.dashboard.detach(client)

    async def _model_post(self, body) -> Tuple[dict, int]:
        """``POST /model``: rotate to a saved model, or force a refit.

        Body is either ``{"path": "<model path on the server host>"}``
        (load — integrity-checked — and rotate) or ``{"refit": true}``
        (run a refit cycle now, skipping the drift/min-states gates).
        """
        if not isinstance(body, dict):
            return {"error": "JSON object body required"}, 400
        if body.get("refit"):
            result = await self.models.maybe_refit(force=True)
            if result is None:
                return {
                    "refit": False,
                    "model_version": self.tool.model_version,
                    "reason": self.models.last_error
                    or "no retained exception states",
                }, 200
            return {"refit": True, **result}, 200
        path = body.get("path")
        if not isinstance(path, str) or not path:
            return {"error": "body must carry 'path' or 'refit': true"}, 400
        from repro.core.pipeline import ModelIntegrityError

        try:
            tool = await asyncio.to_thread(VN2.load, path)
        except FileNotFoundError as exc:
            return {"error": str(exc)}, 404
        except (ModelIntegrityError, ValueError, KeyError, OSError) as exc:
            return {"error": f"{type(exc).__name__}: {exc}"}, 400
        result = await self.models.rotate(tool)
        return result, 200

    @staticmethod
    def _http_reply(writer, status: int, body: dict) -> None:
        DiagnosisService._http_reply_raw(
            writer, status, json.dumps(body).encode("utf-8"),
            "application/json",
        )

    @staticmethod
    def _http_reply_text(writer, status: int, body: str) -> None:
        DiagnosisService._http_reply_raw(
            writer, status, body.encode("utf-8"),
            # The Prometheus text exposition content type (format 0.0.4).
            "text/plain; version=0.0.4; charset=utf-8",
        )

    @staticmethod
    def _http_reply_raw(
        writer, status: int, payload: bytes, content_type: str
    ) -> None:
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
        }
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)


def _dashboard_page() -> bytes:
    """The single-file dashboard page, shipped as package data."""
    from importlib.resources import files

    return (
        files("repro.dashboard").joinpath("static/index.html").read_bytes()
    )


# --------------------------------------------------------------------------
# synchronous embedding
# --------------------------------------------------------------------------


@dataclass
class ServiceHandle:
    """A running service owned by a background event-loop thread."""

    service: DiagnosisService
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread
    _stopped: bool = field(default=False, repr=False)

    @property
    def host(self) -> str:
        return self.service.config.host

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def http_port(self) -> int:
        return self.service.http_port

    def call(self, coro_fn, *args):
        """Run a coroutine on the service loop; block for its result."""
        return asyncio.run_coroutine_threadsafe(
            coro_fn(*args), self.loop
        ).result(timeout=60.0)

    def run_sync(self, fn, *args):
        """Run plain callable on the loop thread (shard pokes in tests)."""
        done = threading.Event()
        box = {}

        def _invoke():
            try:
                box["result"] = fn(*args)
            except BaseException as exc:  # surfaced to the caller below
                box["error"] = exc
            done.set()

        self.loop.call_soon_threadsafe(_invoke)
        done.wait(timeout=60.0)
        if "error" in box:
            raise box["error"]
        return box.get("result")

    def stop(self, drain: bool = True) -> None:
        """Drain (optionally), stop the loop and join the thread."""
        if self._stopped:
            return
        self._stopped = True
        asyncio.run_coroutine_threadsafe(
            self.service.stop(drain), self.loop
        ).result(timeout=120.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30.0)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_service_thread(
    tool: VN2,
    config: Optional[ServiceConfig] = None,
    ready_timeout_s: float = 30.0,
) -> ServiceHandle:
    """Start a :class:`DiagnosisService` on a daemon thread; block until
    its ports are bound **and** every shard worker reports ready (on
    the loop: its first tick; processes: every worker heartbeating).  The returned handle is
    a context manager."""
    service = DiagnosisService(tool, config)
    started = threading.Event()
    box: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            loop.run_until_complete(service.start())
            if not loop.run_until_complete(
                service.backend.wait_ready(ready_timeout_s)
            ):
                raise RuntimeError(
                    f"service backend {service.backend.name!r} not ready "
                    f"after {ready_timeout_s}s"
                )
        except BaseException as exc:
            box["error"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if "error" in box:
        raise box["error"]
    return ServiceHandle(service=service, loop=box["loop"], thread=thread)
