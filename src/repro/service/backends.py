"""Shard routing: the front door's half of every deployment.

A deployment's :class:`~repro.core.streaming.StreamingDiagnosisSession`
lives in a :class:`~repro.service.worker.ShardWorker` and nowhere else.
The front door keeps one :class:`ShardRoute` per deployment and a single
:class:`ShardRouter` that routes batches to workers by consistent
hashing on the deployment name (:class:`HashRing`) over one of two
transports:

* ``workers=0`` (the default) — a
  :class:`~repro.service.worker.LoopTransport`: one worker, ``w0``, on
  the front door's own event loop.
* ``workers=N`` (N >= 1) — a :class:`repro.runner.pool.ProcessPool` of
  N forked :func:`~repro.service.worker.worker_main` processes.

Both speak the same worker messages, and the router handles every reply
in one place (:meth:`ShardRouter._handle`).  Per-deployment ordering
holds because one deployment maps to one worker and both transports are
FIFO both ways.

Failure semantics (the sink's contract):

* **Backpressure** is per deployment and explicit: a route tracks
  packets sent-but-unacked, and a batch that would push it past
  ``queue_size`` is rejected with ``retry_after`` — never dropped.
* **Worker death** (pipe transport) is observed as pipe EOF.  The dead
  worker leaves the hash ring, its deployments remap to survivors
  (minimal movement — that is the point of the ring), and every unacked
  batch is replayed in order to the new owner, whose session
  materializes fresh on the first replayed packet.  Delivery is
  therefore *at least once* across a crash: a batch the dead worker had
  half-diagnosed is diagnosed again, but no accepted packet is ever lost.
* **Graceful drain** (SIGTERM) broadcasts ``drain_all``; FIFO order
  guarantees every accepted batch is diagnosed before the worker
  flushes open incidents and reports ``w_bye`` with its final metrics
  dump.

Metrics: each route keeps front-door :class:`ShardCounters` (labelled
``{"deployment"}``), workers keep their sessions' series labelled
``{"deployment", "worker"}``, and the Prometheus scrape is rendered via
:func:`repro.obs.merge_dumps` over the front door's registry dump plus
the latest dump from every worker.
"""

from __future__ import annotations

import asyncio
import bisect
import time
import weakref
from collections import OrderedDict
from hashlib import sha256
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.obs import merge_dumps
from repro.service import protocol
from repro.service.metrics import (
    LatencyWindow,
    ShardCounters,
    empty_session_counters,
)
# Re-exported: the benchmark's output check builds its /incidents
# expectation with it.
from repro.service.worker import _tracker_doc  # noqa: F401

__all__ = ["HashRing", "ShardRoute", "ShardRouter"]


class HashRing:
    """Consistent hashing over worker ids (sha256, virtual nodes).

    ``lookup(key)`` walks clockwise from the key's point to the next
    virtual node.  Removing a node only remaps the keys that hashed to
    its arcs — the property the cluster's worker-death handoff relies on
    to move as few deployments as possible.
    """

    def __init__(self, nodes=(), replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self.nodes: Set[str] = set()
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(sha256(key.encode("utf-8")).digest()[:8], "big")

    def add(self, node: str) -> None:
        if node in self.nodes:
            return
        self.nodes.add(node)
        for replica in range(self.replicas):
            point = self._hash(f"{node}#{replica}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        if node not in self.nodes:
            return
        self.nodes.discard(node)
        kept = [
            (p, o) for p, o in zip(self._points, self._owners) if o != node
        ]
        self._points = [p for p, _ in kept]
        self._owners = [o for _, o in kept]

    def lookup(self, key: str) -> Optional[str]:
        """The node owning ``key`` (None when the ring is empty)."""
        if not self._points:
            return None
        index = bisect.bisect(self._points, self._hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]


def _merged(replies: List[dict], key: str) -> dict:
    """Union of the per-worker ``key`` maps, sorted by deployment (one
    deployment lives on exactly one worker, so nothing collides)."""
    out: dict = {}
    for reply in replies:
        out.update(reply.get(key) or {})
    return dict(sorted(out.items()))


class ShardRoute:
    """Front-door state for one deployment routed to a worker."""

    def __init__(self, name: str, router: "ShardRouter"):
        service = router.service
        config = service.config
        labels = {"deployment": name}
        self.name = name
        self.worker_id: Optional[str] = router.ring.lookup(name)
        self.pending = 0  #: packets sent to the worker, not yet acked
        self.peak_pending = 0
        self.batch_seq = 0
        #: batch_id -> (PacketBatch, enqueued_at); insertion order is
        #: send order, which is what a crash replay must preserve.
        self.unacked: "OrderedDict[int, tuple]" = OrderedDict()
        self.counters = ShardCounters(
            latency=LatencyWindow(config.latency_window),
            registry=service.registry,
            labels=labels,
        )
        self.subscribers: Set[asyncio.Queue] = set()
        #: Session counters the owning worker's last ack/drain carried.
        self.session_counters: dict = empty_session_counters()
        ref = weakref.ref(self)
        service.registry.gauge(
            "repro_service_queue_depth_packets",
            "Packets queued but not yet diagnosed",
            labels,
            fn=lambda: float(ref().pending) if ref() is not None else 0.0,
        )
        service.registry.gauge(
            "repro_service_subscribers",
            "Live event subscribers of this deployment",
            labels,
            fn=lambda: (
                float(len(ref().subscribers)) if ref() is not None else 0.0
            ),
        )

    def publish(self, lines: bytes, n_events: int) -> None:
        """Fan worker-encoded incident events out to subscribers.

        ``lines`` are the ``n_events`` wire ``event`` lines the worker's
        :class:`~repro.service.protocol.EventEncoder` wrote, in emission
        order; every subscriber's outbox receives the same bytes object.
        """
        if not n_events:
            return
        self.counters.add_events_emitted(n_events)
        for outbox in self.subscribers:
            outbox.put_nowait(lines)

    def snapshot(self) -> dict:
        """The ``/metrics`` entry for this deployment."""
        return {
            **self.session_counters,
            **self.counters.snapshot(),
            "queue_depth_packets": self.pending,
            "queue_peak_packets": self.peak_pending,
            "subscribers": len(self.subscribers),
            "worker": self.worker_id,
        }


class ShardRouter:
    """Routes deployments to shard workers over one transport.

    Sync methods run on the server's event loop (dispatch path); async
    methods are awaited by lifecycle and HTTP handlers.  ``try_enqueue``
    is atomic — either the whole batch is accepted (and will be
    diagnosed exactly in order within its deployment) or nothing is.

    ``transport`` is set by :meth:`start`: a
    :class:`~repro.service.worker.LoopTransport` at ``workers=0``, a
    :class:`~repro.runner.pool.ProcessPool` otherwise.
    """

    def __init__(self, service):
        self.service = service
        self.name = "pool" if service.config.workers else "inproc"
        self.ring = HashRing()
        self.routes: Dict[str, ShardRoute] = {}
        self.transport = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready: Optional[asyncio.Event] = None
        self._draining = False
        #: worker_id -> {"pid", "hello", "beats", "last_beat", "alive",
        #:               "bye": Future}
        self._workers: Dict[str, dict] = {}
        #: worker_id -> latest registry dump (w_metrics or w_bye).
        self._dumps: Dict[str, dict] = {}
        self._req_seq = 0
        #: req id -> {"waiting": set, "future", "replies": dict}
        self._requests: Dict[int, dict] = {}
        registry = service.registry
        self._m_handoffs = registry.counter(
            "repro_service_worker_handoffs_total",
            "Deployments remapped off a dead worker",
        )
        self._m_replayed = registry.counter(
            "repro_service_packets_replayed_total",
            "Packets resent to a surviving worker after a crash",
        )
        self._m_worker_errors = registry.counter(
            "repro_service_worker_errors_total",
            "w_error messages received from shard workers",
        )
        registry.gauge(
            "repro_service_workers_alive",
            "Live shard worker processes",
            fn=lambda: float(len(self.ring.nodes)),
        )

    # -- lifecycle -----------------------------------------------------

    def _worker_options(self) -> dict:
        config = self.service.config
        return {
            "positions": config.positions,
            "threshold_ratio": config.threshold_ratio,
            "max_epoch_gap": config.max_epoch_gap,
            "min_strength": config.min_strength,
            "time_gap_s": config.time_gap_s,
            "radius_m": config.radius_m,
            "max_closed_incidents": config.max_closed_incidents,
            "keep_exception_states": config.keep_exception_states,
            "heartbeat_s": config.heartbeat_s,
        }

    async def start(self) -> None:
        from repro.runner.pool import ProcessPool
        from repro.service import worker

        self._loop = asyncio.get_running_loop()
        self._ready = asyncio.Event()
        tool, options = self.service.tool, self._worker_options()
        n_workers = self.service.config.workers
        if n_workers:
            self.transport = ProcessPool(
                worker.worker_main,
                n_workers,
                args=(tool, options),
                on_message=self._on_pipe_message,
            )
        else:
            self.transport = worker.LoopTransport(tool, options, self._handle)
        self.transport.start()
        for worker_id, pid in self.transport.pids().items():
            self.ring.add(worker_id)
            self._workers[worker_id] = {
                "pid": pid,
                "hello": False,
                "beats": 0,
                "last_beat": None,
                "alive": True,
                "bye": self._loop.create_future(),
            }

    async def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """True once every worker has said hello and heartbeated."""
        assert self._ready is not None, "router not started"
        try:
            await asyncio.wait_for(self._ready.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def drain(self) -> None:
        """Graceful shutdown: every accepted packet diagnosed, incidents
        flushed (published to subscribers), workers ended via ``w_bye``."""
        self._draining = True
        if self.transport is None:
            return
        byes = [
            info["bye"] for info in self._workers.values()
            if info["alive"] and not info["bye"].done()
        ]
        self.transport.broadcast(protocol.drain_all())
        if byes:
            await asyncio.wait(
                byes, timeout=self.service.config.drain_timeout_s
            )
        await asyncio.to_thread(self.transport.stop, 5.0)

    async def abort(self) -> None:
        """Shut down without draining (the fast test-teardown path)."""
        self._draining = True
        if self.transport is not None:
            await asyncio.to_thread(self.transport.terminate)

    # -- dispatch path -------------------------------------------------

    def route(self, deployment: str) -> ShardRoute:
        """The deployment's route, created (and assigned) on first use."""
        route = self.routes.get(deployment)
        if route is None:
            route = self.routes[deployment] = ShardRoute(deployment, self)
            if route.worker_id is not None:
                self.transport.send(
                    route.worker_id,
                    protocol.assign(deployment, route.worker_id),
                )
            self.service._deployment_materialized(deployment)
        return route

    def try_enqueue(self, deployment: str, batch, now: float) -> Tuple[bool, int]:
        """Atomically accept or backpressure one batch → (accepted, queued)."""
        route = self.route(deployment)
        if route.worker_id is None:
            # The ring was empty at route creation (all workers dead);
            # a later lookup may succeed if that ever changes.
            route.worker_id = self.ring.lookup(deployment)
        config = self.service.config
        if (
            route.worker_id is None
            or route.pending + len(batch) > config.queue_size
        ):
            route.counters.add_batch_rejected()
            return False, route.pending
        route.batch_seq += 1
        batch_id = route.batch_seq
        route.unacked[batch_id] = (batch, now)
        route.pending += len(batch)
        route.peak_pending = max(route.peak_pending, route.pending)
        route.counters.add_batch_accepted(len(batch))
        self.transport.send(
            route.worker_id,
            protocol.shard_ingest(deployment, batch_id, batch),
        )
        return True, route.pending

    def deployments(self) -> List[str]:
        return list(self.routes)

    def subscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        self.route(deployment).subscribers.add(outbox)

    def unsubscribe(self, deployment: str, outbox: asyncio.Queue) -> None:
        route = self.routes.get(deployment)
        if route is not None:
            route.subscribers.discard(outbox)

    # -- worker messages -----------------------------------------------

    def _on_pipe_message(self, worker_id: str, message: dict) -> None:
        """Pool reader thread -> event loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._handle, worker_id, message)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _handle(self, worker_id: str, message: dict) -> None:
        from repro.runner.pool import WORKER_LOST

        mtype = message.get("type")
        if mtype == WORKER_LOST:
            self._on_worker_lost(worker_id)
            return
        info = self._workers.get(worker_id)
        if info is None:
            return
        if mtype == "w_hello":
            info["hello"] = True
            info["pid"] = message.get("pid", info["pid"])
        elif mtype == "w_heartbeat":
            info["beats"] += 1
            info["last_beat"] = message.get("ts")
            self._check_ready()
        elif mtype == "w_ack":
            route = self.routes.get(message["deployment"])
            if route is None:
                return
            entry = route.unacked.pop(message["batch_id"], None)
            if entry is not None:
                batch, enqueued_at = entry
                route.pending -= len(batch)
                route.counters.observe_latency(
                    time.monotonic() - enqueued_at
                )
            if message.get("counters"):
                route.session_counters = message["counters"]
            route.publish(message["lines"], message["n_events"])
        elif mtype == "w_drained":
            route = self.routes.get(message["deployment"])
            if route is not None:
                if message.get("counters"):
                    route.session_counters = message["counters"]
                route.publish(message["lines"], message["n_events"])
        elif mtype == "w_bye":
            self._dumps[worker_id] = message.get("dump") or {}
            if not info["bye"].done():
                info["bye"].set_result(True)
        elif mtype in (
            "w_metrics", "w_incidents", "w_model", "w_states", "w_topology"
        ):
            if mtype == "w_metrics":
                self._dumps[worker_id] = message.get("dump") or {}
            request = self._requests.get(message.get("req"))
            if request is not None and worker_id in request["waiting"]:
                request["waiting"].discard(worker_id)
                request["replies"][worker_id] = message
                if not request["waiting"] and not request["future"].done():
                    request["future"].set_result(request["replies"])
        elif mtype == "w_error":
            self._m_worker_errors.inc()

    def _check_ready(self) -> None:
        if self._ready is None or self._ready.is_set():
            return
        if all(
            info["hello"] and info["beats"] >= 1
            for info in self._workers.values()
        ):
            self._ready.set()

    def _on_worker_lost(self, worker_id: str) -> None:
        info = self._workers.get(worker_id)
        if info is None or not info["alive"]:
            return
        info["alive"] = False
        self.ring.remove(worker_id)
        if not info["bye"].done():
            # Death during drain: unblock the waiter; the worker's
            # accepted-but-undiagnosed work is gone with it.
            info["bye"].set_result(False)
        # A dead worker will never answer an in-flight operator query
        # (metrics/incidents/model/states): drop it from every pending
        # request so gathers resolve with the survivors' replies instead
        # of stalling to the timeout.
        for request in self._requests.values():
            if worker_id in request["waiting"]:
                request["waiting"].discard(worker_id)
                if not request["waiting"] and not request["future"].done():
                    request["future"].set_result(request["replies"])
        if self._draining:
            return
        for route in self.routes.values():
            if route.worker_id != worker_id:
                continue
            new_worker = self.ring.lookup(route.name)
            route.worker_id = new_worker
            self._m_handoffs.inc()
            if new_worker is None:
                continue  # no survivors: unacked kept, ingest backpressures
            self.transport.send(
                new_worker, protocol.assign(route.name, new_worker)
            )
            replayed = 0
            for batch_id, (batch, _t0) in route.unacked.items():
                self.transport.send(
                    new_worker,
                    protocol.shard_ingest(route.name, batch_id, batch),
                )
                replayed += len(batch)
            if replayed:
                self._m_replayed.inc(replayed)

    # -- chaos / introspection -----------------------------------------

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL one pool worker (the chaos hook CI's cluster job uses)."""
        self.transport.kill(worker_id)

    def describe(self) -> dict:
        """The ``/health`` backend section (worker ids/pids/liveness)."""
        return {
            "backend": self.name,
            "workers": [
                {
                    "id": worker_id,
                    "pid": info["pid"],
                    "alive": info["alive"],
                    "beats": info["beats"],
                }
                for worker_id, info in sorted(self._workers.items())
            ],
        }

    def shard_snapshots(self) -> Dict[str, dict]:
        """Per-deployment ``/metrics`` entries, as fresh as the last ack."""
        return {
            name: route.snapshot()
            for name, route in sorted(self.routes.items())
        }

    # -- operator queries ----------------------------------------------

    async def _ask(self, message_of: Callable[[int], dict],
                   timeout: float) -> List[dict]:
        """Send one query to every live worker; gather their replies.

        Resolves early when every live worker answered (a worker that
        dies meanwhile is pruned by :meth:`_on_worker_lost`); on timeout
        it returns whatever arrived.
        """
        alive = [
            wid for wid, info in self._workers.items() if info["alive"]
        ]
        if not alive or self._draining:
            return []
        self._req_seq += 1
        req = self._req_seq
        request = {
            "waiting": set(alive),
            "replies": {},
            "future": self._loop.create_future(),
        }
        self._requests[req] = request
        try:
            for worker_id in alive:
                self.transport.send(worker_id, message_of(req))
            try:
                await asyncio.wait_for(request["future"], timeout)
            except asyncio.TimeoutError:
                pass
        finally:
            self._requests.pop(req, None)
        return list(request["replies"].values())

    async def merged_registry(self, timeout: float = 5.0):
        """The front door's registry merged with a fresh dump from every
        worker: what ``/metrics?format=prometheus`` and ``/api/series``
        render."""
        # Each w_metrics reply replaces that worker's entry in _dumps.
        await self._ask(protocol.metrics_query, timeout)
        return merge_dumps(
            [self.service.registry.dump()] + list(self._dumps.values())
        )

    async def incidents_doc(
        self, deployment: Optional[str] = None, timeout: float = 5.0
    ) -> dict:
        """Deployment → open/closed incidents (the ``/incidents`` feed)."""
        replies = await self._ask(
            lambda req: protocol.incidents_query(req, deployment), timeout
        )
        return _merged(replies, "incidents")

    async def node_summaries_doc(
        self, deployment: Optional[str] = None, timeout: float = 5.0
    ) -> Dict[str, list]:
        """Deployment → per-node summary list (the ``/api/topology`` feed),
        from each live session's
        :meth:`~repro.core.streaming.StreamingDiagnosisSession.node_summaries`."""
        replies = await self._ask(
            lambda req: protocol.topology_query(req, deployment), timeout
        )
        return _merged(replies, "nodes")

    async def rotate_model(self, tool, timeout: float = 30.0) -> Dict[str, dict]:
        """Atomically swap every live session to ``tool`` mid-stream.

        Broadcasts ``model_update``: each transport is FIFO, so the
        update lands strictly between two ingest batches on every shard
        — no batch is split across models, no event is dropped,
        duplicated or reordered.  Returns deployment → rotation boundary
        (``{"packets", "states"}``).  ``service.tool`` is updated too,
        keeping ``/health`` and future restarts consistent.
        """
        self.service.tool = tool
        replies = await self._ask(
            lambda req: protocol.model_update(req, tool, tool.model_version),
            timeout,
        )
        return _merged(replies, "boundaries")

    async def collect_refit_states(
        self, timeout: float = 10.0
    ) -> Tuple[Dict[str, object], Dict[str, float]]:
        """Drain retained exception states and drift scores per shard:
        ``(states, drift)``, deployment → drained
        :class:`~repro.core.states.StateMatrix` (omitted when empty) and
        deployment → drift score."""
        replies = await self._ask(protocol.states_query, timeout)
        return _merged(replies, "states"), _merged(replies, "drift")
