"""Shard worker: the one place a deployment's diagnosis session lives.

A :class:`ShardWorker` owns a set of deployment shards — each a private
:class:`~repro.core.streaming.StreamingDiagnosisSession` — and answers
the internal worker messages of :mod:`repro.service.protocol` through
:meth:`ShardWorker.handle`.  It runs behind one of two transports, both
driven by :class:`~repro.service.backends.ShardRouter`:

* :class:`LoopTransport` — one worker (``w0``) on the front door's own
  event loop (``workers=0``, the default);
* :func:`worker_main` — the pipe loop each
  :class:`repro.runner.pool.ProcessPool` child runs (``workers=N``).

The messages:

* ``ingest`` batches arrive **already parsed** (the front door validated
  them once) as one :class:`~repro.core.streaming.PacketBatch`; the
  worker hands it to its session's ``push_batch`` and answers ``w_ack``
  carrying the incident events the batch emitted as their final NDJSON
  ``event`` lines (one bytes object, in emission order, encoded once by
  the deployment's :class:`~repro.service.protocol.EventEncoder`), their
  count, and the session counters.  Both
  transports are FIFO both ways, so one deployment's events reach the
  front door in exactly the order its session produced them — the
  per-deployment ordering guarantee needs nothing more.
* ``drain`` flushes one shard (shard handoff / rebalance); ``drain_all``
  flushes everything, ships the worker's metrics-registry dump in
  ``w_bye``, and ends the transport — the graceful-SIGTERM path.
* Heartbeats go up whenever the pipe has been idle for a beat, so the
  front door can gate readiness (``--ready-file``) and notice wedged
  workers without extra machinery.

Sessions are created lazily on first use.  That makes worker-death
handoff trivially robust: the surviving worker that inherits a
deployment needs no setup message — the first replayed batch
materializes a fresh session.  Each session stamps its metrics with
``{"deployment", "worker"}`` labels so the merged rollup never
collapses two workers' series (and a handed-off deployment's history
stays attributed to the worker that produced it).
"""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from typing import Dict, Optional

from repro.obs import MetricsRegistry
from repro.service import protocol

__all__ = ["LoopTransport", "ShardWorker", "worker_main"]

#: Default seconds of pipe idleness between heartbeats.
HEARTBEAT_S = 0.5

#: Session-construction knobs a :class:`ShardWorker` forwards from its
#: ``options`` dict (the router fills them from ``ServiceConfig``).
SESSION_OPTION_KEYS = (
    "positions", "threshold_ratio", "max_epoch_gap", "min_strength",
    "time_gap_s", "radius_m", "max_closed_incidents",
    "keep_exception_states",
)


def _tracker_doc(tracker) -> dict:
    """One deployment's ``/incidents`` entry."""
    return {
        "open": [
            protocol.incident_obj(i) for i in tracker.open_incidents()
        ],
        "closed": [protocol.incident_obj(i) for i in tracker.incidents],
        "closed_total": tracker.n_closed_total,
        "evicted": tracker.n_evicted,
    }


class ShardWorker:
    """The shard state machine, independent of its transport.

    Args:
        worker_id: Pool-assigned id (``w0``…); becomes the ``worker``
            metric label on every session this worker creates.
        tool: The fitted model (read-only; rides the fork).
        options: Session kwargs (:data:`SESSION_OPTION_KEYS`) plus
            ``heartbeat_s``.
    """

    def __init__(self, worker_id: str, tool, options: Optional[dict] = None):
        self.worker_id = worker_id
        self.tool = tool
        self.options = dict(options or {})
        self.registry = MetricsRegistry(enabled=True)
        self.sessions: Dict[str, object] = {}
        #: deployment -> its session's event encoder (same lifetime).
        self.encoders: Dict[str, protocol.EventEncoder] = {}
        self.n_packets = 0

    def session(self, deployment: str):
        """The deployment's session, created on first use."""
        session = self.sessions.get(deployment)
        if session is None:
            from repro.core.streaming import StreamingDiagnosisSession

            kwargs = {
                key: self.options[key]
                for key in SESSION_OPTION_KEYS
                if key in self.options
            }
            session = StreamingDiagnosisSession(
                self.tool,
                registry=self.registry,
                metric_labels={
                    "deployment": deployment,
                    "worker": self.worker_id,
                    "model_version": self.tool.model_version,
                },
                **kwargs,
            )
            self.sessions[deployment] = session
            self.encoders[deployment] = protocol.EventEncoder(deployment)
        return session

    # -- message handlers (each returns its reply, a list, or None) ----

    def handle_assign(self, msg: dict) -> None:
        # Routing is the front door's job; materializing the session now
        # just warms it up before the first batch lands.
        self.session(msg["deployment"])
        return None

    def handle_ingest(self, msg: dict) -> dict:
        deployment = msg["deployment"]
        session = self.session(deployment)
        batch = msg["batch"]
        events = session.push_batch(batch)
        self.n_packets += len(batch)
        return protocol.worker_ack(
            deployment, msg["batch_id"], len(batch),
            self.encoders[deployment].encode_all(events), len(events),
            session.counters(),
        )

    def handle_drain(self, msg: dict) -> dict:
        deployment = msg["deployment"]
        session = self.sessions.pop(deployment, None)
        encoder = self.encoders.pop(deployment, None)
        if session is None:
            return protocol.worker_drained(deployment, b"", 0, {})
        events = session.finish()
        return protocol.worker_drained(
            deployment, encoder.encode_all(events), len(events),
            session.counters(),
        )

    def handle_drain_all(self, msg: dict) -> list:
        """Flush every shard: the ``w_drained`` messages, then ``w_bye``."""
        replies = [
            self.handle_drain({"deployment": deployment})
            for deployment in sorted(self.sessions)
        ]
        replies.append(protocol.worker_bye(self.worker_id, self.registry.dump()))
        return replies

    def handle_metrics_query(self, msg: dict) -> dict:
        shards = [
            {"deployment": name, **session.counters()}
            for name, session in sorted(self.sessions.items())
        ]
        return protocol.worker_metrics(
            msg["req"], self.worker_id, self.registry.dump(), shards
        )

    def handle_incidents_query(self, msg: dict) -> dict:
        target = msg.get("deployment")
        names = [target] if target is not None else sorted(self.sessions)
        out = {}
        for name in names:
            session = self.sessions.get(name)
            if session is not None:
                out[name] = _tracker_doc(session.tracker)
        return protocol.worker_incidents(msg["req"], self.worker_id, out)

    def handle_topology_query(self, msg: dict) -> dict:
        target = msg.get("deployment")
        names = [target] if target is not None else sorted(self.sessions)
        nodes = {}
        for name in names:
            session = self.sessions.get(name)
            if session is not None:
                nodes[name] = session.node_summaries()
        return protocol.worker_topology(msg["req"], self.worker_id, nodes)

    def handle_model_update(self, msg: dict) -> dict:
        """Rotate every live session to the new model, atomically.

        The pipe is FIFO: this message lands strictly between two ingest
        batches, so each shard's rotation boundary is a deterministic
        packet count — no batch is ever split across models.  New sessions
        created after this point serve the new model too.
        """
        tool = msg["tool"]
        self.tool = tool
        boundaries = {
            name: session.set_model(tool)
            for name, session in sorted(self.sessions.items())
        }
        return protocol.worker_model(
            msg["req"], self.worker_id, tool.model_version, boundaries
        )

    def handle_states_query(self, msg: dict) -> dict:
        """Ship each session's retained exception states to the front door
        (drained — a state is only ever absorbed once)."""
        states = {}
        drift = {}
        for name, session in sorted(self.sessions.items()):
            drained = session.drain_exception_states()
            if len(drained):
                states[name] = drained
            drift[name] = session.drift_score
        return protocol.worker_states(
            msg["req"], self.worker_id, states, drift
        )

    def heartbeat(self) -> dict:
        return protocol.worker_heartbeat(
            self.worker_id, os.getpid(), time.time(),
            len(self.sessions), self.n_packets,
        )

    def handle(self, msg: dict) -> list:
        """Answer one front-door message: its replies, in send order.

        Dispatches to ``handle_<type>``, looked up on the class at call
        time.  A failing handler is answered with ``w_error`` so the
        worker keeps serving its other shards; a malformed or upstream
        message raises :class:`~repro.service.protocol.ProtocolError`.
        """
        mtype = protocol.check_worker_message(msg)
        if mtype not in protocol.WORKER_DOWN_TYPES:
            raise protocol.ProtocolError(
                "bad_type", f"unexpected downstream {mtype!r}"
            )
        try:
            reply = getattr(self, f"handle_{mtype}")(msg)
        except Exception as exc:
            traceback.print_exc()
            return [
                protocol.worker_error(
                    self.worker_id, f"{type(exc).__name__}: {exc}",
                    msg.get("deployment"),
                )
            ]
        if reply is None:
            return []
        return reply if isinstance(reply, list) else [reply]


def worker_main(conn, worker_id: str, tool, options: Optional[dict] = None) -> None:
    """Child-process entry point: pipe loop around a :class:`ShardWorker`.

    Protocol: send ``w_hello``, then serve messages until ``drain_all``
    (graceful exit) or pipe EOF (the front door died — exit quietly; an
    orphaned diagnosis worker has nobody to report to).
    """
    state = ShardWorker(worker_id, tool, options)
    heartbeat_s = float(state.options.get("heartbeat_s", HEARTBEAT_S))
    try:
        conn.send(protocol.worker_hello(worker_id, os.getpid()))
        while True:
            if not conn.poll(heartbeat_s):
                conn.send(state.heartbeat())
                continue
            msg = conn.recv()
            for reply in state.handle(msg):
                conn.send(reply)
            if msg["type"] == "drain_all":
                return
    except (EOFError, OSError, BrokenPipeError, KeyboardInterrupt):
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass


#: Messages the in-loop transport queues behind earlier ones: those whose
#: effect depends on where they fall in a deployment's packet stream.
ORDERED_TYPES = frozenset({"ingest", "drain", "drain_all", "model_update"})


class LoopTransport:
    """One :class:`ShardWorker` (``w0``) on the front door's event loop.

    Offers the :class:`repro.runner.pool.ProcessPool` methods the router
    calls, and hands every reply straight to ``on_message`` on the loop.
    Order-sensitive messages (:data:`ORDERED_TYPES`) wait in one FIFO
    consumed one message per loop tick — a model rotation stays a
    barrier between two batches, and the listeners stay responsive under
    an ingest burst.  Queries are answered at once, so ``/incidents`` and
    scrapes never wait behind a backlog.
    """

    def __init__(self, tool, options: Optional[dict], on_message):
        self.worker = ShardWorker("w0", tool, options)
        self._on_message = on_message
        self._fifo: Optional[asyncio.Queue] = None
        self._resume: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._fifo = asyncio.Queue()
        self._resume = asyncio.Event()
        self._resume.set()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="shard-worker:w0"
        )

    def pids(self) -> Dict[str, int]:
        return {"w0": os.getpid()}

    def send(self, worker_id: str, message: dict) -> None:
        if message["type"] in ORDERED_TYPES:
            self._fifo.put_nowait(message)
        else:
            self._deliver(message)

    def broadcast(self, message: dict) -> None:
        self.send("w0", message)

    def _deliver(self, message: dict) -> None:
        for reply in self.worker.handle(message):
            self._on_message("w0", reply)

    async def _run(self) -> None:
        self._on_message("w0", protocol.worker_hello("w0", os.getpid()))
        self._on_message("w0", self.worker.heartbeat())
        while True:
            message = await self._fifo.get()
            await self._resume.wait()
            self._deliver(message)
            if message["type"] == "drain_all":
                return
            await asyncio.sleep(0)

    # -- test hook: freeze the worker to observe backpressure ----------

    def pause(self) -> None:
        """Stop consuming the FIFO (batches keep queueing up)."""
        self._resume.clear()

    def unpause(self) -> None:
        self._resume.set()

    # -- lifecycle (callable from any thread, like the pool's) ---------

    def stop(self, timeout: Optional[float] = None) -> None:
        task = self._task
        if task is not None and not task.done():
            task.get_loop().call_soon_threadsafe(task.cancel)

    terminate = stop
