"""Incident events encoded once, at the shard, are the generic bytes.

A shard worker writes each :class:`~repro.core.incidents.IncidentEvent`
as its final NDJSON ``event`` line with
:class:`~repro.service.protocol.EventEncoder`; TCP subscribers receive
those bytes and the dashboard's SSE frames are spliced from them.  The
contract is byte equality with the generic path —
``protocol.encode(protocol.event_message(deployment, event))`` and
``format_sse(message, event="incident")`` — checked here on seeded
tracker streams, on hand-made events at the float and integer edges,
and on what a served sink (``--workers 0`` and ``2``) actually sends.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.incidents import (
    Incident,
    IncidentEvent,
    IncidentTracker,
    Observation,
)
from repro.dashboard.sse import DashboardHub, format_sse
from repro.obs import MetricsRegistry
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.loadgen import replay_trace
from repro.service.server import ServiceConfig, start_service_thread

#: Floats ``repr`` writes in every notation it has.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 0.1, 1.0, 3.0,
    123456.789, 1e15, 1e16, 1.7976931348623157e308, -2.5, 1 / 3,
]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
DEPLOYMENTS = ["city", "dép-ü", "雲-7", "a\"b\\c\n"]
HAZARDS = ["routing_loop", "bad_link", "hazard-ä", "風暴 🌩", None]


def _generic(deployment, event) -> bytes:
    return protocol.encode(protocol.event_message(deployment, event))


def _observations(rng, n):
    """A seeded observation stream in canonical order (times rise)."""
    t = 0.0
    big = [2**63, 2**63 + 1, 2**64 + 5, 10**30]
    for _ in range(n):
        t += float(rng.choice([0.0, 1.0, 30.0, 900.0]))
        if rng.random() < 0.1:
            node = int(rng.choice(big))
        else:
            node = int(rng.integers(0, 60))
        strength = (
            float(rng.choice(EDGE_FLOATS)) if rng.random() < 0.3
            else float(rng.random())
        )
        yield Observation(
            node_id=node,
            time_from=t - float(rng.choice([0.0, 60.0, 1e16])),
            time_to=t,
            cause_index=int(rng.integers(0, 8)),
            hazard=HAZARDS[int(rng.integers(0, len(HAZARDS) - 1))],
            strength=strength,
        )


@pytest.mark.parametrize("seed", range(6))
def test_tracker_streams_match_generic_encoder(seed):
    rng = np.random.default_rng(seed)
    deployment = DEPLOYMENTS[seed % len(DEPLOYMENTS)]
    tracker = IncidentTracker(
        time_gap_s=float(rng.choice([10.0, 600.0, 5000.0])),
        registry=MetricsRegistry(enabled=False),
    )
    encoder = protocol.EventEncoder(deployment)
    kinds = set()
    n_events = 0
    for obs in _observations(rng, 600):
        events = tracker.add(obs)
        assert encoder.encode_all(events) == b"".join(
            _generic(deployment, e) for e in events
        )
        kinds.update(e.kind for e in events)
        n_events += len(events)
    flushed = tracker.flush()
    assert encoder.encode_all(flushed) == b"".join(
        _generic(deployment, e) for e in flushed
    )
    assert encoder._nodes == {}  # every closed incident dropped its entry
    assert kinds >= {"open", "update"} and n_events > 600
    assert flushed and all(e.kind == "close" for e in flushed)


def _event(kind, incident_id, node_ids, **fields):
    values = dict(hazard="routing_loop", start=0.0, end=1.0,
                  peak_strength=0.5, total_strength=0.5, n_observations=1)
    values.update(fields)
    time_ = values.pop("time", 1.0)
    return IncidentEvent(kind, Incident(node_ids=tuple(node_ids), **values),
                         incident_id, time_)


def test_joins_at_head_middle_and_tail():
    """One incident's node list grown at every position, re-sent
    unchanged, then closed: each line equals the generic one."""
    deployment = "dép-ü"
    encoder = protocol.EventEncoder(deployment)
    nodes = [50]
    steps = [("open", None)]
    for joined in (10, 90, 30, 30, 2**63 + 7, 0, 70, 50):
        steps.append(("update", joined))
    steps.append(("close", None))
    for count, (kind, joined) in enumerate(steps, start=1):
        if joined is not None and joined not in nodes:
            nodes = sorted(nodes + [joined])
        event = _event(kind, 3, nodes, n_observations=count,
                       total_strength=0.1 * count)
        assert encoder.encode(event) == _generic(deployment, event)
    assert encoder._nodes == {}


@pytest.mark.parametrize("value", EDGE_FLOATS + NON_FINITE)
def test_float_edges(value):
    encoder = protocol.EventEncoder("city")
    for field in ("time", "start", "end", "peak_strength", "total_strength"):
        event = _event("open", 1, [1], **{field: value})
        assert encoder.encode(event) == _generic("city", event)
        encoder._nodes.clear()


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("hazard", HAZARDS)
def test_strings_and_large_ids(deployment, hazard):
    encoder = protocol.EventEncoder(deployment)
    for incident_id, nodes, kind in [
        (1, [0], "open"),
        (2**63, [2**63 - 1, 2**63, 2**64], "open"),
        (2**63, [2**63 - 1, 2**63, 2**64], "update"),
        (10**40, [10**40], "close"),
    ]:
        event = _event(kind, incident_id, nodes, hazard=hazard,
                       n_observations=2**63 + 1)
        assert encoder.encode(event) == _generic(deployment, event)


def _hub_frames(deployment, events):
    """The SSE frames a hub client receives for ``events``."""

    class _Backend:
        @staticmethod
        def deployments():
            return []

        @staticmethod
        def subscribe(deployment, outbox):
            pass

        unsubscribe = subscribe

    class _Service:
        registry = MetricsRegistry(enabled=True)
        backend = _Backend()

    async def _run():
        hub = DashboardHub(_Service(), max_queue=len(events) + 1)
        await hub.start()
        client = hub.attach(deployment=deployment)
        hub._broadcast(
            deployment, protocol.EventEncoder(deployment).encode_all(events)
        )
        frames = []
        while not client.queue.empty():
            frames.append(client.queue.get_nowait())
        await hub.stop()
        return frames

    return asyncio.run(_run())


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_sse_frames_match_format_sse(deployment):
    rng = np.random.default_rng(11)
    tracker = IncidentTracker(registry=MetricsRegistry(enabled=False))
    events = [e for obs in _observations(rng, 40) for e in tracker.add(obs)]
    events += tracker.flush()
    frames = _hub_frames(deployment, events)
    assert frames == [
        format_sse(protocol.event_message(deployment, e), event="incident")
        for e in events
    ]


# --------------------------------------------------------------------------
# served bytes: --workers 0 and --workers 2
# --------------------------------------------------------------------------


class _Reader(threading.Thread):
    """Collect everything a socket receives until EOF (or a timeout)."""

    def __init__(self, sock):
        super().__init__(daemon=True)
        self.sock = sock
        self.data = b""
        sock.settimeout(120.0)
        self.start()

    def run(self):
        try:
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    return
                self.data += chunk
        except OSError:
            return


@pytest.mark.parametrize("workers", [0, 2])
def test_served_event_bytes_equal_generic_encoder(
    testbed_tool, testbed_trace, workers
):
    frame = testbed_trace
    deployment = "bytes-check"
    reference = []  # (event, flushed)
    for update in testbed_tool.diagnose_stream(frame):
        reference.extend((e, update.state is None) for e in update.events)
    pushed = [e for e, flushed in reference if not flushed]
    expected = [_generic(deployment, e) for e, _ in reference]
    assert pushed and len(pushed) < len(expected)

    config = ServiceConfig(port=0, http_port=0, workers=workers,
                           heartbeat_s=0.1, dashboard=True,
                           dashboard_queue=len(pushed) + 16)
    handle = start_service_thread(testbed_tool, config)
    try:
        sse_sock = socket.create_connection(("127.0.0.1", handle.http_port))
        sse_sock.sendall(
            b"GET /api/incidents/stream?deployment=" + deployment.encode()
            + b" HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        sse = _Reader(sse_sock)
        sub_sock = socket.create_connection(("127.0.0.1", handle.port))
        sub_sock.sendall(protocol.encode(protocol.subscribe(deployment, 1)))
        sub = _Reader(sub_sock)
        deadline = time.monotonic() + 30.0
        while b'"subscribed"' not in sub.data:
            assert time.monotonic() < deadline, "subscribe never answered"
            time.sleep(0.01)
        with ServiceClient("127.0.0.1", handle.port) as client:
            replay_trace(client, deployment, frame, batch_size=64)
        while sse.data.count(b"event: incident\n") < len(pushed):
            assert time.monotonic() < deadline + 60.0, "SSE frames missing"
            time.sleep(0.02)
    finally:
        handle.stop(drain=True)
    sub.join(timeout=30.0)
    sse_sock.close()
    sse.join(timeout=30.0)
    assert not sub.is_alive()
    served = [
        line + b"\n" for line in sub.data.split(b"\n")
        if line.startswith(b'{"v":1,"type":"event"')
    ]
    sub_sock.close()
    assert served == expected
    body = sse.data.partition(b"\r\n\r\n")[2]
    frames = [
        block + b"\n\n" for block in body.split(b"\n\n")
        if block.startswith(b"event: incident\n")
    ]
    assert frames == [
        format_sse(protocol.event_message(deployment, e), event="incident")
        for e in pushed
    ]
