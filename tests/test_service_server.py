"""The sink server, driven over real sockets.

The acceptance criteria of the service PR live here:

* **Differential**: a trace replayed through the server for one
  deployment produces the exact same incident-event objects — bit-
  identical strengths — as :meth:`VN2.diagnose_stream` on the same trace
  (the drain flush included), whether the shard worker runs on the
  server's event loop (``workers=0``) or in one forked process
  (``workers=1``); both transports also serve the same ``/incidents``
  and ``/api/topology`` node summaries.
* **Sharding**: two deployments fed interleaved batches diagnose
  concurrently without cross-talk; each matches its own solo replay.
* **Backpressure**: a full queue yields explicit ``retry_after`` acks
  and the SDK's retry loop eventually lands every packet — nothing is
  dropped.

Servers run on ephemeral ports in a background event-loop thread
(:func:`start_service_thread`); clients are the real SDK.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.streaming import iter_packets
from repro.service import protocol
from repro.service.client import ServiceClient, http_get_json
from repro.service.loadgen import replay_trace
from repro.service.server import ServiceConfig, start_service_thread


def _reference_events(tool, source):
    """Incident-event objects of a local (in-process) streaming replay."""
    events = []
    for update in tool.diagnose_stream(source):
        events.extend(protocol.incident_event_obj(e) for e in update.events)
    return events


class _Subscriber(threading.Thread):
    """Subscribe synchronously, then collect events until the server closes.

    The subscription handshake completes in ``__init__`` so a test can
    start ingesting immediately after construction without racing the
    subscribe past the first event.
    """

    def __init__(self, port: int, deployment: str):
        super().__init__(daemon=True)
        self.client = ServiceClient(port=port)
        self.client._ensure_connected()
        reply = self.client._roundtrip(protocol.subscribe(deployment, 1))
        reply.pop("_reconnects", None)
        assert reply == protocol.subscribed(1, deployment)
        self.events = []
        self.start()

    def run(self):
        while True:
            try:
                message = self.client._read_message()
            except (ConnectionError, OSError):
                return
            if message.get("type") == "event":
                self.events.append(message["event"])


@pytest.fixture(scope="module")
def testbed_frame(testbed_trace):
    return testbed_trace


#: workers -> (/incidents, /api/topology node summaries) of the served
#: differential, compared across transports.
_SERVED_DOCS = {}


@pytest.mark.parametrize("workers", [0, 1])
def test_served_events_match_local_replay(workers, testbed_tool,
                                          testbed_frame):
    reference = _reference_events(testbed_tool, testbed_frame)
    assert reference, "testbed replay produced no incident events"

    config = ServiceConfig(port=0, http_port=0, workers=workers,
                           heartbeat_s=0.1, dashboard=True)
    with start_service_thread(testbed_tool, config) as handle:
        health = http_get_json(handle.host, handle.http_port, "/health")
        assert health["backend"] == ("pool" if workers else "inproc")
        assert [w["id"] for w in health["workers"]] == ["w0"]
        assert all(w["alive"] for w in health["workers"])

        subscriber = _Subscriber(handle.port, "testbed")
        with ServiceClient(port=handle.port) as client:
            report = replay_trace(client, "testbed", testbed_frame,
                                  batch_size=256)
        assert report.packets_sent == len(testbed_frame)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            metrics = http_get_json(handle.host, handle.http_port,
                                    "/metrics")
            if metrics["totals"]["packets"] == len(testbed_frame):
                break
            time.sleep(0.02)
        incidents = http_get_json(handle.host, handle.http_port,
                                  "/incidents")
        topology = http_get_json(handle.host, handle.http_port,
                                 "/api/topology")
        nodes = topology["deployments"]["testbed"]["nodes"]
        handle.stop(drain=True)  # drain flush-closes open incidents
    subscriber.join(timeout=10.0)

    # Bit-identical: same events, same order, same float strengths.
    assert subscriber.events == reference
    # Both transports serve the same operator documents.
    assert incidents["deployments"]["testbed"]["closed_total"] > 0
    _SERVED_DOCS[workers] = (incidents, nodes)
    for other in _SERVED_DOCS.values():
        assert other == (incidents, nodes)


def test_two_deployments_diagnose_without_crosstalk(testbed_tool, testbed_frame):
    mid = float(testbed_frame.generated_at[len(testbed_frame) // 2])
    frame_a = testbed_frame
    frame_b = testbed_frame.window(0.0, mid)
    reference_a = _reference_events(testbed_tool, frame_a)
    reference_b = _reference_events(testbed_tool, frame_b)
    assert reference_a != reference_b  # distinct inputs, distinct streams

    with start_service_thread(
        testbed_tool, ServiceConfig(port=0, http_port=0)
    ) as handle:
        sub_a = _Subscriber(handle.port, "city-a")
        sub_b = _Subscriber(handle.port, "city-b")
        packets_a = list(iter_packets(frame_a))
        packets_b = list(iter_packets(frame_b))
        with ServiceClient(port=handle.port) as client:
            # Interleave batches of the two deployments on one connection:
            # shard isolation, not connection affinity, must keep them apart.
            step = 64
            for start in range(0, max(len(packets_a), len(packets_b)), step):
                if start < len(packets_a):
                    client.submit("city-a", packets_a[start:start + step])
                if start < len(packets_b):
                    client.submit("city-b", packets_b[start:start + step])
        metrics = http_get_json(handle.host, handle.http_port, "/metrics")
        assert set(metrics["deployments"]) == {"city-a", "city-b"}
        handle.stop(drain=True)
    sub_a.join(timeout=10.0)
    sub_b.join(timeout=10.0)

    assert sub_a.events == reference_a
    assert sub_b.events == reference_b


def test_backpressure_acks_and_sdk_retry_drop_nothing(testbed_tool, testbed_frame):
    packets = list(iter_packets(testbed_frame))[:96]
    config = ServiceConfig(port=0, http_port=0, queue_size=64,
                           retry_after_s=0.02)
    with start_service_thread(testbed_tool, config) as handle:
        probe = ServiceClient(port=handle.port)
        probe._ensure_connected()
        probe.submit("bp", packets[:1])  # create the shard
        # Give the worker a beat to finish, then freeze it so the queue
        # can only fill up.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if handle.run_sync(
                lambda: handle.service.backend.routes["bp"].pending
            ) == 0:
                break
            time.sleep(0.01)
        handle.run_sync(lambda: handle.service.backend.transport.pause())

        # Fill the queue with raw ingests until the explicit rejection.
        rejected = None
        for i in range(4):
            reply = probe._roundtrip(protocol.ingest(
                "bp", [dict(node_id=int(p[0]), epoch=int(p[1]),
                            generated_at=float(p[2]), values=p[3].tolist())
                       for p in packets[1:33]],
                seq=100 + i,
            ))
            reply.pop("_reconnects", None)
            assert reply["queued"] <= config.queue_size  # bounded, always
            if reply["accepted"] == 0:
                rejected = reply
                break
        assert rejected is not None, "queue never filled"
        assert rejected["reason"] == "queue_full"
        assert rejected["retry_after"] == pytest.approx(0.02)

        # The SDK blocks on backpressure and retries; once the worker
        # resumes, the batch lands. Nothing was dropped along the way.
        sdk = ServiceClient(port=handle.port)
        outcome = {}

        def _submit():
            outcome["result"] = sdk.submit("bp", packets[33:65])

        submitter = threading.Thread(target=_submit)
        submitter.start()
        time.sleep(0.15)  # let it hit backpressure at least once
        handle.run_sync(lambda: handle.service.backend.transport.unpause())
        submitter.join(timeout=10.0)
        result = outcome["result"]
        assert result.accepted == 32
        assert result.backpressure_retries >= 1

        # Drain and account for every accepted packet.
        handle.stop(drain=True)
        snapshot = handle.service.metrics_snapshot()["deployments"]["bp"]
        assert snapshot["packets"] == snapshot["packets_accepted"]
        assert snapshot["batches_rejected"] >= 1
        assert snapshot["queue_depth_packets"] == 0
        probe.close()
        sdk.close()


@pytest.fixture(scope="module")
def served(testbed_tool, testbed_frame):
    """A shared running service with one replayed deployment (drained)."""
    handle = start_service_thread(
        testbed_tool, ServiceConfig(port=0, http_port=0)
    )
    with ServiceClient(port=handle.port) as client:
        replay_trace(client, "ops", testbed_frame, batch_size=512)
    # Wait for the queue to empty so metric assertions are stable.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        snapshot = http_get_json(handle.host, handle.http_port, "/metrics")
        if snapshot["totals"]["queue_depth_packets"] == 0:
            break
        time.sleep(0.05)
    yield handle
    handle.stop()


def test_http_health(served):
    health = http_get_json(served.host, served.http_port, "/health")
    assert health["status"] == "ok"
    assert health["deployments"] == 1
    import repro

    assert health["version"] == repro.__version__


def test_http_metrics_shape(served, testbed_frame):
    metrics = http_get_json(served.host, served.http_port, "/metrics")
    assert metrics["server"]["queue_size"] == ServiceConfig().queue_size
    assert metrics["server"]["protocol_version"] == protocol.PROTOCOL_VERSION
    totals = metrics["totals"]
    assert totals["packets"] == len(testbed_frame)
    assert totals["states"] > 0
    assert totals["exceptions"] > 0
    assert totals["batches_rejected"] == 0
    shard = metrics["deployments"]["ops"]
    assert shard["packets_accepted"] == len(testbed_frame)
    latency = shard["ingest_latency"]
    assert latency["count"] == shard["batches_accepted"]
    assert latency["p50_ms"] is not None
    assert latency["p99_ms"] >= latency["p50_ms"]


def test_http_metrics_prometheus(served):
    from urllib.request import urlopen

    from repro.obs import validate_exposition

    url = (
        f"http://{served.host}:{served.http_port}/metrics?format=prometheus"
    )
    with urlopen(url, timeout=10.0) as response:
        assert response.headers.get_content_type() == "text/plain"
        body = response.read().decode("utf-8")
    assert validate_exposition(body, require_help=True) > 0
    lines = body.splitlines()
    assert "# TYPE repro_streaming_packets_total counter" in lines
    # the shard session's NNLS solves are served, one per flagged state
    (solved,) = [
        line for line in lines
        if line.startswith("repro_core_nnls_states_total{")
        and 'deployment="ops"' in line
    ]
    exceptions = http_get_json(served.host, served.http_port, "/metrics")[
        "deployments"]["ops"]["exceptions"]
    assert exceptions > 0
    assert float(solved.rsplit(" ", 1)[1]) == exceptions
    # shard metrics carry the deployment label
    assert any(
        line.startswith('repro_service_packets_accepted_total{deployment="ops"}')
        for line in lines
    )
    assert any(
        line.startswith('repro_streaming_packet_seconds_bucket{')
        for line in lines
    )
    # JSON remains the default rendering
    assert "totals" in http_get_json(served.host, served.http_port, "/metrics")


def test_http_incidents(served):
    doc = http_get_json(served.host, served.http_port, "/incidents")
    ops = doc["deployments"]["ops"]
    # Not drained yet: closed ones from gap expiry, plus whatever is open.
    assert ops["closed_total"] == len(ops["closed"]) + ops["evicted"]
    for incident in ops["closed"] + ops["open"]:
        assert set(incident) == {
            "hazard", "node_ids", "start", "end", "peak_strength",
            "total_strength", "n_observations",
        }
    filtered = http_get_json(
        served.host, served.http_port, "/incidents?deployment=ops"
    )
    assert filtered == doc
    empty = http_get_json(
        served.host, served.http_port, "/incidents?deployment=nope"
    )
    assert empty == {"deployments": {}}


def test_http_unknown_route_404(served):
    with pytest.raises(ConnectionError, match="404"):
        http_get_json(served.host, served.http_port, "/nope")


def test_hello_and_protocol_errors_keep_connection_usable(served, testbed_frame):
    client = ServiceClient(port=served.port)
    client._ensure_connected()
    assert client.hello["n_metrics"] == 43

    raw = client._file
    # Garbage line -> bad_json error, connection survives.
    raw.write(b"not json\n")
    raw.flush()
    reply = client._read_message()
    assert (reply["type"], reply["code"]) == ("error", "bad_json")
    # Wrong version -> bad_version, seq echoed.
    raw.write(protocol.encode({"v": 99, "type": "ingest", "seq": 5}))
    raw.flush()
    reply = client._read_message()
    assert (reply["code"], reply["seq"]) == ("bad_version", 5)
    # Unknown type -> bad_type.
    raw.write(protocol.encode({"v": 1, "type": "frobnicate", "seq": 6}))
    raw.flush()
    assert client._read_message()["code"] == "bad_type"
    # A bool seq is not an integer -> bad_request, nothing echoed.
    raw.write(protocol.encode({"v": 1, "type": "ingest", "seq": True}))
    raw.flush()
    reply = client._read_message()
    assert (reply["code"], reply["seq"]) == ("bad_request", None)
    # Malformed deployment -> bad_deployment.
    packet = next(iter_packets(testbed_frame))
    raw.write(protocol.encode(protocol.ingest("no spaces", [
        dict(node_id=int(packet[0]), epoch=int(packet[1]),
             generated_at=float(packet[2]), values=packet[3].tolist())
    ], seq=7)))
    raw.flush()
    assert client._read_message()["code"] == "bad_deployment"
    # ... and a valid ingest still works on the same connection.
    result = client.submit("ops-errors", [packet])
    assert result.accepted == 1
    client.close()
