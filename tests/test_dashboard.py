"""Dashboard: topology assembly, SSE hub, served endpoints, eviction.

Covers the PR's acceptance points end to end against a real service:

* ``/api/topology`` (inproc and 2-worker cluster) validates against the
  documented contract (:func:`repro.dashboard.topology.validate_topology_doc`);
* the ``/api/incidents/stream`` SSE feed carries event objects
  bit-identical to a TCP subscriber's (``vn2 watch``) — the dashboard is
  just another subscriber;
* a deliberately stalled SSE reader is evicted
  (``repro_dashboard_clients_evicted_total``) while ingest and every
  other subscriber are unaffected;
* ``GET /health`` reports ``uptime_s`` / ``model_version`` / ``version``;
* the Prometheus exposition documents every metric with a real ``# HELP``
  line (``validate_exposition(require_help=True)``).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.dashboard.sse import DashboardHub, format_sse
from repro.dashboard.topology import (
    INCIDENT_KEYS,
    NODE_KEYS,
    assemble_topology,
    infer_edges,
    model_doc,
    validate_stream_event,
    validate_topology_doc,
)
from repro.metrics.catalog import METRIC_NAMES
from repro.obs import MetricsRegistry
from repro.obs.metrics import validate_exposition
from repro.service.client import ServiceClient, http_get_json
from repro.service.loadgen import replay_trace
from repro.service.protocol import encode
from repro.service.server import ServiceConfig, start_service_thread


@pytest.fixture(scope="module")
def test_frame(testbed_trace):
    from repro.analysis.testbed_experiments import train_test_split

    _train, test = train_test_split(testbed_trace)
    return test


def _start(tool, **overrides):
    config = ServiceConfig(port=0, http_port=0, **overrides)
    return start_service_thread(tool, config)


def _http_get_raw(port, path):
    """GET returning (status, body bytes) — lets tests see 404s."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            .encode("latin-1")
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def _sse_connect(port, path="/api/incidents/stream", rcvbuf=None):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1"))
    return sock


def _drain_sse(sock, idle_s=1.0):
    """Read until the peer closes or goes idle; parse data payloads."""
    sock.settimeout(idle_s)
    buf = b""
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    except (socket.timeout, ConnectionResetError):
        pass
    head, _, body = buf.partition(b"\r\n\r\n")
    assert b"200" in head.split(b"\r\n", 1)[0]
    assert b"text/event-stream" in head
    out = []
    for block in body.split(b"\n\n"):
        event_name = None
        for line in block.split(b"\n"):
            if line.startswith(b"event: "):
                event_name = line[7:].decode()
            elif line.startswith(b"data: "):
                out.append((event_name, json.loads(line[6:])))
    return out


def _subscribe_events(host, port, deployment, silence_s=2.0):
    """TCP reference subscriber collecting events on a thread."""
    client = ServiceClient(host, port)
    client.connect()
    events = []

    def _collect():
        for event in client.events(deployment, timeout=silence_s):
            events.append(event)

    thread = threading.Thread(target=_collect, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the subscribe land (materializes the shard)
    return client, thread, events


def _metric_total(handle, name):
    snap = handle.run_sync(handle.service.registry.snapshot)
    info = snap.get(name)
    if info is None:
        return None
    return sum(s["value"] for s in info["series"])


def _wait_for_metric(handle, name, want, timeout_s=30.0):
    """Poll a metric total until it reads ``want`` or the deadline
    passes; return the last reading."""
    deadline = time.monotonic() + timeout_s
    while True:
        got = _metric_total(handle, name)
        if got == want or time.monotonic() > deadline:
            return got
        time.sleep(0.02)


# --------------------------------------------------------------------------
# units: summaries, edge inference, docs, validators, framing
# --------------------------------------------------------------------------


def test_node_summaries_contract(testbed_tool, testbed_trace):
    from repro.core.streaming import StreamingDiagnosisSession, iter_packets

    session = StreamingDiagnosisSession(testbed_tool)
    for i, packet in enumerate(iter_packets(testbed_trace)):
        session.push_packet(*packet)
        if i >= 500:
            break
    summaries = session.node_summaries()
    assert summaries, "ingest must materialize node summaries"
    ids = [s["node_id"] for s in summaries]
    assert ids == sorted(ids)
    for summary in summaries:
        assert set(summary) == set(NODE_KEYS)
        assert summary["packets"] >= 1
        assert summary["last_seen"] is not None
    # topology metrics surfaced as raw floats
    assert any(s["hop"] is not None for s in summaries)
    assert any(s["path_etx"] is not None for s in summaries)
    # returned dicts are copies: mutation cannot corrupt session state
    summaries[0]["packets"] = -1
    assert session.node_summaries()[0]["packets"] >= 1


def _node(node_id, hop, etx=None):
    entry = {key: None for key in NODE_KEYS}
    entry.update(node_id=node_id, hop=hop, path_etx=etx, packets=1)
    return entry


def test_infer_edges_by_etx():
    nodes = [
        _node(0, 0, 0.0),
        _node(1, 1, 1.1), _node(2, 1, 2.9),
        # child etx 2.2: parent 1 (|2.2-1-1.1|=0.1) beats parent 2 (1.7)
        _node(3, 2, 2.2),
        # child etx 3.8: parent 2 (|3.8-1-2.9|=0.1) beats parent 1 (1.7)
        _node(4, 2, 3.8),
    ]
    edges = {(e["from"], e["to"]) for e in infer_edges(nodes)}
    assert edges == {(1, 0), (2, 0), (3, 1), (4, 2)}


def test_infer_edges_by_positions():
    nodes = [_node(0, 0), _node(1, 1), _node(2, 1), _node(3, 2)]
    positions = {0: (0, 0), 1: (10, 0), 2: (100, 0), 3: (95, 5)}
    edges = {(e["from"], e["to"]) for e in infer_edges(nodes, positions)}
    assert (3, 2) in edges  # geometric nearest hop-1 parent


def test_infer_edges_skips_gaps_and_hopless():
    nodes = [_node(0, 0), _node(9, None), _node(5, 2)]  # no hop-1 ring
    assert infer_edges(nodes) == []


def test_infer_edges_deterministic_tiebreak():
    # equidistant parents: lowest node id wins, every call
    nodes = [_node(7, 0, 1.0), _node(3, 0, 1.0), _node(10, 1, 2.0)]
    for _ in range(3):
        assert infer_edges(nodes) == [
            {"from": 10, "to": 3, "etx": 2.0}
        ]


def test_assemble_topology_stamps_positions():
    nodes = [_node(1, 0), _node(2, 1)]
    doc = assemble_topology(
        nodes,
        incidents={"open": [], "closed_total": 3, "evicted": 1},
        positions={1: (4.0, 5.0)},
    )
    by_id = {n["node_id"]: n for n in doc["nodes"]}
    assert (by_id[1]["x"], by_id[1]["y"]) == (4.0, 5.0)
    assert "x" not in by_id[2]
    assert doc["incidents_closed_total"] == 3
    assert doc["incidents_evicted"] == 1


def test_model_doc_contract(testbed_tool):
    doc = model_doc(testbed_tool)
    assert doc["version"] == testbed_tool.model_version
    assert doc["metric_names"] == list(METRIC_NAMES)
    assert len(doc["components"]) == doc["rank"]
    for component in doc["components"]:
        assert len(component["psi"]) == len(METRIC_NAMES)
        assert isinstance(component["hazards"], list)


def test_validate_topology_doc_rejects(testbed_tool):
    base = {
        "ts": 0.0,
        "server": {"backend": "inproc", "model_version": "x", "uptime_s": 1},
        "model": model_doc(testbed_tool),
        "deployments": {
            "d": {
                "nodes": [_node(1, 0)],
                "edges": [],
                "incidents_open": [],
            }
        },
    }
    assert validate_topology_doc(base) == 1
    for mutate in (
        lambda d: d.pop("model"),
        lambda d: d["server"].pop("uptime_s"),
        lambda d: d["model"]["components"][0]["psi"].pop(),
        lambda d: d["deployments"]["d"]["nodes"][0].pop("hazard"),
        lambda d: d["deployments"]["d"]["edges"].append(
            {"from": 1, "to": 99}
        ),
    ):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(ValueError):
            validate_topology_doc(doc)


def test_validate_stream_event():
    assert validate_stream_event(
        {"type": "hello", "deployments": ["d1"]}
    ) == "hello"
    incident = {key: 1 for key in INCIDENT_KEYS}
    incident["node_ids"] = [4]
    event = dict(incident, kind="open", incident_id=1, time=0.0)
    assert validate_stream_event(
        {"type": "event", "deployment": "d1", "event": event}
    ) == "event"
    with pytest.raises(ValueError):
        validate_stream_event({"type": "nope"})
    with pytest.raises(ValueError):
        validate_stream_event({"type": "event", "deployment": "d1",
                               "event": {"kind": "open"}})


def test_format_sse_framing():
    frame = format_sse({"a": 1}, event="incident", retry_ms=2000)
    assert frame == b'event: incident\nretry: 2000\ndata: {"a":1}\n\n'
    assert format_sse({"b": 2}) == b'data: {"b":2}\n\n'


def test_hub_evicts_slow_client_unit():
    """Queue overflow → eviction: counter, flag, close sentinel, on_close."""

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
        service = _Service()
        hub = DashboardHub(service, max_queue=2)
        await hub.start()
        closed = []
        fast = hub.attach()
        slow = hub.attach(on_close=lambda: closed.append(True))
        for i in range(4):
            hub._broadcast("d", encode({"type": "event", "deployment": "d",
                                        "event": {"n": i}}))
            while not fast.queue.empty():  # fast keeps up
                fast.queue.get_nowait()
        assert slow.evicted and closed == [True]
        assert not fast.evicted
        # the slow client's queue ends with the close sentinel (any
        # frames already buffered before eviction still drain first)
        frame = object()
        while frame is not None:
            frame = await slow.next_frame(0.1)
            assert frame != b": keepalive\n\n"
        await hub.stop()
        return service.registry.snapshot()

    snap = asyncio.run(_run())
    evicted = sum(
        s["value"]
        for s in snap["repro_dashboard_clients_evicted_total"]["series"]
    )
    assert evicted == 1
    assert snap["repro_dashboard_clients_evicted_total"]["help"]


def test_hub_deployment_filter_unit():
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
        hub = DashboardHub(_Service(), max_queue=16)
        await hub.start()
        wants_a = hub.attach(deployment="a")
        wants_all = hub.attach()
        hub._broadcast("a", encode({"type": "event", "deployment": "a",
                                    "event": {}}))
        hub._broadcast("b", encode({"type": "event", "deployment": "b",
                                    "event": {}}))
        sizes = (wants_a.queue.qsize(), wants_all.queue.qsize())
        await hub.stop()
        return sizes

    assert asyncio.run(_run()) == (1, 2)


# --------------------------------------------------------------------------
# integration: served endpoints
# --------------------------------------------------------------------------


def test_dashboard_disabled_is_404(testbed_tool):
    with _start(testbed_tool) as handle:
        for path in ("/dashboard", "/api/topology", "/api/series",
                     "/api/incidents/stream"):
            status, body = _http_get_raw(handle.http_port, path)
            assert status == 404, path
            assert b"--dashboard" in body  # actionable hint
        health = http_get_json("127.0.0.1", handle.http_port, "/health")
        assert health["dashboard"] is False


def test_health_reports_uptime_and_versions(testbed_tool):
    import repro

    with _start(testbed_tool, dashboard=True) as handle:
        time.sleep(0.05)
        health = http_get_json("127.0.0.1", handle.http_port, "/health")
        assert health["version"] == repro.__version__
        assert health["model_version"] == testbed_tool.model_version
        assert health["uptime_s"] > 0
        assert health["dashboard"] is True


def test_topology_endpoint_inproc(testbed_tool, test_frame):
    with _start(testbed_tool, dashboard=True) as handle:
        with ServiceClient("127.0.0.1", handle.port) as client:
            report = replay_trace(client, "d1", test_frame)
        doc = http_get_json(
            "127.0.0.1", handle.http_port, "/api/topology"
        )
        n_nodes = validate_topology_doc(doc)
        assert n_nodes > 0
        dep = doc["deployments"]["d1"]
        assert sum(n["packets"] for n in dep["nodes"]) == report.packets_sent
        assert dep["edges"], "testbed tree must yield inferred edges"
        assert doc["server"]["model_version"] == testbed_tool.model_version
        # deployment filter
        only = http_get_json(
            "127.0.0.1", handle.http_port, "/api/topology?deployment=d1"
        )
        assert list(only["deployments"]) == ["d1"]
        none = http_get_json(
            "127.0.0.1", handle.http_port, "/api/topology?deployment=nope"
        )
        assert none["deployments"] == {}

        # the static page ships and references the live endpoints
        status, page = _http_get_raw(handle.http_port, "/dashboard")
        assert status == 200
        for needle in (b"/api/topology", b"/api/incidents/stream",
                       b"/api/series", b"EventSource"):
            assert needle in page

        # sparkline feed carries the streaming counters
        series = http_get_json(
            "127.0.0.1", handle.http_port, "/api/series"
        )
        assert "repro_streaming_packets_total" in series["metrics"]


def test_prometheus_exposition_fully_helped(testbed_tool, test_frame):
    with _start(testbed_tool, dashboard=True) as handle:
        with ServiceClient("127.0.0.1", handle.port) as client:
            replay_trace(client, "d1", test_frame)
        status, text = _http_get_raw(
            handle.http_port, "/metrics?format=prometheus"
        )
        assert status == 200
        exposition = text.decode("utf-8")
        assert validate_exposition(exposition, require_help=True) > 0
        assert (
            "# HELP repro_dashboard_clients_evicted_total" in exposition
        )


def test_sse_events_bit_identical_to_subscriber(testbed_tool, test_frame):
    with _start(testbed_tool, dashboard=True) as handle:
        sse = _sse_connect(handle.http_port)
        time.sleep(0.2)
        ref, thread, ref_events = _subscribe_events(
            "127.0.0.1", handle.port, "d1"
        )
        with ServiceClient("127.0.0.1", handle.port) as client:
            replay_trace(client, "d1", test_frame)
        thread.join(timeout=30)
        ref.close()
        payloads = _drain_sse(sse)
        sse.close()
        hello = [p for name, p in payloads if name == "hello"]
        assert hello and validate_stream_event(hello[0]) == "hello"
        events = [p for name, p in payloads if name == "incident"]
        assert events, "replay must produce incident events"
        for payload in events:
            assert validate_stream_event(payload) == "event"
            assert payload["deployment"] == "d1"
        assert ref_events, "reference subscriber must see events"
        # bit-identity: the SSE data payloads embed the exact event
        # objects the TCP subscribe protocol (vn2 watch) delivers
        assert (
            [json.dumps(p["event"], sort_keys=True) for p in events]
            == [json.dumps(e, sort_keys=True) for e in ref_events]
        )


def test_sse_events_match_no_dashboard_run(testbed_tool, test_frame):
    """The dashboard changes nothing: the event stream served with the
    dashboard on equals a plain subscriber's from a dashboard-off run."""

    def _run(dashboard):
        with _start(testbed_tool, dashboard=dashboard) as handle:
            sse = None
            if dashboard:
                sse = _sse_connect(handle.http_port)
                time.sleep(0.2)
            ref, thread, events = _subscribe_events(
                "127.0.0.1", handle.port, "d1"
            )
            with ServiceClient("127.0.0.1", handle.port) as client:
                replay_trace(client, "d1", test_frame)
            thread.join(timeout=30)
            ref.close()
            if sse is not None:
                sse.close()
            return [json.dumps(e, sort_keys=True) for e in events]

    assert _run(dashboard=True) == _run(dashboard=False)


def test_slow_sse_consumer_evicted_ingest_unaffected(
    testbed_tool, test_frame
):
    """Chaos: a stalled SSE reader under load is evicted; ingest and the
    healthy subscriber see the complete, identical stream."""
    with _start(
        testbed_tool, dashboard=True, dashboard_queue=8
    ) as handle:
        stalled = _sse_connect(handle.http_port, rcvbuf=4096)
        time.sleep(0.2)  # attached; then never read again
        ref, thread, ref_events = _subscribe_events(
            "127.0.0.1", handle.port, "d1"
        )
        with ServiceClient("127.0.0.1", handle.port) as client:
            report = replay_trace(client, "d1", test_frame)
        thread.join(timeout=30)
        ref.close()

        assert report.packets_sent == len(test_frame)
        assert ref_events, "healthy subscriber must be unaffected"
        # The hub pump may still hold published events: wait until it
        # has fanned out as many as the healthy subscriber received.
        events_total = _wait_for_metric(
            handle, "repro_dashboard_events_total", len(ref_events)
        )
        assert events_total == len(ref_events)
        assert _metric_total(
            handle, "repro_dashboard_clients_evicted_total"
        ) == 1
        assert _metric_total(handle, "repro_dashboard_clients") == 0

        # the server terminated the stalled connection (abort surfaces
        # as EOF or RST depending on what was in flight) — it must not
        # keep serving a client it declared dead
        stalled.settimeout(10.0)
        terminated = False
        try:
            while stalled.recv(65536):
                pass
            terminated = True  # EOF
        except ConnectionResetError:
            terminated = True
        except socket.timeout:
            pass
        stalled.close()
        assert terminated, "stalled client was not disconnected"


def test_cluster_topology_merges_workers(testbed_tool, test_frame):
    with _start(
        testbed_tool, dashboard=True, workers=2
    ) as handle:
        with ServiceClient("127.0.0.1", handle.port) as client:
            replay_trace(client, "alpha", test_frame)
            replay_trace(client, "beta", test_frame)
        doc = http_get_json(
            "127.0.0.1", handle.http_port, "/api/topology", timeout=30.0
        )
        n_nodes = validate_topology_doc(doc)
        assert sorted(doc["deployments"]) == ["alpha", "beta"]
        per_dep = {
            name: len(dep["nodes"])
            for name, dep in doc["deployments"].items()
        }
        assert per_dep["alpha"] == per_dep["beta"] > 0
        assert n_nodes == per_dep["alpha"] + per_dep["beta"]
        # merged scrape stays fully HELP-documented with workers
        status, text = _http_get_raw(
            handle.http_port, "/metrics?format=prometheus"
        )
        assert status == 200
        assert validate_exposition(
            text.decode("utf-8"), require_help=True
        ) > 0
