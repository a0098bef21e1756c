"""The multi-process sink cluster, driven over real sockets.

The acceptance criteria of the cluster PR live here:

* **Differential**: the single-worker differential (``workers=1``) is
  parametrized with the in-loop one in ``test_service_server.py``.
* **Isolation**: deployments routed to *different worker processes*
  diagnose without cross-talk; each matches its own solo replay.
* **Handoff** (chaos): SIGKILL a worker while load is flowing.  The
  front door replays that worker's unacked batches to a survivor
  (at-least-once), deployments on the other worker stay bit-identical,
  and no event ever bleeds across deployments.
* **Rollup**: the cluster ``/metrics?format=prometheus`` scrape is one
  merged exposition with per-worker streaming series, and it validates.

Workers are real forked processes; clients are the real SDK.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.streaming import iter_packets
from repro.obs import validate_exposition
from repro.service import protocol
from repro.service.backends import HashRing
from repro.service.client import ServiceClient, http_get_json
from repro.service.loadgen import replay_trace_fanout
from repro.service.server import ServiceConfig, start_service_thread


def _prometheus_text(handle) -> str:
    from urllib.request import urlopen

    url = (
        f"http://{handle.host}:{handle.http_port}/metrics?format=prometheus"
    )
    with urlopen(url, timeout=10.0) as response:
        return response.read().decode("utf-8")


def _reference_events(tool, source):
    """Incident-event objects of a local (in-process) streaming replay."""
    events = []
    for update in tool.diagnose_stream(source):
        events.extend(protocol.incident_event_obj(e) for e in update.events)
    return events


def _deployments_per_worker(n_workers: int, per_worker: int):
    """Deployment names guaranteed to land on each of ``n_workers`` workers.

    The front door routes with ``HashRing([w0..wN-1])``, so the test can
    precompute placement and *choose* names that exercise every worker —
    no flaky "hope the hash spreads" sampling.
    """
    ring = HashRing([f"w{i}" for i in range(n_workers)])
    placed = {f"w{i}": [] for i in range(n_workers)}
    i = 0
    while any(len(names) < per_worker for names in placed.values()):
        name = f"dep-{i}"
        owner = ring.lookup(name)
        if len(placed[owner]) < per_worker:
            placed[owner].append(name)
        i += 1
    return placed


def _wait_diagnosed(handle) -> None:
    """Wait until every accepted batch is acked: ``/metrics`` reports
    the session counters the workers' last acks carried."""
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        if doc["totals"]["queue_depth_packets"] == 0:
            return
        time.sleep(0.02)
    raise AssertionError("queues never drained")


class _Subscriber(threading.Thread):
    """Subscribe synchronously, then collect messages until close.

    Keeps the *full* framed messages (not just the event payloads) so
    the chaos test can prove no message carried a foreign deployment.
    """

    def __init__(self, port: int, deployment: str):
        super().__init__(daemon=True)
        self.deployment = deployment
        self.client = ServiceClient(port=port)
        self.client._ensure_connected()
        reply = self.client._roundtrip(protocol.subscribe(deployment, 1))
        reply.pop("_reconnects", None)
        assert reply == protocol.subscribed(1, deployment)
        self.messages = []
        self.start()

    @property
    def events(self):
        return [m["event"] for m in self.messages]

    def run(self):
        while True:
            try:
                message = self.client._read_message()
            except (ConnectionError, OSError):
                return
            if message.get("type") == "event":
                self.messages.append(message)


@pytest.fixture(scope="module")
def testbed_frame(testbed_trace):
    return testbed_trace


def _pool_config(workers: int) -> ServiceConfig:
    return ServiceConfig(port=0, http_port=0, workers=workers,
                         heartbeat_s=0.1)


def test_pool_isolates_deployments_across_workers(testbed_tool, testbed_frame):
    mid = float(testbed_frame.generated_at[len(testbed_frame) // 2])
    frames = {"a": testbed_frame, "b": testbed_frame.window(0.0, mid)}
    placed = _deployments_per_worker(2, 1)
    names = {"a": placed["w0"][0], "b": placed["w1"][0]}
    reference = {
        key: _reference_events(testbed_tool, frame)
        for key, frame in frames.items()
    }
    assert reference["a"] != reference["b"]

    with start_service_thread(testbed_tool, _pool_config(2)) as handle:
        subs = {key: _Subscriber(handle.port, names[key]) for key in frames}
        packets = {key: list(iter_packets(f)) for key, f in frames.items()}
        with ServiceClient(port=handle.port) as client:
            # One connection, interleaved batches, two worker processes:
            # isolation must come from routing, not connection affinity.
            step = 64
            for start in range(0, max(map(len, packets.values())), step):
                for key in ("a", "b"):
                    if start < len(packets[key]):
                        client.submit(names[key],
                                      packets[key][start:start + step])

        _wait_diagnosed(handle)
        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        assert set(doc["deployments"]) == set(names.values())
        assert doc["server"]["backend"] == "pool"
        for key in frames:
            shard = doc["deployments"][names[key]]
            assert shard["worker"] == ("w0" if key == "a" else "w1")
            assert shard["packets"] == len(packets[key])
        assert doc["totals"]["packets"] == sum(map(len, packets.values()))

        # The merged scrape is one valid exposition with per-worker
        # streaming series and front-door service series side by side.
        text = _prometheus_text(handle)
        assert validate_exposition(text) > 0
        assert 'worker="w0"' in text and 'worker="w1"' in text
        for key in frames:
            assert (
                "repro_service_packets_accepted_total"
                f'{{deployment="{names[key]}"}}'
            ) in text
        assert "repro_incidents_open{" in text

        incidents = http_get_json(handle.host, handle.http_port,
                                  "/incidents")
        assert set(incidents["deployments"]) == set(names.values())

        handle.stop(drain=True)
    for sub in subs.values():
        sub.join(timeout=10.0)

    assert subs["a"].events == reference["a"]
    assert subs["b"].events == reference["b"]


def test_worker_kill_hands_off_without_loss_or_bleed(testbed_tool,
                                                     testbed_frame):
    placed = _deployments_per_worker(2, 1)
    victim_dep, survivor_dep = placed["w0"][0], placed["w1"][0]
    reference = _reference_events(testbed_tool, testbed_frame)

    with start_service_thread(testbed_tool, _pool_config(2)) as handle:
        backend = handle.service.backend
        subs = {
            name: _Subscriber(handle.port, name)
            for name in (victim_dep, survivor_dep)
        }
        packets = list(iter_packets(testbed_frame))
        step = 64
        starts = list(range(0, len(packets), step))
        kill_at = len(starts) // 3
        sent_after_kill = 0
        with ServiceClient(port=handle.port) as client:
            for i, start in enumerate(starts):
                batch = packets[start:start + step]
                if i == kill_at:
                    backend.kill_worker("w0")  # SIGKILL mid-stream
                client.submit(victim_dep, batch)
                client.submit(survivor_dep, batch)
                if i >= kill_at:
                    sent_after_kill += len(batch)

        # Wait for the front door to notice the death and re-route.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            health = http_get_json(handle.host, handle.http_port, "/health")
            alive = {w["id"]: w["alive"] for w in health["workers"]}
            if not alive["w0"]:
                break
            time.sleep(0.05)
        assert alive == {"w0": False, "w1": True}

        text = _prometheus_text(handle)
        assert validate_exposition(text) > 0
        assert "repro_service_worker_handoffs_total" in text

        _wait_diagnosed(handle)
        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        shard = doc["deployments"][victim_dep]
        assert shard["worker"] == "w1"  # adopted by the survivor
        assert shard["queue_depth_packets"] == 0  # every batch got acked
        # At-least-once: the survivor's fresh session diagnosed at least
        # every batch from the kill onward (unacked replays + new sends).
        assert shard["packets"] >= sent_after_kill

        handle.stop(drain=True)
    for sub in subs.values():
        sub.join(timeout=10.0)

    # The deployment on the surviving worker never noticed: bit-identical.
    assert subs[survivor_dep].events == reference
    # No cross-deployment bleed, even through the handoff replay.
    for name, sub in subs.items():
        assert sub.messages, f"{name} subscriber saw no events"
        assert all(m["deployment"] == name for m in sub.messages)


def test_fanout_loadgen_spreads_over_both_workers(testbed_tool,
                                                  testbed_frame):
    placed = _deployments_per_worker(2, 2)
    names = placed["w0"] + placed["w1"]
    reference = _reference_events(testbed_tool, testbed_frame)

    with start_service_thread(testbed_tool, _pool_config(2)) as handle:
        subs = {name: _Subscriber(handle.port, name) for name in names}
        report = replay_trace_fanout(
            ServiceClient(port=handle.port), names, testbed_frame,
            batch_size=128,
        )
        assert report.errors == []
        assert report.packets_sent == len(testbed_frame) * len(names)
        assert len(report.per_deployment) == len(names)

        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        workers_used = {
            doc["deployments"][name]["worker"] for name in names
        }
        assert workers_used == {"w0", "w1"}
        handle.stop(drain=True)
    for sub in subs.values():
        sub.join(timeout=10.0)

    # Same trace into four deployments on two processes: four identical,
    # bit-exact copies of the reference stream.
    for name in names:
        assert subs[name].events == reference
