"""Zero-downtime model rotation across the sink cluster.

The acceptance criteria of the model-lifecycle PR live here:

* **Differential**: rotating a served model mid-stream through
  ``POST /model`` produces the exact event stream of a local
  :class:`~repro.core.streaming.StreamingDiagnosisSession` replay that
  calls :meth:`set_model` at the same packet boundary — no dropped,
  duplicated or reordered incident events across the swap.  It holds
  with the shard worker on the event loop and with three worker
  processes, every deployment swapping at the same boundary.
* **Chaos**: SIGKILL one worker and rotate while its death is still
  being noticed.  The rotation must complete (the gather resolves when
  the dead worker is pruned), deployments on surviving workers stay
  bit-identical, and the orphaned deployment is adopted with no event
  loss and no cross-deployment bleed.

Workers are real forked processes; rotation goes through the real HTTP
operator endpoint with the model loaded from disk, exactly as
``vn2 model rotate`` does it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.pipeline import VN2, VN2Config
from repro.core.streaming import StreamingDiagnosisSession, iter_packets
from repro.service import protocol
from repro.service.backends import HashRing
from repro.service.client import ServiceClient, http_get_json, http_post_json
from repro.service.server import ServiceConfig, start_service_thread


@pytest.fixture(scope="module")
def testbed_frame(testbed_trace):
    return testbed_trace


@pytest.fixture(scope="module")
def model_b_path(testbed_trace, tmp_path_factory):
    """A second model on the same training hour, saved to disk.

    A different sweep budget lands on a different Ψ, so the rotation is
    observable: the two models diagnose the same packets differently.
    """
    from repro.analysis.testbed_experiments import train_test_split

    train, _ = train_test_split(testbed_trace)
    tool = VN2(
        VN2Config(rank=8, filter_exceptions=False, nmf_iterations=140)
    ).fit(train)
    path = tmp_path_factory.mktemp("models") / "model_b.npz"
    tool.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def tool_b(model_b_path):
    # Load from disk so the reference diagnoses with byte-for-byte the
    # same artifact the server rotates in.
    return VN2.load(model_b_path)


def _rotated_reference(tool_a, tool_b, packets, boundary):
    """Local replay: model A to ``boundary`` packets, model B after."""
    session = StreamingDiagnosisSession(tool_a)
    events = []
    for update in session.process(packets[:boundary]):
        events.extend(protocol.incident_event_obj(e) for e in update.events)
    cut = session.set_model(tool_b)
    assert cut["packets"] == boundary
    for update in session.process(packets[boundary:]):
        events.extend(protocol.incident_event_obj(e) for e in update.events)
    events.extend(protocol.incident_event_obj(e) for e in session.finish())
    return events


def _deployments_per_worker(n_workers: int, per_worker: int):
    """Deployment names guaranteed to land on each worker (see the
    cluster tests — placement is precomputed, never sampled)."""
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


class _Subscriber(threading.Thread):
    """Subscribe synchronously, then collect messages until close."""

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


def _wait_drained(handle) -> None:
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        if doc["totals"]["queue_depth_packets"] == 0:
            return
        time.sleep(0.02)
    raise AssertionError("queues never drained")


def _submit(client, names, packets) -> None:
    if isinstance(names, str):
        names = [names]
    for start in range(0, len(packets), 128):
        batch = packets[start:start + 128]
        for name in names:
            client.submit(name, batch)


@pytest.mark.parametrize("workers", [0, 3])
def test_rotation_matches_set_model_replay(
    workers, testbed_tool, tool_b, model_b_path, testbed_frame
):
    packets = list(iter_packets(testbed_frame))
    half = len(packets) // 2
    reference = _rotated_reference(testbed_tool, tool_b, packets, half)
    assert reference, "rotated replay produced no incident events"
    # the swap must actually change behaviour for the differential to
    # mean anything
    assert reference != _rotated_reference(
        testbed_tool, testbed_tool, packets, half
    )

    # One deployment per shard worker (w0 alone on the event loop).
    worker_ids = [f"w{i}" for i in range(max(workers, 1))]
    placed = _deployments_per_worker(len(worker_ids), 1)
    names = [placed[worker_id][0] for worker_id in worker_ids]

    config = ServiceConfig(port=0, http_port=0, workers=workers,
                           heartbeat_s=0.1)
    with start_service_thread(testbed_tool, config) as handle:
        subs = {name: _Subscriber(handle.port, name) for name in names}
        with ServiceClient(port=handle.port) as client:
            _submit(client, names, packets[:half])
            _wait_drained(handle)

            result = http_post_json(
                handle.host, handle.http_port, "/model",
                {"path": model_b_path},
            )
            assert result["model_version"] == tool_b.model_version
            assert result["previous"] == testbed_tool.model_version
            # every deployment on every worker swapped at the same
            # packet boundary
            for name in names:
                assert result["boundaries"][name]["packets"] == half

            health = http_get_json(handle.host, handle.http_port, "/health")
            assert health["model_version"] == tool_b.model_version

            _submit(client, names, packets[half:])
        _wait_drained(handle)

        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        workers_used = {doc["deployments"][n]["worker"] for n in names}
        assert workers_used == set(worker_ids)

        handle.stop(drain=True)
    for sub in subs.values():
        sub.join(timeout=10.0)

    # Bit-identical across the live swap — nothing dropped, duplicated
    # or reordered — on every deployment, whichever transport hosts it.
    for name in names:
        assert subs[name].events == reference


def test_rotation_with_worker_kill_no_loss_no_bleed(
    testbed_tool, tool_b, model_b_path, testbed_frame
):
    packets = list(iter_packets(testbed_frame))
    half = len(packets) // 2
    reference = _rotated_reference(testbed_tool, tool_b, packets, half)

    placed = _deployments_per_worker(3, 1)
    chaos = placed["w0"][0]
    stable = [placed["w1"][0], placed["w2"][0]]
    names = [chaos] + stable

    config = ServiceConfig(port=0, http_port=0, workers=3, heartbeat_s=0.1)
    with start_service_thread(testbed_tool, config) as handle:
        backend = handle.service.backend
        subs = {name: _Subscriber(handle.port, name) for name in names}
        with ServiceClient(port=handle.port) as client:
            _submit(client, names, packets[:half])
            _wait_drained(handle)

            # SIGKILL w0, then rotate before the front door has noticed:
            # the model_update to the corpse is discarded and the gather
            # must resolve when the death is detected, not time out.
            backend.kill_worker("w0")
            result = http_post_json(
                handle.host, handle.http_port, "/model",
                {"path": model_b_path},
            )
            assert result["model_version"] == tool_b.model_version
            for name in stable:
                assert result["boundaries"][name]["packets"] == half

            # Wait for the handoff machinery to mark w0 dead.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                health = http_get_json(handle.host, handle.http_port,
                                       "/health")
                alive = {w["id"]: w["alive"] for w in health["workers"]}
                if not alive["w0"]:
                    break
                time.sleep(0.05)
            assert alive == {"w0": False, "w1": True, "w2": True}
            assert health["model_version"] == tool_b.model_version

            _submit(client, names, packets[half:])
        _wait_drained(handle)

        doc = http_get_json(handle.host, handle.http_port, "/metrics")
        shard = doc["deployments"][chaos]
        assert shard["worker"] in ("w1", "w2")  # adopted by a survivor
        assert shard["queue_depth_packets"] == 0  # every batch got acked
        assert shard["packets"] >= len(packets) - half

        handle.stop(drain=True)
    for sub in subs.values():
        sub.join(timeout=10.0)

    # Deployments on surviving workers never noticed either the death or
    # the pruned gather: bit-identical rotated streams.
    for name in stable:
        assert subs[name].events == reference
    # The orphaned deployment was adopted mid-rotation: its fresh session
    # on the survivor serves model B.  At-least-once, not bit-identity —
    # but nothing lost and nothing bled across deployments.
    assert subs[chaos].messages, "chaos subscriber saw no events"
    for name, sub in subs.items():
        assert all(m["deployment"] == name for m in sub.messages)
