"""Unit layer of the cluster refactor: ring, worker messages, rollup.

Socket-level cluster behavior lives in ``test_service_cluster.py``; this
file covers the pieces it is built from — consistent hashing, the
internal worker wire messages, the cross-process metrics merge, and the
in-child :class:`~repro.service.worker.ShardWorker` state machine driven
directly (no pipes, no processes).
"""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, merge_dumps, validate_exposition
from repro.service import protocol
from repro.service.backends import HashRing
from repro.service.worker import ShardWorker


# --------------------------------------------------------------------------
# HashRing
# --------------------------------------------------------------------------


def test_ring_lookup_is_deterministic_and_total():
    ring = HashRing(["w0", "w1", "w2"])
    keys = [f"deployment-{i}" for i in range(200)]
    owners = {k: ring.lookup(k) for k in keys}
    assert set(owners.values()) <= {"w0", "w1", "w2"}
    # Same ring built again → same placement (routing must be stable
    # across front-door restarts).
    again = HashRing(["w2", "w0", "w1"])  # insertion order irrelevant
    assert {k: again.lookup(k) for k in keys} == owners
    # Every worker gets a reasonable share at 200 keys x 64 vnodes.
    for worker in ("w0", "w1", "w2"):
        assert sum(1 for o in owners.values() if o == worker) > 20


def test_ring_remove_only_remaps_the_dead_workers_keys():
    ring = HashRing(["w0", "w1", "w2", "w3"])
    keys = [f"dep-{i}" for i in range(300)]
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("w1")
    after = {k: ring.lookup(k) for k in keys}
    moved = [k for k in keys if before[k] != after[k]]
    # Minimal movement: exactly the dead worker's keys moved, nowhere else.
    assert set(moved) == {k for k in keys if before[k] == "w1"}
    assert all(owner != "w1" for owner in after.values())


def test_ring_empty_and_single_node():
    ring = HashRing()
    assert ring.lookup("anything") is None
    ring.add("w0")
    assert ring.lookup("anything") == "w0"
    ring.remove("w0")
    assert ring.lookup("anything") is None
    ring.remove("w0")  # idempotent


# --------------------------------------------------------------------------
# worker wire messages
# --------------------------------------------------------------------------


def test_worker_message_constructors_validate():
    samples = [
        protocol.assign("city", "w0"),
        protocol.shard_ingest("city", 7, [(1, 0, 0.0, None)]),
        protocol.shard_drain("city"),
        protocol.drain_all(),
        protocol.metrics_query(3),
        protocol.incidents_query(4, "city"),
        protocol.worker_hello("w0", 123),
        protocol.worker_heartbeat("w0", 123, 1.0, 2, 100),
        protocol.worker_ack("city", 7, 64, b"", 0, {"packets": 64}),
        protocol.worker_drained("city", b"", 0, {}),
        protocol.worker_metrics(3, "w0", {}, []),
        protocol.worker_incidents(4, "w0", {}),
        protocol.worker_bye("w0", {}),
        protocol.worker_error("w0", "boom", "city"),
    ]
    types = [protocol.check_worker_message(m) for m in samples]
    assert types == [
        "assign", "ingest", "drain", "drain_all", "metrics_query",
        "incidents_query", "w_hello", "w_heartbeat", "w_ack", "w_drained",
        "w_metrics", "w_incidents", "w_bye", "w_error",
    ]


def test_worker_message_validation_rejects_drift():
    with pytest.raises(protocol.ProtocolError):
        protocol.check_worker_message({"type": "assign"})  # no version
    with pytest.raises(protocol.ProtocolError):
        protocol.check_worker_message(
            {"v": protocol.PROTOCOL_VERSION, "type": "nonsense"}
        )
    with pytest.raises(protocol.ProtocolError):
        protocol.check_worker_message("not a dict")


# --------------------------------------------------------------------------
# registry dump / merge (the /metrics rollup)
# --------------------------------------------------------------------------


def _worker_registry(worker: str, n: int) -> MetricsRegistry:
    reg = MetricsRegistry(enabled=True)
    reg.counter(
        "repro_streaming_packets_total", "pkts",
        {"deployment": "city", "worker": worker},
    ).inc(n)
    hist = reg.histogram(
        "repro_streaming_packet_seconds", "lat", None, buckets=(0.001, 0.01)
    )
    for _ in range(n):
        hist.observe(0.005)
    reg.gauge("repro_incidents_open", "open", {"worker": worker}).set(2)
    return reg


def test_dump_merge_sums_counters_and_histograms():
    merged = merge_dumps(
        [_worker_registry("w0", 10).dump(), _worker_registry("w1", 5).dump()]
    )
    snap = merged.snapshot()
    per_worker = {
        s["labels"]["worker"]: s["value"]
        for s in snap["repro_streaming_packets_total"]["series"]
    }
    # Distinct worker labels stay distinct series in the rollup.
    assert per_worker == {"w0": 10, "w1": 5}
    hist = snap["repro_streaming_packet_seconds"]["series"][0]
    assert hist["count"] == 15  # same labels → buckets summed
    text = merged.to_prometheus()
    assert validate_exposition(text) > 0
    assert 'worker="w0"' in text and 'worker="w1"' in text


def test_merge_is_associative_with_self():
    reg = _worker_registry("w0", 7)
    once = merge_dumps([reg.dump()])
    twice = merge_dumps([reg.dump(), reg.dump()])
    packets = lambda r: r.snapshot()["repro_streaming_packets_total"]["series"][0]["value"]  # noqa: E731
    assert packets(once) == 7
    assert packets(twice) == 14


def test_merge_rejects_histogram_bucket_drift():
    a = MetricsRegistry(enabled=True)
    a.histogram("repro_h_seconds", "h", None, buckets=(0.1, 1.0)).observe(0.5)
    b = MetricsRegistry(enabled=True)
    b.histogram("repro_h_seconds", "h", None, buckets=(0.2, 2.0)).observe(0.5)
    merged = MetricsRegistry(enabled=True)
    merged.merge_dump(a.dump())
    with pytest.raises(ValueError, match="buckets"):
        merged.merge_dump(b.dump())


# --------------------------------------------------------------------------
# ShardWorker (driven directly, no process)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def worker_state(testbed_tool):
    return ShardWorker("w9", testbed_tool, {"max_closed_incidents": 100})


def _events(reply):
    """The event objects of a ``w_ack``/``w_drained`` reply's lines."""
    messages = [protocol.decode(line) for line in reply["lines"].splitlines()]
    assert all(
        m["type"] == "event" and m["deployment"] == reply["deployment"]
        for m in messages
    )
    assert len(messages) == reply["n_events"]
    return [m["event"] for m in messages]


def test_shard_worker_ingest_ack_and_drain(testbed_tool, testbed_trace):
    from repro.core.streaming import PacketBatch, iter_packets

    state = ShardWorker("w3", testbed_tool, {})
    packets = list(iter_packets(testbed_trace))[:400]
    events = []
    for batch_id, start in enumerate(range(0, len(packets), 64)):
        ack = state.handle_ingest(protocol.shard_ingest(
            "city", batch_id, PacketBatch.from_packets(packets[start:start + 64])
        ))
        assert ack["type"] == "w_ack" and ack["deployment"] == "city"
        assert ack["accepted"] == len(packets[start:start + 64])
        batch_events = _events(ack)
        assert len(batch_events) == ack["n_events"]
        events.extend(batch_events)
    assert state.sessions["city"].n_packets == len(packets)

    # Session metrics carry BOTH deployment and worker labels — the fix
    # that keeps cluster rollups from collapsing colliding series.
    dump = state.registry.dump()
    labels = dump["repro_streaming_packets_total"]["series"][0]["labels"]
    assert labels == {
        "deployment": "city",
        "worker": "w3",
        "model_version": testbed_tool.model_version,
    }
    open_series = dump["repro_incidents_open"]["series"][0]["labels"]
    assert open_series["worker"] == "w3"

    drained = state.handle_drain(protocol.shard_drain("city"))
    assert drained["type"] == "w_drained"
    assert "city" not in state.sessions
    # finish() closes whatever was open; every event is a close event.
    assert all(e["kind"] == "close" for e in _events(drained))
    # Draining an unknown deployment is a harmless no-op answer.
    empty = state.handle_drain(protocol.shard_drain("ghost"))
    assert _events(empty) == [] and empty["counters"] == {}


def test_shard_worker_queries_and_bye(worker_state):
    state = worker_state
    state.session("a")
    state.session("b")
    metrics = state.handle_metrics_query(protocol.metrics_query(1))
    assert [s["deployment"] for s in metrics["shards"]] == ["a", "b"]
    incidents = state.handle_incidents_query(protocol.incidents_query(2))
    assert set(incidents["incidents"]) == {"a", "b"}
    only_a = state.handle_incidents_query(protocol.incidents_query(3, "a"))
    assert set(only_a["incidents"]) == {"a"}
    replies = state.handle(protocol.drain_all())
    assert [r["type"] for r in replies] == ["w_drained", "w_drained", "w_bye"]
    assert replies[0]["deployment"] == "a"  # deterministic drain order
    assert replies[-1]["worker"] == "w9"
    assert "repro_streaming_packets_total" in replies[-1]["dump"]
