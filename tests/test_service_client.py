"""Client SDK behavior that the server tests don't cover: backoff
jitter bounds, reconnect-and-resend, packet-shape normalization, the
async client, and the load generator's report accounting.

Reconnect tests use a scripted fake server (plain sockets, one thread)
so the failure sequence is deterministic; everything else runs against
the real service on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import threading

import numpy as np
import pytest

from repro.metrics.catalog import NUM_METRICS
from repro.service import protocol
from repro.service.client import (
    AsyncServiceClient,
    BackoffPolicy,
    ServiceClient,
    ServiceUnavailable,
    SubmitResult,
    _packet_obj,
    iter_trace_packets,
)
from repro.service.loadgen import LoadgenReport, replay_trace
from repro.service.server import ServiceConfig, start_service_thread


# ---------------------------------------------------------------------------
# BackoffPolicy
# ---------------------------------------------------------------------------


def test_backoff_grows_exponentially_then_caps():
    policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
    rng = random.Random(0)
    delays = [policy.delay(n, rng) for n in range(6)]
    assert delays[:3] == pytest.approx([0.1, 0.2, 0.4])
    assert delays[3:] == pytest.approx([0.5, 0.5, 0.5])  # capped


def test_backoff_jitter_stays_within_band():
    policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=10.0, jitter=0.5)
    rng = random.Random(1234)
    for attempt in range(5):
        raw = min(policy.base * policy.factor ** attempt, policy.max_delay)
        samples = [policy.delay(attempt, rng) for _ in range(200)]
        assert min(samples) >= raw * 0.5
        assert max(samples) <= raw * 1.5
        # Jitter actually spreads the samples (de-synchronizes a fleet).
        assert max(samples) - min(samples) > raw * 0.5


def test_backoff_is_deterministic_under_seeded_rng():
    policy = BackoffPolicy()
    a = [policy.delay(n, random.Random(7)) for n in range(4)]
    b = [policy.delay(n, random.Random(7)) for n in range(4)]
    assert a == b


# ---------------------------------------------------------------------------
# Packet normalization
# ---------------------------------------------------------------------------


def test_packet_obj_accepts_all_three_shapes():
    """An array tuple, a list tuple, and a pre-built row object."""
    values = np.linspace(0.0, 1.0, NUM_METRICS)
    from_list = _packet_obj((3, 2, 100.0, values.tolist()))
    from_tuple = _packet_obj((3, 2, 100.0, values))
    passthrough = {"node_id": 3, "epoch": 2, "generated_at": 100.0,
                   "values": values.tolist()}
    assert _packet_obj(passthrough) is passthrough
    for obj in (from_list, from_tuple):
        assert (obj["node_id"], obj["epoch"], obj["generated_at"]) == (3, 2, 100.0)
        assert obj["values"] == values.tolist()
        # Wire objects must be JSON-serializable as-is.
        json.dumps(obj)


def test_all_shapes_parse_back_to_the_same_session_packet():
    values = np.linspace(0.0, 1.0, NUM_METRICS)
    parsed = [
        protocol.parse_packet(_packet_obj(p))
        for p in ((3, 2, 100.0, values.tolist()), (3, 2, 100.0, values))
    ]
    for node_id, epoch, generated_at, got in parsed:
        assert (node_id, epoch, generated_at) == (3, 2, 100.0)
        assert np.array_equal(got, values)


def test_submit_empty_batch_is_a_local_noop():
    client = ServiceClient(port=1)  # never connected
    assert client.submit("city-a", []) == SubmitResult(accepted=0, queued=0)


# ---------------------------------------------------------------------------
# Reconnect behavior (scripted fake server)
# ---------------------------------------------------------------------------


class _FlakySink(threading.Thread):
    """Accepts connections; drops the first ``drop_first`` mid-request.

    Every connection gets a hello.  The first ``drop_first`` connections
    read one message and close without replying — exactly the ack-never-
    arrived case the SDK must recover from by reconnecting and resending.
    With ``hold``, they keep the connection open instead, until the
    client's ack timeout gives up on it.  Later connections ack every
    ingest normally.
    """

    def __init__(self, drop_first: int = 1, hold: bool = False):
        super().__init__(daemon=True)
        self.drop_first = drop_first
        self.hold = hold
        self.seen_batches = []
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self._accepted = 0
        self.start()

    def run(self):
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            self._accepted += 1
            drop = self._accepted <= self.drop_first
            # The file holds its own reference to the socket: close both,
            # or a dropped connection stays open.
            with conn, conn.makefile("rwb") as file:
                file.write(protocol.encode(protocol.hello()))
                file.flush()
                while True:
                    line = file.readline()
                    if not line:
                        break
                    header = protocol.decode(line)
                    attachment = file.read(protocol.attachment_size(header))
                    seq, _, batch = protocol.parse_ingest(header, attachment)
                    self.seen_batches.append(batch.epochs.tolist())
                    if drop:
                        if self.hold:
                            file.readline()  # until the client hangs up
                        break  # close without acking
                    file.write(protocol.encode(protocol.ack(
                        seq, accepted=len(batch),
                        queued=0,
                    )))
                    file.flush()

    def close(self):
        self.listener.close()


def _fast_backoff():
    return BackoffPolicy(base=0.001, factor=1.0, max_delay=0.001,
                         jitter=0.0, max_attempts=4)


def _packets(n, epoch0=0):
    return [
        {"node_id": 1, "epoch": epoch0 + i, "generated_at": 100.0 + i,
         "values": [0.0] * NUM_METRICS}
        for i in range(n)
    ]


def test_reconnect_resends_unacked_batch():
    sink = _FlakySink(drop_first=1)
    try:
        client = ServiceClient(port=sink.port, backoff=_fast_backoff(),
                               rng=random.Random(0))
        result = client.submit("city-a", _packets(3))
        client.close()
    finally:
        sink.close()
    assert result.accepted == 3
    assert result.reconnects >= 1
    # The batch went over the wire twice: once dropped, once acked.
    assert sink.seen_batches == [[0, 1, 2], [0, 1, 2]]


def test_submit_packs_numpy_integer_ids():
    """Dict packets whose ids and epochs are NumPy integers (read out of
    an array) are sent like Python ints, not refused by the JSON encoder."""
    sink = _FlakySink(drop_first=0)
    packets = [
        dict(p, node_id=np.int64(p["node_id"]), epoch=np.uint16(p["epoch"]))
        for p in _packets(3, epoch0=40)
    ]
    try:
        client = ServiceClient(port=sink.port, backoff=_fast_backoff(),
                               rng=random.Random(0))
        result = client.submit("city-a", packets)
        client.close()
    finally:
        sink.close()
    assert result.accepted == 3
    assert sink.seen_batches == [[40, 41, 42]]


def test_reconnect_survives_several_consecutive_drops():
    sink = _FlakySink(drop_first=3)
    try:
        client = ServiceClient(port=sink.port, backoff=_fast_backoff(),
                               rng=random.Random(0))
        result = client.submit("city-a", _packets(2))
        client.close()
    finally:
        sink.close()
    assert result.accepted == 2
    assert result.reconnects >= 3
    assert len(sink.seen_batches) == 4


def test_reconnect_after_ack_timeout_resends_unacked_batch():
    sink = _FlakySink(drop_first=1, hold=True)
    try:
        client = ServiceClient(port=sink.port, backoff=_fast_backoff(),
                               rng=random.Random(0), timeout=0.2)
        result = client.submit("city-a", _packets(3))
        client.close()
    finally:
        sink.close()
    assert result.accepted == 3
    assert result.reconnects >= 1
    assert sink.seen_batches == [[0, 1, 2], [0, 1, 2]]


def test_unreachable_port_exhausts_backoff():
    # A bound-then-closed socket guarantees nothing is listening there.
    probe = socket.create_server(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = ServiceClient(port=port, backoff=_fast_backoff(),
                           rng=random.Random(0), timeout=0.2)
    with pytest.raises(ServiceUnavailable):
        client._ensure_connected()


# ---------------------------------------------------------------------------
# Async client + loadgen against the real service
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_frame(testbed_trace):
    frame = testbed_trace
    lo = float(frame.generated_at.min())
    hi = float(frame.generated_at.max())
    return frame.window(0.0, lo + 0.5 * (hi - lo))


@pytest.fixture()
def service(testbed_tool):
    with start_service_thread(
        testbed_tool, ServiceConfig(port=0, http_port=0)
    ) as handle:
        yield handle


def test_async_client_submits_and_streams_events(testbed_tool, small_frame):
    packets = list(iter_trace_packets(small_frame))
    reference = []
    for update in testbed_tool.diagnose_stream(small_frame):
        reference.extend(protocol.incident_event_obj(e) for e in update.events)
    assert reference, "window produced no incident events"

    handle = start_service_thread(
        testbed_tool, ServiceConfig(port=0, http_port=0)
    )

    async def scenario():
        sub = AsyncServiceClient(port=handle.port)
        collected = []

        async def collect():
            async for event in sub.events("async-dep"):
                collected.append(event)

        collector = asyncio.ensure_future(collect())
        # The subscribe handshake lives inside the generator's first
        # step; wait until the server actually registered it so no
        # early event can slip past.
        for _ in range(500):
            n = handle.run_sync(
                lambda: len(
                    handle.service.backend.route("async-dep").subscribers
                )
            )
            if n:
                break
            await asyncio.sleep(0.01)
        else:
            raise AssertionError("subscription never registered")

        async with AsyncServiceClient(port=handle.port) as client:
            result = await client.submit("async-dep", packets)
        # A graceful stop drains the shard and flush-closes incidents,
        # then closes the subscriber's connection, ending collect().
        await asyncio.get_event_loop().run_in_executor(None, handle.stop)
        await collector
        await sub.aclose()
        return result, collected

    result, events = asyncio.run(scenario())
    assert result.accepted == len(packets)
    # Differential through the async path too: bit-identical events.
    assert events == reference


def test_loadgen_report_accounts_for_every_packet(service, small_frame):
    with ServiceClient(port=service.port) as client:
        report = replay_trace(client, "lg", small_frame, batch_size=100)
    assert isinstance(report, LoadgenReport)
    assert report.packets_sent == len(small_frame)
    assert report.batches_sent == -(-len(small_frame) // 100)  # ceil div
    assert report.throughput_pps > 0
    assert report.backpressure_retries == 0
    assert report.reconnects == 0
    assert report.speed is None
    assert "flat out" in report.to_text()
    assert f"{report.packets_sent} packets" in report.to_text()


def test_loadgen_pacing_slows_the_replay(service, small_frame):
    # Pick a speed that makes the *last* batch due ~0.4s in; a paced
    # replay must then take at least that long (flat out takes ~ms).
    batch = 16
    packets = list(iter_trace_packets(small_frame))
    n_batches = -(-len(packets) // batch)
    assert n_batches >= 2
    trace_span = packets[(n_batches - 1) * batch][2] - packets[0][2]
    assert trace_span > 0
    speed = trace_span / 0.4
    with ServiceClient(port=service.port) as client:
        report = replay_trace(client, "paced", small_frame, speed=speed,
                              batch_size=batch)
    assert report.packets_sent == len(packets)
    assert report.wall_s >= 0.35
    assert "x trace time" in report.to_text()


def test_loadgen_max_packets_truncates(service, small_frame):
    with ServiceClient(port=service.port) as client:
        report = replay_trace(client, "lg-cap", small_frame,
                              batch_size=32, max_packets=64)
    assert report.packets_sent == 64
    assert report.batches_sent == 2


def test_loadgen_rejects_bad_knobs(service, small_frame):
    client = ServiceClient(port=service.port)
    with pytest.raises(ValueError, match="batch_size"):
        replay_trace(client, "x", small_frame, batch_size=0)
    with pytest.raises(ValueError, match="speed"):
        replay_trace(client, "x", small_frame, speed=0.0)


def test_loadgen_main_writes_report(service, small_frame, tmp_path, capsys):
    from repro.service.loadgen import main
    from repro.traces.io import save_frame_jsonl

    trace_path = tmp_path / "trace.jsonl"
    save_frame_jsonl(small_frame, trace_path)
    report_path = tmp_path / "report.json"
    rc = main([
        str(trace_path), "--port", str(service.port),
        "--deployment", "ci", "--batch", "128",
        "--report", str(report_path),
    ])
    assert rc == 0
    assert "pkt/s" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["deployment"] == "ci"
    assert report["packets_sent"] == len(small_frame)
