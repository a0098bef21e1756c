"""Service throughput and backpressure acceptance benches.

Three gates, stacked across two PRs:

* the load generator sustains >= 5,000 packets/s against a local
  ``repro.service`` sink running the default CitySee model, with the
  shard queue depth bounded the whole way,
* a deliberately full queue produces explicit backpressure acks — the
  SDK retries until the worker catches up and not one packet is lost,
* and the cluster PR's scaling gate: the same fanout load against
  ``--workers 4`` sustains >= 3x the single-worker aggregate throughput
  across 8 deployments (>= 100k pkt/s on target hardware), with the
  merged cluster ``/metrics`` scrape validating mid-run.

All of them run the real stack: TCP sockets, NDJSON framing, shard
routing, the streaming diagnosis session — and for the scaling gate,
real forked worker processes.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.pipeline import VN2, VN2Config
from repro.core.streaming import iter_packets
from repro.service import protocol
from repro.service.client import ServiceClient, http_get_json
from repro.service.loadgen import replay_trace, replay_trace_fanout
from repro.service.server import ServiceConfig, start_service_thread

THROUGHPUT_FLOOR_PPS = 5_000

CLUSTER_WORKERS = 4
CLUSTER_DEPLOYMENTS = 8
CLUSTER_SCALING_FLOOR = 3.0  #: 4-worker / 1-worker aggregate pps
CLUSTER_TARGET_PPS = 100_000


@pytest.fixture(scope="module")
def citysee_service_tool(citysee_default_trace):
    """VN2 fitted on the default (medium) CitySee trace — the model the
    throughput gate is stated against."""
    return VN2(VN2Config(rank=20)).fit(citysee_default_trace)


def test_bench_service_throughput(benchmark, citysee_service_tool,
                                  citysee_default_trace):
    frame = citysee_default_trace
    config = ServiceConfig(port=0, http_port=0)
    with start_service_thread(citysee_service_tool, config) as handle:

        def replay():
            with ServiceClient(port=handle.port) as client:
                return replay_trace(client, "bench", frame, batch_size=512)

        report = benchmark.pedantic(replay, rounds=1, iterations=1)
        handle.stop(drain=True)
        metrics = handle.service.metrics_snapshot()
        shard = metrics["deployments"]["bench"]

    print("\n=== Service ingest throughput (default CitySee model) ===")
    print(report.to_text())
    print(f"shard: {shard['packets']} packets -> {shard['states']} states, "
          f"{shard['exceptions']} exceptions, "
          f"{shard['incidents_closed']} incidents closed")
    latency = shard["ingest_latency"]
    print(f"ingest latency: p50 {latency['p50_ms']:.2f} ms, "
          f"p99 {latency['p99_ms']:.2f} ms over {latency['count']} batches")
    print(f"peak queue depth {report.peak_queued} "
          f"(bound {config.queue_size})")

    # The gate: sustained socket-to-diagnosis ingest at >= 5k pkt/s.
    assert report.packets_sent == len(frame)
    assert report.throughput_pps >= THROUGHPUT_FLOOR_PPS, (
        f"{report.throughput_pps:,.0f} pkt/s below the "
        f"{THROUGHPUT_FLOOR_PPS:,} floor"
    )
    # Queue depth stayed bounded, and every accepted packet was diagnosed.
    assert report.peak_queued <= config.queue_size
    assert shard["queue_depth_packets"] == 0
    assert shard["packets"] == shard["packets_accepted"] == len(frame)


def test_bench_service_backpressure_drops_nothing(benchmark,
                                                  citysee_service_tool,
                                                  citysee_default_trace):
    packets = list(iter_packets(citysee_default_trace))[:4096]
    config = ServiceConfig(port=0, http_port=0, queue_size=1024,
                           retry_after_s=0.01)

    def scenario():
        with start_service_thread(citysee_service_tool, config) as handle:
            probe = ServiceClient(port=handle.port)
            probe._ensure_connected()
            probe.submit("bp", packets[:1])
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if handle.run_sync(
                    lambda: handle.service.backend.routes["bp"].pending
                ) == 0:
                    break
                time.sleep(0.01)
            handle.run_sync(lambda: handle.service.backend.transport.pause())

            # Frozen worker: raw ingests must hit an explicit rejection.
            rejections = 0
            sent = 1
            seq = 1000
            for start in range(1, len(packets), 512):
                batch = packets[start:start + 512]
                seq += 1
                reply = probe._roundtrip(protocol.ingest(
                    "bp",
                    [dict(node_id=int(p[0]), epoch=int(p[1]),
                          generated_at=float(p[2]), values=p[3].tolist())
                     for p in batch],
                    seq=seq,
                ))
                assert reply["queued"] <= config.queue_size
                if reply["accepted"]:
                    sent += reply["accepted"]
                else:
                    assert reply["reason"] == "queue_full"
                    rejections += 1
            assert rejections >= 1, "queue never filled"

            # Worker resumes; the SDK's retry loop lands the remainder.
            handle.run_sync(
                lambda: handle.service.backend.transport.unpause()
            )
            sdk = ServiceClient(port=handle.port)
            retries = 0
            for start in range(sent, len(packets), 512):
                result = sdk.submit("bp", packets[start:start + 512])
                sent += result.accepted
                retries += result.backpressure_retries

            handle.stop(drain=True)
            snapshot = handle.service.metrics_snapshot()["deployments"]["bp"]
            probe.close()
            sdk.close()
        return rejections, retries, sent, snapshot

    rejections, retries, sent, snapshot = benchmark.pedantic(
        scenario, rounds=1, iterations=1
    )

    print("\n=== Backpressure under a full queue ===")
    print(f"queue bound {config.queue_size} packets; "
          f"{rejections} batches rejected with retry_after, "
          f"{retries} SDK retries")
    print(f"delivered {sent}/{len(packets)} packets; shard diagnosed "
          f"{snapshot['packets']} (accepted {snapshot['packets_accepted']})")

    # Explicit acks, not silent drops: everything sent was diagnosed.
    assert snapshot["batches_rejected"] >= 1
    assert sent == len(packets)
    assert snapshot["packets"] == snapshot["packets_accepted"] == len(packets)
    assert snapshot["queue_depth_packets"] == 0


def test_bench_service_metrics_endpoint_under_load(citysee_service_tool,
                                                   citysee_default_trace):
    """/metrics answers while ingest is running (operator visibility is
    the paper's point — it must not require quiescing the sink)."""
    frame = citysee_default_trace
    with start_service_thread(
        citysee_service_tool, ServiceConfig(port=0, http_port=0)
    ) as handle:
        polls = []

        import threading

        def poll():
            while not done.is_set():
                doc = http_get_json(handle.host, handle.http_port, "/metrics")
                polls.append(doc["totals"]["packets"])
                time.sleep(0.02)

        done = threading.Event()
        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        with ServiceClient(port=handle.port) as client:
            replay_trace(client, "live", frame, batch_size=512)
        done.set()
        poller.join(timeout=5.0)

    print(f"\n/metrics answered {len(polls)} times during replay; "
          f"packet counts seen: {polls[:3]} ... {polls[-3:]}")
    assert len(polls) >= 3
    assert polls == sorted(polls)  # monotone ingest counter


def _cluster_fanout(tool, frame, workers: int):
    """One fanout replay against a pool sink; returns (report, scrape)."""
    from urllib.request import urlopen

    names = [f"bench-{i}" for i in range(CLUSTER_DEPLOYMENTS)]
    config = ServiceConfig(port=0, http_port=0, workers=workers)
    with start_service_thread(tool, config) as handle:
        report = replay_trace_fanout(
            ServiceClient(port=handle.port), names, frame, batch_size=512,
        )
        url = (f"http://{handle.host}:{handle.http_port}"
               "/metrics?format=prometheus")
        with urlopen(url, timeout=10.0) as response:
            scrape = response.read().decode("utf-8")
        handle.stop(drain=True)
    if report.errors:
        raise AssertionError(f"fanout errors: {report.errors}")
    return report, scrape


@pytest.mark.skipif(
    (os.cpu_count() or 1) < CLUSTER_WORKERS + 1,
    reason=f"cluster scaling gate needs >= {CLUSTER_WORKERS + 1} cores "
           f"({CLUSTER_WORKERS} workers + front door)",
)
def test_bench_cluster_scaling(benchmark, citysee_service_tool,
                               citysee_default_trace):
    """The cluster PR's gate: paired 1-worker vs 4-worker fanout.

    Same trace, same 8 deployments, same forked-worker machinery (one
    worker is a real process at ``workers=1``) — the only variable is
    worker count, so the ratio isolates what the
    process pool buys over a single diagnosis process.
    """
    from repro.obs import validate_exposition

    frame = citysee_default_trace
    solo, _ = _cluster_fanout(citysee_service_tool, frame, workers=1)

    clustered, scrape = benchmark.pedantic(
        lambda: _cluster_fanout(
            citysee_service_tool, frame, workers=CLUSTER_WORKERS
        ),
        rounds=1, iterations=1,
    )
    speedup = clustered.throughput_pps / solo.throughput_pps

    print(f"\n=== Cluster scaling ({CLUSTER_DEPLOYMENTS} deployments) ===")
    print(f"1 worker : {solo.to_text()}")
    print(f"{CLUSTER_WORKERS} workers: {clustered.to_text()}")
    print(f"speedup {speedup:.2f}x "
          f"(floor {CLUSTER_SCALING_FLOOR:.1f}x at {CLUSTER_WORKERS} workers)")

    expected = len(frame) * CLUSTER_DEPLOYMENTS
    assert solo.packets_sent == clustered.packets_sent == expected

    # The merged mid-run scrape is one valid exposition with every
    # worker's streaming series present.
    assert validate_exposition(scrape) > 0
    for i in range(CLUSTER_WORKERS):
        assert f'worker="w{i}"' in scrape

    assert speedup >= CLUSTER_SCALING_FLOOR, (
        f"{CLUSTER_WORKERS}-worker aggregate only {speedup:.2f}x the "
        f"single-worker rate (floor {CLUSTER_SCALING_FLOOR:.1f}x)"
    )
    assert clustered.throughput_pps >= CLUSTER_TARGET_PPS, (
        f"{clustered.throughput_pps:,.0f} pkt/s aggregate below the "
        f"{CLUSTER_TARGET_PPS:,} target"
    )
