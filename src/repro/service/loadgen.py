"""Load generator: replay a saved trace against a running sink.

Feeds a trace's packets — in the canonical arrival order the streaming
engine's bit-identity guarantees assume — through the client SDK, either
flat out (``speed=None``, the throughput-benchmark mode) or paced at a
multiple of trace time (``speed=10`` replays one simulated hour in six
wall-clock minutes).  Backpressure handling comes from the SDK: full
queues slow the generator down instead of losing packets, and the
returned report counts the retries so a benchmark can prove backpressure
actually engaged.

Two shapes of load:

* :func:`replay_trace` — one deployment over one connection (the
  original, unchanged).
* :func:`replay_trace_fanout` — the *cluster* load shape: N deployments,
  each replaying the same trace over its **own connection** from its own
  thread (``client.clone()`` per deployment).  One connection per
  deployment matters because a single lockstep request/ack connection
  serializes acks and can't saturate a multi-worker sink.

Also runnable as a script (the CI service job does)::

    python -m repro.service.loadgen trace.jsonl --port 7433 \
        --deployment citysee --batch 256 --report report.json
    python -m repro.service.loadgen trace.jsonl --port 7433 \
        --fanout 8 --batch 256 --report report.json   # dep-0 .. dep-7
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.core.streaming import iter_packets
from repro.service.client import ServiceClient, SubmitResult
from repro.traces.frame import TraceFrame
from repro.traces.io import load_frame


@dataclass
class LoadgenReport:
    """What one replay did, for humans and CI artifacts."""

    deployment: str
    packets_sent: int
    batches_sent: int
    wall_s: float
    throughput_pps: float
    backpressure_retries: int
    reconnects: int
    peak_queued: int  #: deepest server-side queue depth seen in an ack
    speed: Optional[float]

    def to_text(self) -> str:
        pacing = "flat out" if self.speed is None else f"{self.speed:g}x trace time"
        return (
            f"replayed {self.packets_sent} packets "
            f"({self.batches_sent} batches, {pacing}) "
            f"in {self.wall_s:.2f}s = {self.throughput_pps:,.0f} pkt/s; "
            f"{self.backpressure_retries} backpressure retries, "
            f"{self.reconnects} reconnects, peak queue {self.peak_queued}"
        )


def replay_trace(
    client: ServiceClient,
    deployment: str,
    trace: Union[str, Path, TraceFrame],
    speed: Optional[float] = None,
    batch_size: int = 256,
    max_packets: Optional[int] = None,
) -> LoadgenReport:
    """Replay a trace (path or frame) through ``client`` into ``deployment``.

    Args:
        client: Connected (or connectable) :class:`ServiceClient`.
        deployment: Target shard name.
        trace: Path of a trace file (any codec) or an in-memory frame.
        speed: Rate multiplier on trace time; ``None`` = as fast as possible.
            With pacing, a batch is sent once its *first* packet's
            ``generated_at`` is due.
        batch_size: Packets per ingest message.
        max_packets: Stop after this many packets (``None`` = whole trace).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if speed is not None and speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    frame = trace if isinstance(trace, TraceFrame) else load_frame(trace)

    packets_sent = batches_sent = retries = reconnects = peak_queued = 0
    t_start = time.perf_counter()
    trace_t0: Optional[float] = None

    batch = []
    batch_due: Optional[float] = None

    def _flush() -> None:
        nonlocal packets_sent, batches_sent, retries, reconnects, peak_queued
        result: SubmitResult = client.submit(deployment, batch)
        packets_sent += result.accepted
        batches_sent += 1
        retries += result.backpressure_retries
        reconnects += result.reconnects
        peak_queued = max(peak_queued, result.queued)
        batch.clear()

    for packet in iter_packets(frame):
        if max_packets is not None and packets_sent + len(batch) >= max_packets:
            break
        generated_at = packet[2]
        if trace_t0 is None:
            trace_t0 = generated_at
        if not batch:
            batch_due = (generated_at - trace_t0) / speed if speed else None
        batch.append(packet)
        if len(batch) >= batch_size:
            if batch_due is not None:
                lag = batch_due - (time.perf_counter() - t_start)
                if lag > 0:
                    time.sleep(lag)
            _flush()
    if batch:
        if batch_due is not None:
            lag = batch_due - (time.perf_counter() - t_start)
            if lag > 0:
                time.sleep(lag)
        _flush()

    wall = time.perf_counter() - t_start
    return LoadgenReport(
        deployment=deployment,
        packets_sent=packets_sent,
        batches_sent=batches_sent,
        wall_s=wall,
        throughput_pps=packets_sent / wall if wall > 0 else 0.0,
        backpressure_retries=retries,
        reconnects=reconnects,
        peak_queued=peak_queued,
        speed=speed,
    )


@dataclass
class FanoutReport:
    """Aggregate of one multi-deployment, multi-connection replay."""

    deployments: List[str]
    packets_sent: int
    wall_s: float
    throughput_pps: float  #: aggregate over all deployments
    backpressure_retries: int
    reconnects: int
    errors: List[str] = field(default_factory=list)
    per_deployment: List[LoadgenReport] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"fanout over {len(self.deployments)} deployments: "
            f"{self.packets_sent} packets in {self.wall_s:.2f}s = "
            f"{self.throughput_pps:,.0f} pkt/s aggregate; "
            f"{self.backpressure_retries} backpressure retries, "
            f"{self.reconnects} reconnects"
        ]
        lines += [f"  {r.deployment}: {r.to_text()}" for r in self.per_deployment]
        lines += [f"  ERROR {e}" for e in self.errors]
        return "\n".join(lines)


def replay_trace_fanout(
    client: ServiceClient,
    deployments: List[str],
    trace: Union[str, Path, TraceFrame],
    speed: Optional[float] = None,
    batch_size: int = 256,
    max_packets: Optional[int] = None,
) -> FanoutReport:
    """Replay the same trace into every deployment concurrently.

    ``client`` supplies the endpoint; each deployment gets its own
    cloned connection and thread.  ``max_packets`` is per deployment.
    A thread that raises is reported in ``errors`` rather than killing
    its siblings (the cluster chaos test relies on survivors finishing).
    """
    if not deployments:
        raise ValueError("deployments must be non-empty")
    frame = trace if isinstance(trace, TraceFrame) else load_frame(trace)
    reports: List[Optional[LoadgenReport]] = [None] * len(deployments)
    errors: List[str] = []
    lock = threading.Lock()

    def _one(index: int, deployment: str) -> None:
        try:
            with client.clone() as conn:
                report = replay_trace(
                    conn, deployment, frame,
                    speed=speed, batch_size=batch_size,
                    max_packets=max_packets,
                )
            reports[index] = report
        except Exception as exc:
            with lock:
                errors.append(f"{deployment}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(
            target=_one, args=(i, name), name=f"loadgen-{name}", daemon=True
        )
        for i, name in enumerate(deployments)
    ]
    t_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t_start

    done = [r for r in reports if r is not None]
    packets = sum(r.packets_sent for r in done)
    return FanoutReport(
        deployments=list(deployments),
        packets_sent=packets,
        wall_s=wall,
        throughput_pps=packets / wall if wall > 0 else 0.0,
        backpressure_retries=sum(r.backpressure_retries for r in done),
        reconnects=sum(r.reconnects for r in done),
        errors=errors,
        per_deployment=done,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="replay a saved trace against a running vn2 serve sink",
    )
    parser.add_argument("trace", help="trace file (jsonl or npz)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433)
    parser.add_argument("--deployment", default="loadgen")
    parser.add_argument("--fanout", type=int, default=None, metavar="N",
                        help="replay into N deployments concurrently "
                             "(<deployment>-0 .. <deployment>-{N-1}), one "
                             "connection each — the cluster load shape")
    parser.add_argument("--speed", type=float, default=None,
                        help="trace-time multiplier (default: flat out)")
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--max-packets", type=int, default=None)
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="also write the report as JSON")
    args = parser.parse_args(argv)

    if args.fanout is not None:
        if args.fanout < 1:
            parser.error(f"--fanout must be >= 1, got {args.fanout}")
        names = [f"{args.deployment}-{i}" for i in range(args.fanout)]
        report = replay_trace_fanout(
            ServiceClient(host=args.host, port=args.port),
            names,
            args.trace,
            speed=args.speed,
            batch_size=args.batch,
            max_packets=args.max_packets,
        )
        print(report.to_text())
        if args.report:
            Path(args.report).write_text(json.dumps(asdict(report), indent=2))
        return 1 if report.errors else 0

    with ServiceClient(host=args.host, port=args.port) as client:
        report = replay_trace(
            client,
            args.deployment,
            args.trace,
            speed=args.speed,
            batch_size=args.batch,
            max_packets=args.max_packets,
        )
    print(report.to_text())
    if args.report:
        Path(args.report).write_text(json.dumps(asdict(report), indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
