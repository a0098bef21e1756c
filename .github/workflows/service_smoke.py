"""CI smoke test: `vn2 serve` end-to-end, differentialed against `vn2 watch`.

Trains a small testbed model, writes its trace as JSONL in canonical
arrival order, then:

1. runs ``vn2 watch --no-follow`` over the file — the reference
   incident-event stream (flush-closes included);
2. starts ``vn2 serve`` as a subprocess (ephemeral ports, ``--ready-file``
   handshake), subscribes with the client SDK, and replays the same file
   through the load generator (``python -m repro.service.loadgen``);
3. snapshots ``/metrics`` (kept as the job's artifact with the loadgen
   report) and SIGTERMs the server — the graceful drain flush-closes
   open incidents and ends the subscription;
4. asserts the served events are identical to the watch log.

The trace file is pre-sorted because ``vn2 watch`` consumes file order
while the loadgen replays ``iter_packets`` (arrival) order; with the
file already in arrival order both engines see the same sequence, so
their event streams must match bit for bit.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.pipeline import VN2, VN2Config
from repro.service.client import ServiceClient, http_get_json
from repro.traces.io import save_frame_jsonl
from repro.traces.testbed import TestbedScenario, generate_testbed_frame

work = Path(os.environ.get("VN2_SERVICE_DIR", "service-smoke"))
work.mkdir(parents=True, exist_ok=True)

frame = generate_testbed_frame(TestbedScenario.EXPANSIVE, seed=7)
VN2(VN2Config(rank=10, filter_exceptions=False)).fit(frame).save(work / "model")

save_frame_jsonl(frame, work / "node-major.jsonl")
header, *rows = (work / "node-major.jsonl").read_text().splitlines()


def _arrival_key(line):
    obj = json.loads(line)
    return (obj["generated_at"], obj["node_id"], obj["epoch"])


trace_path = work / "trace.jsonl"
trace_path.write_text(
    "\n".join([header] + sorted(rows, key=_arrival_key)) + "\n"
)

# --- 1. Reference: vn2 watch over the complete, arrival-ordered file.
watch_log = work / "watch-events.jsonl"
rc = subprocess.call([
    sys.executable, "-m", "repro.cli", "watch", str(trace_path),
    "--model", str(work / "model"), "--no-follow",
    "--output", str(watch_log),
])
assert rc == 0, f"vn2 watch exited {rc}"
reference = [json.loads(line) for line in watch_log.read_text().splitlines()]
assert reference, "watch produced no incident events"

# --- 2. vn2 serve + SDK subscription + loadgen replay.
ready = work / "ports.json"
server = subprocess.Popen([
    sys.executable, "-m", "repro.cli", "serve", str(work / "model"),
    "--port", "0", "--http-port", "0",
    "--positions-from", str(trace_path),
    "--ready-file", str(ready),
])
try:
    deadline = time.monotonic() + 60.0
    while not ready.exists():
        assert server.poll() is None, "server exited before binding"
        assert time.monotonic() < deadline, "no ready file within 60s"
        time.sleep(0.05)
    ports = json.loads(ready.read_text())

    served = []

    def subscribe():
        client = ServiceClient(port=ports["port"])
        for event in client.events("smoke"):
            served.append(event)
        client.close()

    subscriber = threading.Thread(target=subscribe, daemon=True)
    subscriber.start()
    # The subscription creates the shard; wait until the server shows it
    # so no early event can be published before we listen.
    deadline = time.monotonic() + 30.0
    while True:
        metrics = http_get_json("127.0.0.1", ports["http_port"], "/metrics")
        shard = metrics["deployments"].get("smoke")
        if shard and shard["subscribers"] >= 1:
            break
        assert time.monotonic() < deadline, "subscription never registered"
        time.sleep(0.05)

    rc = subprocess.call([
        sys.executable, "-m", "repro.service.loadgen", str(trace_path),
        "--port", str(ports["port"]), "--deployment", "smoke",
        "--batch", "256", "--report", str(work / "loadgen-report.json"),
    ])
    assert rc == 0, f"loadgen exited {rc}"
    report = json.loads((work / "loadgen-report.json").read_text())
    assert report["packets_sent"] == len(frame), report

    # Let the shard drain, then keep the /metrics snapshot as an artifact.
    deadline = time.monotonic() + 60.0
    while True:
        metrics = http_get_json("127.0.0.1", ports["http_port"], "/metrics")
        if metrics["totals"]["queue_depth_packets"] == 0:
            break
        assert time.monotonic() < deadline, "shard never drained"
        time.sleep(0.05)
    (work / "metrics.json").write_text(json.dumps(metrics, indent=2))
    assert metrics["totals"]["packets"] == len(frame)

    # --- 3. Graceful shutdown: drain flushes open incidents to the
    # subscriber, then the connection closes and the thread exits.
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=60.0) == 0, "serve did not drain cleanly"
    subscriber.join(timeout=30.0)
    assert not subscriber.is_alive(), "subscriber never saw the close"
finally:
    if server.poll() is None:
        server.kill()

# --- 4. The differential.
assert len(served) == len(reference), (
    f"served {len(served)} events, watch logged {len(reference)}"
)
assert served == reference, "served events differ from the watch log"
print(
    f"served {len(served)} incident events over {len(frame)} packets "
    f"at {report['throughput_pps']:,.0f} pkt/s -- identical to vn2 watch"
)
