"""CI smoke test: the observability surfaces, end to end.

1. ``vn2 profile`` wraps a small CitySee training run: the exported span
   JSONL (the job's artifact) must contain every ``fit.*`` stage of the
   pipeline, parent-linked to one root.
2. ``vn2 serve`` hosts the trained model; a few hundred packets go in
   through the client SDK, then ``/metrics?format=prometheus`` is pulled
   and checked with :func:`repro.obs.validate_exposition` — the scrape a
   real Prometheus would take, kept as the second artifact.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.request import urlopen

from repro.obs import validate_exposition

work = Path(os.environ.get("VN2_OBS_DIR", "obs-smoke"))
work.mkdir(parents=True, exist_ok=True)

# --- 1. vn2 profile around a real training run.
spans_path = work / "train-spans.jsonl"
model = work / "model"
rc = subprocess.call([
    sys.executable, "-m", "repro.cli",
    "profile", "--top", "10", "--output", str(spans_path),
    "train", "citysee:tiny", "--rank", "8", "--output", str(model),
])
assert rc == 0, f"vn2 profile train exited {rc}"
records = [
    json.loads(line) for line in spans_path.read_text().splitlines()
]
names = {r["name"] for r in records}
required = {
    "vn2 train", "fit", "fit.states", "fit.exceptions", "fit.normalize",
    "fit.nmf", "fit.sparsify", "fit.interpret",
}
assert required <= names, f"span coverage missing {required - names}"
roots = [r for r in records if r["parent_id"] is None]
assert [r["name"] for r in roots] == ["vn2 train"], roots
assert all(r["status"] == "ok" for r in records)
print(f"profile: {len(records)} spans exported, all fit stages covered")

# --- 2. vn2 serve + a real Prometheus-style scrape.
ready = work / "ports.json"
server = subprocess.Popen([
    sys.executable, "-m", "repro.cli", "serve", str(model),
    "--port", "0", "--http-port", "0", "--ready-file", str(ready),
])
try:
    deadline = time.monotonic() + 60.0
    while not ready.exists():
        assert server.poll() is None, "server exited before binding"
        assert time.monotonic() < deadline, "no ready file within 60s"
        time.sleep(0.05)
    ports = json.loads(ready.read_text())

    from repro.core.streaming import iter_packets
    from repro.service.client import ServiceClient
    from repro.traces.citysee import CitySeeProfile, generate_citysee_frame

    # cache hit: the profile run above already generated this frame
    frame = generate_citysee_frame(CitySeeProfile.tiny())
    packets = []
    for i, (node, epoch, at, values) in enumerate(iter_packets(frame)):
        if i >= 500:
            break
        packets.append((node, epoch, at, values.tolist()))
    with ServiceClient(port=ports["port"]) as client:
        client.submit("smoke", packets)

    # wait for the shard to drain so the scrape shows settled counters
    deadline = time.monotonic() + 60.0
    while True:
        with urlopen(
            f"http://127.0.0.1:{ports['http_port']}/metrics", timeout=10.0
        ) as response:
            doc = json.loads(response.read().decode("utf-8"))
        if doc["totals"]["queue_depth_packets"] == 0:
            break
        assert time.monotonic() < deadline, "shard never drained"
        time.sleep(0.05)

    url = f"http://127.0.0.1:{ports['http_port']}/metrics?format=prometheus"
    with urlopen(url, timeout=10.0) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read().decode("utf-8")
    (work / "metrics.prom").write_text(body)

    assert "version=0.0.4" in content_type, content_type
    n_samples = validate_exposition(body)
    with urlopen(
        f"http://127.0.0.1:{ports['http_port']}/health", timeout=10.0
    ) as response:
        version = json.loads(response.read().decode("utf-8"))["model_version"]
    # Session series carry the shard worker's labels: on the event loop
    # that is worker "w0", exactly as with one forked worker.
    session_labels = f'deployment="smoke",model_version="{version}",worker="w0"'
    expected = (
        f"repro_streaming_packets_total{{{session_labels}}} 500",
        '# TYPE repro_service_ingest_seconds histogram',
        f"repro_incidents_opened_total{{{session_labels}}}",
    )
    for needle in expected:
        assert needle in body, f"missing from exposition: {needle!r}"
    print(f"prometheus: {n_samples} samples, exposition syntax valid")
finally:
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            server.kill()

assert server.returncode == 0, f"serve exited {server.returncode}"
print("obs smoke: profile tree + prometheus scrape OK")
