"""CI smoke test: the live dashboard on a 2-worker sink, end to end.

What it proves, in order:

1. ``vn2 serve --workers 2 --dashboard`` starts a process-pool backend
   with the dashboard routes live (``/health`` reports
   ``dashboard: true`` plus ``uptime_s``/``model_version``);
2. an SSE client attached *before* the replay receives the complete
   incident feed while the testbed trace streams through the load
   generator — every captured data payload validates against the
   documented stream contract (``validate_stream_event``), and the
   event objects match ``vn2 watch`` over the same file byte for byte;
3. ``GET /api/topology`` — the *merged* cluster view, nodes summarized
   inside worker processes and assembled by the front door — validates
   against the documented topology contract (``validate_topology_doc``)
   and covers every node the trace contains;
4. the Prometheus scrape carries a ``# HELP`` line for every metric
   (``validate_exposition(require_help=True)``) including the
   ``repro_dashboard_*`` family, and ``/dashboard`` serves the page.

The topology document, the captured SSE stream, the scrape and the
loadgen report are kept as the job's artifacts.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import urlopen

from repro.core.pipeline import VN2, VN2Config
from repro.dashboard import validate_stream_event, validate_topology_doc
from repro.obs import validate_exposition
from repro.service.client import http_get_json
from repro.traces.io import save_frame_jsonl
from repro.traces.testbed import TestbedScenario, generate_testbed_frame

N_WORKERS = 2
CAPTURE_IDLE_S = 5.0

work = Path(os.environ.get("VN2_DASHBOARD_DIR", "dashboard-smoke"))
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

# --- 2. vn2 serve --workers 2 --dashboard.
ready = work / "ports.json"
server = subprocess.Popen([
    sys.executable, "-m", "repro.cli", "serve", str(work / "model"),
    "--port", "0", "--http-port", "0", "--workers", str(N_WORKERS),
    "--dashboard", "--positions-from", str(trace_path),
    "--ready-file", str(ready),
])
try:
    deadline = time.monotonic() + 120.0
    while not ready.exists():
        assert server.poll() is None, "server exited before becoming ready"
        assert time.monotonic() < deadline, "no ready file within 120s"
        time.sleep(0.05)
    ports = json.loads(ready.read_text())
    assert ports["backend"] == "pool", ports

    health = http_get_json("127.0.0.1", ports["http_port"], "/health")
    assert health["dashboard"] is True, health
    assert health["uptime_s"] >= 0.0 and health["model_version"], health

    # --- 3. Attach the SSE client before any packet flows.
    sse = socket.create_connection(("127.0.0.1", ports["http_port"]),
                                   timeout=10.0)
    sse.sendall(b"GET /api/incidents/stream HTTP/1.1\r\nHost: ci\r\n\r\n")
    chunks = []

    def _read_stream():
        try:
            while True:
                data = sse.recv(65536)
                if not data:
                    return
                chunks.append(data)
        except OSError:
            return

    reader = threading.Thread(target=_read_stream, daemon=True)
    reader.start()
    deadline = time.monotonic() + 10.0
    while b"event: hello" not in b"".join(chunks):
        assert time.monotonic() < deadline, "no hello frame within 10s"
        time.sleep(0.05)

    # --- 4. Replay the trace through the loadgen CLI.
    rc = subprocess.call([
        sys.executable, "-m", "repro.service.loadgen", str(trace_path),
        "--port", str(ports["port"]), "--deployment", "smoke",
        "--batch", "256", "--report", str(work / "loadgen-report.json"),
    ])
    assert rc == 0, f"loadgen exited {rc}"
    report = json.loads((work / "loadgen-report.json").read_text())
    assert report["packets_sent"] == len(frame), report

    # --- 5. Capture the stream until it idles (>= CAPTURE_IDLE_S quiet).
    quiet_since = time.monotonic()
    seen = len(b"".join(chunks))
    while time.monotonic() - quiet_since < CAPTURE_IDLE_S:
        time.sleep(0.25)
        size = len(b"".join(chunks))
        if size != seen:
            seen, quiet_since = size, time.monotonic()
    sse.close()
    reader.join(timeout=10.0)

    raw = b"".join(chunks)
    (work / "incidents-stream.sse").write_bytes(raw)
    payloads = [
        json.loads(line[6:])
        for block in raw.partition(b"\r\n\r\n")[2].split(b"\n\n")
        for line in block.split(b"\n")
        if line.startswith(b"data: ")
    ]
    kinds = [validate_stream_event(p) for p in payloads]
    assert kinds.count("hello") == 1, kinds
    served = [p["event"] for p in payloads if p["type"] == "event"]
    # Bit-identity: the SSE feed is the watch stream.  The watch log may
    # additionally end with flush-close events — watch emits those at
    # EOF, the sink only at SIGTERM drain (after this capture ended) —
    # so the served stream must be a prefix and the remainder all closes.
    assert served, "SSE served no incident events"
    assert served == reference[:len(served)], (
        f"SSE stream diverges from the watch log "
        f"(served {len(served)}, watch {len(reference)})"
    )
    tail = reference[len(served):]
    assert all(e["kind"] == "close" for e in tail), (
        f"watch log tail beyond the SSE capture is not all flush-closes: "
        f"{[e['kind'] for e in tail]}"
    )

    # --- 6. The merged topology document.
    topology = http_get_json("127.0.0.1", ports["http_port"], "/api/topology")
    (work / "topology.json").write_text(json.dumps(topology, indent=2))
    n_nodes = validate_topology_doc(topology)
    trace_nodes = {json.loads(line)["node_id"] for line in rows}
    assert n_nodes == len(trace_nodes), (n_nodes, len(trace_nodes))
    smoke = topology["deployments"]["smoke"]
    assert smoke["edges"], "no collection-tree edges inferred"
    assert topology["server"]["backend"] == "pool", topology["server"]

    series = http_get_json("127.0.0.1", ports["http_port"], "/api/series")
    (work / "series.json").write_text(json.dumps(series, indent=2))
    assert "repro_dashboard_events_total" in series["metrics"], (
        sorted(series["metrics"])
    )

    # --- 7. Every scraped metric documents itself with # HELP.
    url = (f"http://127.0.0.1:{ports['http_port']}"
           "/metrics?format=prometheus")
    with urlopen(url, timeout=10.0) as response:
        scrape = response.read().decode("utf-8")
    (work / "metrics.prom").write_text(scrape)
    samples = validate_exposition(scrape, require_help=True)
    assert samples > 0
    assert "# HELP repro_dashboard_clients_total" in scrape

    with urlopen(f"http://127.0.0.1:{ports['http_port']}/dashboard",
                 timeout=10.0) as response:
        page = response.read()
    assert b"/api/incidents/stream" in page and len(page) > 4096

    # --- 8. Graceful shutdown.
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=120.0) == 0, "serve did not drain cleanly"
finally:
    if server.poll() is None:
        server.kill()

print(
    f"dashboard served {len(served)} SSE incident events over "
    f"{len(frame)} packets ({N_WORKERS} workers), topology covers "
    f"{n_nodes} nodes / {len(smoke['edges'])} edges, {samples} metric "
    "samples all documented -- identical to vn2 watch"
)
