"""CI smoke test: the sink *cluster* — `vn2 serve --workers 3` end to end.

Everything the single-process service smoke proves, plus the cluster
guarantees:

1. ``vn2 serve --workers 3`` starts a process-pool backend; the
   ``--ready-file`` appears only after every worker heartbeats (its JSON
   records ``backend: pool, workers: 3``);
2. the testbed trace replayed through the load generator into one
   deployment produces an event stream identical to ``vn2 watch`` over
   the same file — the worker boundary must be bit-invisible;
3. a chaos step: a second deployment (routed to a *different* worker)
   is mid-replay when its owner is SIGKILLed.  The front door hands the
   deployment to a survivor, replays unacked batches (at-least-once),
   and the replay completes with nothing stuck in the queue;
4. the merged ``/metrics?format=prometheus`` scrape — front door plus
   per-worker registry dumps — validates as one exposition and records
   the handoff.  It is kept as the job's artifact.

Worker routing is consistent hashing over ``w0..w2``, so the script
precomputes placement with the same :class:`HashRing` and *chooses* a
chaos deployment owned by a different worker than the differential one.
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
from repro.core.streaming import iter_packets
from repro.obs import validate_exposition
from repro.service.backends import HashRing
from repro.service.client import ServiceClient, http_get_json
from repro.traces.io import save_frame_jsonl
from repro.traces.testbed import TestbedScenario, generate_testbed_frame

N_WORKERS = 3

work = Path(os.environ.get("VN2_CLUSTER_DIR", "cluster-smoke"))
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

# Precompute routing: the chaos deployment must live on a different
# worker than the differential one, so killing it cannot perturb the
# bit-identity assertion.
ring = HashRing([f"w{i}" for i in range(N_WORKERS)])
smoke_owner = ring.lookup("smoke")
chaos_dep = next(
    name for name in (f"chaos-{i}" for i in range(64))
    if ring.lookup(name) != smoke_owner
)
chaos_owner = ring.lookup(chaos_dep)
print(f"routing: smoke -> {smoke_owner}, {chaos_dep} -> {chaos_owner}")

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

# --- 2. vn2 serve --workers 3; ready file gates on worker heartbeats.
ready = work / "ports.json"
server = subprocess.Popen([
    sys.executable, "-m", "repro.cli", "serve", str(work / "model"),
    "--port", "0", "--http-port", "0", "--workers", str(N_WORKERS),
    "--positions-from", str(trace_path),
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
    # The ready file lists the workers it waited for — all heartbeating.
    assert len(ports["workers"]) == N_WORKERS, ports
    assert all(w["alive"] for w in ports["workers"]), ports

    health = http_get_json("127.0.0.1", ports["http_port"], "/health")
    assert len(health["workers"]) == N_WORKERS, health
    pids = {w["id"]: w["pid"] for w in health["workers"]}

    served = []

    def subscribe():
        client = ServiceClient(port=ports["port"])
        for event in client.events("smoke"):
            served.append(event)
        client.close()

    subscriber = threading.Thread(target=subscribe, daemon=True)
    subscriber.start()
    deadline = time.monotonic() + 30.0
    while True:
        metrics = http_get_json("127.0.0.1", ports["http_port"], "/metrics")
        shard = metrics["deployments"].get("smoke")
        if shard and shard["subscribers"] >= 1:
            break
        assert time.monotonic() < deadline, "subscription never registered"
        time.sleep(0.05)
    assert shard["worker"] == smoke_owner, shard

    # --- 3. Differential replay through the loadgen CLI.
    rc = subprocess.call([
        sys.executable, "-m", "repro.service.loadgen", str(trace_path),
        "--port", str(ports["port"]), "--deployment", "smoke",
        "--batch", "256", "--report", str(work / "loadgen-report.json"),
    ])
    assert rc == 0, f"loadgen exited {rc}"
    report = json.loads((work / "loadgen-report.json").read_text())
    assert report["packets_sent"] == len(frame), report

    # --- 4. Chaos: SIGKILL the chaos deployment's worker mid-replay.
    packets = list(iter_packets(frame))
    starts = list(range(0, len(packets), 128))
    with ServiceClient(port=ports["port"]) as chaos_client:
        for i, start in enumerate(starts):
            if i == len(starts) // 3:
                print(f"chaos: SIGKILL {chaos_owner} (pid {pids[chaos_owner]})")
                os.kill(pids[chaos_owner], signal.SIGKILL)
            chaos_client.submit(chaos_dep, packets[start:start + 128])

    deadline = time.monotonic() + 60.0
    while True:
        health = http_get_json("127.0.0.1", ports["http_port"], "/health")
        alive = {w["id"]: w["alive"] for w in health["workers"]}
        metrics = http_get_json("127.0.0.1", ports["http_port"], "/metrics")
        chaos_shard = metrics["deployments"][chaos_dep]
        if (not alive[chaos_owner]
                and chaos_shard["worker"] != chaos_owner
                and metrics["totals"]["queue_depth_packets"] == 0):
            break
        assert time.monotonic() < deadline, (
            f"handoff never completed: alive={alive}, shard={chaos_shard}"
        )
        time.sleep(0.05)
    assert sum(alive.values()) == N_WORKERS - 1, alive
    # At-least-once: the adopting worker's fresh session saw at least the
    # unacked + post-kill batches (duplicates allowed, loss is not).
    assert chaos_shard["packets"] > 0, chaos_shard
    (work / "metrics.json").write_text(json.dumps(metrics, indent=2))
    assert metrics["totals"]["packets"] >= len(frame)

    # --- 5. Merged cluster scrape: one valid exposition, handoff visible.
    from urllib.request import urlopen

    url = (f"http://127.0.0.1:{ports['http_port']}"
           "/metrics?format=prometheus")
    with urlopen(url, timeout=10.0) as response:
        scrape = response.read().decode("utf-8")
    (work / "cluster-metrics.prom").write_text(scrape)
    samples = validate_exposition(scrape)
    assert samples > 0
    assert f'worker="{smoke_owner}"' in scrape, "per-worker series missing"
    handoffs = [
        float(line.rsplit(" ", 1)[1])
        for line in scrape.splitlines()
        if line.startswith("repro_service_worker_handoffs_total")
    ]
    assert handoffs and handoffs[0] >= 1.0, "handoff not recorded"

    # --- 6. Graceful shutdown: drain_all flushes, workers say w_bye.
    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=120.0) == 0, "serve did not drain cleanly"
    subscriber.join(timeout=30.0)
    assert not subscriber.is_alive(), "subscriber never saw the close"
finally:
    if server.poll() is None:
        server.kill()

# --- 7. The differential: the cluster's stream is the watch stream.
assert len(served) == len(reference), (
    f"served {len(served)} events, watch logged {len(reference)}"
)
assert served == reference, "served events differ from the watch log"
print(
    f"cluster served {len(served)} incident events over {len(frame)} packets "
    f"at {report['throughput_pps']:,.0f} pkt/s with {N_WORKERS} workers, "
    f"survived SIGKILL of {chaos_owner} ({samples} merged metric samples) "
    f"-- identical to vn2 watch"
)
