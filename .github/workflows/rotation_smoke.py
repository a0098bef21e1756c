"""CI smoke test: zero-downtime model rotation on a live sink cluster.

The scenario the model-lifecycle layer exists for, end to end:

1. Two saved artifacts that *diagnose identically* but carry different
   ``model_version`` hashes (same fit, one config field nudged before the
   second save).  ``vn2 model info`` reads both, ``vn2 model diff``
   exits 1 and names the differing config key — the operator surface.
2. ``vn2 serve --workers 3`` on model A; half the testbed trace is
   replayed into a subscribed deployment and drained.
3. Chaos: a worker that does **not** own the deployment is SIGKILLed and
   ``vn2 model rotate`` fires immediately after — the rotation barrier
   must resolve against the dead worker (pruned, not timed out) and the
   surviving workers must all adopt model B.
4. The second half is replayed, the server drains on SIGTERM, and the
   served incident-event stream is asserted **bit-identical** to a
   single-model ``vn2 watch`` over the full file: because the two models
   share their arrays, a correct mid-stream rotation is invisible in the
   event stream.  Any dropped, duplicated or reordered packet at the
   rotation boundary (or during the worker kill) breaks the equality.

The ``/model`` doc and final ``/metrics`` snapshot are kept as the job's
artifact, so the rotation counters are visible per build.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.core.pipeline import VN2, VN2Config
from repro.core.streaming import iter_packets
from repro.service.backends import HashRing
from repro.service.client import ServiceClient, http_get_json
from repro.traces.io import save_frame_jsonl
from repro.traces.testbed import TestbedScenario, generate_testbed_frame

N_WORKERS = 3

work = Path(os.environ.get("VN2_ROTATION_DIR", "rotation-smoke"))
work.mkdir(parents=True, exist_ok=True)

# --- 1. Two versions of the same model: identical arrays, distinct hash.
frame = generate_testbed_frame(TestbedScenario.EXPANSIVE, seed=7)
tool = VN2(VN2Config(rank=10, filter_exceptions=False)).fit(frame)
tool.save(work / "model-a")
version_a = tool.model_version
tool.config = replace(
    tool.config, nmf_iterations=tool.config.nmf_iterations + 1
)
tool._model_version = None  # config is part of the fingerprint
tool.save(work / "model-b")
version_b = tool.model_version
assert version_a != version_b, "config nudge did not change the version"

rc = subprocess.call([
    sys.executable, "-m", "repro.cli", "model", "info", str(work / "model-b"),
])
assert rc == 0, f"vn2 model info exited {rc}"
rc = subprocess.call([
    sys.executable, "-m", "repro.cli", "model", "diff",
    str(work / "model-a"), str(work / "model-b"),
])
assert rc == 1, f"vn2 model diff exited {rc}, expected 1 (models differ)"

save_frame_jsonl(frame, work / "node-major.jsonl")
header, *rows = (work / "node-major.jsonl").read_text().splitlines()


def _arrival_key(line):
    obj = json.loads(line)
    return (obj["generated_at"], obj["node_id"], obj["epoch"])


trace_path = work / "trace.jsonl"
trace_path.write_text(
    "\n".join([header] + sorted(rows, key=_arrival_key)) + "\n"
)
# Replay what the file says, not the in-memory frame: the JSONL trace
# codec rounds metric values to 6 decimals, and the differential against
# `vn2 watch` (which reads the file) must feed both sides identical bits.
from repro.traces.io import load_frame_jsonl  # noqa: E402

frame = load_frame_jsonl(trace_path)

# Routing: the kill must hit a worker that does not own the deployment,
# so the differential only exercises the rotation barrier, not handoff.
ring = HashRing([f"w{i}" for i in range(N_WORKERS)])
owner = ring.lookup("smoke")
victim = next(f"w{i}" for i in range(N_WORKERS) if f"w{i}" != owner)
print(f"routing: smoke -> {owner}, chaos victim -> {victim}")

# --- Reference: vn2 watch over the full file with model A only.
watch_log = work / "watch-events.jsonl"
rc = subprocess.call([
    sys.executable, "-m", "repro.cli", "watch", str(trace_path),
    "--model", str(work / "model-a"), "--no-follow",
    "--output", str(watch_log),
])
assert rc == 0, f"vn2 watch exited {rc}"
reference = [json.loads(line) for line in watch_log.read_text().splitlines()]
assert reference, "watch produced no incident events"

# --- 2. Serve model A with three workers.
ready = work / "ports.json"
server = subprocess.Popen([
    sys.executable, "-m", "repro.cli", "serve", str(work / "model-a"),
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

    health = http_get_json("127.0.0.1", ports["http_port"], "/health")
    assert health["model_version"] == version_a, health
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

    def drain(minimum):
        stop_at = time.monotonic() + 60.0
        while True:
            doc = http_get_json("127.0.0.1", ports["http_port"], "/metrics")
            if (doc["totals"]["queue_depth_packets"] == 0
                    and doc["deployments"]["smoke"]["packets"] >= minimum):
                return doc
            assert time.monotonic() < stop_at, f"queue never drained: {doc}"
            time.sleep(0.05)

    packets = list(iter_packets(frame))
    half = len(packets) // 2
    with ServiceClient(port=ports["port"]) as client:
        for start in range(0, half, 128):
            client.submit("smoke", packets[start:min(start + 128, half)])
        drain(half)

        # --- 3. Kill a non-owner worker, then rotate through the CLI.
        # The model_update broadcast includes the corpse; the barrier
        # must resolve by pruning it, not by timing out.
        print(f"chaos: SIGKILL {victim} (pid {pids[victim]})")
        os.kill(pids[victim], signal.SIGKILL)
        rc = subprocess.call([
            sys.executable, "-m", "repro.cli", "model", "rotate",
            str(work / "model-b"),
            "--http-port", str(ports["http_port"]), "--timeout", "90",
        ])
        assert rc == 0, f"vn2 model rotate exited {rc}"

        doc = http_get_json("127.0.0.1", ports["http_port"], "/model")
        (work / "model-doc.json").write_text(json.dumps(doc, indent=2))
        assert doc["model_version"] == version_b, doc
        assert doc["rotations"] >= 1, doc

        # --- 4. Second half through the rotated model.
        for start in range(half, len(packets), 128):
            client.submit("smoke", packets[start:start + 128])
        metrics = drain(len(packets))

    (work / "metrics.json").write_text(json.dumps(metrics, indent=2))
    alive = {w["id"]: w["alive"] for w in
             http_get_json("127.0.0.1", ports["http_port"], "/health")["workers"]}
    assert not alive[victim] and sum(alive.values()) == N_WORKERS - 1, alive

    server.send_signal(signal.SIGTERM)
    assert server.wait(timeout=120.0) == 0, "serve did not drain cleanly"
    subscriber.join(timeout=30.0)
    assert not subscriber.is_alive(), "subscriber never saw the close"
finally:
    if server.poll() is None:
        server.kill()

# --- The differential: rotation + worker kill are invisible in events.
(work / "served-events.jsonl").write_text(
    "".join(json.dumps(event) + "\n" for event in served)
)
assert len(served) == len(reference), (
    f"served {len(served)} events, watch logged {len(reference)}"
)
assert served == reference, "served events differ from the watch log"
print(
    f"rotated {version_a} -> {version_b} mid-stream with {victim} dead: "
    f"{len(served)} incident events over {len(frame)} packets, "
    f"bit-identical to vn2 watch"
)
