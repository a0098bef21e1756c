"""CI smoke test: `vn2 watch` tails a trace while a writer appends it.

Trains a small testbed model, saves it, then starts a background thread
that appends the trace's JSONL rows one by one while `vn2 watch` follows
the file with the saved model.  The watcher must exit cleanly on idle
timeout, having seen every packet, and append its incident events to
``$VN2_WATCH_LOG`` (uploaded as the job's artifact; ``watch-smoke/
followed.jsonl`` when unset).  Those events must be byte-equal to the
log of a ``--no-follow`` watch over the finished file: how the tail's
reads cut the rows into chunks must not change the output.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.pipeline import VN2, VN2Config
from repro.traces.io import save_frame
from repro.traces.testbed import TestbedScenario, generate_testbed_frame

N_ROWS = 400

work = Path("watch-smoke")
work.mkdir(exist_ok=True)

frame = generate_testbed_frame(TestbedScenario.EXPANSIVE, seed=7)
VN2(VN2Config(rank=10, filter_exceptions=False)).fit(frame).save(work / "model")
save_frame(frame, work / "full.jsonl")
lines = (work / "full.jsonl").read_text().splitlines()

live = work / "live.jsonl"
live.unlink(missing_ok=True)  # an earlier run's trace would repeat the header


def writer():
    with live.open("a", encoding="utf-8") as fh:
        fh.write(lines[0] + "\n")  # header
        for row in lines[1 : N_ROWS + 1]:
            fh.write(row + "\n")
            fh.flush()
            time.sleep(0.002)


def watch(*args) -> int:
    return subprocess.call([
        sys.executable, "-m", "repro.cli", "watch", str(live),
        "--model", str(work / "model"), *args,
    ])


followed_log = Path(os.environ.get("VN2_WATCH_LOG") or work / "followed.jsonl")
start = followed_log.stat().st_size if followed_log.exists() else 0

thread = threading.Thread(target=writer)
thread.start()
rc = watch("--poll", "0.1", "--idle-timeout", "5", "--output", str(followed_log))
thread.join()
if rc:
    sys.exit(rc)

finished_log = work / "finished.jsonl"
finished_log.unlink(missing_ok=True)
rc = watch("--no-follow", "--output", str(finished_log))
if rc:
    sys.exit(rc)
followed = followed_log.read_bytes()[start:]
assert followed, "the followed watch logged no events"
assert followed == finished_log.read_bytes(), (
    "followed log differs from the --no-follow log of the finished file"
)
print(f"followed log == --no-follow log ({len(followed)} bytes)")
