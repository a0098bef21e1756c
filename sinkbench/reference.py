"""A probe that times the host's speed while the sink runs.

On a shared 2-vCPU VM the speed of the host moves by a third or more
within minutes, and every CPU time the benchmark reads moves with it.
The probe is a separate process that repeats a fixed pure-Python task,
which never calls the code under test, about twenty times a second
(about a sixth of one vCPU) for the whole run and records when each
repetition began and how much CPU time it took.  The benchmark
multiplies a CPU time the sink spent over some window by ``REF_MS`` over
the probe's median repetition in that window: the figure the sink would
read on a host where one repetition takes ``REF_MS`` of CPU.

Run as a script it probes until SIGTERM, then prints one
``monotonic_s cpu_s`` line per repetition.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

Sample = Tuple[float, float]  #: (time.monotonic() at start, CPU seconds)

#: Nominal CPU milliseconds of one repetition of :func:`task`.
REF_MS = 10.0
#: Sleep between repetitions.
PAUSE_S = 0.04


def task() -> int:
    """One repetition: a fixed interpreter-bound loop."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class Probe:
    """The probe process, started on construction."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL, text=True,
        )

    def stop(self) -> List[Sample]:
        """Stop the probe, wait for it, return its samples."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return [(float(a), float(b))
                for a, b in (line.split() for line in out.splitlines())]


def scale(samples: List[Sample],
          window: Optional[Tuple[float, float]] = None) -> float:
    """``REF_MS`` over the median CPU time of the repetitions begun in
    ``window`` (``time.monotonic`` seconds; all of them when None)."""
    cpu = [c for began, c in samples
           if window is None or window[0] <= began <= window[1]]
    if not cpu:
        raise RuntimeError(f"the probe took no sample in {window}")
    return REF_MS / (statistics.median(cpu) * 1e3)


def main() -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = []
    while not stopping:
        began = time.monotonic()
        cpu0 = time.process_time()
        task()
        samples.append((began, time.process_time() - cpu0))
        time.sleep(PAUSE_S)
    sys.stdout.write("".join(f"{a:.6f} {b:.9f}\n" for a, b in samples))


if __name__ == "__main__":
    main()
