"""The sink under test: one ``vn2 serve`` process (plus its pool workers).

Launches the server with ephemeral ports and a ready file, waits for the
file, reads the process tree's CPU time and peak RSS from ``/proc``,
talks to the operator HTTP port, and stops the server with SIGTERM (its
graceful drain) — waiting for every process to end.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SinkError(RuntimeError):
    """The sink failed to start, answer or stop."""


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "rb") as fh:
        stat = fh.read()
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def _hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Sink:
    """One running ``vn2 serve``.

    Args:
        root: Checkout root (``src/`` is put on ``PYTHONPATH``).
        model: Saved model path.
        run_dir: Where the ready file and the server log go.
        serve_args: Extra ``vn2 serve`` flags (``--workers``, ...).
        spans_dir: When set, run through ``traced_serve.py`` and dump
            spans there.
    """

    def __init__(self, root: Path, model: Path, run_dir: Path,
                 serve_args: List[str], spans_dir: Optional[Path] = None):
        self.root = root
        self.model = model
        self.run_dir = run_dir
        self.serve_args = list(serve_args)
        self.spans_dir = spans_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.http_port: Optional[int] = None
        self._log = None
        self._signalled = False
        self._tree: List[int] = []

    # -- lifecycle ------------------------------------------------------

    def start(self, timeout: float = 60.0) -> Tuple[float, float]:
        """Launch and wait for the ready file.

        Returns ``(wall_s, cpu_s)``: wall-clock seconds from launch to
        the ready file, and the CPU seconds (user+system) the process
        tree spent in that time, read as soon as the file appears.
        """
        ready = self.run_dir / f"ready-{time.monotonic_ns()}.json"
        args = [str(self.model), "--host", "127.0.0.1", "--port", "0",
                "--http-port", "0", "--ready-file", str(ready),
                *self.serve_args]
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable,
                   str(Path(__file__).resolve().parent / "traced_serve.py"),
                   str(self.spans_dir), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(self.run_dir / "serve.log", "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=self.run_dir, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        while True:
            if ready.exists():
                try:
                    doc = json.loads(ready.read_text())
                    break
                except ValueError:
                    pass  # written but not yet complete
            if self.proc.poll() is not None:
                raise SinkError(
                    f"vn2 serve exited with {self.proc.returncode} before "
                    f"ready; see {self.run_dir / 'serve.log'}"
                )
            if time.perf_counter() - t0 > timeout:
                self.stop()
                raise SinkError("vn2 serve not ready in time")
            time.sleep(0.002)
        wall_s = time.perf_counter() - t0
        cpu_s = self.cpu_s()
        self.port = int(doc["port"])
        self.http_port = int(doc["http_port"])
        return wall_s, cpu_s

    def signal_stop(self) -> None:
        """Send SIGTERM (graceful drain) once; :meth:`stop` waits."""
        if self.proc is not None and not self._signalled:
            self._tree = self.pids()
            self._signalled = True
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain), wait for the whole tree to exit."""
        if self.proc is None:
            return 0
        self.signal_stop()
        tree = self._tree
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            code = self.proc.wait(timeout=10)
        deadline = time.monotonic() + 10
        for pid in tree[1:]:
            while time.monotonic() < deadline and Path(f"/proc/{pid}").exists():
                time.sleep(0.01)
        if self._log is not None:
            self._log.close()
            self._log = None
        self.proc = None
        return code

    # -- process tree -----------------------------------------------------

    def pids(self) -> List[int]:
        """The server and every process it forked."""
        if self.proc is None:
            return []
        return [self.proc.pid, *_children(self.proc.pid)]

    def cpu_s(self) -> float:
        """User+system CPU seconds of the live process tree."""
        return sum(_cpu_s(pid) for pid in self.pids())

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the live process tree, in MiB."""
        return sum(_hwm_kb(pid) for pid in self.pids()) / 1024.0

    # -- operator HTTP ------------------------------------------------------

    def http_get(self, path: str, timeout: float = 30.0) -> dict:
        request = (f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Connection: close\r\n\r\n").encode("latin-1")
        with socket.create_connection(("127.0.0.1", self.http_port),
                                      timeout=timeout) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                chunks.append(data)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        status = head.split(b" ", 2)[1]
        if status != b"200":
            raise SinkError(f"GET {path} -> HTTP {status.decode()}")
        return json.loads(body)

    def wait_diagnosed(self, expected: int, timeout: float = 120.0,
                       poll_s: float = 0.005) -> float:
        """Poll ``/metrics`` until ``expected`` packets are diagnosed;
        return the ``perf_counter`` time it was first seen."""
        deadline = time.perf_counter() + timeout
        while True:
            doc = self.http_get("/metrics")
            now = time.perf_counter()
            if doc["totals"]["packets"] >= expected:
                return now
            if now > deadline:
                raise SinkError(
                    f"sink diagnosed {doc['totals']['packets']} of "
                    f"{expected} packets before the timeout"
                )
            time.sleep(poll_s)
