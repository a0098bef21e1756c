"""Long-lived worker-process pool: the reusable lifecycle core.

:mod:`repro.runner.engine` shards *finite job grids* over a
``ProcessPoolExecutor``; the sink service needs the other shape of
parallelism — a fixed set of **long-lived, stateful** workers that hold
streaming sessions, exchange messages with the parent for their whole
lifetime, and whose death must be *observed* (so shards can be handed
off) rather than merely retried.  This module is the shared core both
sides build on:

* :class:`WorkerHandle` — one child process plus a duplex pipe, with a
  dedicated writer thread (sends never block the caller) and a reader
  thread that pumps every inbound message into a callback and reports
  pipe EOF as a synthetic ``worker_lost`` message.
* :class:`ProcessPool` — spawn/monitor/stop a set of handles running one
  top-level target function ``target(conn, worker_id, *args)``.
* :func:`attach_span_trees` — graft serialized worker span trees into a
  local tracer in a deterministic order (the engine's job-grid runs use
  it; the service's workers send no spans).

Messages are plain picklable objects (dicts with numpy arrays are fine);
framing, ordering and backpressure semantics are the caller's contract.
The pipe is FIFO in both directions, which is what the service's
per-deployment ordering guarantee rests on.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "ProcessPool",
    "WorkerHandle",
    "WORKER_LOST",
    "attach_span_trees",
]

#: Synthetic message type injected by the reader thread when a worker's
#: pipe hits EOF (process death or clean exit).  Callers that care about
#: worker death (the service backend does) watch for it.
WORKER_LOST = "worker_lost"

_SEND_STOP = object()


def _child_entry(target, conn, close_first, worker_id, *args):
    """Child-process shim: drop inherited parent-side pipe ends, then run.

    Under the default fork start method every child inherits the parent
    side of its *own* pipe plus those of earlier-started siblings.  Left
    open, they keep each pipe's write end alive in some process forever,
    so no worker ever observes EOF after a front-door crash — the whole
    pool would orphan.  Closing them first makes parent death an EOF
    every child sees.
    """
    for stale in close_first:
        try:
            stale.close()
        except OSError:
            pass
    target(conn, worker_id, *args)


class WorkerHandle:
    """One long-lived worker process and its message plumbing.

    Args:
        worker_id: Stable identifier (the pool uses ``"w0"``, ``"w1"``…).
        process: The (not yet started) ``multiprocessing.Process``.
        conn: Parent end of the duplex pipe.
        on_message: ``fn(worker_id, message)`` invoked *on the reader
            thread* for every inbound message; the caller is responsible
            for hopping onto its own event loop/queue.  After pipe EOF it
            is invoked once more with ``{"type": WORKER_LOST}``.
    """

    def __init__(
        self,
        worker_id: str,
        process: mp.Process,
        conn,
        on_message: Callable[[str, dict], None],
    ):
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self._on_message = on_message
        self._outbox: "queue.Queue" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self._writer: Optional[threading.Thread] = None
        self._lost = threading.Event()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        self.process.start()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"pool-read-{self.worker_id}",
            daemon=True,
        )
        self._writer = threading.Thread(
            target=self._write_loop, name=f"pool-write-{self.worker_id}",
            daemon=True,
        )
        self._reader.start()
        self._writer.start()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive() and not self._lost.is_set()

    def send(self, message: Any) -> None:
        """Queue one message to the worker (never blocks; messages to a
        dead worker are silently discarded — the ``worker_lost`` callback
        is the authoritative death signal)."""
        self._outbox.put(message)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the writer, join the process (terminate on timeout)."""
        self._outbox.put(_SEND_STOP)
        if self.process.is_alive():
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass
        if self._writer is not None:
            self._writer.join(timeout=5.0)
        if self._reader is not None:
            self._reader.join(timeout=5.0)

    def kill(self) -> None:
        """SIGKILL the worker (chaos/testing hook)."""
        if self.process.is_alive():
            self.process.kill()

    # -- pump threads --------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            try:
                self._on_message(self.worker_id, message)
            except Exception:  # a broken callback must not kill the pump
                pass
        self._lost.set()
        try:
            self._on_message(self.worker_id, {"type": WORKER_LOST})
        except Exception:
            pass

    def _write_loop(self) -> None:
        while True:
            message = self._outbox.get()
            if message is _SEND_STOP:
                return
            if self._lost.is_set():
                continue  # drain silently; death already reported
            try:
                self.conn.send(message)
            except (BrokenPipeError, OSError, ValueError):
                # Reader-side EOF is the single death signal; just stop
                # trying to write.
                self._lost.set()


class ProcessPool:
    """A fixed set of long-lived workers running one target function.

    Args:
        target: Top-level (picklable) function run in each child as
            ``target(conn, worker_id, *args)``.  It owns the child's
            message loop and should exit when its protocol says so.
        n_workers: Number of workers (ids ``w0``…``w{n-1}``).
        args: Extra positional arguments passed to every worker.  With
            the default (fork on Linux) start method large objects ride
            the fork; under spawn they are pickled.
        on_message: See :class:`WorkerHandle`.
        context: Optional ``multiprocessing`` context; defaults to the
            platform default (fork on Linux — the same choice the
            scenario engine's ``ProcessPoolExecutor`` makes).
    """

    def __init__(
        self,
        target: Callable,
        n_workers: int,
        args: Sequence[Any] = (),
        on_message: Optional[Callable[[str, dict], None]] = None,
        context: Optional[mp.context.BaseContext] = None,
    ):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._target = target
        self._args = tuple(args)
        self._on_message = on_message or (lambda wid, msg: None)
        self._ctx = context or mp.get_context()
        self.workers: Dict[str, WorkerHandle] = {}
        self._n = n_workers

    def start(self) -> None:
        """Spawn every worker and start its message pumps."""
        for i in range(self._n):
            worker_id = f"w{i}"
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            # Parent-side ends this child must not keep open: earlier
            # siblings' and its own (see _child_entry).
            close_first = [h.conn for h in self.workers.values()]
            close_first.append(parent_conn)
            process = self._ctx.Process(
                target=_child_entry,
                args=(self._target, child_conn, close_first, worker_id)
                + self._args,
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            handle = WorkerHandle(
                worker_id, process, parent_conn, self._on_message
            )
            self.workers[worker_id] = handle
            handle.start()
            # The parent keeps only its own end open so a child exit
            # yields a clean EOF on the reader.
            child_conn.close()

    # -- messaging -----------------------------------------------------

    def send(self, worker_id: str, message: Any) -> None:
        self.workers[worker_id].send(message)

    def broadcast(self, message: Any) -> None:
        for handle in self.workers.values():
            if handle.alive:
                handle.send(message)

    # -- introspection -------------------------------------------------

    def alive_ids(self) -> List[str]:
        return [wid for wid, h in self.workers.items() if h.alive]

    def pids(self) -> Dict[str, Optional[int]]:
        return {wid: h.pid for wid, h in self.workers.items()}

    # -- lifecycle -----------------------------------------------------

    def kill(self, worker_id: str) -> None:
        self.workers[worker_id].kill()

    def stop(self, timeout: float = 10.0) -> None:
        for handle in self.workers.values():
            handle.stop(timeout=timeout)

    def terminate(self) -> None:
        """Hard stop: SIGTERM every worker, then join via :meth:`stop`."""
        for handle in self.workers.values():
            if handle.process.is_alive():
                handle.process.terminate()
        self.stop(timeout=5.0)


def attach_span_trees(tracer, trees: Sequence[Tuple[Any, Optional[dict]]]) -> None:
    """Graft serialized worker span trees into ``tracer``.

    Args:
        tracer: The local :class:`~repro.obs.Tracer` (no-op if disabled).
        trees: ``(sort_key, tree_dict_or_None)`` pairs; attached in
            ``sort_key`` order so the merged profile is deterministic
            regardless of worker completion order.
    """
    if not tracer.enabled:
        return
    for _key, tree in sorted(trees, key=lambda kv: kv[0]):
        if tree:
            tracer.attach(tree)
