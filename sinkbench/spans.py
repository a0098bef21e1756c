"""In-memory span recording for the traced sink run, and the arithmetic
that turns spans into per-layer self times.

A span is one call into a layer's public function: name, start, end, the
index of the enclosing span on the same thread (``-1`` at top level), a
batch id, the wall-clock time it began, and up to two numbers the wrapper
measured at the call (bytes, cache hits, events returned ...).  The
wall-clock stamp (``time.time``, comparable across processes) lets the
benchmark keep only the spans that began inside its measured window.
Start and end are read from the thread's CPU clock
(``time.thread_time``), so a span's duration is CPU the thread spent in
the call: time the host or the interpreter lock took the thread away is
not charged to the layer, and self times add up against the process CPU
time the benchmark reads from ``/proc``.

Recording is per thread: each thread appends to its own list, so a
parent index always refers to a span of the same thread and no lock is
needed.  :meth:`SpanStore.dump` writes every thread's spans of this
process to one ``.npz`` file; :func:`load_spans` reads a directory of
them back as flat arrays.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span name -> layer.  A layer's time is the sum of its spans' self
#: times; ``protocol.encode_other`` holds acks and greetings, which are
#: encoded by the same function as events but are not event cost.
LAYER_OF: Dict[str, str] = {
    "protocol.decode": "protocol.decode",
    "protocol.parse_ingest": "protocol.decode",
    "protocol.event_message": "protocol.encode",
    "protocol.incident_event_obj": "protocol.encode",
    "protocol.encode_event": "protocol.encode",
    "protocol.encode_other": "protocol.encode_other",
    "pool.pickle_dumps": "pool.pickle",
    "pool.pickle_loads": "pool.pickle",
    "session.push_packet": "session",
    "states.push": "states",
    "screen.score": "screen",
    "nnls.solve_warm": "nnls",
    "nnls.solve_cold": "nnls",
    "report.build": "report",
    "report.sparsify": "report",
    "report.observations": "report",
    "tracker.add": "tracker",
}

NAMES: List[str] = sorted(LAYER_OF)
CODE_OF: Dict[str, int] = {name: i for i, name in enumerate(NAMES)}


class SpanStore:
    """Per-thread span lists plus the wrappers that fill them."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[list] = []
        self._lock = threading.Lock()
        #: Batch id stamped on spans whose wrapper does not supply one.
        self.batch = -1

    def _rows(self) -> list:
        rows = getattr(self._local, "rows", None)
        if rows is None:
            rows = self._local.rows = []
            self._local.stack = []
            with self._lock:
                self._threads.append(rows)
        return rows

    def reset(self) -> None:
        """Forget every span (a forked child starts from a clean store)."""
        self._local = threading.local()
        self._threads = []
        self.batch = -1

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Optional[Callable] = None,
        name_of: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``measure(args, kwargs, result) -> (v1, v2)`` fills the span's
        numbers; ``name_of(args, kwargs)`` picks the span name per call
        (default: ``name``).
        """
        store = self

        def traced(*args, **kwargs):
            rows = store._rows()
            stack = store._local.stack
            index = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            wall = time.time()
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.thread_time()
                stack.pop()
            v1, v2 = measure(args, kwargs, result) if measure else (0.0, 0.0)
            span = name_of(args, kwargs) if name_of else name
            rows[index] = (CODE_OF[span], t0, t1, parent, store.batch, wall, v1, v2)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> int:
        """Write this process's spans to ``path`` (``.npz``); return count."""
        code, start, end, parent, batch, wall, v1, v2 = [], [], [], [], [], [], [], []
        offset = 0
        for rows in self._threads:
            done = [r for r in rows if r is not None]
            # An unfinished span (process killed mid-call) leaves a None
            # hole; parents index the full list, so remap through it.
            remap = {}
            for i, r in enumerate(rows):
                if r is not None:
                    remap[i] = offset + len(remap)
            for r in done:
                code.append(r[0])
                start.append(r[1])
                end.append(r[2])
                parent.append(remap.get(r[3], -1) if r[3] >= 0 else -1)
                batch.append(r[4])
                wall.append(r[5])
                v1.append(r[6])
                v2.append(r[7])
            offset += len(done)
        np.savez(
            path,
            names=np.array(NAMES),
            code=np.asarray(code, dtype=np.int16),
            start=np.asarray(start, dtype=float),
            end=np.asarray(end, dtype=float),
            parent=np.asarray(parent, dtype=np.int64),
            batch=np.asarray(batch, dtype=np.int64),
            wall=np.asarray(wall, dtype=float),
            v1=np.asarray(v1, dtype=float),
            v2=np.asarray(v2, dtype=float),
        )
        return offset


def load_spans(directory: Path) -> Dict[str, np.ndarray]:
    """Concatenate every dumped span file in ``directory``.

    Returns flat arrays ``name`` (str), ``start``, ``end``, ``parent``
    (global index, ``-1`` at top level), ``batch``, ``wall``, ``v1``,
    ``v2``.
    """
    parts = []
    offset = 0
    for path in sorted(Path(directory).glob("spans-*.npz")):
        with np.load(path) as data:
            names = data["names"]
            parent = data["parent"].copy()
            parent[parent >= 0] += offset
            parts.append({
                "name": names[data["code"]] if len(data["code"]) else
                np.array([], dtype=names.dtype),
                "start": data["start"], "end": data["end"],
                "parent": parent, "batch": data["batch"], "wall": data["wall"],
                "v1": data["v1"], "v2": data["v2"],
            })
            offset += len(data["code"])
    if not parts:
        raise FileNotFoundError(f"no span files in {directory}")
    return {key: np.concatenate([p[key] for p in parts]) for key in parts[0]}


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run inside it on the same thread and do not
    overlap each other, so subtracting their durations leaves the time
    the span spent in its own code.
    """
    duration = end - start
    child_time = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    return duration - child_time


def span_totals(spans: Dict[str, np.ndarray],
                window: Optional[Tuple[float, float]] = None) -> Dict[str, dict]:
    """Per span name ``{"self_s", "calls", "v1", "v2"}``; every name in
    :data:`NAMES` is present (zeros when it never ran).

    With ``window = (lo, hi)`` (``time.time`` seconds) only spans that
    began inside it count.  Self times are taken over every span first,
    so a kept span's self time never includes a dropped child's.
    """
    own = self_times(spans["start"], spans["end"], spans["parent"])
    inside = np.ones(len(own), dtype=bool)
    if window is not None:
        inside = (spans["wall"] >= window[0]) & (spans["wall"] <= window[1])
    out = {}
    for name in NAMES:
        mask = (spans["name"] == name) & inside
        out[name] = {
            "self_s": float(own[mask].sum()),
            "calls": int(mask.sum()),
            "v1": float(spans["v1"][mask].sum()),
            "v2": float(spans["v2"][mask].sum()),
        }
    return out


def layer_self_s(totals: Dict[str, dict]) -> Dict[str, float]:
    """Sum :func:`span_totals` self times by layer."""
    out: Dict[str, float] = {}
    for name, entry in totals.items():
        layer = LAYER_OF[name]
        out[layer] = out.get(layer, 0.0) + entry["self_s"]
    return out
