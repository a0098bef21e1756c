"""Frame persistence: JSONL (lossless, diff-able), NPZ (fast, columnar)
and CSV (snapshot matrix only).

Both real codecs speak :class:`repro.traces.frame.TraceFrame` natively —
no per-snapshot objects are materialized on either side of the disk.

* **JSONL** — one header object followed by one object per snapshot.
  Human-readable and stable under version control; metric values are
  written with 6-decimal precision.
* **NPZ** — the frame's columns stored as raw numpy arrays plus a JSON
  header; bit-exact and an order of magnitude faster to load, the format
  the hot paths (trace cache, benchmarks) use.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import tempfile
import time
import zipfile
from pathlib import Path
from typing import IO, Callable, Iterator, Optional, Union

import numpy as np

from repro.obs import get_registry
from repro.metrics.catalog import METRIC_NAMES, NUM_METRICS
from repro.traces.frame import GroundTruth, PacketBatch, TraceFrame

_FORMAT_VERSION = 1

#: Formats understood by :func:`save_frame` / :func:`load_frame`.
FORMATS = ("jsonl", "npz")


@contextlib.contextmanager
def _atomic_open(
    path: Path, mode: str, encoding: Optional[str] = None
) -> Iterator[IO]:
    """Write to a same-directory temp file, then ``os.replace`` into place.

    Readers never observe a torn file and concurrent writers of the same
    path (e.g. two pool workers racing on one cache entry) each produce a
    complete file — the last rename wins.  The temp file is removed if the
    write fails.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _header_dict(frame: TraceFrame) -> dict:
    return {
        "format_version": _FORMAT_VERSION,
        "metadata": frame.metadata,
        "ground_truth": [
            {
                "kind": g.kind,
                "node_ids": list(g.node_ids),
                "start": g.start,
                "end": g.end,
            }
            for g in frame.ground_truth
        ],
        "packets_generated": frame.packets_generated,
        "packets_received": frame.packets_received,
        "arrivals": [
            [float(t), int(n)]
            for t, n in zip(frame.arrival_times, frame.arrival_nodes)
        ],
        "metric_names": list(METRIC_NAMES),
    }


def _check_header(header: dict, path: Path) -> None:
    version = header.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} in {path}"
        )
    stored_names = header.get("metric_names", [])
    if list(stored_names) != list(METRIC_NAMES):
        raise ValueError(
            f"{path} was written with a different metric catalog "
            f"({len(stored_names)} metrics vs {len(METRIC_NAMES)})"
        )


def _frame_from_header(
    header: dict,
    node_ids: np.ndarray,
    epochs: np.ndarray,
    generated_at: np.ndarray,
    received_at: np.ndarray,
    values: np.ndarray,
    arrival_times: Optional[np.ndarray] = None,
    arrival_nodes: Optional[np.ndarray] = None,
) -> TraceFrame:
    if arrival_times is None:
        arrivals = header.get("arrivals", [])
        arrival_times = np.array([t for t, _ in arrivals], dtype=float)
        arrival_nodes = np.array([n for _, n in arrivals], dtype=np.int64)
    return TraceFrame(
        node_ids=node_ids,
        epochs=epochs,
        generated_at=generated_at,
        received_at=received_at,
        values=values,
        metadata=header.get("metadata", {}),
        ground_truth=[
            GroundTruth(
                kind=g["kind"],
                node_ids=tuple(g["node_ids"]),
                start=g["start"],
                end=g["end"],
            )
            for g in header.get("ground_truth", [])
        ],
        packets_generated=header.get("packets_generated", 0),
        packets_received=header.get("packets_received", 0),
        arrival_times=arrival_times,
        arrival_nodes=arrival_nodes,
    )


# --------------------------------------------------------------------------
# JSONL
# --------------------------------------------------------------------------


def row_obj(
    node_id: int,
    epoch: int,
    generated_at: float,
    received_at: float,
    values,
) -> dict:
    """One snapshot row as the canonical JSON object shape.

    This is the wire format shared by the JSONL trace codec, the tailing
    reader and the sink service's ingest protocol — one place to change
    the field names.  ``values`` must already be a plain list (pre-round
    it for the lossy trace codec; the service sends full precision).
    """
    return {
        "node_id": int(node_id),
        "epoch": int(epoch),
        "generated_at": float(generated_at),
        "received_at": float(received_at),
        "values": values,
    }


def save_frame_jsonl(frame: TraceFrame, path: Union[str, Path]) -> None:
    """Write a frame to ``path`` in JSONL format (gzip-free, diff-able).

    The write is atomic (temp file + rename): concurrent readers and
    same-path writers always see a complete file.
    """
    path = Path(path)
    rounded = np.round(frame.values, 6)
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_header_dict(frame)) + "\n")
        for i in range(len(frame)):
            fh.write(
                json.dumps(
                    row_obj(
                        frame.node_ids[i],
                        frame.epochs[i],
                        frame.generated_at[i],
                        frame.received_at[i],
                        rounded[i].tolist(),
                    )
                )
                + "\n"
            )


def load_frame_jsonl(path: Union[str, Path]) -> TraceFrame:
    """Read a frame from JSONL, parsing straight into column buffers."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path} is empty")
        header = json.loads(header_line)
        _check_header(header, path)
        node_ids, epochs, generated, received, value_rows = [], [], [], [], []
        for line in fh:
            obj = json.loads(line)
            node_ids.append(obj["node_id"])
            epochs.append(obj["epoch"])
            generated.append(obj["generated_at"])
            received.append(obj["received_at"])
            value_rows.append(obj["values"])
    n = len(node_ids)
    values = (
        np.asarray(value_rows, dtype=float)
        if n
        else np.zeros((0, NUM_METRICS))
    )
    if values.ndim != 2 or (n and values.shape[1] != NUM_METRICS):
        raise ValueError(f"{path} carries malformed snapshot rows")
    return _frame_from_header(
        header,
        node_ids=np.asarray(node_ids, dtype=np.int64),
        epochs=np.asarray(epochs, dtype=np.int64),
        generated_at=np.asarray(generated, dtype=float),
        received_at=np.asarray(received, dtype=float),
        values=values,
    )


# --------------------------------------------------------------------------
# NPZ
# --------------------------------------------------------------------------


def save_frame_npz(frame: TraceFrame, path: Union[str, Path]) -> None:
    """Write a frame to ``path`` as raw numpy columns (bit-exact, fast).

    The write is atomic (temp file + rename): a cache entry shared by
    concurrent pool workers is either absent or complete, never torn.
    """
    path = Path(path)
    header = _header_dict(frame)
    header.pop("arrivals")  # stored as first-class columns instead
    # Write through a file object so numpy keeps the exact path (bare
    # np.savez(path) appends ".npz" to suffix-less names).
    with _atomic_open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.array(json.dumps(header)),
            node_ids=frame.node_ids,
            epochs=frame.epochs,
            generated_at=frame.generated_at,
            received_at=frame.received_at,
            values=frame.values,
            arrival_times=frame.arrival_times,
            arrival_nodes=frame.arrival_nodes,
        )


def load_frame_npz(path: Union[str, Path]) -> TraceFrame:
    """Read a frame previously written by :func:`save_frame_npz`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as arrays:
        header = json.loads(str(arrays["header"]))
        _check_header(header, path)
        return _frame_from_header(
            header,
            node_ids=arrays["node_ids"],
            epochs=arrays["epochs"],
            generated_at=arrays["generated_at"],
            received_at=arrays["received_at"],
            values=arrays["values"],
            arrival_times=arrays["arrival_times"],
            arrival_nodes=arrays["arrival_nodes"],
        )


# --------------------------------------------------------------------------
# streaming reads: bounded-memory chunks and live tailing
# --------------------------------------------------------------------------


def read_frame_header(path: Union[str, Path], fmt: Optional[str] = None) -> dict:
    """Read only a trace file's header (metadata, ground truth, counts).

    O(header) work for both codecs — the snapshot rows are never touched —
    so ``vn2 watch`` can pick up node positions and generation parameters
    before a single packet is consumed.
    """
    path = Path(path)
    fmt = fmt or detect_format(path)
    if fmt == "jsonl":
        with path.open("r", encoding="utf-8") as fh:
            header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path} is empty")
        header = json.loads(header_line)
    elif fmt == "npz":
        with zipfile.ZipFile(path) as zf:
            with zf.open("header.npy") as member:
                header = json.loads(str(np.lib.format.read_array(member)))
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected {FORMATS}")
    _check_header(header, path)
    return header


def _npy_member(zf: "zipfile.ZipFile", name: str):
    """Open one array member of an (uncompressed) NPZ as a raw stream.

    Returns ``(fileobj, shape, dtype)`` with the stream positioned at the
    first data byte.  ``np.savez`` writes plain C-order ``.npy`` members,
    so rows can be sliced off the stream without materializing the array.
    """
    member = zf.open(name + ".npy")
    version = np.lib.format.read_magic(member)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(member)
    else:
        raise ValueError(f"unsupported npy version {version} for {name}")
    if fortran:
        raise ValueError(f"{name} is Fortran-ordered; cannot stream rows")
    return member, shape, dtype


def iter_frame_chunks(
    path: Union[str, Path],
    chunk_rows: int = 4096,
    fmt: Optional[str] = None,
) -> Iterator[TraceFrame]:
    """Iterate a trace file as bounded-memory :class:`TraceFrame` chunks.

    Chunks carry the snapshot columns only (no metadata / arrivals — use
    :func:`read_frame_header` for those); concatenating them reproduces
    the full frame's rows in order, and because trace files are written in
    (node_id, epoch) order every chunk honours the frame sort invariant as
    is.  Peak memory is O(chunk_rows), never O(trace).

    Works for both codecs: JSONL is line-streamed; NPZ members are read
    row-range by row-range straight from the (uncompressed) zip streams.
    """
    path = Path(path)
    fmt = fmt or detect_format(path)
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if fmt == "jsonl":
        chunks = _iter_chunks_jsonl(path, chunk_rows)
    elif fmt == "npz":
        chunks = _iter_chunks_npz(path, chunk_rows)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected {FORMATS}")
    registry = get_registry()
    if not registry.enabled:
        yield from chunks
        return
    labels = {"format": fmt}
    m_reads = registry.counter(
        "repro_io_chunk_reads_total", "Frame chunks read from disk", labels
    )
    m_rows = registry.counter(
        "repro_io_chunk_rows_total", "Snapshot rows read via chunks", labels
    )
    for chunk in chunks:
        m_reads.inc()
        m_rows.inc(len(chunk.node_ids))
        yield chunk


def _chunk_frame(
    node_ids, epochs, generated, received, values
) -> TraceFrame:
    return TraceFrame(
        node_ids=np.asarray(node_ids, dtype=np.int64),
        epochs=np.asarray(epochs, dtype=np.int64),
        generated_at=np.asarray(generated, dtype=float),
        received_at=np.asarray(received, dtype=float),
        values=np.asarray(values, dtype=float).reshape(-1, NUM_METRICS),
    )


def _iter_chunks_jsonl(path: Path, chunk_rows: int) -> Iterator[TraceFrame]:
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path} is empty")
        _check_header(json.loads(header_line), path)
        node_ids, epochs, generated, received, value_rows = [], [], [], [], []
        for line in fh:
            obj = json.loads(line)
            node_ids.append(obj["node_id"])
            epochs.append(obj["epoch"])
            generated.append(obj["generated_at"])
            received.append(obj["received_at"])
            value_rows.append(obj["values"])
            if len(node_ids) >= chunk_rows:
                yield _chunk_frame(node_ids, epochs, generated, received, value_rows)
                node_ids, epochs, generated, received, value_rows = [], [], [], [], []
        if node_ids:
            yield _chunk_frame(node_ids, epochs, generated, received, value_rows)


def _iter_chunks_npz(path: Path, chunk_rows: int) -> Iterator[TraceFrame]:
    with zipfile.ZipFile(path) as zf:
        with zf.open("header.npy") as member:
            _check_header(json.loads(str(np.lib.format.read_array(member))), path)
        streams = {}
        try:
            for name in ("node_ids", "epochs", "generated_at", "received_at", "values"):
                streams[name] = _npy_member(zf, name)
            n = streams["values"][1][0]
            width = streams["values"][1][1]
            for start in range(0, n, chunk_rows):
                rows = min(chunk_rows, n - start)
                cols = {}
                for name, (stream, _shape, dtype) in streams.items():
                    per_row = width if name == "values" else 1
                    nbytes = rows * per_row * dtype.itemsize
                    buf = stream.read(nbytes)
                    if len(buf) != nbytes:
                        raise ValueError(f"{path} truncated while reading {name}")
                    cols[name] = np.frombuffer(buf, dtype=dtype).copy()
                yield _chunk_frame(
                    cols["node_ids"],
                    cols["epochs"],
                    cols["generated_at"],
                    cols["received_at"],
                    cols["values"].reshape(rows, width),
                )
        finally:
            for stream, _shape, _dtype in streams.values():
                stream.close()


#: The fields :func:`tail_frame_jsonl` reads from each snapshot row.
_SNAPSHOT_KEYS = frozenset(("node_id", "epoch", "generated_at", "values"))


def _tail_json(line: str, path: Path, line_no: int):
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}:{line_no}: not JSON ({exc})") from None


def _tail_packet(line: str, path: Path, line_no: int) -> tuple:
    """One tailed snapshot row as a ``(node_id, epoch, generated_at,
    values)`` packet; any other line is refused with its position."""
    row = _tail_json(line, path, line_no)
    if (
        not isinstance(row, dict)
        or not _SNAPSHOT_KEYS.issubset(row)
        or not isinstance(row["values"], list)
        or len(row["values"]) != NUM_METRICS
    ):
        raise ValueError(
            f"{path}:{line_no}: not a snapshot row (a snapshot row has "
            f"node_id, epoch, generated_at and {NUM_METRICS} values)"
        )
    return (row["node_id"], row["epoch"], row["generated_at"], row["values"])


def tail_frame_jsonl(
    path: Union[str, Path],
    poll_s: float = 0.5,
    follow: bool = True,
    idle_timeout: Optional[float] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[PacketBatch]:
    """Follow a (possibly still growing) JSONL trace, one chunk per read.

    Yields one :class:`~repro.traces.frame.PacketBatch` of the complete
    lines each read of the file brought, in file order (a read with no
    complete row yields nothing) — the packet source a live ``vn2 watch``
    consumes.  A partial line (a writer mid-append) is kept until its
    newline arrives; a truncated file (trace rollover) restarts the
    reader from the new beginning, header check included.  Any line
    after the header that is not a snapshot row (a second header, a row
    without ``values``, broken JSON) raises :class:`ValueError` naming
    the file and the line number.

    Args:
        path: The JSONL trace file (its header line is validated and
            skipped; fetch it via :func:`read_frame_header`).
        poll_s: Sleep between polls once the end of file is reached.
        follow: Keep polling for growth after EOF (``False`` = read what
            is there and return, like ``tail -c +0`` without ``-f``).
        idle_timeout: Give up after this many seconds without new data
            (``None`` = follow forever).
        stop: Optional callable checked at each poll; return True to end
            the tail (e.g. wired to a signal handler).
    """
    path = Path(path)
    m_rows = get_registry().counter(
        "repro_io_tail_rows_total", "Snapshot rows yielded by JSONL tails"
    )
    partial = ""
    saw_header = False
    line_no = 0  # complete lines consumed so far
    idle = 0.0
    with path.open("r", encoding="utf-8") as fh:
        while True:
            data = fh.read(65536)
            if data:
                idle = 0.0
                lines = (partial + data).split("\n")
                partial = lines.pop()
                packets = []
                for line in lines:
                    line_no += 1
                    if not line.strip():
                        continue
                    if not saw_header:
                        _check_header(_tail_json(line, path, line_no), path)
                        saw_header = True
                    else:
                        packets.append(_tail_packet(line, path, line_no))
                if packets:
                    m_rows.inc(len(packets))
                    yield PacketBatch.from_packets(packets)
                continue
            if not follow:
                return
            if stop is not None and stop():
                return
            try:
                if os.stat(path).st_size < fh.tell():
                    # Truncated under us (rollover): restart from the top.
                    fh.seek(0)
                    partial = ""
                    saw_header = False
                    line_no = 0
                    continue
            except OSError:
                pass
            time.sleep(poll_s)
            idle += poll_s
            if idle_timeout is not None and idle >= idle_timeout:
                return


# --------------------------------------------------------------------------
# format dispatch
# --------------------------------------------------------------------------


def detect_format(path: Union[str, Path]) -> str:
    """Infer the codec from a path suffix (``.npz`` -> npz, else jsonl).

    The comparison is case-insensitive: ``.NPZ`` (e.g. files named on a
    case-folding filesystem) must not fall through to the JSONL parser,
    which would fail with a confusing decode error.
    """
    return "npz" if Path(path).suffix.lower() == ".npz" else "jsonl"


def save_frame(
    frame: TraceFrame,
    path: Union[str, Path],
    fmt: Optional[str] = None,
) -> None:
    """Write a frame in the requested (or suffix-inferred) format."""
    fmt = fmt or detect_format(path)
    if fmt == "jsonl":
        save_frame_jsonl(frame, path)
    elif fmt == "npz":
        save_frame_npz(frame, path)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; expected {FORMATS}")


def load_frame(path: Union[str, Path], fmt: Optional[str] = None) -> TraceFrame:
    """Read a frame in the requested (or suffix-inferred) format."""
    fmt = fmt or detect_format(path)
    if fmt == "jsonl":
        return load_frame_jsonl(path)
    if fmt == "npz":
        return load_frame_npz(path)
    raise ValueError(f"unknown trace format {fmt!r}; expected {FORMATS}")


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------


def export_snapshots_csv(frame: TraceFrame, path: Union[str, Path]) -> None:
    """Write the snapshot matrix as CSV with named metric columns."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node_id", "epoch", "generated_at", "received_at", *METRIC_NAMES]
        )
        for i in range(len(frame)):
            writer.writerow(
                [
                    int(frame.node_ids[i]),
                    int(frame.epochs[i]),
                    f"{frame.generated_at[i]:.3f}",
                    f"{frame.received_at[i]:.3f}",
                    *[f"{v:.6g}" for v in frame.values[i]],
                ]
            )
