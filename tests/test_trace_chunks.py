"""Chunked and tailing trace readers: bounded-memory IO equals full loads.

``iter_frame_chunks`` must reproduce ``load_frame`` column for column at
any chunk size and for both codecs, and ``tail_frame_jsonl``'s per-read
chunks must keep up with a concurrently appending writer and survive a
truncation — the two ingestion paths behind ``vn2 watch`` and the
streaming benchmark.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from repro.traces.io import (
    iter_frame_chunks,
    load_frame,
    read_frame_header,
    save_frame,
    tail_frame_jsonl,
)


@pytest.fixture(scope="module")
def frame(testbed_trace):
    return testbed_trace


@pytest.fixture(scope="module", params=["jsonl", "npz"])
def saved_path(request, frame, tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / f"trace.{request.param}"
    save_frame(frame, path, fmt=request.param)
    return path


COLUMNS = ("node_ids", "epochs", "generated_at", "received_at", "values")


@pytest.mark.parametrize("chunk_rows", [1, 97, 4096, 10**6])
def test_chunks_concatenate_to_full_frame(saved_path, frame, chunk_rows):
    chunks = list(iter_frame_chunks(saved_path, chunk_rows=chunk_rows))
    assert sum(len(c) for c in chunks) == len(frame)
    assert all(len(c) <= chunk_rows for c in chunks)
    # Compare against a full load of the same file: the chunked reader's
    # contract is bit-equality with load_frame (JSONL itself rounds floats
    # on write, identically for both readers).
    full = load_frame(saved_path)
    for column in COLUMNS:
        streamed = np.concatenate([getattr(c, column) for c in chunks])
        assert np.array_equal(streamed, getattr(full, column)), column


def test_read_frame_header_both_codecs(saved_path, frame):
    header = read_frame_header(saved_path)
    assert header["metadata"] == frame.metadata
    assert header["packets_generated"] == frame.packets_generated
    assert header["packets_received"] == frame.packets_received


def test_header_rejects_non_trace_file(tmp_path):
    bogus = tmp_path / "bogus.jsonl"
    bogus.write_text(json.dumps({"hello": "world"}) + "\n")
    with pytest.raises(ValueError):
        read_frame_header(bogus)


def _row_dict(frame, i):
    return {
        "node_id": int(frame.node_ids[i]),
        "epoch": int(frame.epochs[i]),
        "generated_at": float(frame.generated_at[i]),
        "received_at": float(frame.received_at[i]),
        "values": frame.values[i].tolist(),
    }


def _tailed(chunks):
    """Tail chunks concatenated into (node_ids, epochs, generated_at,
    values) columns."""
    chunks = list(chunks)
    assert all(len(chunk) for chunk in chunks), "empty chunk yielded"
    return [np.concatenate([getattr(c, name) for c in chunks])
            for name in ("node_ids", "epochs", "generated_at", "values")]


def test_tail_reads_static_file_without_follow(frame, tmp_path):
    path = tmp_path / "static.jsonl"
    save_frame(frame, path, fmt="jsonl")
    loaded = load_frame(path)
    chunks = list(tail_frame_jsonl(path, follow=False))
    assert len(chunks) > 1  # one chunk per 64 KiB read, not one per file
    node_ids, epochs, generated_at, values = _tailed(chunks)
    assert np.array_equal(node_ids, loaded.node_ids)
    assert np.array_equal(epochs, loaded.epochs)
    assert np.array_equal(generated_at, loaded.generated_at)
    assert np.array_equal(values, loaded.values)


def test_tail_follows_growing_file(frame, tmp_path):
    """A background writer appends while the tail consumes: every row
    arrives, in order, including ones split across write() calls."""
    path = tmp_path / "growing.jsonl"
    n_rows = min(len(frame), 60)
    header = json.dumps(read_header_obj(frame))

    def writer():
        with path.open("a", encoding="utf-8") as fh:
            for i in range(n_rows):
                line = json.dumps(_row_dict(frame, i)) + "\n"
                # Split every line in two flushes to exercise the
                # partial-line buffer.
                fh.write(line[: len(line) // 2])
                fh.flush()
                fh.write(line[len(line) // 2 :])
                fh.flush()

    path.write_text(header + "\n")
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        node_ids, epochs, _generated_at, values = _tailed(
            tail_frame_jsonl(path, poll_s=0.05, idle_timeout=5.0)
        )
    finally:
        thread.join()
    assert len(node_ids) == n_rows
    assert np.array_equal(node_ids, frame.node_ids[:n_rows])
    assert np.array_equal(epochs, frame.epochs[:n_rows])
    assert np.array_equal(values, frame.values[:n_rows])


def read_header_obj(frame):
    """The header dict a JSONL save writes (via a real save)."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp) / "scratch.jsonl"
        save_frame(frame, scratch, fmt="jsonl")
        with scratch.open("r", encoding="utf-8") as fh:
            return json.loads(fh.readline())


def test_tail_stop_callable_ends_follow(frame, tmp_path):
    path = tmp_path / "stopped.jsonl"
    save_frame(frame, path, fmt="jsonl")
    seen = []
    chunks = tail_frame_jsonl(
        path, poll_s=0.01, stop=lambda: len(seen) >= 0  # stop at first EOF
    )
    for chunk in chunks:
        seen.extend(chunk.epochs.tolist())
    assert len(seen) == len(frame)


def test_tail_restarts_after_truncation(frame, tmp_path):
    """A file truncated under the tail (rollover) is read again from its
    new header, and a partial line held from before is dropped."""
    path = tmp_path / "rolled.jsonl"
    header = json.dumps(read_header_obj(frame))
    first = [json.dumps(_row_dict(frame, i)) for i in range(3)]
    second = [json.dumps(_row_dict(frame, i)) for i in range(10, 12)]
    path.write_text(header + "\n" + "\n".join(first) + "\n" + first[0][:40])
    polls = []

    def roll():
        polls.append(None)
        if len(polls) == 1:  # first EOF: roll the file over, shorter
            path.write_text(header + "\n" + "\n".join(second) + "\n")
            return False
        return True

    chunks = tail_frame_jsonl(path, poll_s=0.01, stop=roll)
    node_ids, epochs, _generated_at, _values = _tailed(chunks)
    rows = [*range(3), *range(10, 12)]
    assert node_ids.tolist() == frame.node_ids[rows].tolist()
    assert epochs.tolist() == frame.epochs[rows].tolist()


@pytest.mark.parametrize("bad", ["repeated_header", "row_without_values"])
def test_tail_refuses_a_line_that_is_not_a_snapshot_row(frame, tmp_path, bad):
    """A second header mid-file (an appending writer restarted on an old
    file) or a row missing a field ends the tail with the file and line."""
    path = tmp_path / "bad.jsonl"
    header = json.dumps(read_header_obj(frame))
    rows = [json.dumps(_row_dict(frame, i)) for i in range(3)]
    if bad == "repeated_header":
        bad_line = header
    else:
        row = _row_dict(frame, 3)
        del row["values"]
        bad_line = json.dumps(row)
    path.write_text("\n".join([header, *rows, bad_line, rows[0]]) + "\n")
    with pytest.raises(ValueError) as excinfo:
        list(tail_frame_jsonl(path, follow=False))
    assert str(excinfo.value).startswith(f"{path}:5: not a snapshot row")
