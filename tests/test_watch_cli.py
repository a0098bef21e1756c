"""``vn2 watch``: the online mode's CLI face.

Runs the real ``main()`` entry point in-process against saved models and
trace files on disk — no-follow batch replay, follow mode against a
background writer, the JSONL event log (``--output`` and
``$VN2_WATCH_LOG``, byte for byte against the per-packet oracle), and the
failure path for a missing trace.
"""

from __future__ import annotations

import json
import threading
from operator import itemgetter

import pytest

from repro.cli import _event_json, main
from repro.core.pipeline import VN2
from repro.metrics.catalog import NUM_METRICS
from repro.traces.io import read_frame_header, save_frame

from .packet_oracle import PacketLoopSession

EVENT_KEYS = {
    "kind", "incident_id", "time", "hazard", "node_ids", "start", "end",
    "peak_strength", "total_strength", "n_observations",
}


@pytest.fixture(scope="module")
def watch_env(testbed_tool, testbed_trace, tmp_path_factory):
    """A saved model and a JSONL trace, as a deployment would have them."""
    root = tmp_path_factory.mktemp("watch")
    model = root / "model"
    testbed_tool.save(model)
    trace = root / "trace.jsonl"
    save_frame(testbed_trace, trace, fmt="jsonl")
    return model, trace


def _read_events(path):
    events = [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    for event in events:
        assert set(event) == EVENT_KEYS
    return events


def test_watch_no_follow_smoke(watch_env, tmp_path, capsys):
    model, trace = watch_env
    log = tmp_path / "incidents.jsonl"
    rc = main([
        "watch", str(trace), "--model", str(model),
        "--no-follow", "--output", str(log),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "watched" in out and "incidents" in out

    events = _read_events(log)
    assert events, "no incident events logged"
    kinds = [e["kind"] for e in events]
    assert set(kinds) <= {"open", "update", "close"}
    opened = [e["incident_id"] for e in events if e["kind"] == "open"]
    closed = [e["incident_id"] for e in events if e["kind"] == "close"]
    assert sorted(opened) == sorted(closed)  # finish() flushes every open


@pytest.mark.parametrize("order", ["node-major", "arrival"])
def test_watch_log_is_byte_identical_to_the_oracle(watch_env, tmp_path,
                                                   capsys, order):
    """The log holds exactly the oracle's events over the file's rows in
    file order, whatever that order is."""
    model, source = watch_env
    header, *lines = source.read_text().splitlines()
    if order == "arrival":
        arrival = itemgetter("generated_at", "node_id", "epoch")
        lines.sort(key=lambda line: arrival(json.loads(line)))
    trace = tmp_path / "trace.jsonl"
    trace.write_text("\n".join([header, *lines]) + "\n")
    log = tmp_path / "incidents.jsonl"
    assert main([
        "watch", str(trace), "--model", str(model),
        "--no-follow", "--output", str(log),
    ]) == 0
    capsys.readouterr()

    positions = {
        int(k): tuple(v)
        for k, v in read_frame_header(trace)["metadata"]["positions"].items()
    }
    oracle = PacketLoopSession(VN2.load(model), positions=positions)
    events = []
    for line in lines:
        row = json.loads(line)
        update = oracle.push_packet(
            row["node_id"], row["epoch"], row["generated_at"], row["values"]
        )
        if update is not None:
            events.extend(update.events)
    events.extend(oracle.finish())
    assert events
    expected = "".join(_event_json(event) + "\n" for event in events)
    assert log.read_bytes() == expected.encode("utf-8")


def test_watch_env_var_names_the_log(watch_env, tmp_path, monkeypatch):
    model, trace = watch_env
    log = tmp_path / "from-env.jsonl"
    monkeypatch.setenv("VN2_WATCH_LOG", str(log))
    rc = main(["watch", str(trace), "--model", str(model), "--no-follow"])
    assert rc == 0
    assert _read_events(log)


def test_watch_follows_growing_trace(watch_env, tmp_path, capsys):
    """A background writer appends the trace while watch follows it; the
    idle timeout ends the session and the events match a no-follow pass."""
    model, source = watch_env
    lines = source.read_text().splitlines()
    header, rows = lines[0], lines[1:300]

    trace = tmp_path / "growing.jsonl"
    log = tmp_path / "follow.jsonl"

    def writer():
        with trace.open("a", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(row + "\n")
            fh.flush()

    # The file does not exist yet when watch starts: it must wait for the
    # header to appear rather than crash.
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        rc = main([
            "watch", str(trace), "--model", str(model),
            "--poll", "0.05", "--idle-timeout", "2.0",
            "--output", str(log),
        ])
    finally:
        thread.join()
    assert rc == 0
    followed = _read_events(log)

    ref_log = tmp_path / "reference.jsonl"
    reference = tmp_path / "reference-trace.jsonl"
    reference.write_text("\n".join([header, *rows]) + "\n")
    assert main([
        "watch", str(reference), "--model", str(model),
        "--no-follow", "--output", str(ref_log),
    ]) == 0
    assert followed == _read_events(ref_log)
    capsys.readouterr()  # drain


def test_watch_missing_trace_fails_cleanly(watch_env, tmp_path, capsys):
    model, _trace = watch_env
    rc = main([
        "watch", str(tmp_path / "nope.jsonl"), "--model", str(model),
        "--no-follow",
    ])
    assert rc == 1
    assert "no readable trace" in capsys.readouterr().err


def test_watch_refuses_a_repeated_header_in_one_line(watch_env, tmp_path,
                                                    capsys):
    """Two writers' runs appended to one file: the second header is
    refused with one stderr line naming the file and line, exit code 1."""
    model, trace = watch_env
    lines = trace.read_text().splitlines(keepends=True)
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("".join(lines[:20] + lines[:20]))
    rc = main(["watch", str(doubled), "--model", str(model), "--no-follow"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"vn2 watch: {doubled}:21: not a snapshot row (a snapshot row has "
        f"node_id, epoch, generated_at and {NUM_METRICS} values)"
    ]
    assert "Traceback" not in err


def test_watch_stdout_prints_incident_lines(watch_env, capsys):
    model, trace = watch_env
    rc = main(["watch", str(trace), "--model", str(model), "--no-follow"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OPEN" in out and "CLOSE" in out
