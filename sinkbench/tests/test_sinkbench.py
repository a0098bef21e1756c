"""Tests of the benchmark's own accounting.

Run from the repository root::

    python3 -m pytest sinkbench/tests -q
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import loadgen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- a stub sink: hello, then one ack per ingest line ----------------------


class StubSink:
    """Acks every ingest line; sleeps ``stall_s`` before acking ``stall_seq``."""

    def __init__(self, stall_seq: int, stall_s: float):
        self.stall_seq = stall_seq
        self.stall_s = stall_s
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.threads = []
        self.accepting = threading.Thread(target=self._accept, daemon=True)
        self.accepting.start()

    def _accept(self):
        for _ in range(2):
            conn, _ = self.listener.accept()
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def _serve(self, conn):
        conn.sendall(b'{"v":1,"type":"hello","server":"stub","n_metrics":43}\n')
        reader = conn.makefile("rb")
        for raw in reader:
            msg = json.loads(raw)
            if msg["type"] == "ingest":
                if msg["seq"] == self.stall_seq:
                    time.sleep(self.stall_s)
                ack = {"v": 1, "type": "ack", "seq": msg["seq"],
                       "accepted": len(msg["packets"]), "queued": 0}
                conn.sendall((json.dumps(ack, separators=(",", ":")) + "\n").encode())
        conn.close()

    def close(self):
        self.listener.close()


def _lines(n_lines: int, per_line: int):
    out = []
    for i in range(n_lines):
        packets = [(0, i * per_line + j, float(i * per_line + j), None)
                   for j in range(per_line)]
        data = json.dumps({"v": 1, "type": "ingest", "deployment": "d",
                           "packets": [{}] * per_line, "seq": i + 1},
                          separators=(",", ":")).encode() + b"\n"
        out.append(inputs.Line("d", i + 1, packets, data,
                               tuple(p[2] for p in packets)))
    return out


def test_open_loop_due_times_do_not_slow_when_the_sink_stalls():
    stub = StubSink(stall_seq=3, stall_s=0.2)
    try:
        ingest = loadgen.Wire(stub.port)
        subscriber = loadgen.Wire(stub.port)
        lines = _lines(20, 10)
        ledger = loadgen.Ledger()
        rate = 1000.0  # 10-packet lines -> one line due every 10 ms
        t0 = loadgen.open_loop(ingest, subscriber, lines, ledger, rate)
        ingest.close()
        subscriber.close()
    finally:
        stub.close()
    entries = [ledger.lines[line.seq] for line in lines]
    last_ack = max(e[2] for e in entries)
    dues = [e[0] for e in entries]
    assert dues == pytest.approx([t0 + 0.01 * i for i in range(20)], abs=1e-9)
    # The schedule kept going through the 200 ms stall ...
    assert entries[-1][1] - entries[0][1] < 0.19 + 0.1
    # ... so the lines queued behind the stalled one waited for it, and
    # their latency, timed from the due time, shows the wait.
    assert entries[2][2] - entries[2][0] >= 0.2
    assert entries[5][2] - entries[5][0] >= 0.15
    assert all(e[3] == 10 for e in entries)
    late = [e[1] - e[0] for e in entries]
    assert min(late) >= 0.0
    phase = run.Phase((1.0, 1.0), 200, t0, last_ack, 0.1,
                      (0.0, 1.0), (0.0, 1.0), 1.0, ledger, {}, last_ack, [], 0)
    assert run.late_p99_ms(phase) == pytest.approx(
        sorted(late)[-1] * 1e3, rel=1e-12
    )


def test_refused_line_counts_as_missing_latency_and_failed_packets():
    lines = _lines(4, 5)
    ledger = loadgen.Ledger()
    for i, line in enumerate(lines):
        ledger.lines[line.seq] = [float(i), float(i), float(i) + 0.5,
                                  0 if i == 1 else 5]
    plan = run.Plan(lines, {"d": check.Expected({}, {}, [], [])})
    phase = run.Phase((1.0, 1.0), 20, 0.0, 10.0, 1.0, (0.0, 10.0), (0.0, 10.0),
                      1.0, ledger, {},
                      10.0, [], 0)
    lat = run.latencies(plan, phase)
    assert sorted(lat["ack"]) == [0.5, 0.5, 0.5, 10.0]
    metrics_doc = {"deployments": {"d": {"packets": 15}}}
    assert run._failed_packets(plan, ledger, metrics_doc, {"d": []}) == 5


def test_probe_samples_round_trip_and_scale_by_the_window_median():
    probe = reference.Probe()
    time.sleep(0.3)
    samples = probe.stop()
    assert samples and all(cpu > 0 for _, cpu in samples)
    assert probe.proc.returncode is not None
    samples = [(0.5, 0.001), (1.0, 0.020), (1.5, 0.005), (2.0, 0.008),
               (3.5, 0.002)]
    # Begun inside [1, 2]: 20, 5 and 8 ms, median 8 ms; all: 5 ms.
    assert reference.scale(samples, (1.0, 2.0)) == pytest.approx(
        reference.REF_MS / 8.0
    )
    assert reference.scale(samples) == pytest.approx(reference.REF_MS / 5.0)
    with pytest.raises(RuntimeError):
        reference.scale(samples, (2.5, 3.0))


def test_quantiles_use_nearest_rank():
    samples = list(range(1, 101))
    assert run._quantiles(samples) == (50, 99)


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    start = np.array([0.0, 1.0, 1.5, 4.0, 20.0])
    end = np.array([10.0, 3.0, 2.0, 5.0, 21.0])
    parent = np.array([-1, 0, 1, 0, -1])
    own = spans.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([7.0, 1.5, 0.5, 1.0, 1.0])
    # Self times of a tree add up to its root's duration.
    assert own[:4].sum() == pytest.approx(10.0)


def test_span_store_records_nesting_and_round_trips(tmp_path):
    store = spans.SpanStore()

    def busy():
        return sum(i * i for i in range(20000))

    def inner(x):
        busy()
        return [x, x]

    inner_traced = store.wrap("tracker.add", inner,
                              measure=lambda a, k, r: (len(r), 0.0))

    def outer(x):
        busy()
        return inner_traced(x)

    outer_traced = store.wrap("session.push_packet", outer)
    for i in range(3):
        store.batch = i
        outer_traced(i)
    assert store.dump(tmp_path / "spans-1.npz") == 6
    data = spans.load_spans(tmp_path)
    names = data["name"].tolist()
    assert names.count("tracker.add") == 3
    for i, name in enumerate(names):
        if name == "tracker.add":
            assert names[data["parent"][i]] == "session.push_packet"
    totals = spans.span_totals(data)
    assert totals["tracker.add"]["v1"] == 6.0
    assert totals["session.push_packet"]["calls"] == 3
    duration = float((data["end"] - data["start"])[data["parent"] < 0].sum())
    layers = spans.layer_self_s(totals)
    assert layers["session"] + layers["tracker"] == pytest.approx(duration)
    assert sorted(set(data["batch"].tolist())) == [0, 1, 2]



def test_span_totals_keep_only_spans_begun_inside_the_window():
    data = {
        "name": np.array(["session.push_packet", "tracker.add",
                          "session.push_packet", "protocol.decode"]),
        "start": np.array([0.0, 1.0, 10.0, 30.0]),
        "end": np.array([4.0, 3.0, 12.0, 31.0]),
        "parent": np.array([-1, 0, -1, -1]),
        "batch": np.zeros(4, dtype=np.int64),
        "wall": np.array([99.0, 100.5, 105.0, 111.0]),
        "v1": np.ones(4), "v2": np.zeros(4),
    }
    totals = spans.span_totals(data, window=(100.0, 110.0))
    # The first push began before the window: dropped, but its child,
    # begun inside, keeps only its own time.
    assert totals["session.push_packet"]["calls"] == 1
    assert totals["session.push_packet"]["self_s"] == pytest.approx(2.0)
    assert totals["tracker.add"]["self_s"] == pytest.approx(2.0)
    # The decode began after the window closed.
    assert totals["protocol.decode"]["calls"] == 0
    assert spans.span_totals(data)["protocol.decode"]["calls"] == 1

# -- the output check -----------------------------------------------------------


def _event(i: int) -> dict:
    return {"kind": "open", "incident_id": i, "time": 100.0 + i,
            "hazard": "h", "node_ids": [i], "start": 1.0, "end": 2.0,
            "peak_strength": 0.5, "total_strength": 0.5, "n_observations": 1}


def _expected():
    return {"d": check.Expected(
        counters={"packets": 10, "states": 9, "exceptions": 2,
                  "events_emitted": 3},
        incidents={"open": [], "closed": [], "closed_total": 0, "evicted": 0},
        events=[_event(1), _event(2), _event(3)],
        flush_events=[_event(4)],
    )}


def _served(expected):
    want = expected["d"]
    metrics_doc = {"deployments": {"d": dict(want.counters)}}
    incidents_doc = {"deployments": {"d": want.incidents}}
    received = {"d": [dict(e) for e in want.events + want.flush_events]}
    return metrics_doc, incidents_doc, received


def test_output_check_passes_on_identical_output():
    expected = _expected()
    assert check.compare(expected, *_served(expected)) == []


def test_output_check_catches_one_perturbed_event():
    expected = _expected()
    metrics_doc, incidents_doc, received = _served(expected)
    received["d"][1]["peak_strength"] = np.nextafter(0.5, 1.0)
    problems = check.compare(expected, metrics_doc, incidents_doc, received)
    assert problems == ["d: 1 events missing or differing"]
    assert check.event_mismatches(
        expected["d"].events + expected["d"].flush_events, received["d"]
    ) == 1


def test_output_check_catches_missing_event_and_counter_drift():
    expected = _expected()
    metrics_doc, incidents_doc, received = _served(expected)
    received["d"].pop()
    metrics_doc["deployments"]["d"]["exceptions"] = 3
    problems = check.compare(expected, metrics_doc, incidents_doc, received)
    assert any("exceptions=3" in p for p in problems)
    assert any("1 events missing" in p for p in problems)


# -- inputs ------------------------------------------------------------------------


def test_partition_is_seeded_and_covers_every_node():
    nodes = np.arange(119)
    a = inputs.partition_nodes(nodes, 8, seed=5)
    b = inputs.partition_nodes(nodes, 8, seed=5)
    c = inputs.partition_nodes(nodes, 8, seed=6)
    assert all((x == y).all() for x, y in zip(a, b))
    assert any(len(x) != len(y) or (x != y).any() for x, y in zip(a, c))
    assert sorted(np.concatenate(a).tolist()) == nodes.tolist()
    assert max(map(len, a)) - min(map(len, a)) <= 1
