"""The columnar ``ingest`` shape: the same rules, the same batch, the same
served bytes as the row shape.

A columnar ingest carries ``node_ids``/``epochs``/``generated_at`` as
JSON lists and the metrics as ``values_f64``, the base64 of n×43
little-endian float64.  The contract checked here:

* every defect a column can carry is accepted or rejected exactly as the
  row shape (and :func:`protocol.parse_packet`, packet by packet) does —
  same code, seq and message — and accepted columns are bitwise equal;
* the float64 bytes round-trip exactly, at the float edges and at batch
  sizes 1 and ``MAX_BATCH``;
* structural defects of the columnar message answer ``bad_request``;
* the testbed trace served once in each shape gives the same event
  bytes, ``/metrics`` counters and ``/incidents``, at ``--workers 0``
  and ``--workers 2``.
"""

from __future__ import annotations

import base64
import json
import math
import socket
import time

import numpy as np
import pytest

from repro.core.streaming import PacketBatch, iter_packets
from repro.metrics.catalog import NUM_METRICS
from repro.service import protocol
from repro.service.client import _packet_obj, http_get_json
from repro.service.metrics import SHARD_TOTAL_KEYS
from repro.service.server import ServiceConfig, start_service_thread
from tests.test_event_encoder import _Reader


def _packets(rng, n):
    return [
        {
            "node_id": int(rng.integers(0, 300)),
            "epoch": int(rng.integers(0, 5000)),
            "generated_at": float(rng.uniform(0, 1e6)),
            "values": rng.normal(size=NUM_METRICS).tolist(),
        }
        for _ in range(n)
    ]


def _columnar(packets, seq=1, deployment="city-a"):
    """The columnar message of ``packets``, fields carried as they are."""
    return protocol.ingest_columns(
        deployment,
        [p["node_id"] for p in packets],
        [p["epoch"] for p in packets],
        [p["generated_at"] for p in packets],
        [p["values"] for p in packets],
        seq,
    )


def _wire(msg):
    """Through the wire text, so NaN/Infinity arrive as JSON literals."""
    return protocol.decode(protocol.encode(msg))


def _outcome(parse):
    try:
        return parse(), None
    except protocol.ProtocolError as exc:
        return None, (exc.code, exc.seq, str(exc))


def _assert_bitwise_equal(got: PacketBatch, want: PacketBatch):
    for column, a, b in zip(PacketBatch._fields, got, want):
        assert a.dtype == b.dtype, column
        assert a.shape == b.shape, column
        assert a.tobytes() == b.tobytes(), column


# --------------------------------------------------------------------------
# seeded property test: columnar == rows == per packet
# --------------------------------------------------------------------------

_ID_DEFECTS = [True, False, -1, -7, 2**63, 2**63 + 2, 10**30, 3.0, "7", None,
               [], 2**63 - 1, 0]
_TIME_DEFECTS = [math.nan, math.inf, -math.inf, "soon", None, True, 10**400,
                 [1.0], 12345, -0.0, 2**53 + 1]
_VALUE_DEFECTS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 0]


def _plant(packet, rng):
    """One defect (or legal oddity) a column can carry, in ``packet``."""
    column = rng.integers(4)
    if column < 2:
        key = ("node_id", "epoch")[column]
        packet[key] = _ID_DEFECTS[rng.integers(len(_ID_DEFECTS))]
    elif column == 2:
        packet["generated_at"] = _TIME_DEFECTS[rng.integers(len(_TIME_DEFECTS))]
    else:
        packet["values"][rng.integers(NUM_METRICS)] = (
            _VALUE_DEFECTS[rng.integers(len(_VALUE_DEFECTS))]
        )


def test_columnar_parse_matches_row_parse():
    """Over seeded batches with planted column defects, the columnar shape
    is accepted or rejected exactly as the row shape and ``parse_packet``
    are — same code, same seq, same message — and accepted columns are
    bitwise equal."""
    rng = np.random.default_rng(18)
    outcomes = {"accepted": 0, "rejected": 0}
    for case in range(500):
        n = int(rng.integers(1, 40))
        packets = _packets(rng, n)
        for _ in range(int(rng.integers(0, 3))):
            _plant(packets[int(rng.integers(n))], rng)
        rows = _wire(protocol.ingest_rows("city-a", packets, seq=case))
        columns = _wire(_columnar(packets, seq=case))
        got, got_error = _outcome(lambda: protocol.parse_ingest(columns))
        want, want_error = _outcome(lambda: protocol.parse_ingest(rows))
        _, packet_error = _outcome(lambda: [
            protocol.parse_packet(p, case) for p in rows["packets"]
        ])
        assert got_error == want_error == packet_error, (case, packets)
        if got_error is None:
            outcomes["accepted"] += 1
            assert got[:2] == want[:2] == (case, "city-a")
            _assert_bitwise_equal(got[2], want[2])
        else:
            outcomes["rejected"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_sdk_builder_sends_columns_that_parse_like_rows():
    rng = np.random.default_rng(7)
    packets = _packets(rng, 33)
    msg = protocol.ingest("city-a", packets, seq=4)
    assert "packets" not in msg and set(protocol.ID_COLUMNS) < set(msg)
    _, _, got = protocol.parse_ingest(_wire(msg))
    _, _, want = protocol.parse_ingest(
        _wire(protocol.ingest_rows("city-a", packets, seq=4))
    )
    _assert_bitwise_equal(got, want)


@pytest.mark.parametrize("broken", [
    lambda p: p.pop("values"),
    lambda p: p.update(values=[0.5] * (NUM_METRICS - 1)),
    lambda p: p.update(values="zeros"),
    lambda p: p["values"].__setitem__(3, "abc"),
])
def test_sdk_builder_sends_rows_that_cannot_form_columns(broken):
    """Rows with no (n, 43) float matrix go in row shape, so the sink
    answers them as it always has."""
    packets = _packets(np.random.default_rng(3), 4)
    broken(packets[2])
    msg = protocol.ingest("city-a", packets, seq=8)
    assert msg == protocol.ingest_rows("city-a", packets, seq=8)
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(_wire(msg))
    assert (exc.value.code, exc.value.seq) == ("bad_packet", 8)


# --------------------------------------------------------------------------
# exactness
# --------------------------------------------------------------------------

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("n", [1, 2, protocol.MAX_BATCH])
def test_float64_bytes_round_trip_exactly(n):
    rng = np.random.default_rng(n)
    values = rng.choice(EDGE_VALUES, size=(n, NUM_METRICS))
    values[0, : len(EDGE_VALUES)] = EDGE_VALUES
    packets = [
        {"node_id": int(i % 300), "epoch": protocol.MAX_ID - i,
         "generated_at": EDGE_VALUES[i % len(EDGE_VALUES)],
         "values": values[i].tolist()}
        for i in range(n)
    ]
    _, _, got = protocol.parse_ingest(_wire(protocol.ingest("c", packets)))
    _, _, want = protocol.parse_ingest(_wire(protocol.ingest_rows("c", packets)))
    _assert_bitwise_equal(got, want)
    assert got.values.tobytes() == values.tobytes()  # -0.0 keeps its sign
    assert got.values.flags.writeable and got.values.flags.c_contiguous
    assert len(got) == n


def test_values_f64_is_little_endian_row_major():
    values = np.arange(NUM_METRICS * 2, dtype=float).reshape(2, NUM_METRICS)
    msg = protocol.ingest_columns("c", [1, 2], [3, 4], [5.0, 6.0], values)
    raw = base64.b64decode(msg["values_f64"])
    assert raw == values.astype("<f8").tobytes(order="C")
    assert raw[8:16] == bytes.fromhex("000000000000f03f")  # 1.0, little-endian
    assert np.frombuffer(raw, "<f8")[NUM_METRICS] == values[1, 0]  # row-major


# --------------------------------------------------------------------------
# rejections
# --------------------------------------------------------------------------


def _good(n=3):
    return _columnar(_packets(np.random.default_rng(11), n), seq=5)


def _values_b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def _set(**fields):
    def mutate(msg):
        msg.update(fields)
    return mutate


def _drop(*names):
    def mutate(msg):
        for name in names:
            del msg[name]
    return mutate


def _column(name, transform):
    def mutate(msg):
        msg[name] = transform(msg[name])
    return mutate


def _b64(transform):
    return _column("values_f64", transform)


BAD_REQUESTS = {
    "both shapes": _set(packets=[]),
    "neither shape": _drop(*protocol.ID_COLUMNS, "values_f64"),
    "values_f64 missing": _drop("values_f64"),
    "node_ids missing": _drop("node_ids"),
    "column not a list": _set(epochs={"0": 1}),
    "values_f64 not a string": _set(values_f64=[0.5] * NUM_METRICS),
    "unequal columns": _column("generated_at", lambda c: c[:-1]),
    "empty columns": _set(node_ids=[], epochs=[], generated_at=[],
                          values_f64=""),
    "non-alphabet base64 (url-safe)": _b64(lambda s: s.replace(s[4], "-", 1)),
    "non-alphabet base64 (newline)": _b64(lambda s: s[:8] + "\n" + s[8:]),
    "non-alphabet base64 (space)": _b64(lambda s: " " + s),
    "non-ascii base64": _b64(lambda s: "é" + s[1:]),
    "bad padding": _b64(lambda s: s + "="),
    "truncated base64": _b64(lambda s: s[:-1]),
    "one float short": _b64(
        lambda s: base64.b64encode(base64.b64decode(s)[:-8]).decode()
    ),
    "one float extra": _b64(
        lambda s: base64.b64encode(base64.b64decode(s) + bytes(8)).decode()
    ),
    "not whole floats": _b64(
        lambda s: base64.b64encode(base64.b64decode(s)[:-3]).decode()
    ),
    "padding hides a short payload": _b64(
        lambda s: base64.b64encode(base64.b64decode(s)[:-1]).decode()
    ),
    "extra padding": _b64(lambda s: s + "=="),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_structural_defects_are_bad_request(case):
    msg = _good()
    assert len(msg["node_ids"]) * NUM_METRICS * 8 % 3 == 0  # no padding
    BAD_REQUESTS[case](msg)
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(_wire(msg))
    assert (exc.value.code, exc.value.seq) == ("bad_request", 5), str(exc.value)


def test_more_than_max_batch_is_bad_request():
    n = protocol.MAX_BATCH + 1
    msg = protocol.ingest_columns(
        "c", [0] * n, list(range(n)), [0.0] * n, np.zeros((n, NUM_METRICS)), 2
    )
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(_wire(msg))
    assert (exc.value.code, exc.value.seq) == ("bad_request", 2)
    assert "MAX_BATCH" in str(exc.value)


def test_wrong_length_base64_is_rejected_before_decoding(monkeypatch):
    """The character count is known from the columns, so a string of the
    wrong length is refused without being decoded."""
    def refuse(*args, **kwargs):
        raise AssertionError("decoded a values_f64 of the wrong length")

    for transform in (lambda s: s[:-4], lambda s: s + "AAAA"):
        msg = _good()
        _b64(transform)(msg)
        line = _wire(msg)
        monkeypatch.setattr(protocol.base64, "b64decode", refuse)
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.parse_ingest(line)
        monkeypatch.undo()
        assert (exc.value.code, exc.value.seq) == ("bad_request", 5)
        assert "base64 characters of" in str(exc.value)


BAD_PACKETS = {
    "NaN value": ("values", math.nan),
    "+inf value": ("values", math.inf),
    "-inf value": ("values", -math.inf),
    "bool node_id": ("node_id", True),
    "bool epoch": ("epoch", False),
    "negative node_id": ("node_id", -1),
    "negative epoch": ("epoch", -3),
    "node_id 2**63": ("node_id", 2**63),
    "epoch beyond int64": ("epoch", 10**30),
    "float node_id": ("node_id", 2.0),
    "string epoch": ("epoch", "4"),
    "NaN generated_at": ("generated_at", math.nan),
    "inf generated_at": ("generated_at", math.inf),
    "string generated_at": ("generated_at", "soon"),
    "huge int generated_at": ("generated_at", 10**400),
}


@pytest.mark.parametrize("case", sorted(BAD_PACKETS))
def test_packet_defects_answer_as_the_row_shape(case):
    field, value = BAD_PACKETS[case]
    packets = _packets(np.random.default_rng(5), 6)
    if field == "values":
        packets[4]["values"][17] = value
    else:
        packets[4][field] = value
    packets[5]["node_id"] = -2  # a later bad packet is not the one named
    with pytest.raises(protocol.ProtocolError) as got:
        protocol.parse_ingest(_wire(_columnar(packets, seq=9)))
    with pytest.raises(protocol.ProtocolError) as want:
        protocol.parse_packet(_wire({"p": packets[4]})["p"], 9)
    assert (got.value.code, got.value.seq, str(got.value)) == (
        "bad_packet", 9, str(want.value)
    )


# --------------------------------------------------------------------------
# served: the testbed trace in each shape
# --------------------------------------------------------------------------

DEPLOYMENT = "shape-check"


def _serve(tool, workers, lines, n_packets):
    """Send ``lines`` in lockstep with their acks; return the subscriber's
    event lines, the settled ``/metrics`` totals and ``/incidents``."""
    config = ServiceConfig(port=0, http_port=0, workers=workers,
                           heartbeat_s=0.1, queue_size=n_packets)
    handle = start_service_thread(tool, config)
    try:
        sub_sock = socket.create_connection(("127.0.0.1", handle.port))
        sub_sock.sendall(protocol.encode(protocol.subscribe(DEPLOYMENT, 1)))
        sub = _Reader(sub_sock)
        deadline = time.monotonic() + 30.0
        while b'"subscribed"' not in sub.data:
            assert time.monotonic() < deadline, "subscribe never answered"
            time.sleep(0.01)
        with socket.create_connection(("127.0.0.1", handle.port)) as sock, \
                sock.makefile("rwb") as wire:
            assert json.loads(wire.readline())["type"] == "hello"
            for seq, line in enumerate(lines, start=1):
                wire.write(line)
                wire.flush()
                ack = json.loads(wire.readline())
                assert (ack["type"], ack["seq"]) == ("ack", seq), ack
                assert ack["accepted"] > 0, ack
        while True:
            metrics = http_get_json(handle.host, handle.http_port, "/metrics")
            if metrics["totals"]["packets"] == n_packets:
                break
            assert time.monotonic() < deadline + 60.0, "packets not diagnosed"
            time.sleep(0.02)
        incidents = http_get_json(handle.host, handle.http_port, "/incidents")
    finally:
        handle.stop(drain=True)
    sub.join(timeout=30.0)
    sub_sock.close()
    assert not sub.is_alive()
    events = [
        line + b"\n" for line in sub.data.split(b"\n")
        if line.startswith(b'{"v":1,"type":"event"')
    ]
    totals = {key: metrics["totals"][key] for key in SHARD_TOTAL_KEYS}
    return events, totals, incidents


@pytest.mark.parametrize("workers", [0, 2])
def test_served_shapes_give_identical_streams(testbed_tool, testbed_trace,
                                              workers):
    frame = testbed_trace
    packets = [_packet_obj(p) for p in iter_packets(frame)]
    batches = [packets[i:i + 64] for i in range(0, len(packets), 64)]
    expected = [
        protocol.encode(protocol.event_message(DEPLOYMENT, e))
        for update in testbed_tool.diagnose_stream(frame)
        for e in update.events
    ]
    assert expected
    served = {}
    for shape, build in (("rows", protocol.ingest_rows),
                         ("columns", protocol.ingest)):
        lines = [protocol.encode(build(DEPLOYMENT, batch, seq))
                 for seq, batch in enumerate(batches, start=1)]
        assert (b'"packets"' in lines[0]) == (shape == "rows")
        served[shape] = _serve(testbed_tool, workers, lines, len(packets))
    rows, columns = served["rows"], served["columns"]
    assert columns[0] == rows[0] == expected  # byte-identical events
    assert columns[1] == rows[1]
    assert columns[1]["packets"] == len(packets)
    assert columns[1]["batches_rejected"] == 0
    assert columns[2] == rows[2]
    assert columns[2]["deployments"][DEPLOYMENT]["closed_total"] > 0
