"""The attachment ``ingest`` shape: the same rules, the same batch, the
same served bytes as the row shape.

An attachment ingest is a header line carrying ``n_packets`` followed by
``n_packets * PACKET_BYTES`` raw little-endian bytes: the int64
``node_ids``, the int64 ``epochs``, the float64 ``generated_at`` and the
n×43 float64 metrics, row-major.  The contract checked here:

* every defect an attachment can carry is accepted or rejected exactly
  as the row shape (and :func:`protocol.parse_packet`, packet by packet)
  does — same code, seq and message — and accepted columns are bitwise
  equal;
* ``protocol.ingest`` sends a batch the sink would refuse as rows (a
  hand-packed attachment still reaches the sink's own checks), so the
  answer is the row shape's, also for defects only JSON can carry
  (``bool``/``float``/string ids, ids of 2**63 and more, ``bool`` and
  huge-int times, ``bool`` and string metric values);
* the float64 bytes round-trip exactly, at the float edges and at batch
  sizes 1 and ``MAX_BATCH``, in the documented layout;
* structural defects of an attachment ingest answer ``bad_request``;
* the testbed trace served once in each shape gives the same event
  bytes, ``/metrics`` counters and ``/incidents``, at ``--workers 0``
  and ``--workers 2``.

The framing rules of the served reader are in
``tests/test_ingest_framing.py``.
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


def through_wire(msg):
    """``msg`` through its wire bytes, split as the sink's reader splits
    them: ``(header, attachment or None)``.  NaN/Infinity in a header or
    rows arrive as JSON literals."""
    line, _, rest = protocol.encode(msg).partition(b"\n")
    header = protocol.decode(line)
    size = protocol.attachment_size(header)
    assert len(rest) == size
    return header, (rest if size else None)


def pack(packets, seq=1, deployment="city-a"):
    """A hand-packed attachment ingest of ``packets``, with none of the
    SDK's client-side routing: any int64 id and any float time go in,
    so the sink's own checks are what answer."""
    n = len(packets)
    attachment = b"".join((
        np.array([p["node_id"] for p in packets], dtype="<i8").tobytes(),
        np.array([p["epoch"] for p in packets], dtype="<i8").tobytes(),
        np.array([p["generated_at"] for p in packets], dtype="<f8").tobytes(),
        np.array([p["values"] for p in packets], dtype="<f8").tobytes(),
    ))
    header = {"v": 1, "type": "ingest", "seq": seq, "deployment": deployment,
              "n_packets": n}
    return header, attachment


def _packable(packets):
    """Whether :func:`pack` carries ``packets`` as the rows hold them:
    every id an ``int`` an int64 holds, every time and metric value an
    ``int`` or ``float`` a float64 holds, and values that stack to
    (n, 43)."""
    try:
        if not all(type(p[key]) is int and -2**63 <= p[key] < 2**63
                   for p in packets for key in ("node_id", "epoch")):
            return False
        if not all(type(x) in (int, float) for p in packets
                   for x in (p["generated_at"], *p["values"])):
            return False
        np.array([p["generated_at"] for p in packets], dtype="<f8")
        values = np.array([p["values"] for p in packets], dtype="<f8")
    except (KeyError, TypeError, ValueError, OverflowError):
        return False
    return values.shape == (len(packets), NUM_METRICS)


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
# seeded property test: attachment == rows == per packet
# --------------------------------------------------------------------------

_ID_DEFECTS = [True, False, -1, -7, 2**63, 2**63 + 2, 10**30, 3.0, "7", None,
               [], 2**63 - 1, 0]
_TIME_DEFECTS = [math.nan, math.inf, -math.inf, "soon", None, True, 10**400,
                 [1.0], 12345, -0.0, 2**53 + 1]
_VALUE_DEFECTS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 0,
                  True, "1.5"]


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
    """Over seeded batches with planted column defects, the SDK's message
    (an attachment, or rows for a batch the sink refuses) and a
    hand-packed attachment are accepted or rejected exactly as the row
    shape and ``parse_packet`` are — same code, same seq, same message —
    and accepted columns are bitwise equal."""
    rng = np.random.default_rng(18)
    outcomes = {"accepted": 0, "rejected": 0, "packed rejected": 0,
                "routed to rows": 0}
    for case in range(500):
        n = int(rng.integers(1, 40))
        packets = _packets(rng, n)
        for _ in range(int(rng.integers(0, 3))):
            _plant(packets[int(rng.integers(n))], rng)
        rows = through_wire(protocol.ingest_rows("city-a", packets, seq=case))
        sdk = protocol.ingest("city-a", packets, seq=case)
        outcomes["routed to rows"] += "packets" in sdk
        got, got_error = _outcome(
            lambda: protocol.parse_ingest(*through_wire(sdk))
        )
        want, want_error = _outcome(lambda: protocol.parse_ingest(*rows))
        _, packet_error = _outcome(lambda: [
            protocol.parse_packet(p, case) for p in rows[0]["packets"]
        ])
        assert got_error == want_error == packet_error, (case, packets)
        if _packable(packets):
            packed, packed_error = _outcome(
                lambda: protocol.parse_ingest(*pack(packets, seq=case))
            )
            assert packed_error == want_error, (case, packets)
            outcomes["packed rejected"] += packed_error is not None
            if packed_error is None:
                _assert_bitwise_equal(packed[2], want[2])
        if got_error is None:
            outcomes["accepted"] += 1
            assert got[:2] == want[:2] == (case, "city-a")
            _assert_bitwise_equal(got[2], want[2])
        else:
            outcomes["rejected"] += 1
    assert min(outcomes["accepted"], outcomes["rejected"]) > 100, outcomes
    assert outcomes["routed to rows"] > 100, outcomes
    assert outcomes["packed rejected"] > 50, outcomes


def test_sdk_builder_sends_columns_that_parse_like_rows():
    rng = np.random.default_rng(7)
    packets = _packets(rng, 33)
    msg = protocol.ingest("city-a", packets, seq=4)
    assert "packets" not in msg and msg["n_packets"] == 33
    _, _, got = protocol.parse_ingest(*through_wire(msg))
    _, _, want = protocol.parse_ingest(
        *through_wire(protocol.ingest_rows("city-a", packets, seq=4))
    )
    _assert_bitwise_equal(got, want)


def test_sdk_builder_packs_numpy_scalar_values():
    """NumPy scalars are numbers, not JSON-only defects: the SDK still
    packs them (rows could not even be JSON-encoded with ``np.int64``)."""
    packets = _packets(np.random.default_rng(9), 4)
    for packet in packets:
        packet["values"] = [np.float64(x) for x in packet["values"]]
    packets[2]["values"][5] = np.int64(7)
    msg = protocol.ingest("city-a", packets, seq=3)
    assert "packets" not in msg and msg["n_packets"] == 4
    _, _, batch = protocol.parse_ingest(*through_wire(msg))
    assert batch.values[2, 5] == 7.0
    assert batch.values.tobytes() == np.array(
        [p["values"] for p in packets], dtype=float
    ).tobytes()


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
def test_sdk_builder_packs_numpy_integer_ids(kind):
    """NumPy integer ids and epochs (and NumPy float times) are packed
    like the Python numbers they hold, to the same bytes; a ``bool`` id
    still goes in row shape."""
    packets = _packets(np.random.default_rng(11), 4)
    numpy_packets = [
        dict(p, node_id=kind(p["node_id"]), epoch=kind(p["epoch"]),
             generated_at=np.float64(p["generated_at"]))
        for p in packets
    ]
    msg = protocol.ingest("city-a", numpy_packets, seq=5)
    assert "packets" not in msg and msg["n_packets"] == 4
    assert protocol.encode(msg) == protocol.encode(
        protocol.ingest("city-a", packets, seq=5)
    )
    for flag in (True, np.bool_(True)):
        assert "packets" in protocol.ingest(
            "city-a", [dict(packets[0], node_id=flag)]
        )


def test_sdk_rows_carry_numpy_integers_as_json_numbers():
    """A batch with a bad packet goes as rows, NumPy ids and all: the
    sink names the bad packet as it would for Python ints."""
    packets = _packets(np.random.default_rng(12), 3)
    packets[2]["generated_at"] = math.nan
    numpy_packets = [dict(p, node_id=np.int64(p["node_id"])) for p in packets]
    msg = protocol.ingest("city-a", numpy_packets, seq=6)
    assert protocol.encode(msg) == protocol.encode(
        protocol.ingest("city-a", packets, seq=6)
    )
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(*through_wire(msg))
    assert exc.value.code == "bad_packet" and "generated_at" in str(exc.value)


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
        protocol.parse_ingest(*through_wire(msg))
    assert (exc.value.code, exc.value.seq) == ("bad_packet", 8)


# --------------------------------------------------------------------------
# exactness and layout
# --------------------------------------------------------------------------

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3]


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
    msg = protocol.ingest("c", packets)
    assert msg["n_packets"] == n
    _, _, got = protocol.parse_ingest(*through_wire(msg))
    _, _, want = protocol.parse_ingest(
        *through_wire(protocol.ingest_rows("c", packets))
    )
    _assert_bitwise_equal(got, want)
    assert got.values.tobytes() == values.tobytes()  # -0.0 keeps its sign
    assert got.values.flags.writeable and got.values.flags.c_contiguous
    assert len(got) == n


def test_negative_zero_and_subnormals_keep_their_bits():
    """-0.0 and subnormal times and values arrive as the same IEEE bits."""
    edges = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310]
    packets = [{"node_id": i, "epoch": i, "generated_at": t,
                "values": [t] * NUM_METRICS} for i, t in enumerate(edges)]
    _, _, batch = protocol.parse_ingest(
        *through_wire(protocol.ingest("c", packets))
    )
    want = np.array(edges, dtype=float)
    assert batch.generated_at.tobytes() == want.tobytes()
    assert batch.values.tobytes() == np.repeat(want, NUM_METRICS).tobytes()
    assert math.copysign(1.0, batch.values[0, 0]) == -1.0


def test_values_f64_is_little_endian_row_major():
    values = np.arange(NUM_METRICS * 2, dtype=float).reshape(2, NUM_METRICS)
    msg = protocol.ingest_columns("c", [1, 2], [3, 4], [5.0, 6.0], values)
    raw = msg["attachment"][48:]  # after 2 node_ids, 2 epochs, 2 times
    assert raw == values.astype("<f8").tobytes(order="C")
    assert raw[8:16] == bytes.fromhex("000000000000f03f")  # 1.0, little-endian
    assert np.frombuffer(raw, "<f8")[NUM_METRICS] == values[1, 0]  # row-major


def test_attachment_layout_offsets_and_byte_order():
    """The documented layout: node_ids, epochs, generated_at, then the
    values row-major, every element little-endian, 368 bytes a packet."""
    values = np.arange(NUM_METRICS * 2, dtype=float).reshape(2, NUM_METRICS)
    msg = protocol.ingest_columns("c", [1, 2], [3, 4], [5.0, 6.0], values, 9)
    assert protocol.PACKET_BYTES == 368
    line, _, raw = protocol.encode(msg).partition(b"\n")
    assert json.loads(line) == {"v": 1, "type": "ingest", "deployment": "c",
                                "n_packets": 2, "seq": 9}
    assert len(raw) == 2 * 368
    assert raw[0:8] == (1).to_bytes(8, "little")  # node_ids
    assert raw[8:16] == (2).to_bytes(8, "little")
    assert raw[16:24] == (3).to_bytes(8, "little")  # epochs
    assert raw[24:32] == (4).to_bytes(8, "little")
    assert raw[32:40] == bytes.fromhex("0000000000001440")  # 5.0, generated_at
    assert raw[40:48] == bytes.fromhex("0000000000001840")  # 6.0
    assert raw[48:] == values.astype("<f8").tobytes(order="C")
    assert raw[56:64] == bytes.fromhex("000000000000f03f")  # 1.0, little-endian
    assert np.frombuffer(raw, "<f8", offset=48)[NUM_METRICS] == values[1, 0]


# --------------------------------------------------------------------------
# rejections
# --------------------------------------------------------------------------


def _good(n=3):
    return pack(_packets(np.random.default_rng(11), n), seq=5)


def _legacy(n=3):
    """A message of the removed base64 column shape, as the earlier SDK
    built it (``values_f64`` is the base64 of the n×43 float64 metrics)."""
    packets = _packets(np.random.default_rng(11), n)
    values = np.array([p["values"] for p in packets], dtype="<f8")
    header = {"v": 1, "type": "ingest", "seq": 5, "deployment": "city-a",
              "node_ids": [p["node_id"] for p in packets],
              "epochs": [p["epoch"] for p in packets],
              "generated_at": [p["generated_at"] for p in packets],
              "values_f64": base64.b64encode(values.tobytes()).decode()}
    return header, None


def _header(**fields):
    def mutate(header, attachment):
        header.update(fields)
        return header, attachment
    return mutate


def _drop(*names):
    def mutate(header, attachment):
        for name in names:
            del header[name]
        return header, attachment
    return mutate


def _bytes(transform):
    def mutate(header, attachment):
        return header, transform(attachment)
    return mutate


def _column(name, transform):
    def mutate(header, attachment):
        header[name] = transform(header[name])
        return header, attachment
    return mutate


def _b64(transform):
    return _column("values_f64", transform)


#: Structural defects of an attachment ingest: case -> mutation of
#: ``_good()``'s header and attachment.
BAD_ATTACHMENTS = {
    "both shapes": _header(packets=[]),
    "neither shape": _drop("n_packets"),
    "no attachment": _bytes(lambda b: None),
    # An attachment whose length is not n_packets x 368 (a served reader
    # never hands one over; see test_ingest_framing.py for the wire).
    "attachment one byte short": _bytes(lambda b: b[:-1]),
    "attachment one float short": _bytes(lambda b: b[:-8]),
    "attachment one packet short": _bytes(lambda b: b[:-protocol.PACKET_BYTES]),
    "attachment one float extra": _bytes(lambda b: b + bytes(8)),
    "attachment not whole floats": _bytes(lambda b: b[:-3]),
    "empty attachment": _bytes(lambda b: b""),
    # n_packets that frame nothing.
    "n_packets 0": _header(n_packets=0),
    "n_packets -1": _header(n_packets=-1),
    "n_packets true": _header(n_packets=True),
    "n_packets 3.0": _header(n_packets=3.0),
    "n_packets string": _header(n_packets="3"),
    "n_packets null": _header(n_packets=None),
    "n_packets over MAX_BATCH": _header(n_packets=protocol.MAX_BATCH + 1),
    # A field of the removed shape on an attachment header.
    "values_f64 beside n_packets": _header(values_f64="AAAA"),
    "node_ids beside n_packets": _header(node_ids=[0, 1, 2]),
}

#: Every defect the removed base64 column shape was refused for: such a
#: message, defect or not, now answers the bad_request that names the
#: attachment.  Case -> mutation of ``_legacy()``'s message.
BAD_LEGACY = {
    "values_f64 missing": _drop("values_f64"),
    "node_ids missing": _drop("node_ids"),
    "column not a list": _header(epochs={"0": 1}),
    "values_f64 not a string": _header(values_f64=[0.5] * NUM_METRICS),
    "unequal columns": _column("generated_at", lambda c: c[:-1]),
    "empty columns": _header(node_ids=[], epochs=[], generated_at=[],
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
    "well-formed": _b64(lambda s: s),
}


@pytest.mark.parametrize("case", sorted({**BAD_ATTACHMENTS, **BAD_LEGACY}))
def test_structural_defects_are_bad_request(case):
    if case in BAD_LEGACY:
        header, attachment = BAD_LEGACY[case](*_legacy())
    else:
        header, attachment = BAD_ATTACHMENTS[case](*_good())
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(header, attachment)
    assert (exc.value.code, exc.value.seq) == ("bad_request", 5), str(exc.value)
    if case in BAD_LEGACY:
        assert "n_packets with a binary attachment" in str(exc.value)


def test_wrong_length_base64_is_rejected_before_decoding(monkeypatch):
    """Nothing decodes base64 any more: a ``values_f64`` of any length is
    refused from the header's fields alone.  The attachment's length is
    likewise checked against ``n_packets`` before a column is read."""
    assert not hasattr(protocol, "base64")

    def refuse(*args, **kwargs):
        raise AssertionError("read the columns of a wrong-length attachment")

    for transform in (lambda s: s[:-4], lambda s: s + "AAAA"):
        header, _ = _b64(transform)(*_legacy())
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.parse_ingest(header)
        assert (exc.value.code, exc.value.seq) == ("bad_request", 5)
    for transform in (lambda b: b[:-4], lambda b: b + bytes(4)):
        header, attachment = _good()
        monkeypatch.setattr(np, "frombuffer", refuse)
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.parse_ingest(header, transform(attachment))
        monkeypatch.undo()
        assert (exc.value.code, exc.value.seq) == ("bad_request", 5)
        assert "368-byte attachment" not in str(exc.value)
        assert f"{3 * protocol.PACKET_BYTES}-byte attachment" in str(exc.value)


def test_removed_base64_shape_names_its_replacement():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest({
            "v": 1, "type": "ingest", "seq": 3, "deployment": "c",
            "node_ids": [1], "epochs": [1], "generated_at": [0.0],
            "values_f64": "AAAA",
        })
    assert (exc.value.code, exc.value.seq) == ("bad_request", 3)
    assert "n_packets" in str(exc.value) and "attachment" in str(exc.value)


@pytest.mark.parametrize("n_packets", [0, -1, True, 3.0, "3", None, [3],
                                       protocol.MAX_BATCH + 1])
def test_bad_n_packets_is_a_framing_error(n_packets):
    """No attachment length can be read from it: the reader must close."""
    header = {"v": 1, "type": "ingest", "seq": 2, "deployment": "c",
              "n_packets": n_packets}
    with pytest.raises(protocol.FramingError) as exc:
        protocol.attachment_size(header)
    assert (exc.value.code, exc.value.seq) == ("bad_request", 2)
    assert "n_packets" in str(exc.value)


def test_attachment_size_is_read_from_the_header_alone():
    assert protocol.attachment_size({"type": "subscribe"}) == 0
    assert protocol.attachment_size({"n_packets": 1}) == 368
    assert protocol.attachment_size(
        {"n_packets": protocol.MAX_BATCH, "v": 99, "deployment": "no spaces"}
    ) == protocol.MAX_BATCH * 368


def test_more_than_max_batch_is_bad_request():
    """``ingest_columns`` refuses a batch no header can announce, so the
    SDK sends rows and the sink answers the row shape's bad_request
    instead of closing the connection."""
    n = protocol.MAX_BATCH + 1
    with pytest.raises(ValueError):
        protocol.ingest_columns(
            "c", [0] * n, list(range(n)), [0.0] * n,
            np.zeros((n, NUM_METRICS)), 2,
        )
    packets = [{"node_id": 0, "epoch": i, "generated_at": 0.0,
                "values": [0.0] * NUM_METRICS} for i in range(n)]
    msg = protocol.ingest("c", packets, 2)
    assert "packets" in msg and "n_packets" not in msg
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(*through_wire(msg))
    assert (exc.value.code, exc.value.seq) == ("bad_request", 2)
    assert "MAX_BATCH" in str(exc.value)


BAD_PACKETS = {
    # An attachment carries these (the SDK sends them as rows, a
    # hand-packed attachment reaches the sink's own checks).
    "NaN value": ("values", math.nan),
    "+inf value": ("values", math.inf),
    "-inf value": ("values", -math.inf),
    "NaN generated_at": ("generated_at", math.nan),
    "inf generated_at": ("generated_at", math.inf),
    "negative node_id": ("node_id", -1),
    "negative epoch": ("epoch", -3),
    # Only JSON carries these; the SDK sends them as rows.
    "bool node_id": ("node_id", True),
    "bool epoch": ("epoch", False),
    "node_id 2**63": ("node_id", 2**63),
    "epoch beyond int64": ("epoch", 10**30),
    "float node_id": ("node_id", 2.0),
    "string epoch": ("epoch", "4"),
    "string generated_at": ("generated_at", "soon"),
    "bool generated_at": ("generated_at", True),
    "huge int generated_at": ("generated_at", 10**400),
    "bool value": ("values", True),
    "string value": ("values", "1.5"),
}

#: The BAD_PACKETS cases an attachment can carry.
PACKABLE = {"NaN value", "+inf value", "-inf value", "NaN generated_at",
            "inf generated_at", "negative node_id", "negative epoch"}


@pytest.mark.parametrize("case", sorted(BAD_PACKETS))
def test_packet_defects_answer_as_the_row_shape(case):
    field, value = BAD_PACKETS[case]
    packets = _packets(np.random.default_rng(5), 6)
    if field == "values":
        packets[4]["values"][17] = value
    else:
        packets[4][field] = value
    packets[5]["values"][0] = math.nan  # a later bad packet is not named
    rows = through_wire(protocol.ingest_rows("c", packets))[0]["packets"]
    with pytest.raises(protocol.ProtocolError) as want:
        protocol.parse_packet(rows[4], 9)
    msg = protocol.ingest("city-a", packets, seq=9)
    assert "packets" in msg and "n_packets" not in msg
    shapes = [through_wire(msg)]
    if _packable(packets):
        shapes.append(pack(packets, seq=9))
    if case in PACKABLE:
        assert len(shapes) == 2  # the sink's own checks are exercised
    for shape in shapes:
        with pytest.raises(protocol.ProtocolError) as got:
            protocol.parse_ingest(*shape)
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
                         ("attachment", protocol.ingest)):
        lines = [protocol.encode(build(DEPLOYMENT, batch, seq))
                 for seq, batch in enumerate(batches, start=1)]
        assert (b'"n_packets"' in lines[0]) == (shape == "attachment")
        served[shape] = _serve(testbed_tool, workers, lines, len(packets))
    rows, attached = served["rows"], served["attachment"]
    assert attached[0] == rows[0] == expected  # byte-identical events
    assert attached[1] == rows[1]
    assert attached[1]["packets"] == len(packets)
    assert attached[1]["batches_rejected"] == 0
    assert attached[2] == rows[2]
    assert attached[2]["deployments"][DEPLOYMENT]["closed_total"] > 0
