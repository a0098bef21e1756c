"""Wire-protocol validation: every malformed message is rejected with a
machine-readable code, every well-formed one round-trips exactly.

No sockets here — the protocol module is pure functions, so these tests
pin the message grammar the server and SDK both rely on.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.metrics.catalog import NUM_METRICS
from repro.service import protocol
from tests.test_ingest_columns import through_wire


def _packet(**overrides):
    obj = {
        "node_id": 7,
        "epoch": 3,
        "generated_at": 1200.5,
        "values": [0.5] * NUM_METRICS,
    }
    obj.update(overrides)
    return obj


def _ingest(**overrides):
    msg = protocol.ingest_rows("city-a", [_packet()], seq=1)
    msg.update(overrides)
    return msg


def test_encode_decode_roundtrip():
    msg = _ingest()
    assert protocol.decode(protocol.encode(msg)) == msg


def test_encode_is_single_line():
    assert protocol.encode(_ingest()).count(b"\n") == 1


def test_decode_rejects_non_json_and_non_object():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.decode(b"not json\n")
    assert exc.value.code == "bad_json"
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.decode(b"[1, 2]\n")
    assert exc.value.code == "bad_json"


def test_version_mismatch_rejected():
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(_ingest(v=2))
    assert exc.value.code == "bad_version"
    assert exc.value.seq == 1  # seq still echoed so the client can match


def test_missing_type_rejected():
    msg = _ingest()
    del msg["type"]
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol._check_envelope(msg)
    assert exc.value.code == "bad_type"


@pytest.mark.parametrize("name", [
    "", "a" * 65, "has space", "/slash", None, 42, "-leading-dash",
])
def test_bad_deployment_names_rejected(name):
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.check_deployment(name)
    assert exc.value.code == "bad_deployment"


@pytest.mark.parametrize("name", ["a", "city-a", "CitySee_2011", "x.y-z", "9lives"])
def test_good_deployment_names_accepted(name):
    assert protocol.check_deployment(name) == name


def test_parse_packet_returns_session_tuple():
    node_id, epoch, generated_at, values = protocol.parse_packet(_packet())
    assert (node_id, epoch, generated_at) == (7, 3, 1200.5)
    assert values.shape == (NUM_METRICS,)
    assert values.dtype == float


@pytest.mark.parametrize("mutation, field", [
    ({"node_id": -1}, "node_id"),
    ({"node_id": "7"}, "node_id"),
    ({"node_id": True}, "node_id"),
    ({"epoch": -2}, "epoch"),
    ({"epoch": 1.5}, "epoch"),
    ({"generated_at": float("nan")}, "generated_at"),
    ({"generated_at": "soon"}, "generated_at"),
    ({"values": [0.5] * (NUM_METRICS - 1)}, "values"),
    ({"values": [0.5] * (NUM_METRICS + 1)}, "values"),
    ({"values": "zeros"}, "values"),
])
def test_malformed_packet_fields_rejected(mutation, field):
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_packet(_packet(**mutation))
    assert exc.value.code == "bad_packet"
    assert field in str(exc.value)


def test_non_finite_values_rejected():
    values = [0.5] * NUM_METRICS
    values[10] = math.inf
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_packet(_packet(values=values))
    assert exc.value.code == "bad_packet"


def test_missing_packet_field_rejected():
    obj = _packet()
    del obj["values"]
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_packet(obj)
    assert exc.value.code == "bad_packet"


def test_parse_ingest_happy_path():
    seq, deployment, batch = protocol.parse_ingest(*through_wire(
        protocol.ingest("city-a", [_packet(), _packet(epoch=4)], seq=9)
    ))
    assert seq == 9
    assert deployment == "city-a"
    assert batch.epochs.tolist() == [3, 4]


@pytest.mark.parametrize("packets", [[], None, "x"])
def test_parse_ingest_requires_nonempty_list(packets):
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(_ingest(packets=packets))
    assert exc.value.code == "bad_request"


def test_parse_ingest_caps_batch_size():
    msg = _ingest(packets=[_packet()] * (protocol.MAX_BATCH + 1))
    with pytest.raises(protocol.ProtocolError) as exc:
        protocol.parse_ingest(msg)
    assert exc.value.code == "bad_request"


def test_ack_shapes():
    plain = protocol.ack(5, accepted=32, queued=100)
    assert plain["type"] == "ack" and "retry_after" not in plain
    pushed = protocol.ack(5, accepted=0, queued=8192, retry_after=0.05)
    assert pushed["retry_after"] == 0.05
    assert pushed["reason"] == "queue_full"


def test_error_codes_are_closed_set():
    for code in protocol.ERROR_CODES:
        assert protocol.error(code, "msg")["code"] == code
    with pytest.raises(AssertionError):
        protocol.error("made_up", "msg")


def test_hello_advertises_catalog_width():
    msg = protocol.hello()
    assert msg["n_metrics"] == NUM_METRICS
    assert msg["v"] == protocol.PROTOCOL_VERSION


def test_incident_event_obj_matches_watch_log_shape():
    """The service event payload and `vn2 watch --output` lines must stay
    the same object — the CI differential depends on it."""
    from repro.cli import _event_json
    from repro.core.incidents import IncidentEvent, IncidentTracker, Observation

    tracker = IncidentTracker()
    (event,) = tracker.add(Observation(
        node_id=3, time_from=0.0, time_to=600.0, cause_index=1,
        hazard="congestion", strength=0.4,
    ))
    assert isinstance(event, IncidentEvent)
    assert json.loads(_event_json(event)) == protocol.incident_event_obj(event)
    assert set(protocol.incident_event_obj(event)) == {
        "kind", "incident_id", "time", "hazard", "node_ids", "start", "end",
        "peak_strength", "total_strength", "n_observations",
    }


def test_event_message_wraps_deployment():
    from repro.core.incidents import IncidentTracker, Observation

    tracker = IncidentTracker()
    (event,) = tracker.add(Observation(
        node_id=3, time_from=0.0, time_to=600.0, cause_index=1,
        hazard="congestion", strength=0.4,
    ))
    msg = protocol.event_message("city-a", event)
    assert msg["deployment"] == "city-a"
    assert msg["event"]["kind"] == "open"
    # Full float precision on the wire: values survive a JSON round trip.
    assert protocol.decode(protocol.encode(msg)) == msg


def test_values_accept_numpy_row_via_tolist():
    row = np.linspace(0.0, 1.0, NUM_METRICS)
    packet = _packet(values=row.tolist())
    _, _, _, parsed = protocol.parse_packet(packet)
    assert np.array_equal(parsed, row)


@pytest.mark.parametrize("field", ["node_id", "epoch"])
def test_ids_beyond_int64_rejected(field):
    """Ids are stored as int64; a larger one would be accepted here and
    blow up later, when retained states are stacked for a refit."""
    assert protocol.parse_packet(_packet(**{field: protocol.MAX_ID}))
    for value in (protocol.MAX_ID + 1, 2**64, 10**30):
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.parse_packet(_packet(**{field: value}), seq=4)
        assert (exc.value.code, exc.value.seq) == ("bad_packet", 4)
        assert field in str(exc.value)
        msg = _ingest(packets=[_packet(), _packet(**{field: value})])
        with pytest.raises(protocol.ProtocolError) as exc:
            protocol.parse_ingest(protocol.decode(protocol.encode(msg)))
        assert (exc.value.code, exc.value.seq) == ("bad_packet", 1)


def test_parse_ingest_returns_packet_batch():
    from repro.core.streaming import PacketBatch

    packets = [_packet(node_id=i, epoch=2 * i, generated_at=float(i))
               for i in range(5)]
    _, _, batch = protocol.parse_ingest(
        *through_wire(protocol.ingest("city-a", packets))
    )
    assert isinstance(batch, PacketBatch) and len(batch) == 5
    assert protocol._parse_columns(packets) is not None  # the fast path
    assert batch.node_ids.dtype == np.int64 == batch.epochs.dtype
    assert batch.generated_at.dtype == float == batch.values.dtype
    assert batch.values.shape == (5, NUM_METRICS)
    assert batch.epochs.tolist() == [0, 2, 4, 6, 8]


# --------------------------------------------------------------------------
# columnar parse_ingest == per-packet parse_packet
# --------------------------------------------------------------------------


def _mutate(packet, rng):
    """One wire-level defect (or oddity) planted in ``packet``."""
    if not isinstance(packet, dict) or not isinstance(packet.get("values"), list):
        return packet  # already broken beyond a second mutation
    key = ["node_id", "epoch", "generated_at", "values"][rng.integers(4)]
    width = NUM_METRICS
    values = list(packet["values"])
    pick = rng.integers(22)
    if pick == 0:
        del packet[key]
    elif pick == 1:
        return [[], "packet", 7, None][rng.integers(4)]
    elif pick == 2:
        packet[["node_id", "epoch"][rng.integers(2)]] = bool(rng.integers(2))
    elif pick == 3:
        packet[["node_id", "epoch"][rng.integers(2)]] = -int(rng.integers(1, 9))
    elif pick == 4:
        packet[["node_id", "epoch"][rng.integers(2)]] = 2**63 + int(rng.integers(3))
    elif pick == 5:
        packet[["node_id", "epoch"][rng.integers(2)]] = 2**63 - 1
    elif pick == 6:
        packet["generated_at"] = [math.nan, math.inf, -math.inf][rng.integers(3)]
    elif pick == 7:
        values[rng.integers(width)] = [math.nan, math.inf, -math.inf][rng.integers(3)]
        packet["values"] = values
    elif pick == 8:
        values[rng.integers(width)] = [1.0, 2.0]  # ragged
        packet["values"] = values
    elif pick == 9:
        packet["values"] = [[v] for v in values]  # nested, uniform
    elif pick == 10:
        packet["values"] = values[: width - 1 - int(rng.integers(3))]
    elif pick == 11:
        packet["values"] = values + [0.0] * int(rng.integers(1, 3))
    elif pick == 12:
        packet["values"] = ["zeros", {"a": 1}, None, 0.5][rng.integers(4)]
    elif pick == 13:
        values[rng.integers(width)] = ["1.5", "abc", None, True][rng.integers(4)]
        packet["values"] = values
    elif pick == 14:
        packet["generated_at"] = ["soon", None, True, 10**400][rng.integers(4)]
    elif pick == 15:
        packet["generated_at"] = int(rng.integers(0, 10**6))  # legal int time
    elif pick == 16:
        packet[["node_id", "epoch"][rng.integers(2)]] = float(rng.integers(9))
    elif pick == 17:
        values[rng.integers(width)] = 10**400  # overflows a float
        packet["values"] = values
    elif pick == 18:
        packet["extra"] = "ignored"
    elif pick == 19:
        values[rng.integers(width)] = int(rng.integers(-5, 5))  # legal int
        packet["values"] = values
    elif pick == 20:
        packet["values"] = tuple(values)  # arrives as a JSON list: legal
    else:
        packet["node_id"] = str(packet["node_id"])
    return packet


def _outcome(parse):
    try:
        return parse(), None
    except protocol.ProtocolError as exc:
        return None, (exc.code, exc.seq, str(exc))


def test_columnar_parse_matches_per_packet_parse():
    """Seeded property test: over mutated batches, ``parse_ingest``
    accepts and rejects exactly what ``parse_packet`` does packet by
    packet — same code, same seq, same message — and on accept returns
    the same numbers as columns."""
    from repro.core.streaming import PacketBatch

    rng = np.random.default_rng(2024)
    outcomes = {"accepted": 0, "rejected": 0}
    for case in range(600):
        n = int(rng.integers(1, 40))
        packets = [
            {
                "node_id": int(rng.integers(0, 300)),
                "epoch": int(rng.integers(0, 5000)),
                "generated_at": float(rng.uniform(0, 1e6)),
                "values": rng.normal(size=NUM_METRICS).tolist(),
            }
            for _ in range(n)
        ]
        for _ in range(int(rng.integers(0, 3))):
            at = int(rng.integers(n))
            packets[at] = _mutate(packets[at], rng)
        # Through the wire text, so NaN/Infinity arrive as JSON literals.
        msg = protocol.decode(protocol.encode(
            protocol.ingest_rows("city-a", packets, seq=case)
        ))
        got, got_error = _outcome(lambda: protocol.parse_ingest(msg))
        want, want_error = _outcome(lambda: [
            protocol.parse_packet(p, case) for p in msg["packets"]
        ])
        assert got_error == want_error, (case, packets)
        if got_error is None:
            outcomes["accepted"] += 1
            seq, deployment, batch = got
            assert (seq, deployment, len(batch)) == (case, "city-a", n)
            expected = PacketBatch.from_packets(want)
            for column, array in zip(PacketBatch._fields, batch):
                assert array.dtype == getattr(expected, column).dtype
                assert np.array_equal(array, getattr(expected, column)), column
        else:
            outcomes["rejected"] += 1
    assert min(outcomes.values()) > 100, outcomes
