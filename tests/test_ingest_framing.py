"""The served reader's framing rules for attachment ``ingest``s, and the
protocol-error counter.

An ``ingest`` header with ``n_packets`` is followed by that many packets
of raw bytes (``protocol.PACKET_BYTES`` each).  The rules
(``docs/service.md``, *Framing*):

* a header with a valid ``n_packets`` always has its attachment read,
  whatever else is wrong with it; the error is answered and the
  connection goes on;
* ``n_packets`` on any type other than ``ingest`` is ``bad_request``,
  after its attachment is read;
* an ``n_packets`` that is not an integer in ``[1, MAX_BATCH]`` answers
  ``bad_request`` and closes the connection, with nothing read ahead;
* EOF inside an attachment enqueues nothing;
* a message of the removed base64 column shape answers a
  ``bad_request`` that names the attachment.

Every error reply adds one to
``repro_service_protocol_errors_total{code}`` on the front door, which
the merged scrape shows at any ``--workers``.
"""

from __future__ import annotations

import json
import math
import random
import socket
from contextlib import contextmanager

import numpy as np
import pytest

from repro.metrics.catalog import NUM_METRICS
from repro.service import protocol
from repro.service.client import http_get_json
from repro.service.server import ServiceConfig, start_service_thread
from tests.test_ingest_columns import pack
from tests.test_service_cluster import _prometheus_text


def _packets(n, epoch0=0, node=1):
    return [{"node_id": node, "epoch": epoch0 + i, "generated_at": 60.0 * (epoch0 + i),
             "values": [0.25] * NUM_METRICS} for i in range(n)]


def _frame(header, attachment=b""):
    return (json.dumps(header) + "\n").encode() + attachment


def _good_line(deployment="framing", seq=50, n=2, epoch0=0):
    return protocol.encode(protocol.ingest(deployment, _packets(n, epoch0), seq))


@contextmanager
def _sink(tool, workers=0):
    config = ServiceConfig(port=0, http_port=0, workers=workers,
                           heartbeat_s=0.1)
    handle = start_service_thread(tool, config)
    try:
        yield handle
    finally:
        handle.stop(drain=True)


@contextmanager
def _connection(handle):
    with socket.create_connection(("127.0.0.1", handle.port),
                                  timeout=30.0) as sock, \
            sock.makefile("rb") as reader:
        assert json.loads(reader.readline())["type"] == "hello"
        yield sock, reader


def _reply(reader):
    line = reader.readline()
    assert line, "connection closed"
    return json.loads(line)


def _until_eof(reader):
    """Every reply left before the server closes the connection."""
    return [json.loads(line) for line in reader]


@pytest.fixture(scope="module")
def sink(testbed_tool):
    with _sink(testbed_tool) as handle:
        yield handle


# --------------------------------------------------------------------------
# the framing rules
# --------------------------------------------------------------------------


def test_truncated_attachment_at_eof_enqueues_nothing(sink):
    data = _good_line("truncated", seq=1, n=3)
    with _connection(sink) as (sock, reader):
        sock.sendall(data[:-protocol.PACKET_BYTES])  # a packet short
        sock.shutdown(socket.SHUT_WR)
        assert _until_eof(reader) == []  # no ack, no error
    doc = http_get_json(sink.host, sink.http_port, "/metrics")
    assert "truncated" not in doc["deployments"]


def test_bad_n_packets_answers_bad_request_then_closes(sink):
    header = {"v": 1, "type": "ingest", "seq": 4, "deployment": "framing",
              "n_packets": 0}
    with _connection(sink) as (sock, reader):
        # A line that would be answered if the reader went on.
        sock.sendall(_frame(header) + protocol.encode(
            protocol.subscribe("framing", 5)))
        replies = _until_eof(reader)
    assert [(r["type"], r["code"], r["seq"]) for r in replies] == [
        ("error", "bad_request", 4)
    ]
    assert "n_packets" in replies[0]["message"]


def test_more_than_max_batch_is_refused_without_reading(sink):
    """Nothing follows the header, so an answer proves no byte of the
    announced attachment was waited for."""
    header = {"v": 1, "type": "ingest", "seq": 7, "deployment": "framing",
              "n_packets": protocol.MAX_BATCH + 1}
    with _connection(sink) as (sock, reader):
        sock.sendall(_frame(header))
        replies = _until_eof(reader)
    assert [(r["code"], r["seq"]) for r in replies] == [("bad_request", 7)]


@pytest.mark.parametrize("broken, code", [
    ({"deployment": "no spaces"}, "bad_deployment"),
    ({"v": 2}, "bad_version"),
    ({"seq": True}, "bad_request"),
    ({"packets": []}, "bad_request"),  # both shapes
    ({"type": "subscribe"}, "bad_request"),  # n_packets off an ingest
    ({"type": "frobnicate"}, "bad_request"),
    ({"values_f64": "AAAA"}, "bad_request"),
])
def test_a_bad_header_still_has_its_attachment_read(sink, broken, code):
    """The attachment is consumed, the error answered, and the next line
    served on the same connection."""
    header, attachment = pack(_packets(2, node=3), seq=8,
                              deployment="framing")
    header.update(broken)
    with _connection(sink) as (sock, reader):
        sock.sendall(_frame(header, attachment) + _good_line(seq=9, epoch0=10))
        error, ack = _reply(reader), _reply(reader)
    assert (error["type"], error["code"]) == ("error", code), error
    assert (ack["type"], ack["seq"], ack["accepted"]) == ("ack", 9, 2)


def test_attachment_bytes_are_read_by_count_not_by_line(sink):
    """Newlines and bytes that are not UTF-8 inside an attachment are
    payload: the reader never looks for a line end in it."""
    packets = _packets(2, epoch0=20)
    raw = bytes([0x0A, 0xFF, 0x0A, 0xC3, 0x28, 0x0A, 0x00, 0x3F])
    packets[0]["values"][5] = float(np.frombuffer(raw, "<f8")[0])
    packets[1]["epoch"] = 0x0AFF0A0A
    msg = protocol.ingest("framing", packets, 11)
    assert raw in msg["attachment"]
    with _connection(sink) as (sock, reader):
        sock.sendall(protocol.encode(msg) + _good_line(seq=12, epoch0=30))
        assert (_reply(reader)["seq"], _reply(reader)["seq"]) == (11, 12)


def test_removed_base64_shape_names_the_attachment(sink):
    msg = {"v": 1, "type": "ingest", "seq": 13, "deployment": "framing",
           "node_ids": [1], "epochs": [40], "generated_at": [1.0],
           "values_f64": "A" * 460}
    with _connection(sink) as (sock, reader):
        sock.sendall(protocol.encode(msg) + _good_line(seq=14, epoch0=40))
        error, ack = _reply(reader), _reply(reader)
    assert (error["code"], error["seq"]) == ("bad_request", 13)
    assert "n_packets" in error["message"]
    assert "attachment" in error["message"]
    assert (ack["type"], ack["seq"]) == ("ack", 14)


# --------------------------------------------------------------------------
# repro_service_protocol_errors_total
# --------------------------------------------------------------------------


def _bad_lines():
    """A fixed, seeded mix of bad lines and the codes they must count."""
    bad_packet = _packets(3, epoch0=100)
    bad_packet[1]["values"][7] = math.nan
    kinds = {
        "bad_json": [b"{not json\n", b"[1, 2]\n", b"\xff\xfe\n"],
        "bad_version": [protocol.encode({"v": 9, "type": "ingest", "seq": 1})]
        * 2,
        "bad_deployment": [
            protocol.encode(protocol.ingest("no spaces", _packets(2), 2)),
            protocol.encode(protocol.ingest_rows("", _packets(1), 3)),
        ],
        "bad_packet": [
            protocol.encode(protocol.ingest("errors", bad_packet, 4)),
            protocol.encode(protocol.ingest_rows("errors", bad_packet, 5)),
        ],
        "bad_type": [protocol.encode({"v": 1, "type": "frobnicate"})],
        "bad_request": [
            protocol.encode({"v": 1, "type": "ingest", "deployment": "errors"}),
        ],
    }
    lines = [(code, line) for code, group in kinds.items() for line in group]
    random.Random(21).shuffle(lines)
    counts = {code: len(group) for code, group in kinds.items()}
    # The framing close comes last: the connection ends with it.
    lines.append(("bad_request", _frame(
        {"v": 1, "type": "ingest", "deployment": "errors", "n_packets": -1}
    )))
    counts["bad_request"] += 1
    return lines, counts


@pytest.mark.parametrize("workers", [0, 2])
def test_protocol_errors_are_counted_by_code(testbed_tool, workers):
    lines, counts = _bad_lines()
    with _sink(testbed_tool, workers) as handle:
        with _connection(handle) as (sock, reader):
            sock.sendall(b"".join(line for _code, line in lines))
            replies = _until_eof(reader)
        assert [r["code"] for r in replies] == [code for code, _ in lines]
        scrape = _prometheus_text(handle)
    samples = {
        line.split('code="')[1].split('"')[0]: float(line.rsplit(" ", 1)[1])
        for line in scrape.splitlines()
        if line.startswith("repro_service_protocol_errors_total{")
    }
    assert samples == {code: float(counts.get(code, 0))
                       for code in protocol.ERROR_CODES}
