"""The sink service's wire protocol: newline-delimited JSON, version 1.

One JSON object per line, over a plain TCP stream.  Both directions use
the same framing; every message carries ``{"v": 1, "type": ...}``.

Client → server:

* ``ingest`` — a batch of report packets, in one of two shapes:

  - attachment (what the SDK sends): a header line ``{"v", "type",
    "seq", "deployment", "n_packets"}`` followed by exactly
    ``n_packets * PACKET_BYTES`` raw bytes — the int64 ``node_ids``,
    the int64 ``epochs``, the float64 ``generated_at`` and the n×43
    float64 catalog metrics (row-major), all little-endian;
  - rows: ``{"v", "type", "seq", "deployment", "packets": [...]}`` where
    each packet is the canonical snapshot-row object of the JSONL trace
    codec (:func:`repro.traces.io.row_obj`): ``node_id``, ``epoch``,
    ``generated_at``, optional ``received_at`` and a ``values`` list of
    exactly the 43 catalog metrics.

  Both shapes validate by the same rules into the same batch.  A batch
  is acked atomically: either every packet is queued or none is.
  Framing: a header with a valid ``n_packets`` always has its
  attachment read, whatever else is wrong with it; an ``n_packets``
  that is not an integer in ``[1, MAX_BATCH]`` is answered and then the
  connection closes (:class:`FramingError`), as the next line cannot be
  found.
* ``subscribe`` — ``{"v", "type", "seq", "deployment"}``; the server
  answers ``subscribed`` and then streams ``event`` messages for that
  deployment over the same connection (several subscriptions can share a
  connection).

Server → client:

* ``hello`` — sent once on connect: server name, protocol version,
  metric-catalog width (a client talking to a sink with a different
  catalog should stop right there).
* ``ack`` — answers one ``ingest``: ``accepted`` (batch size, or 0),
  ``queued`` (the shard's queue depth in packets after the ack) and, on
  backpressure, ``retry_after`` seconds with ``reason: "queue_full"``.
  Backpressure is always explicit — the server never silently drops a
  packet it acked.
* ``subscribed`` — answers one ``subscribe``.
* ``event`` — one incident transition:
  ``{"deployment", "event": {kind, incident_id, time, hazard, node_ids,
  start, end, peak_strength, total_strength, n_observations}}`` — the
  exact object ``vn2 watch --output`` writes, full float precision, so
  served events can be compared bit for bit against a local replay.
* ``error`` — a rejected message: ``code`` (machine-readable, see
  :data:`ERROR_CODES`), ``message`` (human-readable), and the offending
  ``seq`` when the client supplied one.  Errors are per-message; the
  connection stays usable, except after a :class:`FramingError`.

Validation is strict and total: unknown types, missing fields, wrong
value-vector width, non-finite floats and malformed deployment names are
all rejected with ``error`` before anything touches a queue.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from itertools import chain
from numbers import Integral, Real
from typing import List, Optional, Tuple

import numpy as np

from repro.core.streaming import PacketBatch
from repro.metrics.catalog import NUM_METRICS

#: Protocol version spoken by this module.
PROTOCOL_VERSION = 1

#: Deployment names: DNS-label-ish, 1-64 chars.
DEPLOYMENT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Hard cap on packets per ingest batch (keeps per-line memory bounded).
MAX_BATCH = 4096

#: Largest accepted ``node_id``/``epoch``: ids are stored as int64.
MAX_ID = 2**63 - 1

#: Bytes of attachment per packet: int64 ``node_id``, int64 ``epoch``,
#: float64 ``generated_at`` and 43 float64 metrics (8 + 8 + 8 + 344).
PACKET_BYTES = 8 * (3 + NUM_METRICS)

#: The header field that announces an attachment.
N_PACKETS = "n_packets"

#: Where an :func:`ingest_columns` message holds its attachment bytes;
#: :func:`encode` writes them after the header line, never inside it.
ATTACHMENT = "attachment"

#: Fields of the removed base64 column shape; a header carrying any of
#: them is refused with a message that names the attachment.
REMOVED_COLUMNS = ("node_ids", "epochs", "generated_at", "values_f64")

#: Machine-readable ``error.code`` values the server can send.
ERROR_CODES = (
    "bad_json",          # line is not a JSON object
    "bad_version",       # missing/unsupported "v"
    "bad_type",          # unknown or missing "type"
    "bad_deployment",    # malformed deployment name
    "bad_packet",        # malformed packet in an ingest batch
    "bad_request",       # structurally invalid message
)


class ProtocolError(ValueError):
    """A message that fails validation; ``code`` names the reason."""

    def __init__(self, code: str, message: str, seq: Optional[int] = None):
        super().__init__(message)
        self.code = code
        self.seq = seq


class FramingError(ProtocolError):
    """A header whose attachment length cannot be known: the reader
    answers it and closes the connection."""


def _numpy_scalar(value):
    """``json.dumps`` fallback: a NumPy scalar as the Python number it
    holds.  A row an SDK caller built from arrays may carry one, and
    :func:`ingest` sends rows when the batch has a bad packet."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def encode(message: dict) -> bytes:
    """Frame one message for the wire: compact JSON and a newline, then
    the attachment of an :func:`ingest_columns` message."""
    attachment = message.get(ATTACHMENT)
    if attachment is None:
        return (json.dumps(message, separators=(",", ":"), default=_numpy_scalar)
                + "\n").encode("utf-8")
    header = {key: value for key, value in message.items() if key != ATTACHMENT}
    return (json.dumps(header, separators=(",", ":")) + "\n").encode("utf-8") + attachment


def decode(line) -> dict:
    """Parse one wire line into a message object (no semantic checks)."""
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_json", f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad_json", "message must be a JSON object")
    return obj


def attachment_size(header: dict) -> int:
    """Bytes of attachment that follow ``header``'s line: 0 without
    ``n_packets``, else ``n_packets * PACKET_BYTES``.

    Raises :class:`FramingError` (``bad_request``) when ``n_packets`` is
    not an integer in ``[1, MAX_BATCH]``: the reader cannot tell where
    the next line starts, so it answers and closes the connection.
    """
    if N_PACKETS not in header:
        return 0
    n = header[N_PACKETS]
    if type(n) is not int or not 1 <= n <= MAX_BATCH:
        seq = header.get("seq")
        raise FramingError(
            "bad_request",
            f"n_packets must be an integer in [1, {MAX_BATCH}], got {n!r}; "
            "the connection closes, as the next line cannot be found",
            seq if type(seq) is int else None,
        )
    return n * PACKET_BYTES


def _check_envelope(msg: dict) -> Tuple[str, Optional[int]]:
    """Validate the ``v``/``type``/``seq`` envelope; return (type, seq)."""
    seq = msg.get("seq")
    if seq is not None and (not isinstance(seq, int) or isinstance(seq, bool)):
        raise ProtocolError("bad_request", "seq must be an integer")
    version = msg.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad_version",
            f"unsupported protocol version {version!r} "
            f"(this sink speaks v{PROTOCOL_VERSION})",
            seq,
        )
    mtype = msg.get("type")
    if not isinstance(mtype, str):
        raise ProtocolError("bad_type", "missing message type", seq)
    return mtype, seq


def check_deployment(name, seq: Optional[int] = None) -> str:
    """Validate a deployment name; return it."""
    if not isinstance(name, str) or not DEPLOYMENT_RE.match(name):
        raise ProtocolError(
            "bad_deployment",
            f"deployment must match {DEPLOYMENT_RE.pattern}, got {name!r}",
            seq,
        )
    return name


def parse_packet(obj, seq: Optional[int] = None) -> Tuple[int, int, float, np.ndarray]:
    """Validate one wire packet into ``(node_id, epoch, generated_at, values)``.

    One row of the :class:`~repro.traces.frame.PacketBatch` that
    :func:`parse_ingest` builds (and exactly what
    :meth:`repro.core.streaming.StreamingDiagnosisSession.push_packet`
    takes).  Checks: integer ``node_id`` and ``epoch`` in ``[0, MAX_ID]``,
    finite numeric ``generated_at``, and a ``values`` list of exactly
    :data:`~repro.metrics.catalog.NUM_METRICS` finite numbers.  A number
    is a JSON integer or float: never ``true``/``false`` or a string.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("bad_packet", "packet must be a JSON object", seq)
    try:
        node_id = obj["node_id"]
        epoch = obj["epoch"]
        generated_at = obj["generated_at"]
        values = obj["values"]
    except KeyError as exc:
        raise ProtocolError("bad_packet", f"packet missing {exc}", seq) from exc
    _check_scalars(node_id, epoch, generated_at, seq)
    if not isinstance(values, list) or len(values) != NUM_METRICS:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise ProtocolError(
            "bad_packet",
            f"values must list exactly {NUM_METRICS} catalog metrics, got {got}",
            seq,
        )
    if not _numbers(values):
        raise _bad_values(seq)
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an int too large for a float
        raise _bad_values(seq) from None
    if not np.all(np.isfinite(array)):
        raise _bad_values(seq)
    return int(node_id), int(epoch), float(generated_at), array


def _check_scalars(node_id, epoch, generated_at, seq: Optional[int]) -> None:
    """A packet's id, epoch and time checks, in :func:`parse_packet` order."""
    for name, value in (("node_id", node_id), ("epoch", epoch)):
        if (not isinstance(value, int) or isinstance(value, bool)
                or not 0 <= value <= MAX_ID):
            raise ProtocolError(
                "bad_packet",
                f"{name} must be an integer in [0, 2**63), got {value!r}",
                seq,
            )
    if (not isinstance(generated_at, (int, float))
            or isinstance(generated_at, bool) or not _finite(generated_at)):
        raise ProtocolError(
            "bad_packet", f"generated_at must be a finite number, got {generated_at!r}", seq
        )


def _check_row(node_id, epoch, generated_at, values: np.ndarray,
               seq: Optional[int]) -> None:
    """:func:`parse_packet`'s checks on a packet whose ``values`` are
    already a (43,) float64 row (a row of an attachment)."""
    _check_scalars(node_id, epoch, generated_at, seq)
    if not np.all(np.isfinite(values)):
        raise _bad_values(seq)


def _bad_values(seq: Optional[int]) -> ProtocolError:
    return ProtocolError("bad_packet", "values must be finite numbers", seq)


def _finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float
        return False


_LIST = {list}


def _integers(items) -> bool:
    """Whether every item is an integer and none a ``bool``.

    NumPy integers pass and are packed like Python ints (an SDK caller
    may hand in ids read from an array); JSON never carries them.
    """
    return all(
        issubclass(kind, Integral) and not issubclass(kind, bool)
        for kind in set(map(type, items))
    )


def _numbers(items) -> bool:
    """Whether every item is a real number and none a ``bool``.

    ``np.asarray(..., dtype=float)`` would take ``True`` as 1.0 and the
    string ``"1.5"`` as 1.5; neither is a JSON number.  NumPy scalars
    pass (an SDK caller may hand them in), and JSON never carries them.
    """
    return all(
        issubclass(kind, Real) and not issubclass(kind, bool)
        for kind in set(map(type, items))
    )


def _parse_columns(packets: list) -> Optional[PacketBatch]:
    """A row-shaped batch as columns, or None if any packet fails any
    check.

    The checks of :func:`parse_packet`, run column by column, with
    NumPy scalars taken as the numbers they hold; the ``values`` width
    is checked by the shape of the stacked matrix.  A None sends the
    sink to the per-packet path, which names the first bad packet, and
    :func:`ingest` to the row shape.
    """
    try:
        node_ids = [p["node_id"] for p in packets]
        epochs = [p["epoch"] for p in packets]
        times = [p["generated_at"] for p in packets]
        values = [p["values"] for p in packets]
    except (KeyError, TypeError):  # a missing key, or not an object
        return None
    if (set(map(type, values)) != _LIST or not _integers(node_ids)
            or not _integers(epochs) or not _numbers(times)
            or not _numbers(chain.from_iterable(values))):
        return None
    try:
        batch = PacketBatch(
            np.array(node_ids, dtype=np.int64),
            np.array(epochs, dtype=np.int64),
            np.array(times, dtype=float),
            np.array(values, dtype=float),
        )
    except (TypeError, ValueError, OverflowError):
        return None
    if (batch.values.shape != (len(packets), NUM_METRICS)
            or min(batch.node_ids.min(), batch.epochs.min()) < 0
            or not np.isfinite(batch.values).all()
            or not np.isfinite(batch.generated_at).all()):
        return None
    return batch


def _parse_rows(msg: dict, seq: Optional[int]) -> PacketBatch:
    packets = msg["packets"]
    if not isinstance(packets, list) or not packets:
        raise ProtocolError("bad_request", "packets must be a non-empty list", seq)
    if len(packets) > MAX_BATCH:
        raise ProtocolError(
            "bad_request",
            f"batch of {len(packets)} exceeds MAX_BATCH={MAX_BATCH}",
            seq,
        )
    batch = _parse_columns(packets)
    if batch is None:
        batch = PacketBatch.from_packets([parse_packet(p, seq) for p in packets])
    return batch


def _parse_attachment(n: int, attachment: bytes,
                      seq: Optional[int]) -> PacketBatch:
    """The batch packed in an attachment of ``n`` packets.

    Each column is copied out of the buffer into a native array the
    batch owns.  If any packet fails a check, the packets are checked
    one by one, so the error names the first bad one as the row shape
    would.
    """
    ints = np.frombuffer(attachment, "<i8", 2 * n)
    floats = np.frombuffer(attachment, "<f8", (1 + NUM_METRICS) * n, 16 * n)
    batch = PacketBatch(
        ints[:n].astype(np.int64),
        ints[n:].astype(np.int64),
        floats[:n].astype(float),
        floats[n:].astype(float).reshape(n, NUM_METRICS),
    )
    if (min(batch.node_ids.min(), batch.epochs.min()) < 0
            or not np.isfinite(batch.generated_at).all()
            or not np.isfinite(batch.values).all()):
        for row in zip(batch.node_ids.tolist(), batch.epochs.tolist(),
                       batch.generated_at.tolist(), batch.values):
            _check_row(*row, seq)
    return batch


def parse_ingest(
    msg: dict, attachment: Optional[bytes] = None
) -> Tuple[Optional[int], str, PacketBatch]:
    """Validate a full ``ingest`` message → (seq, deployment, batch).

    Takes either shape: ``packets`` rows, or an ``n_packets`` header
    with the ``attachment`` that followed its line.  Accepts and
    rejects exactly what :func:`parse_packet` does on every packet, with
    the same error; a defect in the message's structure (a shape mixed
    with the other or missing, an empty ``packets``, too many packets,
    an attachment of the wrong length, a field of the removed base64
    column shape) is ``bad_request``.
    """
    _mtype, seq = _check_envelope(msg)
    deployment = check_deployment(msg.get("deployment"), seq)
    if any(name in msg for name in REMOVED_COLUMNS):
        raise ProtocolError(
            "bad_request",
            "the node_ids/epochs/generated_at/values_f64 ingest shape was "
            "removed: send n_packets with a binary attachment, or packets "
            "rows",
            seq,
        )
    rows = "packets" in msg
    if rows == (N_PACKETS in msg):
        raise ProtocolError(
            "bad_request",
            "an ingest carries either packets or n_packets with its attachment",
            seq,
        )
    if rows:
        return seq, deployment, _parse_rows(msg, seq)
    size = attachment_size(msg)
    if attachment is None or len(attachment) != size:
        got = "none" if attachment is None else f"{len(attachment)} bytes"
        raise ProtocolError(
            "bad_request",
            f"n_packets={msg[N_PACKETS]} needs a {size}-byte attachment, "
            f"got {got}",
            seq,
        )
    return seq, deployment, _parse_attachment(msg[N_PACKETS], attachment, seq)


# --------------------------------------------------------------------------
# message constructors (server side unless noted)
# --------------------------------------------------------------------------


def hello(server: str = "repro.service") -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "hello",
        "server": server,
        "n_metrics": NUM_METRICS,
    }


def ingest(deployment: str, packets: List[dict], seq: Optional[int] = None) -> dict:
    """(Client side.)  Build an attachment ingest message from row objects.

    The rows are checked as the sink checks the row shape: a batch the
    sink would refuse (empty, more than ``MAX_BATCH`` packets, or any
    packet :func:`parse_packet` rejects) is sent in row shape instead
    (:func:`ingest_rows`), so the sink names the bad packet as it always
    has.  Packing ids through ``np.asarray(..., "<i8")`` unchecked would
    turn ``True`` into 1 and ``2.0`` into 2, and the sink could then not
    name such a packet.
    """
    batch = _parse_columns(packets) if 1 <= len(packets) <= MAX_BATCH else None
    if batch is None:
        return ingest_rows(deployment, packets, seq)
    return ingest_columns(deployment, batch.node_ids, batch.epochs,
                          batch.generated_at, batch.values, seq)


def ingest_columns(
    deployment: str, node_ids, epochs, generated_at, values,
    seq: Optional[int] = None,
) -> dict:
    """(Client side.)  Build an attachment ingest message.

    The header fields plus the packed columns under ``"attachment"``,
    which :func:`encode` writes after the header line.  The columns are
    packed as given (``np.asarray`` to little-endian int64 and float64),
    so pass checked ones, as :func:`ingest` does; the sink checks that
    ids are non-negative and times and values finite.  Raises
    ``ValueError`` unless 1 <= n <= ``MAX_BATCH``, the columns have equal
    lengths and ``values`` stacks into an (n, 43) matrix.
    """
    n = len(node_ids)
    if not 1 <= n <= MAX_BATCH or len(epochs) != n or len(generated_at) != n:
        raise ValueError(
            f"need 1 to {MAX_BATCH} packets in equal columns, got "
            f"{n}/{len(epochs)}/{len(generated_at)}"
        )
    matrix = np.asarray(values, dtype="<f8")
    if matrix.shape != (n, NUM_METRICS):
        raise ValueError(
            f"values must stack to ({n}, {NUM_METRICS}), got {matrix.shape}"
        )
    attachment = b"".join((
        np.asarray(node_ids, dtype="<i8").tobytes(),
        np.asarray(epochs, dtype="<i8").tobytes(),
        np.asarray(generated_at, dtype="<f8").tobytes(),
        matrix.tobytes(),
    ))
    msg = {"v": PROTOCOL_VERSION, "type": "ingest", "deployment": deployment,
           N_PACKETS: n, ATTACHMENT: attachment}
    if seq is not None:
        msg["seq"] = seq
    return msg


def ingest_rows(deployment: str, packets: List[dict], seq: Optional[int] = None) -> dict:
    """(Client side.)  Build a row-shaped ingest message: the ``packets``
    list of row objects, as a saved JSONL trace holds them."""
    msg = {"v": PROTOCOL_VERSION, "type": "ingest", "deployment": deployment,
           "packets": packets}
    if seq is not None:
        msg["seq"] = seq
    return msg


def subscribe(deployment: str, seq: Optional[int] = None) -> dict:
    """(Client side.)  Build a subscribe message."""
    msg = {"v": PROTOCOL_VERSION, "type": "subscribe", "deployment": deployment}
    if seq is not None:
        msg["seq"] = seq
    return msg


def ack(
    seq: Optional[int],
    accepted: int,
    queued: int,
    retry_after: Optional[float] = None,
) -> dict:
    msg = {"v": PROTOCOL_VERSION, "type": "ack", "seq": seq,
           "accepted": accepted, "queued": queued}
    if retry_after is not None:
        msg["retry_after"] = retry_after
        msg["reason"] = "queue_full"
    return msg


def subscribed(seq: Optional[int], deployment: str) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "subscribed", "seq": seq,
            "deployment": deployment}


def error(code: str, message: str, seq: Optional[int] = None) -> dict:
    assert code in ERROR_CODES, code
    return {"v": PROTOCOL_VERSION, "type": "error", "seq": seq,
            "code": code, "message": message}


def incident_event_obj(event) -> dict:
    """One :class:`~repro.core.incidents.IncidentEvent` as a JSON object.

    The shared shape: ``vn2 watch --output`` lines, the service's
    ``event`` payloads and ``GET /incidents`` entries all use it, so the
    three surfaces stay comparable byte for byte.
    """
    incident = event.incident
    return {
        "kind": event.kind,
        "incident_id": event.incident_id,
        "time": event.time,
        **incident_obj(incident),
    }


def incident_obj(incident) -> dict:
    """One :class:`~repro.core.incidents.Incident` as a JSON object."""
    return {
        "hazard": incident.hazard,
        "node_ids": list(incident.node_ids),
        "start": incident.start,
        "end": incident.end,
        "peak_strength": incident.peak_strength,
        "total_strength": incident.total_strength,
        "n_observations": incident.n_observations,
    }


def event_message(deployment: str, event) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "type": "event",
        "deployment": deployment,
        "event": incident_event_obj(event),
    }


#: JSON spellings of the non-finite floats (``json.dumps`` defaults).
_NONFINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _json_number(value) -> str:
    """``json.dumps(value)`` for the numbers of an event."""
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else _NONFINITE[value]
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value)


class EventEncoder:
    """One deployment's incident events as final NDJSON ``event`` lines.

    :meth:`encode` returns exactly
    ``encode(event_message(deployment, event))``, built for the fixed
    event shape instead of through a dict and ``json.dumps``:

    * the envelope up to the event's ``kind`` is one constant;
    * each distinct string (kinds, hazard names) is ``json.dumps``-ed
      once;
    * finite floats are written by ``float.__repr__`` — what ``json``
      writes — and non-finite ones as ``NaN``/``Infinity``;
    * each open incident's sorted node list is kept encoded.  An
      incident's node set only grows, so an unchanged length is an
      unchanged list, and a list one longer gained one node, which is
      spliced in.  The entry is dropped when the incident closes.

    One encoder serves one session's event stream (incident ids are
    per session).
    """

    __slots__ = ("_head", "_strings", "_nodes")

    def __init__(self, deployment: str):
        self._head = (
            f'{{"v":{PROTOCOL_VERSION},"type":"event",'
            f'"deployment":{json.dumps(deployment)},"event":{{"kind":'
        )
        self._strings: dict = {}
        #: incident id -> (sorted ids, their encodings, joined text)
        self._nodes: dict = {}

    def _string(self, value) -> str:
        text = self._strings.get(value)
        if text is None:
            text = self._strings[value] = json.dumps(value)
        return text

    def _node_list(self, incident_id: int, node_ids, closing: bool) -> str:
        entry = self._nodes.pop(incident_id, None)
        if entry is not None and len(entry[0]) == len(node_ids):
            ids, pieces, text = entry
        elif entry is not None and len(entry[0]) + 1 == len(node_ids):
            ids, pieces, _text = entry
            joined = sum(node_ids) - sum(ids)
            at = bisect.bisect_left(ids, joined)
            ids.insert(at, joined)
            pieces.insert(at, _json_number(joined))
            text = ",".join(pieces)
        else:
            ids = list(node_ids)
            pieces = [_json_number(node) for node in ids]
            text = ",".join(pieces)
        if not closing:
            self._nodes[incident_id] = (ids, pieces, text)
        return text

    def encode(self, event) -> bytes:
        """One event's wire line, newline included."""
        incident = event.incident
        number = _json_number
        nodes = self._node_list(
            event.incident_id, incident.node_ids, event.kind == "close"
        )
        return (
            f'{self._head}{self._string(event.kind)}'
            f',"incident_id":{number(event.incident_id)}'
            f',"time":{number(event.time)}'
            f',"hazard":{self._string(incident.hazard)}'
            f',"node_ids":[{nodes}]'
            f',"start":{number(incident.start)}'
            f',"end":{number(incident.end)}'
            f',"peak_strength":{number(incident.peak_strength)}'
            f',"total_strength":{number(incident.total_strength)}'
            f',"n_observations":{number(incident.n_observations)}}}}}\n'
        ).encode()

    def encode_all(self, events) -> bytes:
        """The lines of ``events``, in order, as one bytes object."""
        return b"".join([self.encode(event) for event in events])


# --------------------------------------------------------------------------
# internal worker wire messages (front door <-> shard workers)
# --------------------------------------------------------------------------
#
# The front door speaks a second, *internal* protocol to its shard workers
# (:mod:`repro.service.worker`), over the worker pipes
# (:mod:`repro.runner.pool`) or handed over directly on the event loop.
# These are dicts, not NDJSON — numpy value vectors and registry dumps
# ride through unchanged (pickled on a pipe) —
# but they keep the same ``type``-tagged envelope discipline so both wire
# layers validate the same way.  Front door → worker types carry no
# prefix; worker → front door types are ``w_``-prefixed so a message's
# direction is readable in logs.

#: Front door → worker message types.
WORKER_DOWN_TYPES = (
    "assign",          # route a deployment's shard to this worker
    "ingest",          # one parsed packet batch for a deployment
    "drain",           # flush one shard (handoff): finish + report back
    "drain_all",       # graceful shutdown: finish every shard, then exit
    "metrics_query",   # request a registry dump + shard snapshots
    "incidents_query", # request the incidents document
    "model_update",    # rotate every session to a new fitted model
    "states_query",    # request retained exception states + drift scores
    "topology_query",  # request per-node summaries (dashboard topology)
)

#: Worker → front door message types.
WORKER_UP_TYPES = (
    "w_hello",      # first message after start: worker id + pid
    "w_heartbeat",  # periodic liveness + shard/packet counts
    "w_ack",        # one ingest batch fully diagnosed (+ emitted events)
    "w_drained",    # answer to drain: final events + session counters
    "w_metrics",    # answer to metrics_query
    "w_incidents",  # answer to incidents_query
    "w_model",      # answer to model_update: per-shard rotation boundaries
    "w_states",     # answer to states_query
    "w_topology",   # answer to topology_query
    "w_bye",        # answer to drain_all: final registry dump + spans
    "w_error",      # worker-side failure (shard kept alive if possible)
)


def check_worker_message(msg) -> str:
    """Validate a worker-pipe message envelope; return its type.

    Intentionally shallow — the pipe is a trusted in-process boundary, so
    this guards against version/shape drift between front door and
    worker, not against malicious input.
    """
    if not isinstance(msg, dict):
        raise ProtocolError("bad_request", "worker message must be a dict")
    if msg.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad_version",
            f"worker message version {msg.get('v')!r} != {PROTOCOL_VERSION}",
        )
    mtype = msg.get("type")
    if mtype not in WORKER_DOWN_TYPES and mtype not in WORKER_UP_TYPES:
        raise ProtocolError("bad_type", f"unknown worker message {mtype!r}")
    return mtype


def assign(deployment: str, worker: str) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "assign",
            "deployment": deployment, "worker": worker}


def shard_ingest(deployment: str, batch_id: int, batch: PacketBatch) -> dict:
    """``batch`` is the :class:`~repro.core.streaming.PacketBatch`
    :func:`parse_ingest` returned — the exact ``push_batch`` argument, so
    the worker re-validates nothing."""
    return {"v": PROTOCOL_VERSION, "type": "ingest",
            "deployment": deployment, "batch_id": batch_id,
            "batch": batch}


def shard_drain(deployment: str) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "drain", "deployment": deployment}


def drain_all() -> dict:
    return {"v": PROTOCOL_VERSION, "type": "drain_all"}


def metrics_query(req: int) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "metrics_query", "req": req}


def incidents_query(req: int, deployment: Optional[str] = None) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "incidents_query", "req": req,
            "deployment": deployment}


def model_update(req: int, tool, version: str) -> dict:
    """``tool`` is the fitted :class:`~repro.core.pipeline.VN2` itself —
    the pipe pickles it, and pipe FIFO order makes the rotation boundary
    deterministic per shard (strictly between two acked batches)."""
    return {"v": PROTOCOL_VERSION, "type": "model_update", "req": req,
            "tool": tool, "version": version}


def states_query(req: int) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "states_query", "req": req}


def topology_query(req: int, deployment: Optional[str] = None) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "topology_query", "req": req,
            "deployment": deployment}


def worker_hello(worker: str, pid: int) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "w_hello",
            "worker": worker, "pid": pid}


def worker_heartbeat(
    worker: str, pid: int, ts: float, shards: int, packets: int
) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "w_heartbeat", "worker": worker,
            "pid": pid, "ts": ts, "shards": shards, "packets": packets}


def worker_ack(
    deployment: str, batch_id: int, accepted: int,
    lines: bytes, n_events: int, counters: dict,
) -> dict:
    """``lines`` holds the batch's ``n_events`` incident events as their
    wire ``event`` lines (:class:`EventEncoder`), in emission order;
    ``counters`` is the shard session's live counter dict."""
    return {"v": PROTOCOL_VERSION, "type": "w_ack",
            "deployment": deployment, "batch_id": batch_id,
            "accepted": accepted, "lines": lines, "n_events": n_events,
            "counters": counters}


def worker_drained(
    deployment: str, lines: bytes, n_events: int, counters: dict
) -> dict:
    """The flush-close events of a drained shard, as in :func:`worker_ack`."""
    return {"v": PROTOCOL_VERSION, "type": "w_drained",
            "deployment": deployment, "lines": lines, "n_events": n_events,
            "counters": counters}


def worker_metrics(
    req: int, worker: str, dump: dict, shards: list
) -> dict:
    """``dump`` is a :meth:`repro.obs.MetricsRegistry.dump`; ``shards``
    lists per-deployment snapshot dicts (pending is front-door-side)."""
    return {"v": PROTOCOL_VERSION, "type": "w_metrics", "req": req,
            "worker": worker, "dump": dump, "shards": shards}


def worker_incidents(req: int, worker: str, incidents: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "w_incidents", "req": req,
            "worker": worker, "incidents": incidents}


def worker_model(req: int, worker: str, version: str, boundaries: dict) -> dict:
    """``boundaries`` maps deployment → ``{"packets", "states"}`` — each
    session's rotation point as returned by
    :meth:`~repro.core.streaming.StreamingDiagnosisSession.set_model`."""
    return {"v": PROTOCOL_VERSION, "type": "w_model", "req": req,
            "worker": worker, "version": version, "boundaries": boundaries}


def worker_states(req: int, worker: str, states: dict, drift: dict) -> dict:
    """``states`` maps deployment → pickled
    :class:`~repro.core.states.StateMatrix` of drained exception states;
    ``drift`` maps deployment → the session's drift score."""
    return {"v": PROTOCOL_VERSION, "type": "w_states", "req": req,
            "worker": worker, "states": states, "drift": drift}


def worker_topology(req: int, worker: str, nodes: dict) -> dict:
    """``nodes`` maps deployment → list of per-node summary dicts from
    :meth:`~repro.core.streaming.StreamingDiagnosisSession.node_summaries`."""
    return {"v": PROTOCOL_VERSION, "type": "w_topology", "req": req,
            "worker": worker, "nodes": nodes}


def worker_bye(worker: str, dump: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "w_bye", "worker": worker,
            "dump": dump}


def worker_error(worker: str, message: str, deployment: Optional[str] = None) -> dict:
    return {"v": PROTOCOL_VERSION, "type": "w_error", "worker": worker,
            "message": message, "deployment": deployment}
