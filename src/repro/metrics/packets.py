"""Report packets C1/C2/C3 and conversions to/from 43-metric snapshots.

Every reporting period a node splits its current metric snapshot into the
three packet classes the paper describes and hands them to the collection
layer.  At the sink, :func:`merge_packets` reassembles packets from the same
reporting epoch into one full snapshot vector.  A snapshot is a length-43
``numpy`` array in :data:`repro.metrics.catalog.METRIC_NAMES` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.metrics.catalog import (
    METRIC_INDEX,
    METRIC_NAMES,
    NUM_METRICS,
    PacketClass,
    metrics_in_packet,
)

_C1_NAMES: Tuple[str, ...] = tuple(m.name for m in metrics_in_packet(PacketClass.C1))
_C2_NAMES: Tuple[str, ...] = tuple(m.name for m in metrics_in_packet(PacketClass.C2))
_C3_NAMES: Tuple[str, ...] = tuple(m.name for m in metrics_in_packet(PacketClass.C3))


def _fill_defaults() -> np.ndarray:
    """Sink-side fill values for metrics an old-firmware node never reports.

    Empty neighbor-table slots are reported as -100 dBm / ETX 50 by current
    firmware (see ``repro.simnet.node.EMPTY_RSSI_SLOT`` /
    ``EMPTY_ETX_SLOT``; the literals are repeated here because the metrics
    layer does not import the simulator).  Using the same values for
    *unreported* slots keeps the merged snapshot constant where coverage is
    constant, so firmware-skewed nodes do not shower the pipeline with fake
    per-epoch deltas.  Everything else fills with zero.
    """
    fill = np.zeros(NUM_METRICS, dtype=float)
    for name, index in METRIC_INDEX.items():
        if name.startswith("rssi_"):
            fill[index] = -100.0
        elif name.startswith("etx_"):
            fill[index] = 50.0
    return fill


MISSING_METRIC_FILL: np.ndarray = _fill_defaults()
"""Per-metric defaults merged in for metrics absent from an epoch's packets."""


@dataclass
class ReportPacket:
    """Base class for the three report packet types.

    Attributes:
        node_id: Originating node.
        epoch: Reporting-epoch index at the origin (ties the three packet
            classes of one snapshot together).
        generated_at: Simulation time the snapshot was taken.
        values: Metric name -> value for the metrics this class carries.
    """

    node_id: int
    epoch: int
    generated_at: float
    values: Dict[str, float] = field(default_factory=dict)

    #: Metric names this packet class carries, in catalog order.
    FIELD_NAMES: ClassVar[Tuple[str, ...]] = ()
    #: Which packet class this is.
    PACKET_CLASS: ClassVar[Optional[PacketClass]] = None

    def __post_init__(self) -> None:
        unknown = set(self.values) - set(self.FIELD_NAMES)
        if unknown:
            raise ValueError(
                f"{type(self).__name__} cannot carry metrics {sorted(unknown)}"
            )


@dataclass
class C1Packet(ReportPacket):
    """Sensor readings + routing summary (temperature ... path_length)."""

    FIELD_NAMES: ClassVar[Tuple[str, ...]] = _C1_NAMES
    PACKET_CLASS: ClassVar[PacketClass] = PacketClass.C1


@dataclass
class C2Packet(ReportPacket):
    """Neighbor table: neighbor count, per-entry RSSI and link-ETX."""

    FIELD_NAMES: ClassVar[Tuple[str, ...]] = _C2_NAMES
    PACKET_CLASS: ClassVar[PacketClass] = PacketClass.C2


@dataclass
class C3Packet(ReportPacket):
    """Cumulative protocol counters."""

    FIELD_NAMES: ClassVar[Tuple[str, ...]] = _C3_NAMES
    PACKET_CLASS: ClassVar[PacketClass] = PacketClass.C3


_PACKET_TYPES = (C1Packet, C2Packet, C3Packet)


def snapshot_to_packets(
    node_id: int,
    epoch: int,
    generated_at: float,
    snapshot: np.ndarray,
    metrics: Optional[Iterable[str]] = None,
) -> Tuple[C1Packet, C2Packet, C3Packet]:
    """Split a full 43-metric snapshot into its three report packets.

    Args:
        node_id: Originating node id.
        epoch: Reporting-epoch index at the origin.
        generated_at: Simulation time of the snapshot.
        snapshot: Length-43 array in catalog order.
        metrics: Firmware reporting subset — only these metric names are
            carried (``None`` = full catalog, the default firmware).  All
            three packets are still emitted, possibly with empty payloads:
            old firmware keeps the C1/C2/C3 packet train, it just packs
            fewer fields.

    Returns:
        The (C1, C2, C3) packets carrying the corresponding slices.

    Raises:
        ValueError: On a malformed snapshot or unknown metric names.
    """
    snapshot = np.asarray(snapshot, dtype=float)
    if snapshot.shape != (NUM_METRICS,):
        raise ValueError(
            f"snapshot must have shape ({NUM_METRICS},), got {snapshot.shape}"
        )
    mask: Optional[frozenset] = None
    if metrics is not None:
        mask = frozenset(metrics)
        unknown = mask - set(METRIC_NAMES)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")
    packets = []
    for cls in _PACKET_TYPES:
        values = {
            name: float(snapshot[METRIC_INDEX[name]])
            for name in cls.FIELD_NAMES
            if mask is None or name in mask
        }
        packets.append(cls(node_id, epoch, generated_at, values))
    return tuple(packets)  # type: ignore[return-value]


def merge_packets(packets: Iterable[ReportPacket]) -> np.ndarray:
    """Reassemble one epoch's packets into a full snapshot vector.

    All packets must come from the same node and epoch, with one C1, one C2
    and one C3.  Metrics no packet carries (firmware-skewed nodes report a
    subset of the catalog) take their :data:`MISSING_METRIC_FILL` default,
    so the result is always a full-width vector.

    Returns:
        Length-43 array in catalog order.

    Raises:
        ValueError: On node/epoch mismatch, duplicates, or missing classes.
    """
    packets = list(packets)
    if not packets:
        raise ValueError("no packets to merge")
    node_ids = {p.node_id for p in packets}
    epochs = {p.epoch for p in packets}
    if len(node_ids) != 1 or len(epochs) != 1:
        raise ValueError(
            f"packets span nodes {sorted(node_ids)} / epochs {sorted(epochs)}; "
            "merge takes one node-epoch at a time"
        )
    seen_classes = [p.PACKET_CLASS for p in packets]
    if len(set(seen_classes)) != len(seen_classes):
        raise ValueError("duplicate packet class in merge input")
    if set(seen_classes) != {PacketClass.C1, PacketClass.C2, PacketClass.C3}:
        missing = {PacketClass.C1, PacketClass.C2, PacketClass.C3} - set(seen_classes)
        raise ValueError(
            f"incomplete snapshot: missing {sorted(c.value for c in missing)}"
        )
    snapshot = MISSING_METRIC_FILL.copy()
    for packet in packets:
        for name, value in packet.values.items():
            snapshot[METRIC_INDEX[name]] = value
    return snapshot
