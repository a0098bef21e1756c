"""The trace type: what VN2's back-end actually consumes.

A :class:`TraceFrame` is the sink-side record of a deployment — complete
43-metric snapshots per node, packet-arrival accounting for PRR analysis,
the ground-truth fault log (for evaluation only; the algorithm never sees
it) and the generation metadata needed to interpret timestamps — held as
contiguous numpy columns: ``node_ids`` / ``epochs`` / ``generated_at`` /
``received_at`` vectors plus one ``(n_reports, 43)`` metric matrix whose
column order is the :data:`repro.metrics.catalog.METRIC_NAMES` contract.
Everything downstream of the sink (state construction, exception
detection, NMF, NNLS attribution) is matrix math on those columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.catalog import NUM_METRICS

#: One report packet: (node_id, epoch, generated_at, values).
Packet = Tuple[int, int, float, np.ndarray]


class PacketBatch(NamedTuple):
    """Report packets in arrival order, as columns.

    What :func:`repro.service.protocol.parse_ingest` returns,
    :func:`repro.traces.io.tail_frame_jsonl` yields and
    :meth:`repro.core.streaming.StreamingDiagnosisSession.push_batch`
    takes.  Unlike a :class:`TraceFrame`, the rows keep the order they
    came in.  ``len()`` is the packet count, not the field count, while
    iterating or unpacking the tuple still yields the four columns.
    ``==`` and ``hash`` are not supported (the fields are arrays);
    compare columns with :func:`numpy.array_equal`.  Pickling ships the
    four arrays, not one tuple per packet.

    Attributes:
        node_ids / epochs: (n,) int64.
        generated_at: (n,) float64.
        values: (n, 43) float64 catalog metrics.
    """

    node_ids: np.ndarray
    epochs: np.ndarray
    generated_at: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.node_ids.shape[0]

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketBatch":
        """Columns of ``(node_id, epoch, generated_at, values)`` tuples."""
        return cls(
            np.array([p[0] for p in packets], dtype=np.int64),
            np.array([p[1] for p in packets], dtype=np.int64),
            np.array([p[2] for p in packets], dtype=float),
            np.array(
                [p[3] for p in packets], dtype=float
            ).reshape(len(packets), NUM_METRICS),
        )


@dataclass
class GroundTruth:
    """An injected fault episode (copied from the network's log)."""

    kind: str
    node_ids: Tuple[int, ...]
    start: float
    end: float


@dataclass
class TraceFrame:
    """A full deployment trace in structure-of-arrays layout.

    Rows are sorted by ``(node_id, epoch)`` — the invariant every
    consumer (per-node slicing, vectorized differencing) relies on; the
    constructor restores it if violated.

    Attributes:
        node_ids: (n,) int64 — originating node of each snapshot.
        epochs: (n,) int64 — reporting-epoch index at the origin.
        generated_at: (n,) float64 — when the node took the snapshot.
        received_at: (n,) float64 — when its last packet reached the sink.
        values: (n, 43) float64 — metric matrix in catalog column order.
        metadata: Generation parameters (report period, duration, seed ...).
        ground_truth: Fault episodes, for evaluation harnesses only.
        packets_generated: Report packets the nodes emitted.
        packets_received: Report packets that reached the sink.
        arrival_times: (k,) float64 — per received packet, arrival order.
        arrival_nodes: (k,) int64 — originating node per received packet.
    """

    node_ids: np.ndarray
    epochs: np.ndarray
    generated_at: np.ndarray
    received_at: np.ndarray
    values: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)
    ground_truth: List[GroundTruth] = field(default_factory=list)
    packets_generated: int = 0
    packets_received: int = 0
    arrival_times: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=float)
    )
    arrival_nodes: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    def __post_init__(self) -> None:
        self.node_ids = np.asarray(self.node_ids, dtype=np.int64).ravel()
        self.epochs = np.asarray(self.epochs, dtype=np.int64).ravel()
        self.generated_at = np.asarray(self.generated_at, dtype=float).ravel()
        self.received_at = np.asarray(self.received_at, dtype=float).ravel()
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size == 0:
            self.values = self.values.reshape(0, NUM_METRICS)
        if self.values.ndim != 2 or self.values.shape[1] != NUM_METRICS:
            raise ValueError(
                f"frame values must be (n, {NUM_METRICS}), got {self.values.shape}"
            )
        n = self.values.shape[0]
        for name in ("node_ids", "epochs", "generated_at", "received_at"):
            column = getattr(self, name)
            if column.shape[0] != n:
                raise ValueError(
                    f"frame column {name} has {column.shape[0]} entries "
                    f"for {n} snapshots"
                )
        self.arrival_times = np.asarray(self.arrival_times, dtype=float).ravel()
        self.arrival_nodes = np.asarray(
            self.arrival_nodes, dtype=np.int64
        ).ravel()
        if self.arrival_times.shape != self.arrival_nodes.shape:
            raise ValueError("arrival_times / arrival_nodes length mismatch")
        # Restore the (node_id, epoch) sort invariant only when needed —
        # frames from the collector or a codec arrive already sorted.
        if n > 1:
            keys_sorted = bool(
                np.all(
                    (self.node_ids[:-1] < self.node_ids[1:])
                    | (
                        (self.node_ids[:-1] == self.node_ids[1:])
                        & (self.epochs[:-1] <= self.epochs[1:])
                    )
                )
            )
            if not keys_sorted:
                order = np.lexsort((self.epochs, self.node_ids))
                self._reorder(order)

    def _reorder(self, order: np.ndarray) -> None:
        self.node_ids = self.node_ids[order]
        self.epochs = self.epochs[order]
        self.generated_at = self.generated_at[order]
        self.received_at = self.received_at[order]
        self.values = self.values[order]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def unique_node_ids(self) -> List[int]:
        """Distinct node ids present in the frame, ascending."""
        return [int(n) for n in np.unique(self.node_ids)]

    def node_slices(self) -> Iterator[Tuple[int, slice]]:
        """Yield ``(node_id, slice)`` pairs, one contiguous run per node."""
        if len(self) == 0:
            return
        boundaries = np.flatnonzero(self.node_ids[1:] != self.node_ids[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(self)]))
        for start, end in zip(starts, ends):
            yield int(self.node_ids[start]), slice(int(start), int(end))

    def node_slice(self, node_id: int) -> slice:
        """Contiguous row range of one node (empty slice when absent)."""
        start = int(np.searchsorted(self.node_ids, node_id, side="left"))
        end = int(np.searchsorted(self.node_ids, node_id, side="right"))
        return slice(start, end)

    def time_span(self) -> Tuple[float, float]:
        """(first, last) snapshot generation time; (0, 0) when empty."""
        if len(self) == 0:
            return (0.0, 0.0)
        return (float(self.generated_at.min()), float(self.generated_at.max()))

    def window(self, start: float, end: float) -> "TraceFrame":
        """Sub-frame of snapshots generated in [start, end)."""
        mask = (self.generated_at >= start) & (self.generated_at < end)
        arrival_mask = (self.arrival_times >= start) & (self.arrival_times < end)
        return TraceFrame(
            node_ids=self.node_ids[mask],
            epochs=self.epochs[mask],
            generated_at=self.generated_at[mask],
            received_at=self.received_at[mask],
            values=self.values[mask],
            metadata=dict(self.metadata),
            ground_truth=list(self.ground_truth),
            packets_generated=self.packets_generated,
            packets_received=self.packets_received,
            arrival_times=self.arrival_times[arrival_mask],
            arrival_nodes=self.arrival_nodes[arrival_mask],
        )

    def delivery_ratio(self) -> float:
        """Fraction of generated report packets that arrived at the sink."""
        if self.packets_generated == 0:
            return 0.0
        return self.packets_received / self.packets_generated

    def ground_truth_in(self, start: float, end: float) -> List[GroundTruth]:
        """Ground-truth episodes overlapping [start, end)."""
        return [
            g for g in self.ground_truth if g.start < end and g.end >= start
        ]


def frame_from_network(
    network, metadata: Optional[Dict[str, object]] = None
) -> TraceFrame:
    """Extract a :class:`TraceFrame` straight from a finished simulation.

    Reads the collector's column buffers directly — no per-snapshot
    objects are materialized anywhere between the sink and the frame.
    """
    timelines = [
        network.collector.timelines[nid]
        for nid in sorted(network.collector.timelines)
    ]
    if timelines:
        columns = [t.columns() for t in timelines]
        node_ids = np.concatenate(
            [np.full(len(c[0]), t.node_id, dtype=np.int64)
             for t, c in zip(timelines, columns)]
        )
        epochs = np.concatenate([c[0] for c in columns])
        generated = np.concatenate([c[1] for c in columns])
        received = np.concatenate([c[2] for c in columns])
        values = np.concatenate([c[3] for c in columns])
    else:
        node_ids = np.zeros(0, dtype=np.int64)
        epochs = np.zeros(0, dtype=np.int64)
        generated = np.zeros(0, dtype=float)
        received = np.zeros(0, dtype=float)
        values = np.zeros((0, NUM_METRICS), dtype=float)
    meta: Dict[str, object] = {
        "report_period_s": network.config.report_period_s,
        "day_seconds": network.config.day_seconds,
        "seed": network.config.seed,
        "n_nodes": len(network.topology),
        "sink_id": network.topology.sink_id,
        "sim_end": network.sim.now(),
    }
    if metadata:
        meta.update(metadata)
    arrival_log = network.collector.arrival_log
    if arrival_log:
        arrival_times = np.array(
            [received_at for (_n, _e, _c, received_at) in arrival_log],
            dtype=float,
        )
        arrival_nodes = np.array(
            [nid for (nid, _e, _c, _t) in arrival_log], dtype=np.int64
        )
    else:
        arrival_times = np.zeros(0, dtype=float)
        arrival_nodes = np.zeros(0, dtype=np.int64)
    return TraceFrame(
        node_ids=node_ids,
        epochs=epochs,
        generated_at=generated,
        received_at=received,
        values=values,
        metadata=meta,
        ground_truth=[
            GroundTruth(g.kind, tuple(g.node_ids), g.start, g.end)
            for g in network.ground_truth
        ],
        packets_generated=network.stats.packets_generated,
        packets_received=network.collector.packets_received,
        arrival_times=arrival_times,
        arrival_nodes=arrival_nodes,
    )
