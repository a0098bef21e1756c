"""Network-state construction: differences of successive snapshots.

The paper defines a node's *network state* as the element-wise difference
between two successive report packets, ``S^v_i = P^v_i - P^v_{i-1}``.
Counters therefore yield "activity during the interval" (and a large
negative jump after a reboot), while gauges yield drift.

The differencer is implemented once, incrementally, in
:class:`StreamingStateBuilder`: a per-node last-report cache that emits a
state vector (with provenance) the moment the packet completing the pair
arrives.  :func:`build_states` — the batch API — is a replay over that
core: one vectorized :meth:`StreamingStateBuilder.push_frame` call over
the whole (node, epoch)-sorted frame, which reduces to exactly the
adjacent-row differencing pass the columnar backbone introduced.
Every entry point runs the one
:meth:`~StreamingStateBuilder.push_columns` pass — one packet
(:meth:`~StreamingStateBuilder.push`), a chunk or a whole frame
(:meth:`~StreamingStateBuilder.push_frame`) — and any chunking gives
bit-identical states: the same float64 subtraction on the same operands,
so online diagnosis and batch training see the same numbers.

Provenance (which node, which epoch pair, when) travels as parallel
columns; the object view (:attr:`StateMatrix.provenance`) is materialized
lazily for legacy consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import TraceFrame


@dataclass
class StateProvenance:
    """Where one state vector came from."""

    node_id: int
    epoch_from: int
    epoch_to: int
    time_from: float
    time_to: float


class StateMatrix:
    """A stack of network-state vectors with columnar provenance.

    Attributes:
        values: (n_states, 43) array of raw (signed) metric deltas.
        node_ids: (n,) int64 — originating node per state.
        epochs_from / epochs_to: (n,) int64 — differenced epoch pair.
        times_from / times_to: (n,) float64 — generation times of the pair.

    ``provenance`` (the list-of-objects view the seed API exposed) is
    materialized on first access and cached, so identity-based lookups
    against it keep working.
    """

    def __init__(
        self,
        values: np.ndarray,
        provenance: Optional[List[StateProvenance]] = None,
        *,
        node_ids: Optional[np.ndarray] = None,
        epochs_from: Optional[np.ndarray] = None,
        epochs_to: Optional[np.ndarray] = None,
        times_from: Optional[np.ndarray] = None,
        times_to: Optional[np.ndarray] = None,
    ):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != NUM_METRICS:
            raise ValueError(
                f"state matrix must be (n, {NUM_METRICS}), got {self.values.shape}"
            )
        n = self.values.shape[0]
        self._provenance: Optional[List[StateProvenance]] = None
        if provenance is not None:
            if len(provenance) != n:
                raise ValueError("provenance length must match state count")
            self.node_ids = np.array([p.node_id for p in provenance], dtype=np.int64)
            self.epochs_from = np.array(
                [p.epoch_from for p in provenance], dtype=np.int64
            )
            self.epochs_to = np.array([p.epoch_to for p in provenance], dtype=np.int64)
            self.times_from = np.array([p.time_from for p in provenance], dtype=float)
            self.times_to = np.array([p.time_to for p in provenance], dtype=float)
            self._provenance = list(provenance)
        else:
            self.node_ids = _column(node_ids, n, np.int64, "node_ids")
            self.epochs_from = _column(epochs_from, n, np.int64, "epochs_from")
            self.epochs_to = _column(epochs_to, n, np.int64, "epochs_to")
            self.times_from = _column(times_from, n, float, "times_from")
            self.times_to = _column(times_to, n, float, "times_to")

    @property
    def provenance(self) -> List[StateProvenance]:
        """Per-row :class:`StateProvenance` objects (lazy, cached)."""
        if self._provenance is None:
            self._provenance = [
                StateProvenance(
                    node_id=int(self.node_ids[i]),
                    epoch_from=int(self.epochs_from[i]),
                    epoch_to=int(self.epochs_to[i]),
                    time_from=float(self.times_from[i]),
                    time_to=float(self.times_to[i]),
                )
                for i in range(len(self))
            ]
        return self._provenance

    def __len__(self) -> int:
        return self.values.shape[0]

    def _take(self, indices: np.ndarray) -> "StateMatrix":
        sub = StateMatrix(
            values=self.values[indices],
            node_ids=self.node_ids[indices],
            epochs_from=self.epochs_from[indices],
            epochs_to=self.epochs_to[indices],
            times_from=self.times_from[indices],
            times_to=self.times_to[indices],
        )
        if self._provenance is not None:
            sub._provenance = [self._provenance[int(i)] for i in indices]
        return sub

    def streamed(self, i: int) -> "StreamedState":
        """Row ``i`` as a :class:`StreamedState` (its values copied)."""
        return StreamedState(
            values=self.values[i].copy(),
            node_id=int(self.node_ids[i]),
            epoch_from=int(self.epochs_from[i]),
            epoch_to=int(self.epochs_to[i]),
            time_from=float(self.times_from[i]),
            time_to=float(self.times_to[i]),
        )

    def select(self, indices: Sequence[int]) -> "StateMatrix":
        """Sub-matrix of the given row indices (provenance preserved)."""
        return self._take(np.asarray(list(indices), dtype=np.intp))

    def for_node(self, node_id: int) -> "StateMatrix":
        """Only this node's states."""
        return self._take(np.flatnonzero(self.node_ids == node_id))

    def in_window(self, start: float, end: float) -> "StateMatrix":
        """States whose *ending* snapshot falls in [start, end)."""
        return self._take(
            np.flatnonzero((self.times_to >= start) & (self.times_to < end))
        )


def _column(
    data: Optional[np.ndarray], n: int, dtype, name: str
) -> np.ndarray:
    if data is None:
        if n != 0:
            raise ValueError(f"state column {name} missing for {n} states")
        return np.zeros(0, dtype=dtype)
    column = np.asarray(data, dtype=dtype).ravel()
    if column.shape[0] != n:
        raise ValueError(
            f"state column {name} has {column.shape[0]} entries for {n} states"
        )
    return column


@dataclass
class StreamedState:
    """One state vector emitted by :class:`StreamingStateBuilder`.

    The streaming twin of one :class:`StateMatrix` row: the signed metric
    delta plus the provenance of the snapshot pair that produced it.
    """

    values: np.ndarray
    node_id: int
    epoch_from: int
    epoch_to: int
    time_from: float
    time_to: float

    @property
    def provenance(self) -> StateProvenance:
        """The :class:`StateProvenance` view of this state."""
        return StateProvenance(
            node_id=self.node_id,
            epoch_from=self.epoch_from,
            epoch_to=self.epoch_to,
            time_from=self.time_from,
            time_to=self.time_to,
        )


def stack_states(streamed: Sequence[StreamedState]) -> StateMatrix:
    """Collect streamed states into a :class:`StateMatrix` (order kept)."""
    if not streamed:
        return StateMatrix(values=np.zeros((0, NUM_METRICS)))
    return StateMatrix(
        values=np.vstack([s.values for s in streamed]),
        node_ids=np.array([s.node_id for s in streamed], dtype=np.int64),
        epochs_from=np.array([s.epoch_from for s in streamed], dtype=np.int64),
        epochs_to=np.array([s.epoch_to for s in streamed], dtype=np.int64),
        times_from=np.array([s.time_from for s in streamed], dtype=float),
        times_to=np.array([s.time_to for s in streamed], dtype=float),
    )


def merge_state_matrices(parts: List[StateMatrix]) -> Optional[StateMatrix]:
    """Concatenate state matrices in the given order, column by column.

    Empty parts are dropped; returns ``None`` when nothing is left and
    the part itself when only one is.  No per-row provenance object is
    built, so merging a model's training states with a refit batch costs
    six array concatenations.
    """
    parts = [p for p in parts if len(p)]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return StateMatrix(
        values=np.concatenate([p.values for p in parts]),
        node_ids=np.concatenate([p.node_ids for p in parts]),
        epochs_from=np.concatenate([p.epochs_from for p in parts]),
        epochs_to=np.concatenate([p.epochs_to for p in parts]),
        times_from=np.concatenate([p.times_from for p in parts]),
        times_to=np.concatenate([p.times_to for p in parts]),
    )


class StreamingStateBuilder:
    """Incremental network-state construction from a live packet stream.

    Keeps one cached last report per node and emits the state vector
    ``P_i - P_{i-1}`` the moment packet ``P_i`` arrives.  Semantics match
    the batch differencer exactly:

    * every arriving packet **replaces** the node's cache entry (a
      duplicate epoch refreshes the baseline without emitting, exactly as
      the batch pass skips ``gap <= 0`` pairs but differences against the
      later duplicate);
    * a state is emitted only for ``0 < epoch gap <= max_epoch_gap``;
    * reboots / counter resets need no special casing — the raw signed
      delta (a large negative jump) passes through untouched, which is
      what the exception screen keys on.

    The cache is slot-indexed: each node seen so far owns one slot (a
    ``node -> slot`` dict), and the slot's last epoch, arrival time and
    43 metric values, plus the node's packet count, sit in arrays, so a
    batch gathers every returning node's baseline and stores every
    node's new one with one fancy index per column.  The arrays double
    when the slots run out.  :meth:`last_arrivals` reads them back (a
    session's node summaries come from there).  Memory is bounded by the
    node population: one 43-metric row per node, independent of trace
    length.

    :meth:`push_columns` is the one differencing pass: :meth:`push` is a
    one-row call of it and :meth:`push_frame` a frame's columns.  Any
    chunking produces bit-identical values (same float64 operands, same
    elementwise ops), so the batch path (:func:`build_states` = one
    ``push_frame`` over the sorted frame), a live sink's packet batches
    and a packet-at-a-time replay agree to the last bit.

    Args:
        max_epoch_gap: Emit nothing for snapshot pairs more than this many
            epochs apart (``None`` keeps every pair, as the paper does).
        per_epoch_rate: Divide each delta by its epoch gap.
    """

    def __init__(
        self,
        max_epoch_gap: Optional[int] = None,
        per_epoch_rate: bool = False,
    ):
        self.max_epoch_gap = max_epoch_gap
        self.per_epoch_rate = per_epoch_rate
        self._slots: Dict[int, int] = {}
        self._epochs = np.zeros(0, dtype=np.int64)
        self._times = np.zeros(0, dtype=float)
        self._values = np.zeros((0, NUM_METRICS), dtype=float)
        self._packets = np.zeros(0, dtype=np.int64)
        self.n_packets = 0
        self.n_states = 0

    def __len__(self) -> int:
        """Number of nodes currently cached."""
        return len(self._slots)

    def reset(self) -> None:
        """Drop every cached report and packet count (e.g. on trace
        rollover)."""
        self._slots.clear()
        self._packets[:] = 0

    def last_arrivals(
        self,
    ) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every cached node's last packet, in slot order.

        Returns ``(node_ids, epochs, times, values, packets)``: the node
        ids, and per node the epoch, ``generated_at`` and (k, 43) values
        of its last arrival and how many packets it sent since its slot
        was made.  The arrays are views of the cache: copy before keeping.
        """
        k = len(self._slots)
        return (
            list(self._slots), self._epochs[:k], self._times[:k],
            self._values[:k], self._packets[:k],
        )

    def push(
        self,
        node_id: int,
        epoch: int,
        generated_at: float,
        values: np.ndarray,
    ) -> Optional[StreamedState]:
        """Ingest one report packet; return the completed state, if any.

        A one-row :meth:`push_columns`.
        """
        states = self.push_columns(
            np.array([node_id], dtype=np.int64),
            np.array([epoch], dtype=np.int64),
            np.array([generated_at], dtype=float),
            np.array(values, dtype=float).reshape(1, -1),
        )
        return states.streamed(0) if len(states) else None

    def push_frame(self, frame: TraceFrame) -> StateMatrix:
        """Vectorized chunk ingestion: one differencing pass per chunk.

        Equivalent to calling :meth:`push` row by row (states come back in
        the same order, with bit-identical values) but the within-chunk
        pairs are differenced as one matrix operation; only the per-node
        chunk boundaries touch the Python-level cache.  Feeding a whole
        sorted frame reproduces the batch differencer; feeding successive
        chunks of it gives the same states with bounded memory.
        """
        return self.push_columns(
            frame.node_ids, frame.epochs, frame.generated_at, frame.values
        )

    def push_columns(
        self,
        node_ids: np.ndarray,
        epochs: np.ndarray,
        generated_at: np.ndarray,
        values: np.ndarray,
    ) -> StateMatrix:
        """:meth:`push_frame` over bare packet columns, in arrival order.

        ``node_ids``/``epochs`` are int64, ``generated_at`` float64 and
        ``values`` an (n, 43) float64 matrix; row ``i`` of each is packet
        ``i``.  States come back in the arrival order of the packets
        that completed them, with the values one-row calls would give.
        """
        n = len(node_ids)
        if n == 0:
            return StateMatrix(values=np.zeros((0, NUM_METRICS)))
        self.n_packets += n
        # Group rows by node, preserving arrival order within each node.
        # Frames honour the (node_id, epoch) sort invariant so the stable
        # argsort is the identity permutation; the general path runs for
        # hand-built chunks and for live packet batches.
        if n > 1 and np.any(node_ids[1:] < node_ids[:-1]):
            order = np.argsort(node_ids, kind="stable")
            sn = node_ids[order]
            se = epochs[order]
            sg = generated_at[order]
            sv = values[order]
        else:
            order = None
            sn, se, sg, sv = node_ids, epochs, generated_at, values

        # Each row's predecessor: the row before it in its node's run or,
        # at a run's start, the node's cached last arrival, appended after
        # the chunk's rows (one slot lookup per distinct node).
        run_start = np.ones(n, dtype=bool)
        run_start[1:] = sn[1:] != sn[:-1]
        has_prev = ~run_start
        before = np.arange(-1, n - 1)
        starts = np.flatnonzero(run_start)
        nodes = sn[starts].tolist()
        get = self._slots.get
        slots = [get(node, -1) for node in nodes]
        hits = [k for k, slot in enumerate(slots) if slot >= 0]
        pe, pg, pv = se, sg, sv
        if hits:
            rows = starts[hits]
            cached = [slots[k] for k in hits]
            has_prev[rows] = True
            before[rows] = np.arange(n, n + len(hits))
            pe = np.concatenate((se, self._epochs[cached]))
            pg = np.concatenate((sg, self._times[cached]))
            pv = np.concatenate((sv, self._values[cached]))
        prev_epochs = pe[before]
        gaps = se - prev_epochs
        mask = has_prev & (gaps > 0)
        if self.max_epoch_gap is not None:
            mask &= gaps <= self.max_epoch_gap
        emit = np.flatnonzero(mask)
        if order is not None and len(emit) > 1:
            # Emission order is defined by packet arrival: re-interleave.
            emit = emit[np.argsort(order[emit], kind="stable")]
        source = before[emit]
        values = sv[emit] - pv[source]
        if self.per_epoch_rate:
            values = values / gaps[emit][:, None]
        states = StateMatrix(
            values=values,
            node_ids=sn[emit],
            epochs_from=pe[source],
            epochs_to=se[emit],
            times_from=pg[source],
            times_to=sg[emit],
        )
        # Cache the last arrival of every node in the chunk: new nodes
        # take the next free slots, then one scatter per column (copies,
        # so chunk buffers can be freed between push_frame calls).
        if len(hits) < len(slots):
            self._assign_slots(nodes, slots)
        run_end = np.append(starts[1:] - 1, n - 1)
        self._epochs[slots] = se[run_end]
        self._times[slots] = sg[run_end]
        self._values[slots] = sv[run_end]
        self._packets[slots] += run_end - starts + 1
        self.n_states += len(states)
        return states

    def _assign_slots(self, nodes: List[int], slots: List[int]) -> None:
        """Give each node whose slot is -1 the next free one, in place,
        growing the slot arrays (doubling) when they run out."""
        table = self._slots
        for k, node in enumerate(nodes):
            if slots[k] < 0:
                slots[k] = table[node] = len(table)
        capacity = len(self._epochs)
        if len(table) > capacity:
            capacity = max(len(table), 2 * capacity)
            self._epochs = _grown(self._epochs, capacity)
            self._times = _grown(self._times, capacity)
            self._values = _grown(self._values, capacity)
            self._packets = _grown(self._packets, capacity)


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` copied into a zeroed array of ``rows`` rows."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def build_states(
    trace: TraceFrame,
    max_epoch_gap: Optional[int] = None,
    per_epoch_rate: bool = False,
) -> StateMatrix:
    """Batch differencing: a whole-frame replay over the streaming core.

    Because frame rows are sorted by (node_id, epoch), "successive
    snapshots of one node" are exactly the adjacent row pairs that share a
    node id — a single :meth:`StreamingStateBuilder.push_frame` call over
    the full frame performs the same one-mask vectorized pass the columnar
    backbone introduced, and a packet-at-a-time replay through
    :meth:`StreamingStateBuilder.push` produces bit-identical states.

    Args:
        trace: Sink-side frame of complete snapshots.
        max_epoch_gap: Skip snapshot pairs more than this many epochs
            apart (packet loss can separate "successive" received packets
            by hours; a large gap makes counter deltas incomparable).
            ``None`` keeps every successive pair, as the paper does.
        per_epoch_rate: Divide each delta by the epoch gap, turning deltas
            into per-epoch rates.  Off by default (paper semantics).

    Returns:
        A :class:`StateMatrix` with one row per successive snapshot pair.
    """
    builder = StreamingStateBuilder(
        max_epoch_gap=max_epoch_gap, per_epoch_rate=per_epoch_rate
    )
    return builder.push_frame(trace)
