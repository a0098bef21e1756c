"""Pinned replica of the seed revision's object-path fit, for pairing.

The library's JSONL loader, NMF loop and Ψ-row interpreter have since
been vectorized; a paired "legacy vs frame" benchmark that called the
*current* code on both arms would silently stop measuring the data-path
rewrite the moment the shared stages got faster.  This module freezes
the seed implementations the comparison is defined against:

* the row-object JSONL loader (one :class:`SnapshotRow` and one numpy
  vector per line, into the seed's :class:`SeedTrace` container),
* the per-node Python state-diff loop over those row objects,
* the multiplicative-update NMF with a full ``‖V - WΨ‖`` reconstruction
  every sweep,
* the per-row hazard interpreter (index maps rebuilt per call).

Stages whose implementation is unchanged since the seed — exception
detection, min-max normalization and weight sparsification — are
imported from the library.  ``fit_seed`` mirrors the seed's
``VN2.fit_states`` stage order exactly, so its Ψ must match the frame
path's (the benchmark asserts this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.exceptions import detect_exceptions
from repro.core.interpretation import RootCauseInterpreter
from repro.core.nmf import _init_nndsvd, frobenius_loss
from repro.core.normalization import MinMaxNormalizer
from repro.core.sparsify import sparsify_weights
from repro.core.states import StateMatrix, StateProvenance
from repro.metrics.catalog import HAZARDS, METRIC_NAMES, NUM_METRICS
from repro.traces.frame import GroundTruth

_EPS = 1e-10


@dataclass
class SnapshotRow:
    """The seed's row record: one complete snapshot of one node."""

    node_id: int
    epoch: int
    generated_at: float
    received_at: float
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (NUM_METRICS,):
            raise ValueError(
                f"snapshot values must have shape ({NUM_METRICS},), "
                f"got {self.values.shape}"
            )


@dataclass
class SeedTrace:
    """The seed's trace container: row objects sorted by
    ``(node_id, epoch)``, plus the header's side data."""

    rows: List[SnapshotRow]
    metadata: Dict[str, object] = field(default_factory=dict)
    ground_truth: List[GroundTruth] = field(default_factory=list)
    packets_generated: int = 0
    packets_received: int = 0
    arrivals: List[Tuple[float, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rows.sort(key=lambda r: (r.node_id, r.epoch))

    def per_node(self) -> Dict[int, List[SnapshotRow]]:
        result: Dict[int, List[SnapshotRow]] = {}
        for row in self.rows:
            result.setdefault(row.node_id, []).append(row)
        return result


def load_trace_jsonl_seed(path) -> SeedTrace:
    """The seed's JSONL loader: one row object per line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        assert list(header["metric_names"]) == list(METRIC_NAMES)
        rows: List[SnapshotRow] = []
        for line in fh:
            obj = json.loads(line)
            rows.append(
                SnapshotRow(
                    node_id=obj["node_id"],
                    epoch=obj["epoch"],
                    generated_at=obj["generated_at"],
                    received_at=obj["received_at"],
                    values=np.asarray(obj["values"], dtype=float),
                )
            )
    return SeedTrace(
        rows=rows,
        metadata=header.get("metadata", {}),
        ground_truth=[
            GroundTruth(
                kind=g["kind"],
                node_ids=tuple(g["node_ids"]),
                start=g["start"],
                end=g["end"],
            )
            for g in header.get("ground_truth", [])
        ],
        packets_generated=header.get("packets_generated", 0),
        packets_received=header.get("packets_received", 0),
        arrivals=[(t, n) for t, n in header.get("arrivals", [])],
    )


def trace_from_frame(frame) -> SeedTrace:
    """A frame's rows as a seed trace (for the state-loop pairing)."""
    return SeedTrace(rows=[
        SnapshotRow(
            node_id=int(frame.node_ids[i]),
            epoch=int(frame.epochs[i]),
            generated_at=float(frame.generated_at[i]),
            received_at=float(frame.received_at[i]),
            values=frame.values[i].copy(),
        )
        for i in range(len(frame))
    ])


def build_states_seed(trace: SeedTrace) -> StateMatrix:
    """The seed's per-node differencing loop over row objects."""
    rows: List[np.ndarray] = []
    provenance: List[StateProvenance] = []
    for node_id, snaps in sorted(trace.per_node().items()):
        for prev, curr in zip(snaps, snaps[1:]):
            gap = curr.epoch - prev.epoch
            if gap <= 0:
                continue  # duplicate or out-of-order epoch
            rows.append(curr.values - prev.values)
            provenance.append(
                StateProvenance(
                    node_id=node_id,
                    epoch_from=prev.epoch,
                    epoch_to=curr.epoch,
                    time_from=prev.generated_at,
                    time_to=curr.generated_at,
                )
            )
    values = np.vstack(rows) if rows else np.zeros((0, NUM_METRICS))
    return StateMatrix(values=values, provenance=provenance)


def nmf_seed(
    V: np.ndarray, r: int, n_iter: int = 300, tol: float = 1e-5
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed's Algorithm 1 loop: fresh arrays and a full
    reconstruction-based loss every sweep (NNDSVD init)."""
    W, Psi = _init_nndsvd(V, r)
    previous_loss = frobenius_loss(V, W, Psi)
    for _ in range(n_iter):
        numerator = W.T @ V
        denominator = W.T @ W @ Psi + _EPS
        Psi *= numerator / denominator
        numerator = V @ Psi.T
        denominator = W @ (Psi @ Psi.T) + _EPS
        W *= numerator / denominator
        loss = frobenius_loss(V, W, Psi)
        if previous_loss > 0 and (
            (previous_loss - loss) / max(previous_loss, _EPS) < tol
        ):
            break
        previous_loss = loss
    return W, Psi


class SeedInterpreter(RootCauseInterpreter):
    """The seed's per-row scorers: index maps rebuilt on every call."""

    def family_of(self, display_row: np.ndarray) -> str:
        sums = {"environment": 0.0, "link": 0.0, "protocol": 0.0}
        for name, value in zip(self.metric_names, display_row):
            sums[self._family_of_metric[name]] += abs(float(value))
        return max(sums, key=sums.get)

    def counter_reset_score(self, display_row: np.ndarray) -> float:
        counter_idx = [
            i
            for i, name in enumerate(self.metric_names)
            if self._family_of_metric[name] == "protocol"
        ]
        gauge_idx = [
            i
            for i, name in enumerate(self.metric_names)
            if self._family_of_metric[name] != "protocol"
        ]
        if not counter_idx or not gauge_idx:
            return 0.0
        counter_mean = float(np.mean(display_row[counter_idx]))
        gauge_mean = float(np.mean(display_row[gauge_idx]))
        if counter_mean < -0.5 and counter_mean < gauge_mean - 0.25:
            return -counter_mean
        return 0.0

    def hazard_scores(self, display_row: np.ndarray):
        index_of = {name: i for i, name in enumerate(self.metric_names)}
        scored = []
        for hazard in HAZARDS:
            contributions = []
            for position, trigger in enumerate(hazard.triggers):
                idx = index_of.get(trigger)
                if idx is None:
                    continue
                value = float(display_row[idx])
                direction = hazard.direction_of(position)
                if direction == 0:
                    contributions.append(abs(value))
                else:
                    contributions.append(max(0.0, value * direction))
            if not contributions:
                continue
            score = float(np.mean(contributions))
            specificity = np.sqrt(min(len(contributions), 5) / 5.0)
            score *= float(specificity)
            if score > 0:
                scored.append((hazard.name, score))
        reset = self.counter_reset_score(display_row)
        if reset > 0.0:
            scored = [(n, s) for n, s in scored if n != "node_reboot"]
            scored.append(("node_reboot", 1.0 + reset))
        scored.sort(key=lambda pair: pair[1], reverse=True)
        return scored

    def _hazard_scores_batch(self, rows: np.ndarray):
        return [self.hazard_scores(row) for row in rows]


def fit_seed(
    trace: SeedTrace,
    rank: int = 20,
    filter_exceptions: bool = True,
) -> np.ndarray:
    """The seed's ``VN2.fit(trace)``, stage for stage; returns Ψ."""
    states = build_states_seed(trace)
    # Online exception-scoring statistics (a separate pass in the seed).
    values = states.values
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (values - mean) / std
    _max_eps = float(np.max((z * z).sum(axis=1)))

    if filter_exceptions:
        training = detect_exceptions(states, threshold_ratio=0.01).states
    else:
        training = states
    normalizer = MinMaxNormalizer.fit(training.values, pad_fraction=0.05)
    E = normalizer.transform(training.values)
    W, Psi = nmf_seed(E, rank, n_iter=300)
    sparsify_weights(W, retention=0.9)
    interpreter = SeedInterpreter()
    energies = np.linalg.norm(Psi - normalizer.rest_point(), axis=1)
    interpreter.interpret(
        normalizer.display(Psi), energies=energies, usage=None
    )
    return Psi
