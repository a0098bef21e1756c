"""Incident aggregation: from per-state diagnoses to network-level events.

The paper's future work asks for "combination diagnosis" — explaining a
*network-level* situation rather than one node-state at a time.  This
module provides it: every state's NNLS diagnosis yields observations
``(node, interval, hazard, strength)``; observations of the same hazard
that overlap in time (within a gap) and space (within a radius) are
clustered into :class:`Incident` records — "a routing loop involving
nodes {21, 22} from t=2400 to t=4800, peak strength 0.41".

This is what an operator actually wants from a 300-node deployment: a
handful of incidents, not thousands of per-state reports.

Clustering is implemented once, incrementally, in
:class:`IncidentTracker`: observations are ingested one at a time (in
diagnosis order — the moment each state's completing packet arrives),
open incidents are maintained per hazard, and gap/radius expiry closes
them as the stream moves on, emitting open/update/close
:class:`IncidentEvent` records a live ``vn2 watch`` can print.  The batch
:meth:`IncidentAggregator.cluster` is a replay — sort the observations
into the canonical stream order, feed them, flush.

Observation *extraction* is also defined per state
(:func:`observations_for_state`): one NNLS solve per state, the same call
the streaming path makes, so batch and packet-at-a-time runs produce
bit-identical strengths (the vectorized batch NNLS solver's results vary
at the ULP level with batch composition, which would otherwise leak into
incident peak/total strengths).
"""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import MetricsRegistry, get_registry
from repro.core.pipeline import VN2
from repro.core.sparsify import check_retention
from repro.core.states import StateMatrix


@dataclass
class Observation:
    """One (state, cause) pair worth aggregating."""

    node_id: int
    time_from: float
    time_to: float
    cause_index: int
    hazard: str
    strength: float


@dataclass
class Incident:
    """A clustered network-level event.

    Attributes:
        hazard: The shared hazard interpretation of the cluster.
        node_ids: Nodes whose states contributed observations.
        start, end: Union of the contributing state intervals.
        peak_strength: Largest contributing strength.
        total_strength: Sum of contributing strengths (a size proxy).
        n_observations: Number of contributing (state, cause) pairs.
    """

    hazard: str
    node_ids: Tuple[int, ...]
    start: float
    end: float
    peak_strength: float
    total_strength: float
    n_observations: int

    def overlaps(self, start: float, end: float) -> bool:
        """True if the incident intersects [start, end)."""
        return self.start < end and self.end > start

    def describe(self) -> str:
        """One-line operator summary."""
        nodes = ", ".join(str(n) for n in self.node_ids[:6])
        if len(self.node_ids) > 6:
            nodes += f", ... (+{len(self.node_ids) - 6})"
        return (
            f"{self.hazard}: nodes [{nodes}] over "
            f"[{self.start:.0f}, {self.end:.0f})s — "
            f"{self.n_observations} observations, peak {self.peak_strength:.2f}"
        )


def observation_sort_key(obs: Observation) -> Tuple[float, int, float, int]:
    """The canonical stream order of observations.

    Diagnoses become available when the state's completing packet arrives
    (``time_to``); ties across nodes break by node id, states of one node
    by interval start, and ties within a state by cause index.  Batch
    clustering sorts into this exact order before replaying the tracker,
    so it matches a live feed — packets sorted by (generated_at, node_id,
    epoch) — bit for bit.
    """
    return (obs.time_to, obs.node_id, obs.time_from, obs.cause_index)


def _sparse_weights(tool: VN2, values, retention: float) -> List[float]:
    """One state solved and sparsified on the model's plan, as a list."""
    check_retention(retention)
    plan = tool.plan
    weights, _residual = plan.solve(
        plan.normalize(np.asarray(values, dtype=float).ravel())
    )
    return plan.sparsify(weights, retention)


def observation_weights(
    tool: VN2, values: np.ndarray, retention: float = 0.9
) -> np.ndarray:
    """Sparsified NNLS weights of ONE state — the canonical per-state solve.

    Both the batch aggregator and the streaming session solve one state
    at a time through the model's
    :class:`~repro.core.plan.DiagnosisPlan`, so incident strengths are
    bit-identical across the two paths regardless of how states are
    batched.
    """
    return np.array(_sparse_weights(tool, values, retention))


def observations_for_state(
    tool: VN2,
    values: np.ndarray,
    node_id: int,
    time_from: float,
    time_to: float,
    min_strength: float = 0.2,
    retention: float = 0.9,
    weights: Optional[np.ndarray] = None,
) -> List[Observation]:
    """Extract one state's hazard observations (cause-index order).

    Args:
        tool: Fitted VN2 model.
        values: The 43-metric signed state delta.
        node_id, time_from, time_to: The state's provenance.
        min_strength: Observations below this NNLS strength are dropped.
        retention: Row-wise Algorithm 2 retention for the weights.
        weights: Pre-computed :func:`observation_weights` of the state, if
            the caller already solved it.
    """
    if weights is None:
        sparse = _sparse_weights(tool, values, retention)
    else:
        sparse = np.asarray(weights, dtype=float).ravel().tolist()
    return tool.plan.observations(
        sparse, int(node_id), float(time_from), float(time_to), min_strength
    )


@dataclass
class IncidentEvent:
    """One transition of the incident stream.

    Attributes:
        kind: ``"open"`` (first observation of a new cluster),
            ``"update"`` (an observation joined an open cluster) or
            ``"close"`` (gap expiry, or a final flush).
        incident: Snapshot of the cluster *after* the transition.
        incident_id: Stable id tying open/update/close of one cluster
            together across events.
        time: Stream time of the driving observation (``time_to``); for
            flush-closes, the cluster's own end.
    """

    kind: str
    incident: Incident
    incident_id: int
    time: float

    def describe(self) -> str:
        """One-line operator summary, e.g. for ``vn2 watch`` output."""
        return f"[{self.time:10.0f}s] {self.kind.upper():<6s} #{self.incident_id} {self.incident.describe()}"


class IncidentTracker:
    """Incremental spatio-temporal clustering of hazard observations.

    Ingests ``(node, interval, hazard, strength)`` observations one at a
    time — in stream order, i.e. sorted by :func:`observation_sort_key` —
    maintains the open incidents per hazard, and closes an incident when
    the stream has moved ``time_gap_s`` past its end.  Batch clustering
    (:meth:`IncidentAggregator.cluster`) is "feed all observations,
    flush"; a live feed sees open/update/close events as they happen.

    Memory is bounded by the number of *open* incidents plus the closed
    ones retained in :attr:`incidents`.  For unbounded runs (a long-lived
    sink service), pass ``max_closed``: once more than that many closed
    incidents are retained, the oldest are evicted (counted in
    :attr:`n_evicted`; :attr:`n_closed_total` keeps the lifetime total).
    The default is unlimited so batch replays stay bit-identical.

    Args:
        positions: Optional node_id -> (x, y) map; with it, observations
            only join an incident when within ``radius_m`` of one of its
            nodes.  Without it, clustering is temporal only.
        time_gap_s: Observations join an open incident only if they start
            no later than this after its current end; later ones close it.
        radius_m: Spatial merge radius.
        max_closed: Retention cap on :attr:`incidents` (``None`` =
            unlimited).  Eviction is close-order (oldest first) and never
            touches *open* incidents or the event stream.
        registry: Metrics registry for the opened/closed/evicted counters
            and the ``repro_incidents_open`` gauge; defaults to
            :func:`repro.obs.get_registry`.
        metric_labels: Constant labels stamped on those metrics.
    """

    def __init__(
        self,
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
        time_gap_s: float = 600.0,
        radius_m: float = 60.0,
        max_closed: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Mapping[str, str]] = None,
    ):
        if max_closed is not None and max_closed < 0:
            raise ValueError(f"max_closed must be >= 0, got {max_closed}")
        self.positions = positions
        self.time_gap_s = time_gap_s
        self.radius_m = radius_m
        self.max_closed = max_closed
        self._open: Dict[str, List[dict]] = {}
        self._next_id = 1
        #: Closed incidents, in close order (oldest may be evicted under
        #: ``max_closed``).
        self.incidents: List[Incident] = []
        #: Closed incidents evicted by the ``max_closed`` retention cap.
        self.n_evicted = 0
        #: Lifetime closed-incident count (evicted ones included).
        self.n_closed_total = 0
        reg = get_registry() if registry is None else registry
        self.registry = reg
        labels = dict(metric_labels) if metric_labels else None
        self._m_opened = reg.counter(
            "repro_incidents_opened_total", "Incident clusters opened", labels
        )
        self._m_closed = reg.counter(
            "repro_incidents_closed_total",
            "Incident clusters closed (lifetime, evicted included)",
            labels,
        )
        self._m_evicted = reg.counter(
            "repro_incidents_evicted_total",
            "Closed incidents evicted by the max_closed retention cap",
            labels,
        )
        if reg.enabled:
            # Callback gauge bound through a weakref: the registry never
            # keeps a dead tracker alive, and re-registration (a new
            # tracker with the same labels) simply takes over the gauge.
            def _open_count(ref=weakref.ref(self)):
                tracker = ref()
                return float(tracker.n_open) if tracker is not None else 0.0

            reg.gauge(
                "repro_incidents_open",
                "Currently open incident clusters",
                labels,
                fn=_open_count,
            )

    @property
    def n_open(self) -> int:
        """Number of currently open incident clusters (all hazards)."""
        return sum(len(c) for c in self._open.values())

    def _retain(self, incident: Incident) -> None:
        self.incidents.append(incident)
        self.n_closed_total += 1
        self._m_closed.inc()
        if self.max_closed is not None and len(self.incidents) > self.max_closed:
            drop = len(self.incidents) - self.max_closed
            del self.incidents[:drop]
            self.n_evicted += drop
            self._m_evicted.inc(drop)

    def _near(self, node_id: int, cluster_nodes: Sequence[int]) -> bool:
        if self.positions is None:
            return True
        pos = self.positions.get(node_id)
        if pos is None:
            return True
        for other in cluster_nodes:
            opos = self.positions.get(other)
            if opos is None:
                continue
            if math.hypot(pos[0] - opos[0], pos[1] - opos[1]) <= self.radius_m:
                return True
        return False

    @staticmethod
    def _snapshot(cluster: dict) -> Incident:
        return Incident(
            hazard=cluster["hazard"],
            node_ids=tuple(cluster["nodes"]),
            start=cluster["start"],
            end=cluster["end"],
            peak_strength=cluster["peak"],
            total_strength=cluster["total"],
            n_observations=cluster["count"],
        )

    def open_incidents(self) -> List[Incident]:
        """Snapshots of the currently open clusters (all hazards)."""
        return [
            self._snapshot(c)
            for clusters in self._open.values()
            for c in clusters
        ]

    def add(self, obs: Observation) -> List[IncidentEvent]:
        """Ingest one observation; return the transitions it caused."""
        events: List[IncidentEvent] = []
        clusters = self._open.setdefault(obs.hazard, [])
        still_open: List[dict] = []
        for cluster in clusters:
            if obs.time_from > cluster["end"] + self.time_gap_s:
                incident = self._snapshot(cluster)
                self._retain(incident)
                events.append(
                    IncidentEvent("close", incident, cluster["id"], obs.time_to)
                )
            else:
                still_open.append(cluster)
        clusters[:] = still_open

        home = None
        for cluster in clusters:
            if self._near(obs.node_id, cluster["nodes"]):
                home = cluster
                break
        if home is None:
            # "nodes" stays sorted (the snapshot's order); "members" is
            # the same ids as a set, for the join test.
            home = {
                "id": self._next_id,
                "hazard": obs.hazard,
                "nodes": [obs.node_id],
                "members": {obs.node_id},
                "start": obs.time_from,
                "end": obs.time_to,
                "peak": obs.strength,
                "total": obs.strength,
                "count": 1,
            }
            self._next_id += 1
            self._m_opened.inc()
            clusters.append(home)
            events.append(
                IncidentEvent("open", self._snapshot(home), home["id"], obs.time_to)
            )
        else:
            if obs.node_id not in home["members"]:
                home["members"].add(obs.node_id)
                bisect.insort(home["nodes"], obs.node_id)
            home["start"] = min(home["start"], obs.time_from)
            home["end"] = max(home["end"], obs.time_to)
            home["peak"] = max(home["peak"], obs.strength)
            home["total"] += obs.strength
            home["count"] += 1
            events.append(
                IncidentEvent("update", self._snapshot(home), home["id"], obs.time_to)
            )
        return events

    def flush(self) -> List[IncidentEvent]:
        """Close every open incident (end of stream / end of batch)."""
        events: List[IncidentEvent] = []
        for hazard in list(self._open):
            for cluster in self._open[hazard]:
                incident = self._snapshot(cluster)
                self._retain(incident)
                events.append(
                    IncidentEvent(
                        "close", incident, cluster["id"], cluster["end"]
                    )
                )
            del self._open[hazard]
        return events

    def sorted_incidents(self) -> List[Incident]:
        """Closed incidents in report order (strongest first)."""
        return sorted(
            self.incidents, key=lambda inc: (-inc.total_strength, inc.start)
        )


class IncidentAggregator:
    """Clusters per-state diagnoses into incidents.

    Args:
        tool: A fitted :class:`VN2` model.
        positions: Optional node_id -> (x, y) map; with it, observations
            only merge when within ``radius_m`` of the cluster.  Without
            it, clustering is temporal only.
        time_gap_s: Observations merge into an open cluster if they start
            no later than this after the cluster's current end.
        radius_m: Spatial merge radius.
        min_strength: Observations below this NNLS strength are ignored.
        retention: Row-wise Algorithm 2 retention applied to the inferred
            weights before extracting observations.
    """

    def __init__(
        self,
        tool: VN2,
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
        time_gap_s: float = 600.0,
        radius_m: float = 60.0,
        min_strength: float = 0.2,
        retention: float = 0.9,
        exception_threshold: Optional[float] = 0.01,
    ):
        tool._require_fitted()
        self.tool = tool
        self.positions = positions
        self.time_gap_s = time_gap_s
        self.radius_m = radius_m
        self.min_strength = min_strength
        self.retention = retention
        #: Only states whose ε/max(ε) exception score reaches this produce
        #: observations (None disables the gate).  Normal-churn states
        #: weakly activate link-quality rows all the time; without the
        #: gate they fuse everything into one trace-long pseudo-incident.
        self.exception_threshold = exception_threshold

    # ------------------------------------------------------------------
    # observation extraction
    # ------------------------------------------------------------------

    def observations(self, states: StateMatrix) -> List[Observation]:
        """Per-state, per-cause observations above the strength floor.

        Exception gating is vectorized, but the NNLS solves run one state
        at a time through :func:`observations_for_state` — the identical
        call the streaming session makes — so observation strengths don't
        depend on how the states were batched.  Returned in canonical
        stream order (:func:`observation_sort_key`).
        """
        if len(states) == 0:
            return []
        if self.exception_threshold is not None:
            keep = np.flatnonzero(
                self.tool._exception_scores(states.values)
                >= self.exception_threshold
            )
            states = states.select(keep)
            if len(states) == 0:
                return []
        out: List[Observation] = []
        for i in range(len(states)):
            out.extend(
                observations_for_state(
                    self.tool,
                    states.values[i],
                    node_id=int(states.node_ids[i]),
                    time_from=float(states.times_from[i]),
                    time_to=float(states.times_to[i]),
                    min_strength=self.min_strength,
                    retention=self.retention,
                )
            )
        out.sort(key=observation_sort_key)
        return out

    # ------------------------------------------------------------------
    # clustering
    # ------------------------------------------------------------------

    def cluster(self, observations: Sequence[Observation]) -> List[Incident]:
        """Greedy spatio-temporal clustering of same-hazard observations.

        A replay over :class:`IncidentTracker`: sort into the canonical
        stream order, feed one observation at a time, flush.
        """
        tracker = IncidentTracker(
            positions=self.positions,
            time_gap_s=self.time_gap_s,
            radius_m=self.radius_m,
        )
        for obs in sorted(observations, key=observation_sort_key):
            tracker.add(obs)
        tracker.flush()
        return tracker.sorted_incidents()

    def extract(self, states: StateMatrix) -> List[Incident]:
        """Full pipeline: states -> observations -> incidents."""
        return self.cluster(self.observations(states))


def incidents_from_frame(
    tool: VN2,
    trace,
    min_observations: int = 2,
    **aggregator_kwargs,
) -> List[Incident]:
    """Convenience: build states from a trace and extract its incidents.

    Args:
        tool: Fitted VN2 model.
        trace: A :class:`repro.traces.frame.TraceFrame` (its stored node
            positions, if any, enable spatial clustering).
        min_observations: Drop incidents with fewer observations (noise).
        **aggregator_kwargs: Forwarded to :class:`IncidentAggregator`.
    """
    from repro.core.states import build_states

    positions = {
        int(k): tuple(v)
        for k, v in trace.metadata.get("positions", {}).items()
    } or None
    aggregator = IncidentAggregator(tool, positions=positions, **aggregator_kwargs)
    incidents = aggregator.extract(build_states(trace))
    return [inc for inc in incidents if inc.n_observations >= min_observations]
