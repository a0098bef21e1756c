"""Streaming diagnosis session: report packets in, incident events out.

This is the online assembly of the incremental engine — the deployed loop
of the paper's Fig 1 run as packets arrive instead of trace by trace:

1. :class:`~repro.core.states.StreamingStateBuilder` turns each arriving
   report packet into a network state the moment its pair completes;
2. the state is screened with the ε exception rule against the model's
   training statistics (one O(metrics) check);
3. exceptional states get ONE per-state NNLS solve, reused for both the
   operator-facing :class:`~repro.core.pipeline.DiagnosisReport` (built
   only where a :class:`StreamUpdate` carries it) and the hazard
   :class:`~repro.core.incidents.Observation` extraction;
4. observations feed the :class:`~repro.core.incidents.IncidentTracker`,
   whose open/update/close :class:`~repro.core.incidents.IncidentEvent`
   records are what ``vn2 watch`` prints.

The session runs that loop in one place, over a :class:`PacketBatch`:
steps 1 and 2 once per batch, as array operations, and step 3 once per
flagged state, in packet order.  Every entry point is that one step —
:meth:`~StreamingDiagnosisSession.push_batch` (the sink, ``vn2 watch``),
:meth:`~StreamingDiagnosisSession.process` and ``VN2.diagnose_stream``
(:data:`SLICE_PACKETS`-packet slices) and
:meth:`~StreamingDiagnosisSession.push_packet` (one row) — and how the
packets are cut into batches never changes the output.

Memory is bounded: one cached report per node, one small health summary
per node (:meth:`StreamingDiagnosisSession.node_summaries` — the
dashboard's topology feed), O(metrics) screening statistics, and the
open incidents — nothing grows with trace length.
Closed incidents accumulate in ``tracker.incidents`` by default (so batch
replays stay bit-identical); pass ``max_closed_incidents`` to cap that
retention for unbounded runs (the sink service does).

Bit-identity with the batch path holds by construction: the builder's
differencing, the per-row ε screen, and the per-state NNLS solve are the
very calls the batch replays make, and feeding packets in the canonical
arrival order (``generated_at``, then node id, then epoch — what
:func:`iter_packets` yields) reproduces the batch observation order
exactly.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass
from itertools import islice
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.obs import LATENCY_BUCKETS, MetricsRegistry, get_registry
from repro.metrics.catalog import METRIC_INDEX
from repro.core.incidents import (
    IncidentEvent,
    IncidentTracker,
    Observation,
    observations_for_state,  # noqa: F401 - see below
)
from repro.core.inference import (
    NNLSMetrics,
    NNLSSolverCache,
    infer_weights_batch,  # noqa: F401 - see below
    sparsify_inferred,  # noqa: F401 - see below
)
from repro.core.pipeline import VN2, DiagnosisReport
from repro.core.sparsify import check_retention
from repro.core.states import (
    StateMatrix,
    StreamedState,
    StreamingStateBuilder,
    stack_states,
)
from repro.traces.frame import Packet, PacketBatch, TraceFrame

# ``observations_for_state``, ``infer_weights_batch`` and
# ``sparsify_inferred`` are imported but not called: the per-state path
# runs on the model's DiagnosisPlan, and ``sinkbench/traced_serve.py``
# still wraps these names on this module.

#: Packets per :class:`PacketBatch` slice when
#: :meth:`StreamingDiagnosisSession.process` replays a frame or a packet
#: iterable (the sink benchmark's line size).
SLICE_PACKETS = 512

#: Raw catalog metrics captured into per-node summaries — the dashboard's
#: topology/health feed: routing position (hop count), path quality,
#: energy, and neighbor-table degree.
SUMMARY_METRICS = ("path_length", "path_etx", "voltage", "neighbor_num")
_SUMMARY_KEYS = ("hop", "path_etx", "voltage", "neighbors")
_SUMMARY_IDX = tuple(METRIC_INDEX[name] for name in SUMMARY_METRICS)


def _blank_summary(node_id: int) -> dict:
    """A node summary before any packet or state of the node counts."""
    return {
        "node_id": int(node_id),
        "epoch": None,
        "last_seen": None,
        "hop": None,
        "path_etx": None,
        "voltage": None,
        "neighbors": None,
        "packets": 0,
        "states": 0,
        "score": None,
        "exception": False,
        "hazard": None,
        "family": None,
        "strength": None,
    }


def _last_per_node(node_ids: List[int]) -> Tuple[List[int], List[int], List[int]]:
    """Distinct ids, the index of each one's last row, and its row count."""
    last = dict(zip(node_ids, range(len(node_ids))))  # later rows win
    counts = Counter(node_ids)
    return list(last), list(last.values()), [counts[k] for k in last]


def _arrival_order(frame: TraceFrame) -> np.ndarray:
    """Row order of ``frame`` by (generated_at, node_id, epoch)."""
    return np.lexsort((frame.epochs, frame.node_ids, frame.generated_at))


def iter_packets(
    source: Union[TraceFrame, Iterable[Packet]],
) -> Iterator[Packet]:
    """Yield ``(node_id, epoch, generated_at, values)`` in arrival order.

    A :class:`~repro.traces.frame.TraceFrame` is stored node-major; a
    live sink sees packets in *time* order.  This helper yields frame
    rows sorted by (generated_at, node_id, epoch) — the canonical arrival
    order the streaming engine's bit-identity guarantees assume.  An
    iterable of packet tuples is passed through untouched (a tailed JSONL
    file is already in arrival order).
    """
    if isinstance(source, TraceFrame):
        for i in _arrival_order(source):
            yield (
                int(source.node_ids[i]),
                int(source.epochs[i]),
                float(source.generated_at[i]),
                source.values[i],
            )
        return
    for node_id, epoch, generated_at, values in source:
        yield (
            int(node_id),
            int(epoch),
            float(generated_at),
            np.asarray(values, dtype=float),
        )


def _slices(source) -> Iterator[PacketBatch]:
    """:func:`iter_packets` order as :data:`SLICE_PACKETS`-packet batches.

    A frame is sorted once and sliced by row index, never row by row.
    """
    if isinstance(source, TraceFrame):
        order = _arrival_order(source)
        for start in range(0, len(order), SLICE_PACKETS):
            rows = order[start : start + SLICE_PACKETS]
            yield PacketBatch(
                source.node_ids[rows],
                source.epochs[rows],
                source.generated_at[rows],
                source.values[rows],
            )
        return
    packets = iter_packets(source)
    while True:
        chunk = list(islice(packets, SLICE_PACKETS))
        if not chunk:
            return
        yield PacketBatch.from_packets(chunk)


@dataclass
class StreamUpdate:
    """Everything one completed state produced.

    Attributes:
        state: The emitted network state (``None`` only on the final
            flush update of :meth:`VN2.diagnose_stream`).
        score: The ε/max(ε) exception score against the model's training
            statistics (``None`` only on the flush update).
        is_exception: Whether the state passed the exception screen (and
            was therefore diagnosed).
        report: Root-cause diagnosis of the state; ``None`` for screened-
            out states.
        observations: Hazard observations the state contributed.
        events: Incident open/update/close transitions those caused.
    """

    state: Optional[StreamedState]
    score: Optional[float]
    is_exception: bool
    report: Optional[DiagnosisReport]
    observations: List[Observation]
    events: List[IncidentEvent]


class StreamingDiagnosisSession:
    """Stateful streaming diagnosis against a fitted model.

    Args:
        tool: A fitted (or loaded) :class:`VN2` model.
        positions: Optional node positions for spatial incident clustering.
        threshold_ratio: ε screen cutoff; defaults to the model config's
            ``exception_threshold``.
        max_epoch_gap / per_epoch_rate: Forwarded to the state builder.
        min_strength / retention: Observation extraction knobs (defaults
            match :class:`~repro.core.incidents.IncidentAggregator`).
        time_gap_s / radius_m: Incident clustering knobs.
        max_closed_incidents: Retention cap on closed incidents kept in
            ``tracker.incidents`` (``None`` = keep all; see
            :class:`~repro.core.incidents.IncidentTracker`).
        registry: Metrics registry to report into; defaults to the
            process-wide :func:`repro.obs.get_registry`.  The sink
            service passes its own private registry per shard.
        metric_labels: Constant labels stamped on every metric this
            session (and its tracker) emits, e.g. ``{"deployment": name}``.
            A ``model_version`` label, when present, is re-stamped by
            :meth:`set_model` on every rotation.
        keep_exception_states: Retain up to this many recent exception
            states for :meth:`drain_exception_states` (0 = keep none) —
            the feedstock of incremental refits.
        drift_window: Relative-residual samples behind :attr:`drift_score`.

    Every state is screened against the model's training statistics
    (:meth:`VN2.load` refuses saves without them).  Each flagged state's
    NNLS solve starts cold; the session's
    :class:`~repro.core.inference.NNLSSolverCache` carries passive-set
    factorizations from solve to solve.
    """

    def __init__(
        self,
        tool: VN2,
        positions=None,
        threshold_ratio: Optional[float] = None,
        max_epoch_gap: Optional[int] = None,
        per_epoch_rate: bool = False,
        min_strength: float = 0.2,
        retention: float = 0.9,
        time_gap_s: float = 600.0,
        radius_m: float = 60.0,
        max_closed_incidents: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Mapping[str, str]] = None,
        keep_exception_states: int = 0,
        drift_window: int = 256,
    ):
        tool._require_fitted()
        self.tool = tool
        self.threshold_ratio = (
            tool.config.exception_threshold
            if threshold_ratio is None
            else threshold_ratio
        )
        # Checked once here: the per-state path trusts both.
        check_retention(retention)
        if math.isnan(min_strength):
            raise ValueError("min_strength must be a number, got nan")
        self.min_strength = min_strength
        self.retention = retention
        self.builder = StreamingStateBuilder(
            max_epoch_gap=max_epoch_gap, per_epoch_rate=per_epoch_rate
        )
        self.registry = get_registry() if registry is None else registry
        labels = dict(metric_labels) if metric_labels else None
        self.tracker = IncidentTracker(
            positions=positions,
            time_gap_s=time_gap_s,
            radius_m=radius_m,
            max_closed=max_closed_incidents,
            registry=self.registry,
            metric_labels=labels,
        )
        self._labels: Optional[Dict[str, str]] = labels
        # ``_obs_on`` gates the per-packet perf_counter pair; the metric
        # handles themselves are no-op singletons when the registry is
        # disabled, so inc() stays safe either way.
        self._obs_on = self.registry.enabled
        self._bind_metrics()
        # Passive-set factorizations are functions of Ψ alone, so they
        # survive from packet to packet (cleared on model rotation).
        # Reuse is bit-identical to recomputation — see NNLSSolverCache.
        self._solver_cache = NNLSSolverCache(
            registry=self.registry, labels=labels
        )
        self._reservoir: Optional["deque[StreamedState]"] = (
            deque(maxlen=keep_exception_states)
            if keep_exception_states > 0
            else None
        )
        self._drift: "deque[float]" = deque(maxlen=drift_window)
        #: node_id -> small plain dict of last-state facts (screen and
        #: diagnosis; the last-packet facts live in the builder's cache) —
        #: O(nodes), no frames or arrays retained (the dashboard's feed).
        self._node_summaries: Dict[int, dict] = {}
        self._bind_model(tool)
        self.n_exceptions = 0
        self._finished = False

    def _bind_metrics(self) -> None:
        reg = self.registry
        labels = self._labels
        self._m_packets = reg.counter(
            "repro_streaming_packets_total", "Report packets ingested", labels
        )
        self._m_states = reg.counter(
            "repro_streaming_states_total", "Network states completed", labels
        )
        self._m_exceptions = reg.counter(
            "repro_streaming_exceptions_total",
            "States flagged by the ε exception screen",
            labels,
        )
        self._m_observations = reg.counter(
            "repro_streaming_observations_total",
            "Hazard observations extracted from exception states",
            labels,
        )
        self._m_events = reg.counter(
            "repro_streaming_incident_events_total",
            "Incident open/update/close transitions emitted",
            labels,
        )
        self._m_latency = reg.histogram(
            "repro_streaming_packet_seconds",
            "Per-packet ingest latency: each batch's wall time over its "
            "packets, recorded once per packet",
            labels,
            buckets=LATENCY_BUCKETS,
        )
        self._m_nnls = NNLSMetrics(reg, labels)

    def _bind_model(self, tool: VN2) -> None:
        self.tool = tool
        self._plan = tool.plan

    @property
    def n_packets(self) -> int:
        """Packets ingested so far."""
        return self.builder.n_packets

    @property
    def n_states(self) -> int:
        """States completed so far."""
        return self.builder.n_states

    def counters(self) -> dict:
        """Per-update metrics snapshot (the sink service's ``/metrics`` hook).

        O(open incidents) — cheap enough to call after every packet.
        """
        tracker = self.tracker
        return {
            "packets": self.n_packets,
            "states": self.n_states,
            "exceptions": self.n_exceptions,
            "incidents_open": tracker.n_open,
            "incidents_closed": tracker.n_closed_total,
            "incidents_evicted": tracker.n_evicted,
        }

    def _summary(self, node_id: int) -> dict:
        """The node's summary entry, created on first use."""
        summary = self._node_summaries.get(node_id)
        if summary is None:
            summary = self._node_summaries[node_id] = _blank_summary(node_id)
        return summary

    def node_summaries(self) -> List[dict]:
        """Per-node last-packet/health summaries, in node-id order.

        Each entry is a small plain dict — last epoch and arrival time,
        the raw routing/energy metrics of :data:`SUMMARY_METRICS` (as
        ``hop``/``path_etx``/``voltage``/``neighbors``), packet/state
        counts, and the last exception screen outcome (``score``,
        ``exception``, top ``hazard``/``family``/``strength``).  O(nodes)
        and frame-free by construction, so it is safe to ship over the
        cluster's worker pipes or serialize as JSON after every packet:
        this is what ``GET /api/topology`` renders.  Summaries survive
        :meth:`set_model` (they are positional state, like the tracker).

        The last-packet facts and packet counts are read from the state
        builder's per-node cache, which holds exactly each node's last
        arrival; the screen and diagnosis facts are kept per batch.
        """
        nodes, epochs, times, values, packets = self.builder.last_arrivals()
        screened = self._node_summaries
        summaries = []
        for node_id, epoch, seen, metrics, count in sorted(zip(
            nodes, epochs.tolist(), times.tolist(),
            values[:, list(_SUMMARY_IDX)].tolist(), packets.tolist(),
        )):
            summary = screened.get(node_id)
            summary = _blank_summary(node_id) if summary is None else dict(summary)
            summary["epoch"] = epoch
            summary["last_seen"] = seen
            summary["packets"] = count
            summary.update(zip(_SUMMARY_KEYS, metrics))
            summaries.append(summary)
        return summaries

    def push_packet(
        self,
        node_id: int,
        epoch: int,
        generated_at: float,
        values: np.ndarray,
    ) -> Optional[StreamUpdate]:
        """Ingest one report packet; return the update it completed, if any.

        A one-row :meth:`push_batch`, so several times dearer per packet
        than a batch: numpy's per-call set-up is paid for one row.
        """
        updates = self._updates(
            PacketBatch.from_packets([(node_id, epoch, generated_at, values)])
        )
        return updates[0] if updates else None

    def push_batch(self, batch: PacketBatch) -> List[IncidentEvent]:
        """Ingest a batch of report packets; return the events it emitted.

        The states are built in one
        :meth:`~repro.core.states.StreamingStateBuilder.push_columns` pass
        and screened in one vectorized call; each flagged state gets its
        own NNLS solve, in packet order, so states, scores, diagnoses,
        incident events, node summaries and counters do not depend on how
        the packets were batched.
        """
        if not len(batch):
            return []
        _states, _scores, _flags, diagnoses = self._push(batch)
        return [e for _solution, _obs, events in diagnoses for e in events]

    def _push(self, batch: PacketBatch):
        """The session's one ingest step, over a non-empty batch.

        Builds, summarizes, screens, diagnoses, counts and times the
        batch.  Returns ``(states, scores, flags, diagnoses)``: the
        completed :class:`~repro.core.states.StateMatrix`, each state's
        screen score and flag, and one ``(solution, observations,
        events)`` per flagged state, in state order (see
        :meth:`_diagnose`).
        """
        n = len(batch)
        t0 = time.perf_counter() if self._obs_on else 0.0
        states = self.builder.push_columns(
            batch.node_ids, batch.epochs, batch.generated_at, batch.values
        )
        scores = []
        flags = np.zeros(0, dtype=bool)
        diagnoses = []
        if len(states):
            scores = self.tool._exception_scores(states.values)
            flags = scores >= self.threshold_ratio
            self._summarize_states(states.node_ids, scores, flags)
            diagnoses = [
                self._diagnose(states.streamed(i))
                for i in np.flatnonzero(flags).tolist()
            ]
        self.n_exceptions += len(diagnoses)
        self._m_packets.inc(n)
        self._m_states.inc(len(states))
        self._m_exceptions.inc(len(diagnoses))
        self._m_observations.inc(sum(len(d[1]) for d in diagnoses))
        self._m_events.inc(sum(len(d[2]) for d in diagnoses))
        if self._obs_on:
            self._m_latency.observe((time.perf_counter() - t0) / n, count=n)
        return states, scores, flags, diagnoses

    def _updates(self, batch: PacketBatch) -> List[StreamUpdate]:
        """:meth:`_push`, as one :class:`StreamUpdate` per completed state.

        The only step that builds :class:`DiagnosisReport` objects: the
        sink's :meth:`push_batch` discards them.
        """
        states, scores, flags, diagnoses = self._push(batch)
        report = self._plan.report
        diagnosed = iter(diagnoses)
        updates = []
        for i, flagged in enumerate(flags.tolist()):
            if flagged:
                solution, observations, events = next(diagnosed)
                diagnosis = (report(*solution), observations, events)
            else:
                diagnosis = (None, [], [])
            updates.append(
                StreamUpdate(states.streamed(i), float(scores[i]), flagged,
                             *diagnosis)
            )
        return updates

    def _summarize_states(self, node_ids: np.ndarray, scores, flags) -> None:
        """Node summaries after a batch: each node's last state wins."""
        nodes, last, counts = _last_per_node(node_ids.tolist())
        scores = [scores[i] for i in last]
        flags = flags[last].tolist()
        summaries = self._node_summaries
        for node_id, count, score, flag in zip(nodes, counts, scores, flags):
            summary = summaries.get(node_id) or self._summary(node_id)
            summary["states"] += count
            summary["score"] = float(score)
            summary["exception"] = flag

    def _diagnose(
        self, state: StreamedState
    ) -> Tuple[
        Tuple[np.ndarray, float, float], List[Observation], List[IncidentEvent]
    ]:
        """Solve and cluster one flagged state (counters are
        :meth:`_push`'s to bump).

        Returns ``(solution, observations, events)``, where ``solution``
        is the ``(weights, residual, state_norm)`` that
        :meth:`~repro.core.plan.DiagnosisPlan.report` takes; only
        :meth:`_updates` builds the report.
        """
        if self._reservoir is not None:
            self._reservoir.append(state)
        # ONE per-state solve on the model's plan, reused for the report
        # and the observations, so batch and stream agree bit for bit on
        # observation strengths without a second NNLS.
        plan = self._plan
        node_id = state.node_id
        normalized = plan.normalize(state.values)
        weights, residual = plan.solve(
            normalized, self._solver_cache, self._m_nnls
        )
        state_norm = plan.state_norm(normalized)
        # The report's relative residual.
        self._drift.append(residual / state_norm if state_norm > 0 else 0.0)
        observations = plan.observations(
            plan.sparsify(weights, self.retention),
            node_id, state.time_from, state.time_to, self.min_strength,
        )
        summary = self._node_summaries[node_id]
        if observations:
            top = max(observations, key=lambda o: o.strength)
            summary["hazard"] = top.hazard
            summary["strength"] = float(top.strength)
        # The report's primary cause: the first largest weight, when it
        # is positive and passes the significance cut.
        primary = int(weights.argmax())
        strongest = weights[primary]
        if strongest > 0 and strongest >= plan.min_weight_fraction * strongest:
            summary["family"] = plan.families[primary]
        add = self.tracker.add
        events = [e for obs in observations for e in add(obs)]
        return (weights, residual, state_norm), observations, events

    @property
    def drift_score(self) -> float:
        """Mean relative residual of recently diagnosed exception states.

        0 when nothing has been diagnosed yet.  Values climbing toward 1
        mean the serving model can no longer explain what it flags — the
        refit trigger :class:`~repro.core.lifecycle.OnlineVN2Updater`
        formalizes (here surfaced per shard so the sink's
        :class:`~repro.service.models.ModelManager` can poll it).
        """
        if not self._drift:
            return 0.0
        return float(np.mean(self._drift))

    def drain_exception_states(self) -> StateMatrix:
        """Pop the retained exception states (for an incremental refit).

        Only retains anything when the session was constructed with
        ``keep_exception_states > 0``; draining empties the reservoir, so
        successive refits never absorb the same state twice.
        """
        if not self._reservoir:
            return stack_states([])
        states = list(self._reservoir)
        self._reservoir.clear()
        return stack_states(states)

    def set_model(self, tool: VN2) -> Dict[str, int]:
        """Atomically swap the serving model (zero-downtime rotation).

        Everything *positional* survives — the state builder's per-node
        packet cache, the incident tracker with its open incidents, and
        every counter — so the packet stream continues seamlessly: the
        next completed state is diagnosed by the new model.  Everything
        *model-derived* is reset: the solver's factorization cache (old
        factors are *wrong* against a new Ψ) and the drift window (the
        new model gets a clean slate).

        The screening threshold chosen at construction is kept — rotation
        changes the model, not the session's operating point.  When the
        session's metric labels carry a ``model_version``, the label is
        re-stamped with the new model's version so per-version series
        split at the rotation (the incident tracker keeps its original
        labels: incidents span rotations).

        Returns the rotation boundary ``{"packets": ..., "states": ...}``
        — replaying the same packets through ``diagnose_stream`` with the
        old model up to ``states`` and the new model after it reproduces
        this session's output exactly.
        """
        tool._require_fitted()
        boundary = {"packets": self.n_packets, "states": self.n_states}
        self._bind_model(tool)
        self._solver_cache.clear()
        self._drift.clear()
        if self._labels is not None and "model_version" in self._labels:
            self._labels = {**self._labels, "model_version": tool.model_version}
            self._bind_metrics()
        return boundary

    def process(self, packets) -> Iterator[StreamUpdate]:
        """Stream updates for every state a packet source completes.

        Accepts anything :func:`iter_packets` does and pushes it in
        :data:`SLICE_PACKETS`-packet :class:`PacketBatch` slices, in the
        same arrival order (a frame is sorted once), so updates arrive a
        slice at a time.  Does NOT flush open incidents — call
        :meth:`finish` when the stream truly ends.
        """
        for batch in _slices(packets):
            yield from self._updates(batch)

    def finish(self) -> List[IncidentEvent]:
        """Close every open incident (idempotent end-of-stream flush)."""
        if self._finished:
            return []
        self._finished = True
        return self.tracker.flush()
