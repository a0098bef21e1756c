"""The per-packet diagnosis loop, kept as the oracle of the differentials.

:class:`~repro.core.streaming.StreamingDiagnosisSession` has one ingest
step, over a :class:`~repro.traces.frame.PacketBatch`.  The loop below is
the one it replaced: every packet goes through its own differencing
(:meth:`PacketLoopBuilder.push`), its own screen, node summary, counter
and timer updates (:meth:`PacketLoopSession.push_packet` /
:meth:`PacketLoopSession.push_state`).  It shares only the per-state
diagnosis (``_diagnose``) and the helpers that write into the session's
fields, so a difference in how the batch step builds, screens, summarizes,
counts or orders states shows up against it.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.states import (
    StateMatrix,
    StreamedState,
    StreamingStateBuilder,
    stack_states,
)
from repro.core.streaming import (
    _SUMMARY_IDX,
    _SUMMARY_KEYS,
    StreamingDiagnosisSession,
    StreamUpdate,
    iter_packets,
)


class PacketLoopBuilder(StreamingStateBuilder):
    """Per-packet differencing: one cache lookup and one subtraction per
    packet, against a ``node -> (epoch, time, values)`` dict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last = {}

    def push(
        self,
        node_id: int,
        epoch: int,
        generated_at: float,
        values: np.ndarray,
    ) -> Optional[StreamedState]:
        """Ingest one report packet; return the completed state, if any."""
        node_id = int(node_id)
        epoch = int(epoch)
        generated_at = float(generated_at)
        values = np.array(values, dtype=float).ravel()
        self.n_packets += 1
        prev = self._last.get(node_id)
        self._last[node_id] = (epoch, generated_at, values)
        if prev is None:
            return None
        prev_epoch, prev_time, prev_values = prev
        gap = epoch - prev_epoch
        if gap <= 0:
            return None
        if self.max_epoch_gap is not None and gap > self.max_epoch_gap:
            return None
        delta = values - prev_values
        if self.per_epoch_rate:
            delta = delta / gap
        self.n_states += 1
        return StreamedState(
            values=delta,
            node_id=node_id,
            epoch_from=prev_epoch,
            epoch_to=epoch,
            time_from=prev_time,
            time_to=generated_at,
        )


def replay_frame_rows(frame, **builder_kwargs) -> StateMatrix:
    """Every frame row through :meth:`PacketLoopBuilder.push`, in stored
    (node, epoch) order: the per-node differencing loop, row by row."""
    builder = PacketLoopBuilder(**builder_kwargs)
    states = [
        builder.push(
            frame.node_ids[i], frame.epochs[i], frame.generated_at[i],
            frame.values[i],
        )
        for i in range(len(frame))
    ]
    return stack_states([s for s in states if s is not None])


class PacketLoopSession(StreamingDiagnosisSession):
    """The session driven one packet at a time (``push_batch`` unused)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.builder = PacketLoopBuilder(
            max_epoch_gap=self.builder.max_epoch_gap,
            per_epoch_rate=self.builder.per_epoch_rate,
        )

    def node_summaries(self):
        """The summaries this loop kept packet by packet, in node-id order."""
        return [
            dict(self._node_summaries[node_id])
            for node_id in sorted(self._node_summaries)
        ]

    def push_packet(
        self,
        node_id: int,
        epoch: int,
        generated_at: float,
        values: np.ndarray,
    ) -> Optional[StreamUpdate]:
        """Ingest one report packet; return the update it completed, if any."""
        summary = self._summary(node_id)
        summary["epoch"] = int(epoch)
        summary["last_seen"] = float(generated_at)
        summary["packets"] += 1
        for key, idx in zip(_SUMMARY_KEYS, _SUMMARY_IDX):
            summary[key] = float(values[idx])
        if not self._obs_on:
            state = self.builder.push(node_id, epoch, generated_at, values)
            if state is None:
                return None
            return self.push_state(state)
        t0 = time.perf_counter()
        self._m_packets.inc()
        state = self.builder.push(node_id, epoch, generated_at, values)
        update = None if state is None else self.push_state(state)
        self._m_latency.observe(time.perf_counter() - t0)
        return update

    def push_state(self, state: StreamedState) -> StreamUpdate:
        """Screen, diagnose and cluster one completed state."""
        self._m_states.inc()
        score = float(self.tool._exception_scores(state.values)[0])
        flagged = score >= self.threshold_ratio
        summary = self._summary(state.node_id)
        summary["states"] += 1
        summary["score"] = score
        summary["exception"] = bool(flagged)
        if not flagged:
            return StreamUpdate(
                state=state,
                score=score,
                is_exception=False,
                report=None,
                observations=[],
                events=[],
            )
        self.n_exceptions += 1
        self._m_exceptions.inc()
        solution, observations, events = self._diagnose(state)
        report = self._plan.report(*solution)
        if observations:
            self._m_observations.inc(len(observations))
        if events:
            self._m_events.inc(len(events))
        return StreamUpdate(
            state=state,
            score=score,
            is_exception=True,
            report=report,
            observations=observations,
            events=events,
        )

    def process(self, packets):
        """Stream updates for every state a packet source completes."""
        for packet in iter_packets(packets):
            update = self.push_packet(*packet)
            if update is not None:
                yield update
