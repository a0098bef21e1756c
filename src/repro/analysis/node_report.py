"""Per-node health reports over a trace.

The complement to per-state diagnosis: for every node, summarize how
reliably it reported (continuity against the expected epoch schedule),
how often it looked exceptional, and which root causes dominated its
exceptional states.  Sympathy's classic "insufficient data means failure"
heuristic appears here as the *silent window* list — gaps in a node's
reporting longer than a few periods, which state-delta diagnosis is
structurally blind to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.inference import sparsify_inferred
from repro.core.pipeline import VN2
from repro.core.states import build_states
from repro.traces.frame import TraceFrame


@dataclass
class NodeHealth:
    """Health summary of one node."""

    node_id: int
    snapshots: int
    expected_epochs: int
    continuity: float  # received complete snapshots / expected epochs
    exception_fraction: float  # of the node's states
    top_causes: List[Tuple[str, int]]  # hazard -> exceptional-state count
    silent_windows: List[Tuple[float, float]]

    @property
    def healthy(self) -> bool:
        """A rough green/red verdict."""
        return (
            self.continuity >= 0.8
            and self.exception_fraction <= 0.2
            and not self.silent_windows
        )


@dataclass
class NodeReport:
    """Health summaries for every node of a trace."""

    nodes: List[NodeHealth]
    report_period_s: float

    def worst(self, k: int = 5) -> List[NodeHealth]:
        """The k least healthy nodes (by continuity, then exceptions)."""
        return sorted(
            self.nodes,
            key=lambda n: (n.continuity, -n.exception_fraction),
        )[:k]

    def to_text(self, limit: int = 10) -> str:
        rows = []
        for health in self.worst(limit):
            causes = ", ".join(
                f"{hazard} x{count}" for hazard, count in health.top_causes[:2]
            )
            rows.append(
                (
                    health.node_id,
                    f"{100 * health.continuity:.0f}%",
                    f"{100 * health.exception_fraction:.0f}%",
                    len(health.silent_windows),
                    causes or "-",
                    "ok" if health.healthy else "ATTENTION",
                )
            )
        return format_table(
            ["node", "continuity", "exceptional", "silences", "top causes", ""],
            rows,
        )


def node_health_report(
    tool: VN2,
    frame: TraceFrame,
    exception_threshold: float = 0.01,
    min_strength: float = 0.2,
    silence_periods: float = 4.0,
) -> NodeReport:
    """Build per-node health summaries.

    Args:
        tool: Fitted VN2 model.
        frame: The trace to summarize.
        exception_threshold: ε/max(ε) ratio above which a state counts as
            exceptional for the node.
        min_strength: Sparsified NNLS strength above which a cause is
            attributed to an exceptional state.
        silence_periods: A reporting gap longer than this many periods
            counts as a silent window.
    """
    tool._require_fitted()
    period = float(frame.metadata.get("report_period_s", 600.0))
    start, end = frame.time_span()
    span = max(end - start, period)
    expected = max(1, int(span / period))

    states = build_states(frame)

    nodes: List[NodeHealth] = []
    for node_id, rows in frame.node_slices():
        node_states = states.for_node(node_id)

        exception_flags = np.zeros(0, dtype=bool)
        cause_counter: Counter = Counter()
        if len(node_states) > 0:
            exception_flags = (
                tool._exception_scores(node_states.values)
                >= exception_threshold
            )
            exceptional_idx = np.flatnonzero(exception_flags)
            if exceptional_idx.size:
                weights = sparsify_inferred(
                    tool.correlation_strengths(
                        node_states.select(exceptional_idx)
                    )
                )
                for j in np.nonzero(weights >= min_strength)[1]:
                    label = tool.labels[int(j)]
                    if label.is_baseline or label.primary_hazard is None:
                        continue
                    cause_counter[label.primary_hazard] += 1

        silent: List[Tuple[float, float]] = []
        times = frame.generated_at[rows]
        gap_limit = silence_periods * period
        for g in np.flatnonzero(np.diff(times) > gap_limit):
            silent.append((float(times[g]), float(times[g + 1])))
        if times.size and end - times[-1] > gap_limit:
            silent.append((float(times[-1]), end))

        nodes.append(
            NodeHealth(
                node_id=node_id,
                snapshots=int(times.size),
                expected_epochs=expected,
                continuity=min(1.0, times.size / expected),
                exception_fraction=(
                    float(exception_flags.mean()) if exception_flags.size else 0.0
                ),
                top_causes=cause_counter.most_common(),
                silent_windows=silent,
            )
        )
    return NodeReport(nodes=nodes, report_period_s=period)
