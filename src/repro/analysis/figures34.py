"""Harnesses for the paper's Figures 3 and 4 (trace study on CitySee).

* Fig 3(a): metric variations over time, with exceptions as outlier points.
* Fig 3(b): approximation accuracy vs r, dense W vs sparse W̄.
* Fig 3(c): which Ψ rows each exception correlates with.
* Fig 4: six Ψ row profiles in three families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_series, format_table
from repro.core.exceptions import detect_exceptions
from repro.core.interpretation import RootCauseLabel
from repro.core.normalization import MinMaxNormalizer
from repro.core.pipeline import VN2, VN2Config
from repro.core.rank_selection import choose_rank, rank_sweep
from repro.core.states import build_states
from repro.metrics.catalog import METRIC_INDEX
from repro.traces.frame import TraceFrame


DEFAULT_FIG3A_METRICS = ("voltage", "rssi_1", "radio_on_time", "receive_counter")


# ----------------------------------------------------------------------
# Fig 3(a)
# ----------------------------------------------------------------------


@dataclass
class MetricSeries:
    """Delta series of one metric across all states (time-ordered)."""

    metric: str
    times: np.ndarray
    deltas: np.ndarray
    is_exception: np.ndarray  # per-state flags from the ε rule


@dataclass
class Fig3aResult:
    """Metric variations over time with flagged exceptions."""

    series: List[MetricSeries]
    n_states: int
    n_exceptions: int

    @property
    def exception_fraction(self) -> float:
        return self.n_exceptions / self.n_states if self.n_states else 0.0

    def to_text(self) -> str:
        lines = [
            f"states={self.n_states}  exceptions={self.n_exceptions} "
            f"({100 * self.exception_fraction:.1f}%)"
        ]
        for s in self.series:
            lines.append(format_series(s.metric, s.times, s.deltas))
        return "\n".join(lines)


def exp_fig3a(
    trace: TraceFrame,
    metrics: Sequence[str] = DEFAULT_FIG3A_METRICS,
    threshold_ratio: float = 0.01,
) -> Fig3aResult:
    """Fig 3(a): per-metric delta series + ε-rule exception flags."""
    states = build_states(trace)
    exceptions = detect_exceptions(states, threshold_ratio=threshold_ratio)
    flags = np.zeros(len(states), dtype=bool)
    flags[exceptions.indices] = True
    order = np.argsort(states.times_to, kind="stable")
    times = states.times_to[order]
    series = []
    for metric in metrics:
        idx = METRIC_INDEX[metric]
        series.append(
            MetricSeries(
                metric=metric,
                times=times,
                deltas=states.values[order, idx],
                is_exception=flags[order],
            )
        )
    return Fig3aResult(
        series=series, n_states=len(states), n_exceptions=len(exceptions)
    )


# ----------------------------------------------------------------------
# Fig 3(b)
# ----------------------------------------------------------------------


@dataclass
class Fig3bResult:
    """Rank sweep: dense vs sparse accuracy curves + the chosen r."""

    ranks: np.ndarray
    accuracy_dense: np.ndarray
    accuracy_sparse: np.ndarray
    chosen_rank: int
    n_exceptions: int

    def to_text(self) -> str:
        rows = [
            (int(r), f"{d:.3f}", f"{s:.3f}", f"{s - d:.3f}")
            for r, d, s in zip(self.ranks, self.accuracy_dense, self.accuracy_sparse)
        ]
        table = format_table(["r", "alpha (dense W)", "alpha (sparse W)", "gap"], rows)
        return f"{table}\nchosen r = {self.chosen_rank}"


def exp_fig3b(
    trace: TraceFrame,
    ranks: Sequence[int] = tuple(range(5, 41, 5)),
    retention: float = 0.9,
    threshold_ratio: float = 0.01,
) -> Fig3bResult:
    """Fig 3(b): approximation accuracy vs r, dense and sparsified."""
    states = build_states(trace)
    exceptions = detect_exceptions(states, threshold_ratio=threshold_ratio)
    normalizer = MinMaxNormalizer.fit(exceptions.states.values, pad_fraction=0.05)
    E = normalizer.transform(exceptions.states.values)
    sweep = rank_sweep(E, ranks, retention=retention)
    chosen = choose_rank(sweep)
    r, dense, sparse = sweep.as_arrays()
    return Fig3bResult(
        ranks=r,
        accuracy_dense=dense,
        accuracy_sparse=sparse,
        chosen_rank=chosen,
        n_exceptions=len(exceptions),
    )


# ----------------------------------------------------------------------
# Fig 3(c)
# ----------------------------------------------------------------------


@dataclass
class Fig3cResult:
    """Exception x root-cause correlation scatter."""

    points: List[Tuple[int, int]]  # (exception index, Ψ row index)
    weights: np.ndarray  # (n_exceptions, r)
    mean_causes_per_exception: float
    max_causes_per_exception: int
    tool: VN2

    def to_text(self) -> str:
        r = self.weights.shape[1]
        usage = (self.weights > 0).mean(axis=0)
        rows = [(f"Ψ{j + 1}", f"{100 * usage[j]:.1f}%") for j in range(r)]
        table = format_table(["root cause", "used by exceptions"], rows)
        return (
            f"{table}\n"
            f"mean active causes/exception = {self.mean_causes_per_exception:.2f}"
            f" (max {self.max_causes_per_exception})"
        )


def exp_fig3c(
    trace: TraceFrame,
    rank: Optional[int] = 25,
    retention: float = 0.9,
) -> Fig3cResult:
    """Fig 3(c): correlate each detected exception with Ψ rows via NNLS.

    Inferred weights are sparsified row-wise (Algorithm 2 at inference
    time) so each exception keeps only the few causes carrying 90 % of its
    explanation mass — the scatter's points.
    """
    from repro.core.inference import sparsify_inferred

    tool = VN2(VN2Config(rank=rank, filter_exceptions=True)).fit(trace)
    exceptions = tool.exceptions_
    weights = sparsify_inferred(
        tool.correlation_strengths(exceptions.states), retention=retention
    )
    points: List[Tuple[int, int]] = []
    causes_per_exception: List[int] = []
    for i in range(weights.shape[0]):
        active = np.flatnonzero(weights[i] > 0)
        causes_per_exception.append(len(active))
        points.extend((i, int(j)) for j in active)
    return Fig3cResult(
        points=points,
        weights=weights,
        mean_causes_per_exception=float(np.mean(causes_per_exception)),
        max_causes_per_exception=int(np.max(causes_per_exception)),
        tool=tool,
    )


# ----------------------------------------------------------------------
# Fig 4
# ----------------------------------------------------------------------


@dataclass
class Fig4Row:
    """One displayed root-cause vector."""

    index: int
    family: str
    profile: np.ndarray  # display units, length 43
    label: RootCauseLabel


@dataclass
class Fig4Result:
    """Six Ψ rows, two per family (environment / link / protocol)."""

    rows: List[Fig4Row]
    families_covered: Tuple[str, ...]

    def to_text(self) -> str:
        out = []
        for row in self.rows:
            tops = ", ".join(
                f"{name}={value:+.2f}" for name, value in row.label.top_metrics[:4]
            )
            out.append(
                f"Ψ{row.index + 1} [{row.family}]  {tops}\n"
                f"    -> {row.label.explanation}"
            )
        return "\n".join(out)


def exp_fig4(tool: VN2, per_family: int = 2) -> Fig4Result:
    """Fig 4: pick the strongest non-baseline rows of each family."""
    display = tool.psi_display()
    energies = np.linalg.norm(display, axis=1)
    by_family: Dict[str, List[int]] = {}
    for label in tool.labels:
        if label.is_baseline:
            continue
        by_family.setdefault(label.family, []).append(label.index)
    rows: List[Fig4Row] = []
    for family in ("environment", "link", "protocol"):
        candidates = by_family.get(family, [])
        candidates.sort(key=lambda j: -energies[j])
        for j in candidates[:per_family]:
            rows.append(
                Fig4Row(
                    index=j,
                    family=family,
                    profile=display[j],
                    label=tool.labels[j],
                )
            )
    families = tuple(sorted({r.family for r in rows}))
    return Fig4Result(rows=rows, families_covered=families)
