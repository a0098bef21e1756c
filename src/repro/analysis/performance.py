"""Protocol performance estimation from diagnosed root causes.

The paper's future work asks for "protocol performance estimation": given
which root causes are active, estimate the network-performance impact.
This module learns, per root cause, a **PRR cost** — how much sink packet
reception the network loses per unit of that cause's correlation strength:

1. time is split into bins; each bin gets the sink PRR (from arrival
   accounting) and the mean sparsified NNLS strength of every Ψ row over
   the states observed in that bin;
2. the bin's *PRR deficit* (healthy baseline minus measured PRR) is
   regressed on the strengths with non-negative least squares, giving a
   per-cause cost vector;
3. :meth:`PerformanceModel.predict_prr` then estimates the PRR that a
   hypothetical strength profile would produce — e.g. "if this loop
   incident doubles, expect another 8 points of PRR loss".

Costs are non-negative by construction (a root cause never *improves*
PRR), which keeps the attribution additively interpretable, in the same
spirit as the NMF itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.optimize import nnls

from repro.analysis.reporting import format_table
from repro.core.inference import sparsify_inferred
from repro.core.pipeline import VN2
from repro.core.states import build_states
from repro.traces.prr import prr_series
from repro.traces.frame import TraceFrame


@dataclass
class CauseImpact:
    """One root cause's estimated PRR cost."""

    cause_index: int
    hazard: Optional[str]
    cost: float  # PRR deficit per unit strength
    mean_strength: float  # over the analysed bins


@dataclass
class PerformanceModel:
    """Fitted per-cause PRR cost model.

    Attributes:
        impacts: Per-cause costs, strongest contribution first.
        baseline_prr: The healthy PRR level deficits are measured against.
        r_squared: Fraction of deficit variance the model explains.
        bin_seconds: Bin width used to fit.
    """

    impacts: List[CauseImpact]
    baseline_prr: float
    r_squared: float
    bin_seconds: float
    _costs: np.ndarray = field(repr=False, default=None)

    def predict_deficit(self, strengths: np.ndarray) -> float:
        """Estimated PRR deficit for a strength profile (length r)."""
        strengths = np.asarray(strengths, dtype=float).ravel()
        return float(np.clip(strengths @ self._costs, 0.0, 1.0))

    def predict_prr(self, strengths: np.ndarray) -> float:
        """Estimated sink PRR under a strength profile."""
        return float(
            np.clip(self.baseline_prr - self.predict_deficit(strengths), 0.0, 1.0)
        )

    def to_text(self, top_k: int = 8) -> str:
        rows = [
            (
                f"Ψ{imp.cause_index + 1}",
                imp.hazard or "-",
                f"{imp.cost:.3f}",
                f"{imp.mean_strength:.3f}",
                f"{imp.cost * imp.mean_strength:.4f}",
            )
            for imp in self.impacts[:top_k]
        ]
        table = format_table(
            ["cause", "hazard", "PRR cost/unit", "mean strength", "mean impact"],
            rows,
        )
        return (
            f"{table}\nbaseline PRR={self.baseline_prr:.3f}  "
            f"R^2={self.r_squared:.2f}  bins={self.bin_seconds:.0f}s"
        )


def estimate_cause_costs(
    tool: VN2,
    trace: TraceFrame,
    bin_seconds: float = 600.0,
    baseline_quantile: float = 0.9,
    retention: float = 0.9,
) -> PerformanceModel:
    """Fit per-root-cause PRR costs on a trace.

    Args:
        tool: Fitted VN2 model (defines the causes).
        trace: Frame with arrival accounting (for PRR) and snapshots (for
            states).
        bin_seconds: Time-bin width.
        baseline_quantile: The PRR quantile treated as "healthy".
        retention: Row-wise sparsification applied to inferred weights.

    Raises:
        ValueError: If the trace yields fewer than 4 usable bins.
    """
    tool._require_fitted()
    centers, prr = prr_series(trace, bin_seconds=bin_seconds)
    if len(centers) < 4:
        raise ValueError(
            f"need at least 4 PRR bins, got {len(centers)}; "
            "use a longer trace or smaller bins"
        )
    states = build_states(trace)
    if len(states) == 0:
        raise ValueError("trace has no states")
    weights = sparsify_inferred(
        tool.correlation_strengths(states), retention=retention
    )
    rank = weights.shape[1]

    # mean strength per bin
    edges = np.concatenate(
        [centers - bin_seconds / 2.0, [centers[-1] + bin_seconds / 2.0]]
    )
    times = states.times_to
    strengths = np.zeros((len(centers), rank))
    counts = np.zeros(len(centers))
    bin_index = np.searchsorted(edges, times, side="right") - 1
    for i, b in enumerate(bin_index):
        if 0 <= b < len(centers):
            strengths[b] += weights[i]
            counts[b] += 1
    usable = counts > 0
    strengths[usable] /= counts[usable, None]

    baseline = float(np.quantile(prr[usable], baseline_quantile))
    deficit = np.clip(baseline - prr, 0.0, 1.0)

    costs, _residual = nnls(strengths[usable], deficit[usable])
    predicted = strengths[usable] @ costs
    actual = deficit[usable]
    ss_res = float(((actual - predicted) ** 2).sum())
    ss_tot = float(((actual - actual.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0

    mean_strengths = strengths[usable].mean(axis=0)
    impacts = [
        CauseImpact(
            cause_index=j,
            hazard=tool.labels[j].primary_hazard if not tool.labels[j].is_baseline else "(baseline)",
            cost=float(costs[j]),
            mean_strength=float(mean_strengths[j]),
        )
        for j in range(rank)
    ]
    impacts.sort(key=lambda imp: -(imp.cost * imp.mean_strength))
    return PerformanceModel(
        impacts=impacts,
        baseline_prr=baseline,
        r_squared=r_squared,
        bin_seconds=bin_seconds,
        _costs=costs,
    )
