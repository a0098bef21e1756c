"""The per-call diagnosis chain, kept as the oracle of the diagnosis plan.

:class:`~repro.core.plan.DiagnosisPlan` compiles the model-only half of
diagnosing one flagged state.  The functions below are the chain it
replaced, verbatim: every call re-normalizes through the normalizer,
solves through :func:`~repro.core.inference.infer_weights_batch` (which
recomputes ``A.T @ A``), ranks causes with :func:`active_causes` and
``sorted``, sparsifies through :func:`sparsify_inferred` and walks the
labels one by one for observations.  :class:`OracleSession` runs a
streaming session on that chain, so the plan must match it bit for bit.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.incidents import Observation
from repro.core.inference import (
    active_causes,
    infer_weights_batch,
    sparsify_inferred,
)
from repro.core.pipeline import DiagnosisReport, RankedCause
from repro.core.streaming import StreamingDiagnosisSession


def build_report(tool, weights, residual, state_norm) -> DiagnosisReport:
    significant = active_causes(weights, tool.config.min_weight_fraction)
    ranked = sorted(
        (
            RankedCause(
                index=int(j),
                strength=float(weights[j]),
                label=tool.labels_[int(j)],
            )
            for j in significant
        ),
        key=lambda c: c.strength,
        reverse=True,
    )
    return DiagnosisReport(
        weights=weights,
        ranked=ranked,
        residual=float(residual),
        relative_residual=residual / state_norm if state_norm > 0 else 0.0,
    )


def diagnose(tool, state) -> DiagnosisReport:
    """``VN2.diagnose`` before the plan."""
    state = np.asarray(state, dtype=float).ravel()
    normalized = tool._normalize_states(state)
    if not np.all(np.isfinite(normalized)):
        raise ValueError("state must not contain NaN")
    weights, residuals = infer_weights_batch(tool.nmf_.Psi, normalized)
    return build_report(
        tool, weights[0], float(residuals[0]),
        float(np.linalg.norm(normalized[0])),
    )


def diagnose_batch(tool, values) -> List[DiagnosisReport]:
    """``VN2.diagnose_batch`` before the plan."""
    normalized = tool._normalize_states(np.atleast_2d(values))
    weights, residuals = infer_weights_batch(tool.nmf_.Psi, normalized)
    norms = np.linalg.norm(normalized, axis=1)
    return [
        build_report(tool, weights[i], float(residuals[i]), float(norms[i]))
        for i in range(normalized.shape[0])
    ]


def observation_weights(tool, values, retention: float = 0.9) -> np.ndarray:
    normalized = tool._normalize_states(np.asarray(values, dtype=float).ravel())
    weights, _residuals = infer_weights_batch(tool.nmf_.Psi, normalized)
    return sparsify_inferred(weights, retention=retention)[0]


def observations_for_state(
    tool,
    values,
    node_id,
    time_from,
    time_to,
    min_strength: float = 0.2,
    retention: float = 0.9,
    weights: Optional[np.ndarray] = None,
) -> List[Observation]:
    if weights is None:
        weights = observation_weights(tool, values, retention=retention)
    labels = tool.labels
    out: List[Observation] = []
    for j in np.flatnonzero(weights >= min_strength):
        label = labels[int(j)]
        if label.is_baseline or label.primary_hazard is None:
            continue
        out.append(
            Observation(
                node_id=int(node_id),
                time_from=float(time_from),
                time_to=float(time_to),
                cause_index=int(j),
                hazard=label.primary_hazard,
                strength=float(weights[int(j)]),
            )
        )
    return out


class OracleSession(StreamingDiagnosisSession):
    """A streaming session whose flagged states take the per-call chain.

    ``reports`` keeps the chain's own report of every diagnosed state, in
    order; ``_diagnose`` returns the session's ``(solution, observations,
    events)``, like the session it stands in for.  ``cached=False`` solves
    without the session's factor cache.
    """

    def __init__(self, *args, cached: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.reports: List[DiagnosisReport] = []
        self._solver_cache = self._solver_cache if cached else None

    def _diagnose(self, state):
        if self._reservoir is not None:
            self._reservoir.append(state)
        normalized = self.tool._normalize_states(state.values)
        weights, residuals = infer_weights_batch(
            self.tool.nmf_.Psi,
            normalized,
            solver_cache=self._solver_cache,
            metrics=self._m_nnls,
        )
        solution = (
            weights[0], float(residuals[0]),
            float(np.linalg.norm(normalized[0])),
        )
        report = build_report(self.tool, *solution)
        self.reports.append(report)
        self._drift.append(report.relative_residual)
        sparse = sparsify_inferred(weights, retention=self.retention)[0]
        observations = observations_for_state(
            self.tool,
            state.values,
            node_id=state.node_id,
            time_from=state.time_from,
            time_to=state.time_to,
            min_strength=self.min_strength,
            retention=self.retention,
            weights=sparse,
        )
        summary = self._node_summaries[state.node_id]
        if observations:
            top = max(observations, key=lambda o: o.strength)
            summary["hazard"] = top.hazard
            summary["strength"] = float(top.strength)
        if report.primary is not None:
            summary["family"] = report.primary.label.family
        events = [e for obs in observations for e in self.tracker.add(obs)]
        return solution, observations, events
