"""Per-model diagnosis plan: the flagged-state path, compiled once.

Every exceptional state a streaming session flags is normalized, solved
against Ψ, reported, sparsified and turned into hazard observations.
All of that depends on the state, but much of the work around it —
shape and sign checks, ``ΨΨᵀ``, the normalizer's span, the label and
hazard lookups, the significance threshold — depends only on the model.
:class:`DiagnosisPlan` holds those model-only pieces as arrays, built
once per fitted model (lazily, by :attr:`VN2.plan
<repro.core.pipeline.VN2.plan>`, and dropped wherever the model is
refit), so each flagged state costs a handful of array operations.

Every floating-point operation of the per-call chain it replaced is
kept, on operands of the same shapes and layouts, so weights, residuals,
reports and observations are bitwise what that chain produced:

* :meth:`~DiagnosisPlan.normalize` is ``MinMaxNormalizer.transform``
  with the span precomputed;
* :meth:`~DiagnosisPlan.solve` is ``infer_weights_batch`` for one row:
  the same ``A.T @ B``, the same one-column pivoting loop
  (:func:`repro.core.inference._pivot_column`, which reaches
  ``_solve_passive_column`` through its module), the same clip and
  residual — only ``AtA`` is computed once instead of per call;
* :meth:`~DiagnosisPlan.report` ranks the significant causes with a
  stable descending argsort, the order ``sorted(..., reverse=True)``
  gives (built only where a caller hands the report out);
* :meth:`~DiagnosisPlan.sparsify` is one row of ``sparsify_inferred``,
  as a list, and :meth:`~DiagnosisPlan.observations` selects from that
  list the causes with a hazard and ``strength >= min_strength`` — one
  scalar pass from solved weights to observations, with no array in
  between.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core import inference
from repro.core.incidents import Observation
from repro.core.pipeline import DiagnosisReport, RankedCause

#: ``infer_weights_batch``'s pivoting cap and infeasibility tolerance.
_MAX_ITER = 100
_TOL = 1e-12


class DiagnosisPlan:
    """Model-only arrays behind every per-state diagnosis.

    Args:
        tool: A fitted :class:`~repro.core.pipeline.VN2`.

    Attributes:
        Psi: Ψ as a C-contiguous (r, m) array; ``A = Psi.T`` is the
            design matrix of the NNLS problem.
        AtA: ``A.T @ A``, the Gram matrix every solve shares.
        lo, span: The normalizer's offset and (floored) range.
        labels, families, hazards: Per-cause label, family and primary
            hazard (``None`` for baseline rows and rows with no hazard).
        min_weight_fraction: The report's significance cut.
    """

    __slots__ = (
        "Psi", "A", "AtA", "lo", "span", "labels", "families", "hazards",
        "min_weight_fraction",
    )

    def __init__(self, tool):
        tool._require_fitted()
        self.Psi = np.ascontiguousarray(tool.nmf_.Psi, dtype=float)
        self.A = self.Psi.T
        self.AtA = self.A.T @ self.A
        normalizer = tool.normalizer_
        self.lo = np.asarray(normalizer.lo, dtype=float)
        self.span = normalizer._span()
        self.labels = list(tool.labels_ or [])
        self.families = [label.family for label in self.labels]
        self.hazards = [
            None if label.is_baseline else label.primary_hazard
            for label in self.labels
        ]
        self.min_weight_fraction = tool.config.min_weight_fraction

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """One state's 43 signed deltas mapped into [0, 1] (clipped)."""
        return np.clip((values - self.lo) / self.span, 0.0, 1.0)

    def solve(
        self,
        normalized: np.ndarray,
        cache: Optional[inference.NNLSSolverCache] = None,
        metrics: Optional[inference.NNLSMetrics] = None,
    ) -> Tuple[np.ndarray, float]:
        """NNLS weights (length r) and residual of one normalized state.

        ``cache`` carries passive-set factors across calls; it never
        changes the result.
        """
        t0 = time.perf_counter()
        A = self.A
        B = normalized.reshape(1, -1).T  # (m, 1), strided like states.T
        AtB = A.T @ B
        X = inference._pivot_column(
            A, B, self.AtA, AtB, cache, _MAX_ITER, _TOL
        )
        X = np.maximum(X, 0.0)
        # np.linalg.norm(B - A @ X, axis=0) without its dispatch: the same
        # squares, reduced along the same axis.
        diff = B - A @ X
        residual = math.sqrt(np.add.reduce(diff * diff, axis=0)[0])
        if metrics is None:
            metrics = inference.default_nnls_metrics()
        metrics.record(1, time.perf_counter() - t0)
        return X.T[0], residual

    def report(
        self, weights: np.ndarray, residual: float, state_norm: float
    ) -> DiagnosisReport:
        """The operator-facing report of one solved state."""
        top = weights.max()
        if top <= 0:
            ranked: List[RankedCause] = []
        else:
            significant = np.flatnonzero(
                weights >= self.min_weight_fraction * top
            )
            strengths = weights[significant]
            order = np.argsort(-strengths, kind="stable")
            labels = self.labels
            ranked = [
                RankedCause(index=j, strength=s, label=labels[j])
                for j, s in zip(
                    significant[order].tolist(), strengths[order].tolist()
                )
            ]
        return DiagnosisReport(
            weights=weights,
            ranked=ranked,
            residual=float(residual),
            relative_residual=residual / state_norm if state_norm > 0 else 0.0,
        )

    @staticmethod
    def state_norm(normalized: np.ndarray) -> float:
        """‖s‖ of a normalized state (the report's relative-residual base)."""
        return math.sqrt(normalized.dot(normalized))

    @staticmethod
    def sparsify(weights: np.ndarray, retention: float) -> List[float]:
        """Algorithm 2 on one solved weight row, as a list.

        The row's ``_mass_mask`` in one scalar pass: NumPy's ``argsort``
        (it decides ties) and pairwise ``sum`` of ``|w|``, then the
        cumulative mass left to right, as ``np.cumsum`` adds it, until
        its fraction of the total is no longer below ``retention``
        (``searchsorted``'s rule).  ``weights`` come from :meth:`solve`,
        clipped at zero, and ``retention`` is checked by the caller.
        """
        values = weights.tolist()
        sparse = [0.0] * len(values)
        flat = np.abs(weights)
        total = float(flat.sum())
        if total <= 0:
            return sparse
        mass = flat.tolist()
        cumulative = 0.0
        for j in reversed(np.argsort(flat).tolist()):
            cumulative += mass[j]
            sparse[j] = values[j]
            if not cumulative / total < retention:
                break
        return sparse

    def observations(
        self,
        sparse: List[float],
        node_id: int,
        time_from: float,
        time_to: float,
        min_strength: float,
    ) -> List[Observation]:
        """Hazard observations of one sparsified state, in cause-index
        order: causes with a hazard and ``strength >= min_strength``."""
        return [
            Observation(node_id, time_from, time_to, j, hazard, strength)
            for j, (hazard, strength) in enumerate(zip(self.hazards, sparse))
            if hazard is not None and strength >= min_strength
        ]
