"""Sparsification of the correlation-strength matrix W (Algorithm 2).

Occam's razor, applied to diagnosis: each exception should be explained by
*few* root causes.  Algorithm 2 normalizes W, sorts its entries in
descending order, and keeps moving the largest entries into a sparse
matrix W̄ until W̄ retains 90 % of W's mass; everything else becomes zero.

The retained-mass criterion here uses the L1 norm (sum of magnitudes),
which makes "90 % of the information" exact and monotone under the
greedy element moves the algorithm performs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SparsifyResult:
    """Outcome of Algorithm 2.

    Attributes:
        W_sparse: W with the smallest entries zeroed.
        mask: Boolean array, True where entries were kept.
        kept_fraction: Fraction of entries kept.
        retained_mass: Fraction of L1 mass actually retained (>= target).
    """

    W_sparse: np.ndarray
    mask: np.ndarray
    kept_fraction: float
    retained_mass: float


def sparsify_weights(
    W: np.ndarray,
    retention: float = 0.9,
    row_normalize: bool = False,
) -> SparsifyResult:
    """Keep the largest entries of W covering ``retention`` of its L1 mass.

    Args:
        W: (n, r) non-negative correlation-strength matrix.
        retention: Target retained mass fraction (paper: 0.9).
        row_normalize: Measure mass per *row* instead of globally, so every
            exception keeps ~90 % of its own explanation mass.  The paper's
            "normalization W" step is ambiguous; global is the default and
            the row variant is exercised by the ablation bench.

    Returns:
        A :class:`SparsifyResult`; ``W_sparse`` has the same shape as W.
    """
    W = np.asarray(W, dtype=float)
    _check_weights(W, retention)

    if row_normalize:
        mask = _row_mass_mask(W, retention)
    else:
        mask = _mass_mask(W.ravel(), retention).reshape(W.shape)

    W_sparse = np.where(mask, W, 0.0)
    total = float(np.abs(W).sum())
    retained = float(np.abs(W_sparse).sum()) / total if total > 0 else 1.0
    return SparsifyResult(
        W_sparse=W_sparse,
        mask=mask,
        kept_fraction=float(mask.mean()) if mask.size else 1.0,
        retained_mass=retained,
    )


def check_retention(retention: float) -> None:
    """Reject a retention Algorithm 2 cannot take."""
    if not (0.0 < retention <= 1.0):
        raise ValueError(f"retention must be in (0, 1], got {retention}")


def _check_weights(W: np.ndarray, retention: float) -> None:
    """Reject a weight matrix or retention that Algorithm 2 cannot take."""
    if W.ndim != 2:
        raise ValueError(f"W must be 2-D, got shape {W.shape}")
    check_retention(retention)
    if np.any(W < 0):
        raise ValueError("W must be non-negative (it comes from NMF)")


def _row_mass_mask(W: np.ndarray, retention: float) -> np.ndarray:
    """Per-row :func:`_mass_mask` of a 2-D W."""
    mask = np.zeros(W.shape, dtype=bool)
    for i in range(W.shape[0]):
        mask[i] = _mass_mask(W[i], retention)
    return mask


def _mass_mask(values: np.ndarray, retention: float) -> np.ndarray:
    """Boolean mask keeping the largest values covering ``retention`` mass."""
    flat = np.abs(values.ravel())
    total = flat.sum()
    mask = np.zeros(flat.shape, dtype=bool)
    if total <= 0:
        return mask.reshape(values.shape)
    order = np.argsort(flat)[::-1]
    cumulative = np.cumsum(flat[order])
    # Number of entries needed to reach the target mass (at least one).
    # Compare the mass *fraction*: ``retention * total`` rounds badly when
    # the weights are subnormal, and would undershoot the target.
    needed = int(np.searchsorted(cumulative / total, retention) + 1)
    needed = min(needed, flat.size)
    mask[order[:needed]] = True
    return mask.reshape(values.shape)
