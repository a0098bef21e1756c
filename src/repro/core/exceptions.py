"""Exception detection: which states feed the NMF.

Most of a healthy network's states are boring; feeding them all to NMF
makes normal behaviour "conceal representability of network exceptions"
(paper, Section IV-B).  The paper's rule: compute each metric's mean,
measure every state's deviation ``ε_u`` from the mean, and flag the state
as an exception when ``ε_u / max(ε) >= 0.01``.

Deviation here is the squared z-score sum (deviation from the mean in
units of each metric's own spread) — without per-metric scaling, a large-
magnitude metric such as ``light`` would drown out every counter.

:func:`deviation_stats` holds the formula once: the training mean, the
floored spread and every state's ``ε``.  A fit keeps the first two (and
``max(ε)``) to score states that arrive after training, and hands ``ε``
to :func:`detect_exceptions`, which applies the batch cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.states import StateMatrix, build_states


@dataclass
class ExceptionSet:
    """The detected exception states.

    Attributes:
        states: The exception rows (a view-like :class:`StateMatrix`).
        indices: Row indices into the original state matrix.
        epsilon: Deviation score of every original state (not just
            exceptions), for plotting Fig 3(a)-style series.
        threshold_ratio: The ``ε/max(ε)`` cutoff used.
    """

    states: StateMatrix
    indices: np.ndarray
    epsilon: np.ndarray
    threshold_ratio: float

    def __len__(self) -> int:
        return len(self.states)

    @property
    def exception_fraction(self) -> float:
        """Share of all states flagged as exceptions."""
        if self.epsilon.size == 0:
            return 0.0
        return len(self.states) / self.epsilon.size


def deviation_stats(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-metric mean, per-metric spread and per-state deviation ``ε_u``.

    The spread is the standard deviation with constant metrics floored to
    1.0; ``ε_u`` is the sum of squared z-scores against the mean.
    ``values`` must hold at least one row.
    """
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (values - mean) / std
    return mean, std, (z * z).sum(axis=1)


def deviation_scores(values: np.ndarray) -> np.ndarray:
    """Per-state deviation ``ε_u``: sum of squared z-scores vs column means."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D state matrix")
    if values.shape[0] == 0:
        return np.zeros(0)
    return deviation_stats(values)[2]


def detect_exceptions(
    states,
    threshold_ratio: float = 0.01,
    min_exceptions: int = 2,
    epsilon: Optional[np.ndarray] = None,
) -> ExceptionSet:
    """Flag exception states by the paper's ``ε/max(ε)`` rule.

    Args:
        states: All network states — a :class:`StateMatrix`, or a
            :class:`~repro.traces.frame.TraceFrame` that is differenced
            with :func:`repro.core.states.build_states` first.
        threshold_ratio: A state is an exception when its deviation is at
            least this fraction of the maximum deviation (paper: 0.01).
        min_exceptions: If the rule selects fewer rows than this, the
            top-``min_exceptions`` states by deviation are taken instead,
            the later state first among equal deviations (degenerate
            traces otherwise produce an empty training set).
        epsilon: Pre-computed :func:`deviation_scores` of ``states`` (a
            fit computes them once with its training statistics and
            passes them here to avoid a second pass).
    """
    if not isinstance(states, StateMatrix):
        states = build_states(states)
    if epsilon is None:
        epsilon = deviation_scores(states.values)
    epsilon = np.asarray(epsilon, dtype=float)
    max_eps = float(epsilon.max()) if epsilon.size else 0.0
    if max_eps > 0.0:
        indices = np.flatnonzero(epsilon / max_eps >= threshold_ratio)
    else:
        indices = np.zeros(0, dtype=int)
    if len(indices) < min_exceptions:
        top = np.argsort(epsilon, kind="stable")[::-1][:min_exceptions]
        indices = np.sort(top)
    return ExceptionSet(
        states=states.select(indices.tolist()),
        indices=indices,
        epsilon=epsilon,
        threshold_ratio=threshold_ratio,
    )
