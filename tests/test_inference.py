"""Tests for NNLS inference (Problem 3), with hypothesis optimality checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import nnls

from repro.core.inference import (
    active_causes,
    infer_weights_batch,
    sparsify_inferred,
)


def infer_one(Psi, state):
    """One state through the batch solver: ``(w, residual)``."""
    W, residuals = infer_weights_batch(Psi, state)
    return W[0], float(residuals[0])


def psi_matrices():
    # values are either exactly zero or of sane magnitude: NNLS on
    # subnormal-valued matrices (1e-313) is numerically meaningless
    elements = st.floats(
        0.0, 5.0, allow_nan=False, allow_infinity=False, width=64
    ).map(lambda x: 0.0 if x < 1e-6 else x)
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(2, 6), st.integers(4, 10)),
        elements=elements,
    )


@given(psi_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_nnls_weights_nonnegative_and_optimalish(Psi, seed):
    rng = np.random.default_rng(seed)
    state = rng.uniform(0, 5, size=Psi.shape[1])
    weights, residual = infer_one(Psi, state)
    assert np.all(weights >= 0)
    assert residual == pytest.approx(
        np.linalg.norm(state - weights @ Psi), abs=1e-8
    )
    # optimality: random non-negative perturbations never do better
    for _ in range(5):
        other = np.maximum(weights + rng.normal(0, 0.1, size=len(weights)), 0)
        assert np.linalg.norm(state - other @ Psi) >= residual - 1e-8


def test_exact_recovery_of_planted_weights():
    rng = np.random.default_rng(0)
    Psi = rng.uniform(0, 1, size=(4, 20))
    w_true = np.array([0.0, 2.0, 0.5, 0.0])
    state = w_true @ Psi
    weights, residual = infer_one(Psi, state)
    assert residual < 1e-8
    assert np.allclose(weights, w_true, atol=1e-6)


def test_zero_state_zero_weights():
    Psi = np.random.default_rng(0).uniform(0, 1, size=(3, 8))
    weights, residual = infer_one(Psi, np.zeros(8))
    assert np.allclose(weights, 0.0)
    assert residual == pytest.approx(0.0)


def test_batch_matches_single():
    rng = np.random.default_rng(1)
    Psi = rng.uniform(0, 1, size=(3, 10))
    states = rng.uniform(0, 1, size=(5, 10))
    W, residuals = infer_weights_batch(Psi, states)
    for i in range(5):
        w, r = nnls(Psi.T, states[i])
        assert np.allclose(W[i], w)
        assert residuals[i] == pytest.approx(r)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        infer_weights_batch(np.ones((2, 5)), np.ones(4))


def test_active_causes_threshold():
    weights = np.array([1.0, 0.05, 0.5, 0.0])
    assert list(active_causes(weights, min_fraction=0.1)) == [0, 2]


def test_active_causes_empty_weights():
    assert len(active_causes(np.zeros(4))) == 0
    assert len(active_causes(np.array([]))) == 0


def test_sparsify_inferred_keeps_row_mass():
    rng = np.random.default_rng(2)
    W = rng.uniform(0, 1, size=(6, 8))
    sparse = sparsify_inferred(W, retention=0.8)
    for i in range(6):
        assert sparse[i].sum() >= 0.8 * W[i].sum() - 1e-9
    assert (sparse > 0).sum() < W.size
