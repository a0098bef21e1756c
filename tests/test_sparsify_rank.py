"""Tests for Algorithm 2 (sparsification) and rank selection, w/ hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.nmf import nmf
from repro.core.rank_selection import RankPoint, RankSweepResult, choose_rank, rank_sweep
from repro.core.sparsify import sparsify_weights


def weight_matrices():
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, 15), st.integers(1, 8)),
        elements=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False,
                           width=64),
    )


@given(weight_matrices(), st.floats(0.1, 1.0))
@settings(max_examples=60, deadline=None)
def test_retention_invariant(W, retention):
    result = sparsify_weights(W, retention=retention)
    total = np.abs(W).sum()
    if total > 0:
        assert result.retained_mass >= retention - 1e-9
    # zeroed entries only; kept entries unchanged
    assert np.all((result.W_sparse == W) | (result.W_sparse == 0.0))
    assert result.W_sparse.shape == W.shape


def test_retention_invariant_subnormal_weights():
    # retention * total rounds down in subnormal arithmetic; the mask must
    # still reach the target fraction.
    W = np.full((1, 5), 5e-324)
    result = sparsify_weights(W, retention=0.5)
    assert result.retained_mass >= 0.5
    assert int(result.mask.sum()) == 3


@given(weight_matrices())
@settings(max_examples=30, deadline=None)
def test_greedy_keeps_largest(W):
    result = sparsify_weights(W, retention=0.5)
    if result.mask.all() or not result.mask.any():
        return
    kept_min = W[result.mask].min()
    dropped_max = W[~result.mask].max()
    assert kept_min >= dropped_max - 1e-12


@given(weight_matrices())
@settings(max_examples=30, deadline=None)
def test_row_normalized_covers_each_row(W):
    result = sparsify_weights(W, retention=0.9, row_normalize=True)
    for i in range(W.shape[0]):
        row_total = np.abs(W[i]).sum()
        if row_total > 0:
            kept = np.abs(result.W_sparse[i]).sum()
            assert kept >= 0.9 * row_total - 1e-9


def test_retention_one_keeps_everything():
    W = np.random.default_rng(0).uniform(0, 1, size=(5, 4))
    result = sparsify_weights(W, retention=1.0)
    assert np.allclose(result.W_sparse, W)
    assert result.kept_fraction == 1.0


def test_lower_retention_keeps_fewer():
    W = np.random.default_rng(0).uniform(0, 1, size=(20, 10))
    half = sparsify_weights(W, retention=0.5).kept_fraction
    most = sparsify_weights(W, retention=0.95).kept_fraction
    assert half < most


def test_sparsify_validation():
    with pytest.raises(ValueError):
        sparsify_weights(np.ones((2, 2)), retention=0.0)
    with pytest.raises(ValueError):
        sparsify_weights(np.array([[-1.0, 1.0]]))
    with pytest.raises(ValueError):
        sparsify_weights(np.ones(3))


def test_all_zero_matrix():
    result = sparsify_weights(np.zeros((3, 3)))
    assert result.retained_mass == 1.0
    assert not result.mask.any()


# ---------------------------------------------------------------------
# rank selection
# ---------------------------------------------------------------------


def test_rank_sweep_curves():
    rng = np.random.default_rng(0)
    W_true = rng.uniform(0, 1, size=(60, 5))
    V = W_true @ rng.uniform(0, 1, size=(5, 20)) + rng.uniform(0, 0.05, (60, 20))
    sweep = rank_sweep(V, ranks=[2, 4, 6, 8, 10], n_iter=150)
    ranks, dense, sparse = sweep.as_arrays()
    # dense accuracy improves (error falls) with rank
    assert dense[0] > dense[-1]
    # sparse curve sits above dense everywhere
    assert np.all(sparse >= dense - 1e-9)


def test_rank_sweep_skips_invalid_ranks():
    V = np.random.default_rng(0).uniform(0, 1, size=(6, 5))
    sweep = rank_sweep(V, ranks=[2, 50], n_iter=20)
    assert sweep.ranks == [2]


def test_rank_sweep_all_invalid_raises():
    V = np.random.default_rng(0).uniform(0, 1, size=(4, 4))
    with pytest.raises(ValueError):
        rank_sweep(V, ranks=[10, 20])


def test_choose_rank_finds_elbow():
    # construct a sweep with an obvious elbow at r=10
    points = []
    for r, err in [(5, 10.0), (10, 3.0), (15, 2.6), (20, 2.3), (25, 2.1)]:
        points.append(RankPoint(r=r, accuracy_original=err,
                                accuracy_sparse=err + 0.4, n_iter=10))
    sweep = RankSweepResult(points=points, data_norm=20.0)
    assert choose_rank(sweep) == 10


def test_choose_rank_single_point():
    sweep = RankSweepResult(
        points=[RankPoint(r=7, accuracy_original=1.0, accuracy_sparse=1.1,
                          n_iter=5)],
        data_norm=5.0,
    )
    assert choose_rank(sweep) == 7


def test_choose_rank_prefers_smaller_when_gap_blows_up():
    # elbow-ish at 10, but the sparse gap explodes after it
    points = [
        RankPoint(r=5, accuracy_original=6.0, accuracy_sparse=6.3, n_iter=1),
        RankPoint(r=10, accuracy_original=3.0, accuracy_sparse=5.5, n_iter=1),
        RankPoint(r=15, accuracy_original=2.8, accuracy_sparse=6.0, n_iter=1),
    ]
    sweep = RankSweepResult(points=points, data_norm=10.0)
    chosen = choose_rank(sweep)
    assert chosen in (5, 10)
