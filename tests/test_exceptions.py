"""Tests for exception detection (the paper's ε rule)."""

import numpy as np
import pytest

from repro.core.exceptions import detect_exceptions, deviation_scores
from repro.core.states import StateMatrix, StateProvenance
from repro.metrics.catalog import NUM_METRICS


def make_states(values):
    values = np.asarray(values, dtype=float)
    provenance = [
        StateProvenance(node_id=1, epoch_from=i, epoch_to=i + 1,
                        time_from=float(i), time_to=float(i + 1))
        for i in range(values.shape[0])
    ]
    return StateMatrix(values=values, provenance=provenance)


def embed(rows):
    """Place small row vectors into full 43-wide states."""
    out = np.zeros((len(rows), NUM_METRICS))
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def test_outlier_flagged():
    base = [[1.0, 1.0]] * 50
    states = make_states(embed(base + [[100.0, 1.0]]))
    result = detect_exceptions(states, threshold_ratio=0.1)
    assert 50 in result.indices


def test_normal_states_not_flagged():
    rng = np.random.default_rng(0)
    values = embed(rng.normal(1.0, 0.01, size=(100, 3)).tolist())
    values[7, 0] = 50.0  # one clear outlier
    states = make_states(values)
    result = detect_exceptions(states, threshold_ratio=0.1)
    assert result.exception_fraction < 0.2
    assert 7 in result.indices


def test_epsilon_computed_for_every_state():
    states = make_states(embed([[1.0], [2.0], [3.0]]))
    result = detect_exceptions(states)
    assert len(result.epsilon) == 3


def test_deviation_uses_per_metric_scale():
    # metric 0 varies by thousands, metric 1 by hundredths; an outlier in
    # metric 1 must still be detected
    rng = np.random.default_rng(1)
    values = embed(
        np.column_stack(
            [rng.normal(0, 1000.0, 60), rng.normal(0, 0.01, 60)]
        ).tolist()
    )
    values[10, 1] = 1.0  # 100 sigma in metric 1
    scores = deviation_scores(values)
    assert scores[10] > np.median(scores) * 10


def test_min_exceptions_fallback():
    states = make_states(embed([[1.0], [1.0], [1.0], [1.0]]))
    result = detect_exceptions(states, min_exceptions=2)
    assert len(result) == 2


def test_threshold_ratio_effect():
    rng = np.random.default_rng(2)
    values = embed(rng.normal(0, 1, size=(200, 4)).tolist())
    values[0] *= 50
    states = make_states(values)
    strict = detect_exceptions(states, threshold_ratio=0.5)
    loose = detect_exceptions(states, threshold_ratio=0.001)
    assert len(strict) <= len(loose)


def test_empty_states():
    states = make_states(np.zeros((0, NUM_METRICS)))
    result = detect_exceptions(states)
    assert len(result) == 0
    assert result.exception_fraction == 0.0


def test_exception_set_preserves_provenance():
    base = [[1.0, 1.0]] * 20
    states = make_states(embed(base + [[50.0, 1.0]]))
    result = detect_exceptions(states, threshold_ratio=0.5)
    flagged_epochs = [p.epoch_from for p in result.states.provenance]
    assert 20 in flagged_epochs


# ---------------------------------------------------------------------------
# The batch rule, written out: detect_exceptions must match it bit for bit.
# ---------------------------------------------------------------------------


def _written_epsilon(values):
    """ε_u: squared z-scores against the column means, constant columns
    given spread 1.0."""
    if len(values) == 0:
        return np.zeros(0)
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std[std < 1e-12] = 1.0
    z = (values - mean) / std
    return (z * z).sum(axis=1)


def _written_cut(epsilon, threshold, min_exceptions):
    """Rows with ε/max(ε) >= threshold; below ``min_exceptions`` rows, the
    ``min_exceptions`` largest ε instead (the later row first on ties)."""
    n = len(epsilon)
    top = max(epsilon.tolist(), default=0.0)
    picked = [
        i for i in range(n) if top > 0.0 and epsilon[i] / top >= threshold
    ]
    if len(picked) < min_exceptions:
        by_size = sorted(range(n), key=lambda i: (epsilon[i], i), reverse=True)
        picked = sorted(by_size[:min_exceptions])
    return np.array(picked, dtype=np.intp)


def _assert_rule(values, threshold, min_exceptions, epsilon=None):
    states = make_states(values)
    result = detect_exceptions(
        states, threshold_ratio=threshold, min_exceptions=min_exceptions,
        epsilon=epsilon,
    )
    expected_eps = _written_epsilon(values) if epsilon is None else epsilon
    expected = _written_cut(expected_eps, threshold, min_exceptions)
    assert result.epsilon.tobytes() == expected_eps.tobytes()
    assert np.array_equal(result.indices, expected)
    assert result.states.values.tobytes() == values[expected].tobytes()
    assert np.array_equal(result.states.epochs_from, expected)
    assert result.threshold_ratio == threshold
    return result


@pytest.mark.parametrize("seed", range(6))
def test_detect_exceptions_matches_the_written_rule(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 300))
    values = embed(rng.normal(0, 1, size=(n, 5)).tolist())
    values[rng.integers(0, n, size=3)] *= rng.uniform(2, 40)
    threshold = float(rng.choice([0.001, 0.01, 0.1, 0.5]))
    min_exceptions = int(rng.integers(0, 6))
    computed = _assert_rule(values, threshold, min_exceptions)
    # ε handed over (as a fit does) gives the same set, bit for bit.
    passed = _assert_rule(
        values, threshold, min_exceptions, epsilon=deviation_scores(values)
    )
    assert np.array_equal(passed.indices, computed.indices)
    assert passed.epsilon.tobytes() == computed.epsilon.tobytes()


def test_written_rule_ties_at_the_cut_are_exceptions():
    # Duplicate rows share one ε; the cut lands exactly on a tied ratio.
    values = embed([[0.0, 0.0]] * 6 + [[3.0, 0.0]] * 2 + [[6.0, 0.0]])
    epsilon = _written_epsilon(values)
    threshold = float(epsilon[6] / epsilon.max())
    result = _assert_rule(values, threshold, 2)
    assert result.indices.tolist() == [6, 7, 8]
    # The same tie through a passed ε: 0.5 of the max is kept at 0.5.
    passed = np.array([1.0, 0.5, 0.5, 0.25, 0.0])
    tied = _assert_rule(embed([[i] for i in range(5)]), 0.5, 0, passed)
    assert tied.indices.tolist() == [0, 1, 2]


def test_written_rule_floor_on_all_equal_rows():
    values = embed([[2.0, -1.0]] * 7)
    result = _assert_rule(values, 0.01, 3)
    assert not result.epsilon.any()  # max ε = 0: only the floor picks
    assert result.indices.tolist() == [4, 5, 6]


def test_written_rule_fewer_states_than_the_floor():
    result = _assert_rule(embed([[1.0], [5.0], [2.0]]), 0.99, 5)
    assert result.indices.tolist() == [0, 1, 2]


def test_written_rule_on_an_empty_matrix():
    result = _assert_rule(np.zeros((0, NUM_METRICS)), 0.01, 2)
    assert len(result) == 0 and result.epsilon.size == 0


@pytest.mark.parametrize("filter_exceptions", [True, False])
def test_fit_and_refit_keep_the_screen_statistics_of_their_states(
    testbed_trace, filter_exceptions
):
    """``fit_states`` and ``incremental_refit`` hold the same mean, floored
    spread, max ε and ε as the rule over the training (or combined) states."""
    from repro.core.lifecycle import incremental_refit
    from repro.core.pipeline import VN2, VN2Config
    from repro.core.states import build_states

    states = build_states(testbed_trace)
    cut = len(states) * 2 // 3
    old = states.select(range(cut))
    new = states.select(range(cut, len(states)))
    tool = VN2(VN2Config(
        rank=6, nmf_iterations=20, filter_exceptions=filter_exceptions
    ))

    def check(expected):
        values = expected.values
        epsilon = deviation_scores(values)
        std = values.std(axis=0)
        std[std < 1e-12] = 1.0
        assert tool._train_mean.tobytes() == values.mean(axis=0).tobytes()
        assert tool._train_std.tobytes() == std.tobytes()
        assert tool._train_max_eps == float(epsilon.max())
        if filter_exceptions:
            assert tool.exceptions_.epsilon.tobytes() == epsilon.tobytes()
        else:
            assert tool.exceptions_ is None

    tool.fit_states(old)
    check(old)
    incremental_refit(tool, new, warm_iterations=5)
    for column in ("values", "node_ids", "epochs_from", "epochs_to",
                   "times_from", "times_to"):
        merged = getattr(tool.states_, column)
        assert merged.tobytes() == getattr(states, column).tobytes(), column
    check(states)
