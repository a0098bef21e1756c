"""Edge cases of the diagnosis path."""

import numpy as np
import pytest

from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states
from repro.metrics.catalog import NUM_METRICS


def test_zero_state_diagnoses_quietly(testbed_tool):
    """A zero delta (nothing changed at all) is reconstructed weakly and
    never crashes; the residual accounting stays consistent."""
    report = testbed_tool.diagnose(np.zeros(NUM_METRICS))
    assert np.all(report.weights >= 0)
    assert report.residual >= 0
    assert 0.0 <= report.relative_residual <= 1.5
    assert isinstance(report.summary(), str)


def test_extreme_state_is_clipped_not_explosive(testbed_tool):
    state = np.full(NUM_METRICS, 1e9)
    report = testbed_tool.diagnose(state)
    assert np.all(np.isfinite(report.weights))
    assert np.isfinite(report.residual)


def test_exception_score_monotone_in_deviation(testbed_tool, testbed_trace):
    states = build_states(testbed_trace)
    base = states.values.mean(axis=0)
    small = testbed_tool.exception_score(base)
    large = testbed_tool.exception_score(base + 50 * states.values.std(axis=0))
    assert large > small


def test_exception_score_survives_save_load(tmp_path, testbed_tool):
    path = tmp_path / "model"
    testbed_tool.save(path)
    loaded = VN2.load(path)
    state = np.zeros(NUM_METRICS)
    assert loaded.exception_score(state) == testbed_tool.exception_score(state)


def _strip_training_stats(tool, path):
    """Save ``tool`` the way versions before training statistics did."""
    tool.save(path)
    with np.load(path.with_suffix(".npz")) as arrays:
        stripped = {
            k: arrays[k] for k in arrays.files if not k.startswith("train_")
        }
    np.savez_compressed(path.with_suffix(".npz"), **stripped)


def test_exception_score_requires_training_stats(tmp_path, testbed_tool):
    """A save without training statistics cannot screen states, so it is
    refused at load, naming the file and the fix."""
    path = tmp_path / "model"
    _strip_training_stats(testbed_tool, path)
    with pytest.raises(ValueError, match="vn2 train") as refused:
        VN2.load(path)
    assert str(path) in str(refused.value)
    assert "train_mean" in str(refused.value)


def test_model_info_refuses_stat_less_save(tmp_path, testbed_tool, capsys):
    from repro.cli import main

    path = tmp_path / "model"
    _strip_training_stats(testbed_tool, path)
    assert main(["model", "info", str(path)]) != 0
    err = capsys.readouterr().err
    assert "no training statistics" in err and "vn2 train" in err


def test_unfitted_model_cannot_score():
    with pytest.raises(RuntimeError, match="not fitted"):
        VN2().exception_score(np.zeros(NUM_METRICS))


def test_exception_score_is_the_vectorized_score(testbed_tool, testbed_trace):
    """``exception_score`` is one row of ``_exception_scores``, bit for
    bit, on every testbed state."""
    values = build_states(testbed_trace).values
    scores = testbed_tool._exception_scores(values)
    assert len(scores) == len(values) > 100
    for row, score in zip(values, scores.tolist()):
        got = testbed_tool.exception_score(row)
        assert np.float64(got).tobytes() == np.float64(score).tobytes()


def test_is_exception_uses_config_threshold(testbed_tool, testbed_trace):
    states = build_states(testbed_trace)
    # the most deviant training state is always an exception
    scores = [
        testbed_tool.exception_score(states.values[i])
        for i in range(0, len(states), 25)
    ]
    top = int(np.argmax(scores)) * 25
    assert testbed_tool.is_exception(states.values[top])


def test_diagnose_exceptions_screens_states(testbed_tool, testbed_trace):
    states = build_states(testbed_trace)
    sample = states.select(range(0, len(states), 4))
    results = testbed_tool.diagnose_exceptions(sample, threshold_ratio=0.02)
    # only a minority of states are exceptional
    assert 0 < len(results) < len(sample)
    for provenance, report in results:
        assert testbed_tool.is_exception(
            sample.values[[p is provenance for p in sample.provenance].index(True)],
            0.02,
        )
        assert report.weights.shape == (testbed_tool.rank_,)


def test_diagnose_report_ranked_sorted_and_significant(testbed_tool, testbed_trace):
    states = build_states(testbed_trace)
    report = testbed_tool.diagnose(states.values[50])
    if report.ranked:
        strengths = [c.strength for c in report.ranked]
        assert strengths == sorted(strengths, reverse=True)
        floor = testbed_tool.config.min_weight_fraction * max(report.weights)
        assert all(c.strength >= floor - 1e-12 for c in report.ranked)
