"""Tests for ground-truth diagnosis scoring."""

import numpy as np
import pytest

from repro.analysis.evaluation import (
    HAZARD_TO_FAULTS,
    EvaluationResult,
    KindScore,
    evaluate_diagnoses,
    threshold_sweep,
    truth_kinds_for_state,
)
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import StateProvenance
from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import GroundTruth, TraceFrame


def empty_frame(**kwargs):
    return TraceFrame(node_ids=[], epochs=[], generated_at=[], received_at=[],
                      values=np.zeros((0, NUM_METRICS)), **kwargs)


@pytest.fixture(scope="module")
def fitted(multicause_trace):
    return VN2(VN2Config(rank=12)).fit(multicause_trace)


def test_kind_score_arithmetic():
    score = KindScore("loop", true_positives=3, false_positives=1,
                      false_negatives=2)
    assert score.precision == pytest.approx(0.75)
    assert score.recall == pytest.approx(0.6)
    assert score.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)
    assert score.support == 5


def test_kind_score_degenerate():
    score = KindScore("x", 0, 0, 0)
    assert score.precision == 0.0
    assert score.recall == 0.0
    assert score.f1 == 0.0


def test_truth_kinds_window_and_node_scoping():
    trace = empty_frame(ground_truth=[
        GroundTruth("routing_loop", (5, 6), 100.0, 200.0),
        GroundTruth("interference", (7,), 100.0, 200.0),
    ])
    inside = StateProvenance(5, 0, 1, 150.0, 160.0)
    outside_time = StateProvenance(5, 0, 1, 300.0, 310.0)
    other_node = StateProvenance(9, 0, 1, 150.0, 160.0)
    assert truth_kinds_for_state(inside, trace) == {"routing_loop"}
    assert truth_kinds_for_state(outside_time, trace) == set()
    assert truth_kinds_for_state(other_node, trace) == set()


def test_hazard_mapping_covers_all_catalog_hazards():
    from repro.metrics.catalog import HAZARDS

    mappable = set(HAZARD_TO_FAULTS)
    catalog = {h.name for h in HAZARDS}
    # every mapped hazard exists in the catalog (or is a synthetic alias)
    assert mappable - catalog <= set()


def test_evaluation_on_multicause_trace(fitted, multicause_trace):
    result = evaluate_diagnoses(fitted, multicause_trace, min_strength=0.2)
    assert result.n_states_scored > 10
    kinds = {s.kind for s in result.per_kind}
    assert "routing_loop" in kinds or "interference" in kinds
    assert 0.0 <= result.micro_precision <= 1.0
    assert result.micro_recall > 0.3  # faults are actually recovered
    assert "micro:" in result.to_text()


def test_threshold_sweep_tradeoff(fitted, multicause_trace):
    points = threshold_sweep(fitted, multicause_trace,
                             thresholds=(0.05, 0.3, 0.6))
    thresholds = [t for t, _p, _r in points]
    recalls = [r for _t, _p, r in points]
    assert thresholds == sorted(thresholds)
    # recall falls (or stays) as the threshold rises
    assert recalls[0] >= recalls[-1]


def test_empty_trace_rejected(fitted):
    with pytest.raises(ValueError):
        evaluate_diagnoses(fitted, empty_frame())
