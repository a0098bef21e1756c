"""Seed robustness: headline claims hold across simulation seeds.

These run extra full testbed simulations (~20 s each), so they live in
their own module; the properties checked are the ones EXPERIMENTS.md
declares robust (not the seed-dependent ordering claims).
"""

import pytest

from repro.analysis.testbed_experiments import exp_fig5hi
from repro.traces.testbed import TestbedScenario, generate_testbed_frame


@pytest.mark.parametrize("seed", [21, 33])
def test_train_test_transfer_across_seeds(seed):
    trace = generate_testbed_frame(TestbedScenario.EXPANSIVE, seed=seed)
    result = exp_fig5hi(TestbedScenario.EXPANSIVE, seed=seed, trace=trace)
    assert result.profile_correlation > 0.9


def test_baseline_comparison_across_seed():
    from repro.analysis.baseline_comparison import (
        build_multicause_frame,
        exp_baselines,
    )

    trace = build_multicause_frame(seed=35)
    result = exp_baselines(trace)
    vn2 = result.score_of("VN2")
    sympathy = result.score_of("Sympathy")
    assert vn2.attribution_recall > sympathy.attribution_recall
