"""The NNLS factor cache: same answers, bounded memory.

Every streaming session owns an
:class:`~repro.core.inference.NNLSSolverCache` that carries passive-set
Cholesky factors from solve to solve.  The contract pinned here:

* A cached solve is **bit-identical** to an uncached
  :func:`~repro.core.inference.infer_weights_batch` of the same state
  (weights and residual), and on a stream against one model the cache
  does the work (hits dominate misses).
* Model rotation drops the cached factors.
* Rank-deficient patterns take ``lstsq``, cached and uncached alike.
* Past ``max_patterns`` the cache resets instead of growing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.inference import NNLSSolverCache, infer_weights_batch
from repro.core.streaming import StreamingDiagnosisSession, iter_packets
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def testbed_packets(testbed_trace):
    return list(iter_packets(testbed_trace))


def _replay(tool, packets):
    session = StreamingDiagnosisSession(
        tool, registry=MetricsRegistry(enabled=False)
    )
    updates = [
        u for p in packets if (u := session.push_packet(*p)) is not None
    ]
    return session, updates


def test_factor_cache_is_bit_transparent(testbed_tool, testbed_packets):
    """Cached factorizations change latency only, never solved values.

    Every diagnosed state of a session replay must carry exactly the
    weights and residual an uncached ``infer_weights_batch`` computes
    for it, and on a stream against one model the cache must actually be
    doing the work (hits dominate misses).
    """
    session, updates = _replay(testbed_tool, testbed_packets)
    diagnosed = [u for u in updates if u.report is not None]
    assert diagnosed, "replay diagnosed no state"
    for update in diagnosed:
        normalized = testbed_tool._normalize_states(update.state.values)
        weights, residuals = infer_weights_batch(
            testbed_tool.nmf_.Psi, normalized
        )
        assert np.array_equal(update.report.weights, weights[0])
        assert update.report.residual == float(residuals[0])
    cache = session._solver_cache
    assert len(cache) > 0
    assert cache.hits > cache.misses


def test_factor_cache_cleared_on_rotation(testbed_tool, testbed_packets):
    """set_model must drop cached factors — they belong to the old Ψ."""
    session, _ = _replay(testbed_tool, testbed_packets)
    assert len(session._solver_cache) > 0
    session.set_model(testbed_tool)
    assert len(session._solver_cache) == 0
    assert session._solver_cache.hits > 0  # counters survive as history


def test_factor_cache_rank_deficient_fallback():
    """Duplicate Ψ rows make a pattern's Gram singular: the solver must
    fall back to lstsq, cached and uncached alike, and still match
    scipy's reference NNLS."""
    from scipy.optimize import nnls

    rng = np.random.default_rng(11)
    base = rng.random((3, 6))
    Psi = np.vstack([base, base[1]])  # row 3 duplicates row 1
    states = rng.random((5, 6))
    cache = NNLSSolverCache(registry=MetricsRegistry(enabled=False))
    cold, cold_res = infer_weights_batch(Psi, states)
    for _ in range(2):  # second pass exercises cache hits
        cached, cached_res = infer_weights_batch(
            Psi, states, solver_cache=cache
        )
        assert np.array_equal(cached, cold)
        assert np.array_equal(cached_res, cold_res)
    for i in range(len(states)):
        expected, _ = nnls(Psi.T, states[i])
        np.testing.assert_allclose(
            Psi.T @ cold[i], Psi.T @ expected, atol=1e-8
        )


def test_factor_cache_bounded():
    """Past max_patterns the cache resets rather than growing without
    bound (and keeps solving correctly afterwards)."""
    rng = np.random.default_rng(12)
    Psi = rng.random((4, 9))
    cache = NNLSSolverCache(
        max_patterns=2, registry=MetricsRegistry(enabled=False)
    )
    states = rng.random((40, 9))
    for i in range(len(states)):
        # Per-state both sides: batch composition shifts low bits (see
        # incidents.py), the cache must not.
        expected, _ = infer_weights_batch(Psi, states[i])
        got, _ = infer_weights_batch(
            Psi, states[i], solver_cache=cache
        )
        assert np.array_equal(got[0], expected[0])
    assert len(cache) <= 2
    with pytest.raises(ValueError):
        NNLSSolverCache(max_patterns=0)
