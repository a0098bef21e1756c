"""Warm-started per-packet NNLS: same answers, bounded memory.

The warm start seeds each node's solve from its previous solution's
passive set — a convergence-speed lever that must never change the
solution.  The contract pinned here:

* A streaming session with the warm start on is **bit-identical** to one
  with it off (events, reports, weights — everything).
* The cache is bounded: LRU past ``max_nodes``, staleness past
  ``max_age_epochs``, both counted in
  ``repro_warmstart_evictions_total``.
* A node absent for more than ``max_age_epochs`` of its own epochs gets
  a cold solve — identical to today's (cold-path) output, checked by
  running a whole session at ``warm_max_age=1`` so nearly every solve
  takes the fallback.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import (
    StreamingDiagnosisSession,
    WarmStartCache,
    iter_packets,
)
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def testbed_packets(testbed_trace):
    return list(iter_packets(testbed_trace))


def _replay(tool, packets, **session_kwargs):
    session = StreamingDiagnosisSession(
        tool, registry=MetricsRegistry(enabled=False), **session_kwargs
    )
    updates = [
        u for p in packets if (u := session.push_packet(*p)) is not None
    ]
    events = [e for u in updates for e in u.events] + session.finish()
    return session, updates, events


def _assert_identical_replays(ref, out):
    _, ref_updates, ref_events = ref
    _, out_updates, out_events = out
    assert len(out_updates) == len(ref_updates)
    for a, b in zip(ref_updates, out_updates):
        assert a.is_exception == b.is_exception
        assert a.score == b.score
        if a.report is None:
            assert b.report is None
        else:
            assert np.array_equal(a.report.weights, b.report.weights)
            assert a.report.relative_residual == b.report.relative_residual
    assert out_events == ref_events


def test_warm_start_is_bit_identical_to_cold(testbed_tool, testbed_packets):
    cold = _replay(testbed_tool, testbed_packets, warm_start=False)
    warm = _replay(testbed_tool, testbed_packets, warm_start=True)
    assert cold[1], "replay produced no updates"
    _assert_identical_replays(cold, warm)


def test_stale_nodes_fall_back_to_cold_identically(
    testbed_tool, testbed_packets
):
    """max_age=1 forces the staleness fallback constantly — output must
    still match today's cold path bit for bit."""
    cold = _replay(testbed_tool, testbed_packets, warm_start=False)
    stale = _replay(
        testbed_tool, testbed_packets, warm_start=True, warm_max_age=1
    )
    _assert_identical_replays(cold, stale)


def test_tiny_cache_evicts_and_stays_identical(testbed_tool, testbed_packets):
    cold = _replay(testbed_tool, testbed_packets, warm_start=False)
    registry = MetricsRegistry()
    session = StreamingDiagnosisSession(
        testbed_tool, registry=registry, warm_start=True, warm_cache_nodes=2
    )
    updates = [
        u
        for p in testbed_packets
        if (u := session.push_packet(*p)) is not None
    ]
    events = [e for u in updates for e in u.events] + session.finish()
    _assert_identical_replays(cold, (session, updates, events))
    evictions = registry.counter("repro_warmstart_evictions_total")
    assert evictions.value > 0
    assert len(session._warm) <= 2


# ----------------------------------------------------------------------
# WarmStartCache unit behaviour
# ----------------------------------------------------------------------


def test_cache_lru_capacity_eviction():
    registry = MetricsRegistry()
    cache = WarmStartCache(max_nodes=2, registry=registry)
    cache.put(1, 10, np.ones(4))
    cache.put(2, 10, np.ones(4))
    cache.put(1, 11, np.ones(4))  # re-solve 1: now 2 is least recent
    cache.put(3, 10, np.ones(4))
    assert cache.get(2, 11) is None  # least-recently-solved: evicted
    assert cache.get(1, 12) is not None
    assert cache.get(3, 11) is not None
    evictions = registry.counter("repro_warmstart_evictions_total")
    assert evictions.value == 1


def test_cache_staleness_eviction_counts():
    registry = MetricsRegistry()
    cache = WarmStartCache(max_age_epochs=32, registry=registry)
    cache.put(7, 100, np.arange(4.0))
    assert cache.get(7, 132) is not None  # exactly at the age bound
    assert cache.get(7, 165) is None  # absent > 32 epochs: cold solve
    assert len(cache) == 0
    evictions = registry.counter("repro_warmstart_evictions_total")
    assert evictions.value == 1


def test_cache_clear_is_not_an_eviction():
    registry = MetricsRegistry()
    cache = WarmStartCache(registry=registry)
    cache.put(1, 5, np.ones(4))
    cache.clear()
    assert len(cache) == 0
    evictions = registry.counter("repro_warmstart_evictions_total")
    assert evictions.value == 0


def test_cache_rejects_bad_bounds():
    with pytest.raises(ValueError):
        WarmStartCache(max_nodes=0)
    with pytest.raises(ValueError):
        WarmStartCache(max_age_epochs=0)


def test_factor_cache_is_bit_transparent(testbed_tool, testbed_packets):
    """Cached factorizations change latency only, never solved values.

    A warm session's ``NNLSSolverCache`` reuses passive-set Cholesky
    factors across packets; the replay must stay bit-identical to the
    stateless cold path, and on a stream against one model the cache
    must actually be doing the work (hits dominate misses).
    """
    ref = _replay(testbed_tool, testbed_packets, warm_start=False)
    out = _replay(testbed_tool, testbed_packets, warm_start=True)
    _assert_identical_replays(ref, out)
    session = out[0]
    cache = session._solver_cache
    assert cache is not None and len(cache) > 0
    assert cache.hits > cache.misses


def test_factor_cache_cleared_on_rotation(testbed_tool, testbed_packets):
    """set_model must drop cached factors — they belong to the old Ψ."""
    session, _, _ = _replay(testbed_tool, testbed_packets, warm_start=True)
    assert len(session._solver_cache) > 0
    session.set_model(testbed_tool)
    assert len(session._solver_cache) == 0
    assert session._solver_cache.hits > 0  # counters survive as history


def test_factor_cache_rank_deficient_fallback():
    """Duplicate Ψ rows make a pattern's Gram singular: the solver must
    fall back to lstsq, cached and uncached alike, and still match
    scipy's reference NNLS."""
    from scipy.optimize import nnls

    from repro.core.inference import NNLSSolverCache, infer_weights_batch
    from repro.obs import MetricsRegistry

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
    from repro.core.inference import NNLSSolverCache, infer_weights_batch
    from repro.obs import MetricsRegistry

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
