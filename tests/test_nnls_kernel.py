"""The one-column NNLS kernel is the vectorized sweep, bit for bit.

``infer_weights_batch`` runs ``_pivot_column`` when ``states`` has one
row (every per-state solve a streaming session makes) and the vectorized
``_pivot_columns`` otherwise.  The reference side of every check here is
the same public call with ``_pivot_column`` swapped for ``_pivot_columns``,
so the sweep itself is the oracle: weights, residuals, factor-cache
hit/miss counts and the recorded NNLS metrics must all be equal.  The
rare branches (Murty's single flip, the scipy fallback past ``max_iter``,
the rank-deficient ``lstsq`` solve, cache overflow) are forced and
counted, so the differential cannot pass vacuously.  The direct
``potrf`` factorization is pinned against ``cho_factor``.

Also pinned: the one-row ``sparsify_inferred`` against
``sparsify_weights(row_normalize=True)``, ``VN2.diagnose`` against a
streamed diagnosis, and where a session's ``repro_core_nnls_*`` series
are counted.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import inference
from repro.core.inference import (
    NNLSSolverCache,
    infer_weights_batch,
    sparsify_inferred,
)
from repro.core.sparsify import sparsify_weights
from repro.core.states import build_states
from repro.core.streaming import StreamingDiagnosisSession, iter_packets
from repro.metrics.catalog import NUM_METRICS
from repro.obs import MetricsRegistry, set_registry

M = 43  # metrics per state, as in the paper


def _solve(reference: bool, *args, **kwargs):
    """``infer_weights_batch``, through the sweep when ``reference``."""
    if not reference:
        return infer_weights_batch(*args, **kwargs)
    kernel = inference._pivot_column
    inference._pivot_column = inference._pivot_columns
    try:
        return infer_weights_batch(*args, **kwargs)
    finally:
        inference._pivot_column = kernel


@contextmanager
def _branch_counts():
    """Count Murty flips (per path) and scipy fallbacks while active."""
    counts = {"murty_kernel": 0, "murty_sweep": 0, "fallback": 0}
    watched = {}
    for func, key in (
        (inference._pivot_column, "murty_kernel"),
        (inference._pivot_columns, "murty_sweep"),
    ):
        source, first = inspect.getsourcelines(func)
        # Only the Murty branch assigns ``k``.
        lines = {
            first + i for i, line in enumerate(source)
            if line.strip().startswith("k = ")
        }
        assert len(lines) == 1
        watched[func.__code__] = (key, lines)

    def tracer(frame, event, arg):
        spec = watched.get(frame.f_code)
        if spec is None:
            return None
        key, lines = spec

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                counts[key] += 1
            return local

        return local

    scipy_nnls = inference.nnls

    def counting_nnls(*args, **kwargs):
        counts["fallback"] += 1
        return scipy_nnls(*args, **kwargs)

    previous = sys.gettrace()
    inference.nnls = counting_nnls
    sys.settrace(tracer)
    try:
        yield counts
    finally:
        sys.settrace(previous)
        inference.nnls = scipy_nnls


def _psi_cases():
    rng = np.random.default_rng(2024)
    for r in (1, 3, 8, 20):
        yield f"random-r{r}", rng.random((r, M))
    for r in (3, 8, 20):
        Psi = rng.random((r, M))
        Psi[-1] = Psi[0]  # duplicated row: singular Gram blocks -> lstsq
        yield f"duplicate-r{r}", Psi
    # Nearly collinear rows make full exchanges cycle: Murty's rule runs.
    yield "collinear-r20", (
        rng.random((20, 4)) @ rng.random((4, M)) + 1e-3 * rng.random((20, M))
    )


def _state_cases(Psi, rng):
    r = Psi.shape[0]
    yield np.zeros(M)
    for _ in range(5):
        w = np.where(rng.random(r) < 0.4, rng.uniform(0.5, 3.0, r), 0.0)
        yield w @ Psi + rng.normal(0.0, 0.05, M)
    yield rng.uniform(-0.5, 1.5, M)


@pytest.mark.parametrize("cache_kind", ["none", "fresh", "overflow"])
def test_kernel_matches_sweep_bitwise(cache_kind):
    rng = np.random.default_rng(7)
    cases = [
        (Psi, list(_state_cases(Psi, rng))) for _name, Psi in _psi_cases()
    ]
    solves = 0
    with _branch_counts() as counts:
        for Psi, states in cases:
            caches = [
                None if cache_kind == "none" else NNLSSolverCache(
                    max_patterns=1 if cache_kind == "overflow" else 2048,
                    registry=MetricsRegistry(enabled=False),
                )
                for _ in range(2)
            ]
            meters = [
                inference.NNLSMetrics(MetricsRegistry()) for _ in range(2)
            ]
            for state in states:
                for max_iter in (1, 2, 3, 100):
                    out = [
                        _solve(
                            reference, Psi, state[None, :], max_iter,
                            solver_cache=caches[reference],
                            metrics=meters[reference],
                        )
                        for reference in (False, True)
                    ]
                    (w, res), (w_ref, res_ref) = out
                    assert np.array_equal(w, w_ref)
                    assert np.array_equal(res, res_ref)
                    solves += 1
            if cache_kind != "none":
                kernel, sweep = caches
                assert (kernel.hits, kernel.misses) == (sweep.hits, sweep.misses)
                assert kernel.factors.keys() == sweep.factors.keys()
            for attr in ("batches", "states"):
                assert (
                    getattr(meters[0], attr).value
                    == getattr(meters[1], attr).value
                )
    assert solves == 8 * 7 * 4  # Psi cases x states x caps
    assert counts["murty_kernel"] > 0 and counts["murty_sweep"] > 0
    assert counts["murty_kernel"] == counts["murty_sweep"]
    assert counts["fallback"] > 0 and counts["fallback"] % 2 == 0
    if cache_kind == "overflow":
        assert kernel.misses > kernel.hits  # max_patterns=1 keeps clearing


def test_rank_deficient_pattern_takes_lstsq_in_both_paths():
    rng = np.random.default_rng(11)
    Psi = rng.random((3, M))
    Psi[2] = Psi[1]
    state = 2.0 * Psi[1] + Psi[0]
    entries = []
    for reference in (False, True):
        cache = NNLSSolverCache(registry=MetricsRegistry(enabled=False))
        _solve(reference, Psi, state, solver_cache=cache)
        entries.append(sorted(kind for kind, _ in cache.factors.values()))
    assert entries[0] == entries[1]
    assert "lstsq" in entries[0]


def test_pattern_factor_is_cho_factor():
    """The direct ``potrf`` call factors exactly as ``cho_factor`` did,
    and a block ``cho_factor`` rejects still takes ``lstsq``."""
    from scipy.linalg import cho_factor

    kinds = set()
    rng = np.random.default_rng(5)
    for _name, Psi in _psi_cases():
        AtA = Psi @ Psi.T
        r = Psi.shape[0]
        for _ in range(12):
            passive = np.flatnonzero(rng.random(r) < 0.7)
            if passive.size == 0:
                continue
            kind, factor = inference._pattern_factor(AtA, passive)
            kinds.add(kind)
            try:
                c, lower = cho_factor(
                    AtA[np.ix_(passive, passive)], check_finite=False
                )
            except np.linalg.LinAlgError:
                assert (kind, factor) == ("lstsq", None)
                continue
            assert kind == "chol" and factor[1] is lower is False
            assert factor[0].tobytes() == c.tobytes()
    assert kinds == {"chol", "lstsq"}


def test_stream_of_flagged_states_is_bitwise_identical(testbed_tool, testbed_trace):
    """Every flagged state of a replay, in order, cached."""
    packets = list(iter_packets(testbed_trace))
    sessions = []
    for reference in (False, True):
        session = StreamingDiagnosisSession(
            testbed_tool,
            registry=MetricsRegistry(),
            threshold_ratio=0.001,
        )
        reports = []
        kernel = inference._pivot_column
        if reference:
            inference._pivot_column = inference._pivot_columns
        try:
            for packet in packets:
                update = session.push_packet(*packet)
                if update is not None and update.report is not None:
                    reports.append(update)
        finally:
            inference._pivot_column = kernel
        sessions.append((session, reports))
    (session, reports), (ref_session, ref_reports) = sessions
    assert len(reports) == len(ref_reports) > 100
    for a, b in zip(reports, ref_reports):
        assert np.array_equal(a.report.weights, b.report.weights)
        assert a.report.residual == b.report.residual
        assert a.observations == b.observations
    cache, ref_cache = session._solver_cache, ref_session._solver_cache
    assert cache.hits > 0
    assert (cache.hits, cache.misses) == (ref_cache.hits, ref_cache.misses)


def _subnormal_row():
    return np.array([5e-324, 1e-310, 0.0, 2e-315, 3e-320])


@pytest.mark.parametrize("retention", [0.5, 0.9, 1.0])
def test_one_row_sparsify_matches_sparsify_weights(retention):
    rng = np.random.default_rng(3)
    rows = [rng.random(8) * (rng.random(8) < 0.6) for _ in range(50)]
    rows += [np.zeros(8), _subnormal_row(), np.array([1.0, 1.0, 1.0])]
    for row in rows:
        got = sparsify_inferred(row, retention=retention)
        expected = sparsify_weights(
            row[None, :], retention=retention, row_normalize=True
        ).W_sparse
        assert got.shape == expected.shape == (1, row.size)
        assert np.array_equal(got, expected)
    got = sparsify_inferred(_subnormal_row(), retention=retention)
    assert got.sum() > 0  # the subnormal mass is kept, not dropped


@pytest.mark.parametrize(
    "row, retention",
    [
        (np.array([0.2, 0.8]), 0.0),
        (np.array([0.2, 0.8]), 1.5),
        (np.array([0.2, -0.8]), 0.9),
    ],
)
def test_one_row_sparsify_raises_like_sparsify_weights(row, retention):
    with pytest.raises(ValueError) as expected:
        sparsify_weights(row[None, :], retention=retention, row_normalize=True)
    with pytest.raises(ValueError) as got:
        sparsify_inferred(row, retention=retention)
    assert str(got.value) == str(expected.value)


def test_diagnose_equals_cold_streamed_diagnosis(testbed_tool, testbed_trace):
    session = StreamingDiagnosisSession(
        testbed_tool,
        registry=MetricsRegistry(enabled=False),
        threshold_ratio=0.001,
    )
    compared = 0
    for packet in iter_packets(testbed_trace):
        update = session.push_packet(*packet)
        if update is None or update.report is None:
            continue
        report = testbed_tool.diagnose(update.state.values)
        assert np.array_equal(report.weights, update.report.weights)
        assert report.residual == update.report.residual
        assert report.relative_residual == update.report.relative_residual
        compared += 1
        if compared == 60:
            break
    assert compared == 60


def test_diagnose_rejects_nan_state_and_clips_inf(testbed_tool):
    state = np.zeros(NUM_METRICS)
    state[3] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        testbed_tool.diagnose(state)
    state[3] = np.inf
    state[5] = -np.inf
    report = testbed_tool.diagnose(state)
    assert np.all(np.isfinite(report.weights))
    assert np.isfinite(report.residual)


@pytest.mark.parametrize("per_epoch_rate", [True, False])
def test_session_counts_solves_in_its_own_registry(
    testbed_tool, testbed_trace, per_epoch_rate
):
    """Each flagged state is one solve, counted once in the session's own
    registry, whichever way the state builder turns packets into rates."""
    labels = {
        "deployment": "ops",
        "worker": "0",
        "model_version": testbed_tool.model_version,
    }
    registry = MetricsRegistry()
    default = MetricsRegistry()
    previous = set_registry(default)
    try:
        session = StreamingDiagnosisSession(
            testbed_tool,
            registry=registry,
            metric_labels=labels,
            threshold_ratio=0.001,
            per_epoch_rate=per_epoch_rate,
        )
        for packet in iter_packets(testbed_trace):
            session.push_packet(*packet)
    finally:
        set_registry(previous)
    assert session.n_exceptions > 0
    states = registry.counter("repro_core_nnls_states_total", labels=labels)
    batches = registry.counter("repro_core_nnls_batches_total", labels=labels)
    seconds = registry.histogram("repro_core_nnls_batch_seconds", labels=labels)
    assert states.value == batches.value == session.n_exceptions
    assert seconds.count == session.n_exceptions
    # No second count in the process-default registry.
    assert "repro_core_nnls_states_total" not in default.collect()


def test_default_registry_solves_bind_their_metrics_once(
    testbed_tool, testbed_trace, monkeypatch
):
    """Solves that pass no ``metrics`` (``VN2.diagnose``,
    ``observation_weights``, ``infer_weights_batch``) reuse one
    :class:`NNLSMetrics` per default registry, and a ``set_registry``
    moves them to the new one."""
    from repro.core import inference
    from repro.core.incidents import observation_weights

    bound = []
    real = inference.NNLSMetrics

    class Counting(real):
        __slots__ = ()

        def __init__(self, registry, labels=None):
            bound.append(registry)
            super().__init__(registry, labels)

    monkeypatch.setattr(inference, "NNLSMetrics", Counting)
    states = build_states(testbed_trace).values[:6]
    first, second = MetricsRegistry(), MetricsRegistry()
    previous = set_registry(first)
    try:
        for state in states[:3]:
            testbed_tool.diagnose(state)
            observation_weights(testbed_tool, state)
        infer_weights_batch(testbed_tool.psi, states[:2])
        assert bound == [first]
        set_registry(second)
        for state in states[3:]:
            testbed_tool.diagnose(state)
        assert bound == [first, second]
    finally:
        set_registry(previous)
    counted = [
        registry.counter("repro_core_nnls_states_total").value
        for registry in (first, second)
    ]
    assert counted == [3 + 3 + 2, 3]


def test_every_one_column_solve_goes_through_solve_passive_column(
    testbed_tool, testbed_trace
):
    """Swapping ``inference._solve_passive_column`` reaches every
    per-state solve (a streamed diagnosis, ``VN2.diagnose``
    and a one-row ``infer_weights_batch``), and none of them reaches the
    sweep's ``_solve_passive_sets``: the lifecycle bench's seed-path
    baseline swaps this one name."""
    states = [
        u.state.values
        for u in StreamingDiagnosisSession(
            testbed_tool, registry=MetricsRegistry(enabled=False),
            threshold_ratio=0.001,
        ).process(testbed_trace)
        if u.is_exception
    ][:40]
    calls = []
    column, sets = inference._solve_passive_column, inference._solve_passive_sets

    def counting(*args, **kwargs):
        calls.append(1)
        return column(*args, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("one-column solve reached _solve_passive_sets")

    inference._solve_passive_column = counting
    inference._solve_passive_sets = unreachable
    try:
        session = StreamingDiagnosisSession(
            testbed_tool, registry=MetricsRegistry(enabled=False),
            threshold_ratio=0.001,
        )
        for packet in list(iter_packets(testbed_trace))[:3000]:
            session.push_packet(*packet)
        assert session.n_exceptions > 0
        assert len(calls) >= session.n_exceptions
        before = len(calls)
        for values in states:
            testbed_tool.diagnose(values)
            infer_weights_batch(testbed_tool.nmf_.Psi, values[None, :] * 0.01)
        assert len(calls) - before >= len(states)
    finally:
        inference._solve_passive_column = column
        inference._solve_passive_sets = sets
