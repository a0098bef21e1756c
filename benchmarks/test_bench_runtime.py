"""R1 — runtime micro-benchmarks of the core operations.

Unlike the figure benches (one-shot experiment harnesses), these measure
wall-clock cost of the hot paths with proper repetition, so performance
regressions show up in ``--benchmark-compare`` runs:

* one NMF fit at the paper's dimensions (exceptions x 43, r = 25),
* batch NNLS inference, paired against the per-state scipy loop,
* state construction, paired: vectorized frame diff vs the seed loop,
* the full CitySee fit, paired end-to-end: codec load + VN2.fit on the
  legacy object path vs the columnar frame path (the frame side must be
  at least 5x faster),
* one simulated network-minute of the 45-node testbed.
"""

import time

import numpy as np
import pytest
from scipy.optimize import nnls

from repro.core.inference import infer_weights_batch
from repro.core.nmf import nmf
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states
from repro.simnet.network import Network, NetworkConfig
from repro.simnet.radio import RadioParams
from repro.simnet.topology import grid_topology
from repro.traces.io import (
    load_frame_npz,
    save_frame_jsonl,
    save_frame_npz,
)

from _seed_baseline import (
    build_states_seed,
    fit_seed,
    load_trace_jsonl_seed,
    trace_from_frame,
)


@pytest.fixture(scope="module")
def exception_matrix():
    rng = np.random.default_rng(0)
    W = rng.uniform(0, 1, size=(1000, 25))
    Psi = rng.uniform(0, 1, size=(25, 43))
    return np.clip(W @ Psi + rng.normal(0, 0.05, (1000, 43)), 0, None)


@pytest.fixture(scope="module")
def citysee_paths(citysee_default_trace, tmp_path_factory):
    """The default CitySee trace saved once in both codecs."""
    root = tmp_path_factory.mktemp("bench-frames")
    jsonl = root / "citysee.jsonl"
    npz = root / "citysee.npz"
    save_frame_jsonl(citysee_default_trace, jsonl)
    save_frame_npz(citysee_default_trace, npz)
    return jsonl, npz


# ----------------------------------------------------------------------
# NMF + NNLS
# ----------------------------------------------------------------------


def test_bench_runtime_nmf(benchmark, exception_matrix):
    result = benchmark(
        lambda: nmf(exception_matrix, 25, n_iter=100, tol=0.0, init="nndsvd")
    )
    assert result.loss < np.linalg.norm(exception_matrix)


def test_bench_runtime_nnls_batch(benchmark, exception_matrix):
    Psi = nmf(exception_matrix, 25, n_iter=60, init="nndsvd").Psi
    states = exception_matrix[:100]
    weights, _res = benchmark(lambda: infer_weights_batch(Psi, states))
    assert weights.shape == (100, 25)


def test_bench_runtime_nnls_single_loop(benchmark, exception_matrix):
    """Legacy pairing of the batch bench: one scipy NNLS call per state."""
    Psi = nmf(exception_matrix, 25, n_iter=60, init="nndsvd").Psi
    states = exception_matrix[:100]

    def per_state():
        return np.vstack([nnls(Psi.T, s)[0] for s in states])

    weights = benchmark(per_state)
    batch_w, _res = infer_weights_batch(Psi, states)
    np.testing.assert_allclose(weights, batch_w, atol=1e-8)


# ----------------------------------------------------------------------
# state construction: vectorized frame diff vs the seed loop
# ----------------------------------------------------------------------


def test_bench_runtime_build_states_frame(benchmark, citysee_trace):
    states = benchmark(lambda: build_states(citysee_trace))
    assert len(states) > 0


def test_bench_runtime_build_states_legacy(benchmark, citysee_trace):
    trace = trace_from_frame(citysee_trace)
    states = benchmark(lambda: build_states_seed(trace))
    assert np.array_equal(states.values, build_states(citysee_trace).values)


# ----------------------------------------------------------------------
# full CitySee fit: codec load + VN2.fit, legacy vs frame
# ----------------------------------------------------------------------

_FIT_CONFIG = dict(rank=20, filter_exceptions=True)


def _fit_legacy(jsonl_path):
    """The seed object path, pinned in ``_seed_baseline``: JSONL row
    objects -> Python diff loop -> per-sweep-reconstruction NMF ->
    per-row interpreter.  Returns Ψ."""
    trace = load_trace_jsonl_seed(jsonl_path)
    return fit_seed(trace, **_FIT_CONFIG)


def _fit_frame(npz_path):
    """The columnar path: NPZ -> frame -> vectorized fit."""
    return VN2(VN2Config(**_FIT_CONFIG)).fit(load_frame_npz(npz_path))


def test_bench_runtime_citysee_fit_legacy(benchmark, citysee_paths):
    jsonl, _npz = citysee_paths
    psi = benchmark.pedantic(_fit_legacy, args=(jsonl,), rounds=3, iterations=1)
    assert psi.shape[0] == 20


def test_bench_runtime_citysee_fit_frame(benchmark, citysee_paths):
    _jsonl, npz = citysee_paths
    tool = benchmark.pedantic(_fit_frame, args=(npz,), rounds=3, iterations=1)
    assert tool.rank_ == 20


def test_frame_fit_speedup_vs_legacy(citysee_paths):
    """Acceptance gate: the frame path is at least 5x faster end-to-end."""
    jsonl, npz = citysee_paths

    def best_of(fn, arg, rounds=3):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - start)
        return min(times)

    # One untimed call of each arm first, so no timed round pays a
    # first call's costs (lazy imports, allocator growth).
    _fit_legacy(jsonl)
    _fit_frame(npz)
    legacy = best_of(_fit_legacy, jsonl)
    frame = best_of(_fit_frame, npz)
    speedup = legacy / frame
    print(f"\ncitysee fit: legacy {legacy * 1000:.0f} ms, "
          f"frame {frame * 1000:.0f} ms, speedup {speedup:.1f}x")
    # Both arms must converge to the same model — this is a data-path
    # comparison, not an accuracy trade-off.  The frame path evaluates the
    # NMF early-stop loss in expanded Gram form, whose cancellation-level
    # noise can shift the stopping sweep by a few iterations relative to
    # the seed's explicit reconstruction, so agreement is ~1e-3 rather
    # than bitwise (it is 1e-10 at any fixed iteration count).
    np.testing.assert_allclose(
        _fit_legacy(jsonl), _fit_frame(npz).psi, atol=2e-3
    )
    assert speedup >= 5.0, (
        f"frame fit path only {speedup:.1f}x faster than the legacy path"
    )


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------


def test_bench_runtime_simulated_minute(benchmark):
    def run_minute():
        topology = grid_topology(rows=9, cols=5, spacing=8.0)
        network = Network(topology, NetworkConfig(
            report_period_s=180.0, seed=3,
            radio=RadioParams(tx_power_dbm=-10.0), max_range_m=40.0,
        ))
        network.run(60.0)
        return network

    network = benchmark.pedantic(run_minute, rounds=3, iterations=1)
    assert network.sim.events_processed > 100
