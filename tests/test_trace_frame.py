"""Property-style tests of the columnar trace backbone.

Exercises the ordering invariant, the JSONL/NPZ codecs, the empty-trace
and single-node edge cases, the vectorized state builder against the
per-packet oracle loop (``tests/packet_oracle.py``), and the batch NNLS
path against scipy's per-state Lawson-Hanson solve.
"""

import numpy as np
import pytest
from scipy.optimize import nnls

from repro.core.inference import infer_weights_batch
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states
from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import GroundTruth, TraceFrame
from repro.traces.io import (
    load_frame,
    load_frame_jsonl,
    load_frame_npz,
    save_frame,
    save_frame_jsonl,
    save_frame_npz,
)

from .packet_oracle import replay_frame_rows


def random_frame(seed: int, n_nodes: int = 5, epochs_per_node: int = 8) -> TraceFrame:
    """A synthetic frame with irregular epochs, gaps and arrivals."""
    rng = np.random.default_rng(seed)
    node_ids, epochs, generated, received, values = [], [], [], [], []
    for node in range(1, n_nodes + 1):
        # Irregular epoch sets per node: dropped epochs, varying lengths.
        keep = rng.random(epochs_per_node) > 0.2
        for e in np.flatnonzero(keep):
            node_ids.append(node)
            epochs.append(int(e))
            t = 600.0 * e + rng.uniform(0.0, 30.0)
            generated.append(t)
            received.append(t + rng.uniform(0.1, 5.0))
            values.append(rng.normal(size=NUM_METRICS) * rng.uniform(0.5, 50.0))
    k = rng.integers(0, 20)
    arrival_times = np.sort(rng.uniform(0.0, 600.0 * epochs_per_node, size=k))
    arrival_nodes = rng.integers(1, n_nodes + 1, size=k)
    return TraceFrame(
        node_ids=np.array(node_ids),
        epochs=np.array(epochs),
        generated_at=np.array(generated),
        received_at=np.array(received),
        values=np.array(values),
        metadata={"report_period_s": 600.0, "seed": seed, "n_nodes": n_nodes + 1},
        ground_truth=[GroundTruth("routing_loop", (1, 2), 600.0, 1800.0)],
        packets_generated=3 * len(node_ids),
        packets_received=3 * len(node_ids) - int(k),
        arrival_times=arrival_times,
        arrival_nodes=arrival_nodes,
    )


def assert_frames_equal(a: TraceFrame, b: TraceFrame) -> None:
    assert np.array_equal(a.node_ids, b.node_ids)
    assert np.array_equal(a.epochs, b.epochs)
    assert np.array_equal(a.generated_at, b.generated_at)
    assert np.array_equal(a.received_at, b.received_at)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.arrival_times, b.arrival_times)
    assert np.array_equal(a.arrival_nodes, b.arrival_nodes)
    assert a.metadata == b.metadata
    assert a.ground_truth == b.ground_truth
    assert a.packets_generated == b.packets_generated
    assert a.packets_received == b.packets_received


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


def test_constructor_restores_sort_invariant():
    frame = random_frame(11)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(frame))
    shuffled = TraceFrame(
        node_ids=frame.node_ids[order],
        epochs=frame.epochs[order],
        generated_at=frame.generated_at[order],
        received_at=frame.received_at[order],
        values=frame.values[order],
        metadata=frame.metadata,
    )
    keys = list(zip(shuffled.node_ids.tolist(), shuffled.epochs.tolist()))
    assert keys == sorted(keys)
    assert np.array_equal(shuffled.values, frame.values)


def test_frame_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        TraceFrame(
            node_ids=np.array([1, 2]),
            epochs=np.array([0]),
            generated_at=np.array([0.0]),
            received_at=np.array([0.0]),
            values=np.zeros((1, NUM_METRICS)),
        )
    with pytest.raises(ValueError):
        TraceFrame(
            node_ids=np.array([1]),
            epochs=np.array([0]),
            generated_at=np.array([0.0]),
            received_at=np.array([0.0]),
            values=np.zeros((1, NUM_METRICS - 1)),
        )


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_npz_roundtrip_bit_exact(tmp_path, seed):
    frame = random_frame(seed)
    path = tmp_path / "frame.npz"
    save_frame_npz(frame, path)
    assert_frames_equal(frame, load_frame_npz(path))


@pytest.mark.parametrize("seed", range(3))
def test_jsonl_reload_is_stable(tmp_path, seed):
    """JSONL rounds to 6 decimals once; re-saving the load is lossless."""
    frame = random_frame(seed)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_frame_jsonl(frame, p1)
    loaded = load_frame_jsonl(p1)
    np.testing.assert_allclose(loaded.values, frame.values, atol=5e-7)
    assert np.array_equal(loaded.node_ids, frame.node_ids)
    assert np.array_equal(loaded.epochs, frame.epochs)
    save_frame_jsonl(loaded, p2)
    assert_frames_equal(loaded, load_frame_jsonl(p2))


def test_save_load_frame_dispatch(tmp_path):
    frame = random_frame(2)
    npz = tmp_path / "t.npz"
    jsonl = tmp_path / "t.jsonl"
    save_frame(frame, npz)
    save_frame(frame, jsonl)
    assert_frames_equal(load_frame(npz), frame)
    # Explicit fmt overrides the suffix.
    odd = tmp_path / "t.dat"
    save_frame(frame, odd, fmt="npz")
    assert_frames_equal(load_frame(odd, fmt="npz"), frame)
    with pytest.raises(ValueError):
        save_frame(frame, tmp_path / "x", fmt="parquet")
    with pytest.raises(ValueError):
        load_frame(jsonl, fmt="parquet")


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------


def test_empty_trace_roundtrip(tmp_path):
    frame = TraceFrame(
        node_ids=[], epochs=[], generated_at=[], received_at=[], values=[]
    )
    assert len(frame) == 0
    assert frame.values.shape == (0, NUM_METRICS)
    assert frame.unique_node_ids == []
    assert list(frame.node_slices()) == []
    assert frame.time_span() == (0.0, 0.0)
    for fmt in ("jsonl", "npz"):
        path = tmp_path / f"empty.{fmt}"
        save_frame(frame, path, fmt=fmt)
        assert len(load_frame(path, fmt=fmt)) == 0
    assert len(build_states(frame)) == 0


def test_single_node_frame(tmp_path):
    n = 6
    values = np.arange(n * NUM_METRICS, dtype=float).reshape(n, NUM_METRICS)
    frame = TraceFrame(
        node_ids=np.full(n, 3),
        epochs=np.arange(n),
        generated_at=600.0 * np.arange(n),
        received_at=600.0 * np.arange(n) + 1.0,
        values=values,
        metadata={"report_period_s": 600.0},
    )
    assert frame.unique_node_ids == [3]
    assert frame.node_slice(3) == slice(0, n)
    assert frame.node_slice(4) == slice(n, n)
    path = tmp_path / "single.npz"
    save_frame(frame, path)
    assert_frames_equal(frame, load_frame(path))
    states = build_states(frame)
    assert len(states) == n - 1
    assert np.array_equal(states.node_ids, np.full(n - 1, 3))


# ----------------------------------------------------------------------
# vectorized states vs the per-packet oracle loop
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_epoch_gap", [None, 1, 3])
def test_build_states_matches_python_loop(seed, max_epoch_gap):
    frame = random_frame(seed, n_nodes=6, epochs_per_node=10)
    fast = build_states(frame, max_epoch_gap=max_epoch_gap)
    slow = replay_frame_rows(frame, max_epoch_gap=max_epoch_gap)
    assert np.array_equal(fast.values, slow.values)
    assert np.array_equal(fast.node_ids, slow.node_ids)
    assert np.array_equal(fast.epochs_from, slow.epochs_from)
    assert np.array_equal(fast.epochs_to, slow.epochs_to)
    assert np.array_equal(fast.times_from, slow.times_from)
    assert np.array_equal(fast.times_to, slow.times_to)


def test_build_states_per_epoch_rate_matches(seed=3):
    frame = random_frame(seed, n_nodes=4, epochs_per_node=9)
    fast = build_states(frame, per_epoch_rate=True)
    slow = replay_frame_rows(frame, per_epoch_rate=True)
    assert np.allclose(fast.values, slow.values)


# ----------------------------------------------------------------------
# batch inference vs per-state inference
# ----------------------------------------------------------------------


def test_infer_weights_batch_matches_infer_single():
    """Against scipy's per-state Lawson-Hanson NNLS, state by state."""
    rng = np.random.default_rng(5)
    r, n = 12, 60
    Psi = np.abs(rng.normal(size=(r, NUM_METRICS)))
    W = np.abs(rng.normal(size=(n, r)))
    W[rng.random(size=W.shape) < 0.5] = 0.0
    states = W @ Psi + 0.01 * rng.normal(size=(n, NUM_METRICS))
    batch_w, batch_res = infer_weights_batch(Psi, states)
    for i in range(n):
        w, res = nnls(Psi.T, states[i])
        np.testing.assert_allclose(batch_w[i], w, atol=1e-8)
        np.testing.assert_allclose(batch_res[i], res, atol=1e-8)


def test_diagnose_batch_matches_diagnose():
    frame = random_frame(7, n_nodes=8, epochs_per_node=12)
    # Make deltas non-negative-ish so NMF training is well posed.
    frame.values[:] = np.abs(frame.values)
    tool = VN2(VN2Config(rank=6, filter_exceptions=False)).fit(frame)
    states = build_states(frame)
    reports = tool.diagnose_batch(states)
    assert len(reports) == len(states)
    for i in (0, len(states) // 2, len(states) - 1):
        single = tool.diagnose(states.values[i])
        np.testing.assert_allclose(
            reports[i].weights, single.weights, atol=1e-8
        )
        np.testing.assert_allclose(
            reports[i].residual, single.residual, atol=1e-8
        )


# ----------------------------------------------------------------------
# VN2Config validation (construction-time errors)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        ({"rank_candidates": ()}, "rank_candidates"),
        ({"retention": 0.0}, "retention"),
        ({"retention": 1.5}, "retention"),
        ({"exception_threshold": 0.0}, "exception_threshold"),
        ({"exception_threshold": 1.0}, "exception_threshold"),
    ],
)
def test_vn2config_rejects_bad_values(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        VN2Config(**kwargs)


def test_vn2config_accepts_boundary_values():
    VN2Config(retention=1.0, exception_threshold=0.5)
