"""Property-based round-trip tests of the TraceFrame codecs.

Hypothesis generates arbitrary frames — including empty ones, empty
arrival logs, duplicate (node, epoch) keys and extreme float magnitudes —
and checks the codec contracts stated in :mod:`repro.traces.io`:

* **NPZ** is bit-exact: every column, the metadata, the ground truth and
  the packet counters survive unchanged.
* **JSONL** is exact on the integer/time columns and 6-decimal on the
  metric matrix (the documented precision of the diff-able codec): the
  loaded values equal ``np.round(values, 6)`` bit-for-bit.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import GroundTruth, TraceFrame
from repro.traces.io import (
    load_frame_jsonl,
    load_frame_npz,
    save_frame_jsonl,
    save_frame_npz,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

# Metric values stay below the magnitude where np.round's scale-by-1e6
# intermediate would overflow to inf (and spam RuntimeWarnings); real
# metrics are counts, rates and millivolts, far inside this range.
metric_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, width=64
)

ground_truths = st.builds(
    GroundTruth,
    kind=st.sampled_from(["routing_loop", "interference", "node_failure"]),
    node_ids=st.tuples(st.integers(0, 50)),
    start=finite_floats,
    end=finite_floats,
)

metadata_dicts = st.dictionaries(
    keys=st.text(min_size=1, max_size=8),
    values=st.one_of(
        st.integers(-(10 ** 9), 10 ** 9), finite_floats,
        st.text(max_size=12), st.booleans(),
    ),
    max_size=4,
)


@st.composite
def trace_frames(draw) -> TraceFrame:
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=4))
    row = st.lists(metric_floats, min_size=NUM_METRICS, max_size=NUM_METRICS)
    values = draw(st.lists(row, min_size=n, max_size=n))
    ints = st.lists(st.integers(0, 1000), min_size=n, max_size=n)
    times = st.lists(finite_floats, min_size=n, max_size=n)
    return TraceFrame(
        node_ids=np.asarray(draw(ints), dtype=np.int64),
        epochs=np.asarray(draw(ints), dtype=np.int64),
        generated_at=np.asarray(draw(times), dtype=float),
        received_at=np.asarray(draw(times), dtype=float),
        values=(
            np.asarray(values, dtype=float)
            if n else np.zeros((0, NUM_METRICS))
        ),
        metadata=draw(metadata_dicts),
        ground_truth=draw(st.lists(ground_truths, max_size=2)),
        packets_generated=draw(st.integers(0, 10 ** 6)),
        packets_received=draw(st.integers(0, 10 ** 6)),
        arrival_times=np.asarray(
            draw(st.lists(finite_floats, min_size=k, max_size=k)), dtype=float
        ),
        arrival_nodes=np.asarray(
            draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k)),
            dtype=np.int64,
        ),
    )


codec_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _roundtrip(frame: TraceFrame, save, load) -> TraceFrame:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "frame.trace")
        save(frame, path)
        return load(path)


@codec_settings
@given(frame=trace_frames())
def test_npz_roundtrip_is_bit_exact(frame):
    loaded = _roundtrip(frame, save_frame_npz, load_frame_npz)
    for column in (
        "node_ids", "epochs", "generated_at", "received_at",
        "values", "arrival_times", "arrival_nodes",
    ):
        assert np.array_equal(getattr(frame, column), getattr(loaded, column))
    assert loaded.metadata == frame.metadata
    assert loaded.ground_truth == frame.ground_truth
    assert loaded.packets_generated == frame.packets_generated
    assert loaded.packets_received == frame.packets_received
    assert loaded.values.shape == (len(frame), NUM_METRICS)


@codec_settings
@given(frame=trace_frames())
def test_jsonl_roundtrip_is_exact_at_6_decimals(frame):
    loaded = _roundtrip(frame, save_frame_jsonl, load_frame_jsonl)
    # Integer and time columns are lossless; the metric matrix is written
    # at 6-decimal precision, and JSON preserves each rounded double
    # exactly (repr round-trip), so equality against np.round is exact.
    for column in (
        "node_ids", "epochs", "generated_at", "received_at",
        "arrival_times", "arrival_nodes",
    ):
        assert np.array_equal(getattr(frame, column), getattr(loaded, column))
    assert np.array_equal(loaded.values, np.round(frame.values, 6))
    assert loaded.metadata == frame.metadata
    assert loaded.ground_truth == frame.ground_truth
    assert loaded.values.shape == (len(frame), NUM_METRICS)


def test_empty_frame_roundtrips_both_codecs():
    """The n=0, no-arrivals corner deserves a named, always-run case."""
    empty = TraceFrame(
        node_ids=np.zeros(0, dtype=np.int64),
        epochs=np.zeros(0, dtype=np.int64),
        generated_at=np.zeros(0),
        received_at=np.zeros(0),
        values=np.zeros((0, NUM_METRICS)),
    )
    for save, load in (
        (save_frame_npz, load_frame_npz),
        (save_frame_jsonl, load_frame_jsonl),
    ):
        loaded = _roundtrip(empty, save, load)
        assert len(loaded) == 0
        assert loaded.values.shape == (0, NUM_METRICS)
        assert loaded.arrival_times.size == 0
