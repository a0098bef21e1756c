"""Tests for network-state construction."""

import numpy as np
import pytest

from repro.core.states import StateMatrix, StateProvenance, build_states
from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import TraceFrame


def frame_of(rows):
    """A frame from ``(node_id, epoch, generated_at, received_at, values)``."""
    return TraceFrame(
        node_ids=[r[0] for r in rows],
        epochs=[r[1] for r in rows],
        generated_at=[r[2] for r in rows],
        received_at=[r[3] for r in rows],
        values=np.array([r[4] for r in rows], dtype=float).reshape(
            len(rows), NUM_METRICS
        ),
    )


def make_trace(values_by_node):
    return frame_of([
        (node_id, epoch, epoch * 10.0, epoch * 10.0 + 1,
         np.full(NUM_METRICS, float(vec)))
        for node_id, values in values_by_node.items()
        for epoch, vec in enumerate(values)
    ])


def test_differencing():
    trace = make_trace({1: [0, 2, 5]})
    states = build_states(trace)
    assert len(states) == 2
    assert states.values[0][0] == pytest.approx(2.0)
    assert states.values[1][0] == pytest.approx(3.0)


def test_provenance_tracks_epochs_and_times():
    trace = make_trace({1: [0, 2]})
    states = build_states(trace)
    p = states.provenance[0]
    assert (p.epoch_from, p.epoch_to) == (0, 1)
    assert (p.time_from, p.time_to) == (0.0, 10.0)


def test_nodes_do_not_cross():
    trace = make_trace({1: [0, 10], 2: [100, 101]})
    states = build_states(trace)
    assert len(states) == 2
    deltas = sorted(states.values[:, 0])
    assert deltas == [1.0, 10.0]


def test_epoch_gap_filtering():
    trace = frame_of([
        (1, 0, 0.0, 1.0, np.zeros(NUM_METRICS)),
        (1, 5, 50.0, 51.0, np.ones(NUM_METRICS)),
    ])
    assert len(build_states(trace)) == 1
    assert len(build_states(trace, max_epoch_gap=2)) == 0


def test_per_epoch_rate():
    trace = frame_of([
        (1, 0, 0.0, 1.0, np.zeros(NUM_METRICS)),
        (1, 4, 40.0, 41.0, np.full(NUM_METRICS, 8.0)),
    ])
    states = build_states(trace, per_epoch_rate=True)
    assert states.values[0][0] == pytest.approx(2.0)


def test_empty_trace():
    states = build_states(frame_of([]))
    assert len(states) == 0


def test_single_snapshot_node_produces_no_state():
    trace = make_trace({1: [5]})
    assert len(build_states(trace)) == 0


def test_select_and_for_node_and_window():
    trace = make_trace({1: [0, 1, 2], 2: [0, 5, 9]})
    states = build_states(trace)
    node2 = states.for_node(2)
    assert len(node2) == 2
    assert all(p.node_id == 2 for p in node2.provenance)
    picked = states.select([0, 2])
    assert len(picked) == 2
    windowed = states.in_window(5.0, 15.0)
    assert all(5.0 <= p.time_to < 15.0 for p in windowed.provenance)


def test_state_matrix_validation():
    with pytest.raises(ValueError):
        StateMatrix(values=np.zeros((2, 7)), provenance=[])
    with pytest.raises(ValueError):
        StateMatrix(values=np.zeros((2, NUM_METRICS)), provenance=[])
