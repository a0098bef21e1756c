"""Arrival-order tie-breaking of :func:`iter_packets`.

The streaming engine's bit-identity guarantee assumes one canonical
arrival order for frame replays: sorted by ``generated_at``, ties broken
by node id, remaining ties by epoch.  A frame is stored node-major — the
exact opposite major order — so these tests craft deliberate ties and
pin the lexsort down.  Iterables, by contrast, must pass through in the
order given (a tailed JSONL file is already in arrival order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.streaming import iter_packets
from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import TraceFrame


def _frame(rows):
    """Build a frame from (node_id, epoch, generated_at) triples.

    Each row's metric vector is filled with its *input* index so a test
    can recover which original row came out where.
    """
    node_ids = [r[0] for r in rows]
    epochs = [r[1] for r in rows]
    generated = [r[2] for r in rows]
    values = np.zeros((len(rows), NUM_METRICS))
    values[:, 0] = np.arange(len(rows))
    return TraceFrame(
        node_ids=node_ids,
        epochs=epochs,
        generated_at=generated,
        received_at=generated,
        values=values,
    )


def _keys(frame):
    return [(p[2], p[0], p[1]) for p in iter_packets(frame)]


def test_generated_at_dominates_node_major_storage():
    # Node-major storage order would yield node 1 entirely before node 2;
    # arrival order must interleave them by timestamp instead.
    frame = _frame([
        (1, 0, 100.0), (1, 1, 300.0),
        (2, 0, 200.0), (2, 1, 400.0),
    ])
    assert _keys(frame) == [
        (100.0, 1, 0), (200.0, 2, 0), (300.0, 1, 1), (400.0, 2, 1),
    ]


def test_equal_generated_at_breaks_tie_by_node_id():
    frame = _frame([
        (9, 0, 100.0), (2, 0, 100.0), (5, 0, 100.0),
    ])
    assert _keys(frame) == [(100.0, 2, 0), (100.0, 5, 0), (100.0, 9, 0)]


def test_equal_generated_at_and_node_breaks_tie_by_epoch():
    # Same node, same timestamp (a node flushing a backlog in one burst):
    # epoch is the final tie-breaker.
    frame = _frame([
        (3, 7, 100.0), (3, 2, 100.0), (3, 5, 100.0),
    ])
    assert _keys(frame) == [(100.0, 3, 2), (100.0, 3, 5), (100.0, 3, 7)]


def test_all_three_levels_at_once():
    rows = [
        (2, 1, 200.0),   # later timestamp: last
        (4, 0, 100.0),   # t=100, node 4
        (1, 6, 100.0),   # t=100, node 1, epoch 6
        (1, 3, 100.0),   # t=100, node 1, epoch 3 -> first
        (4, 0, 50.0),    # earliest timestamp of all
    ]
    frame = _frame(rows)
    assert _keys(frame) == [
        (50.0, 4, 0),
        (100.0, 1, 3),
        (100.0, 1, 6),
        (100.0, 4, 0),
        (200.0, 2, 1),
    ]


def test_packet_values_follow_their_row():
    rows = [(2, 0, 100.0), (1, 0, 100.0)]
    frame = _frame(rows)
    packets = list(iter_packets(frame))
    # Row index travels in values[0]; node 1 (input row 1) must be first.
    assert [int(p[3][0]) for p in packets] == [1, 0]
    assert [p[0] for p in packets] == [1, 2]


def test_iterables_pass_through_untouched():
    # An explicit packet stream is trusted as-is, even when unsorted.
    rows = [
        (5, 1, 900.0, np.zeros(NUM_METRICS)),
        (2, 0, 100.0, np.ones(NUM_METRICS)),
    ]
    packets = list(iter_packets(rows))
    assert [(p[0], p[1], p[2]) for p in packets] == [
        (5, 1, 900.0), (2, 0, 100.0),
    ]
    assert packets[1][3].dtype == float


def test_frame_replay_matches_manual_lexsort(testbed_trace):
    frame = testbed_trace
    order = np.lexsort((frame.epochs, frame.node_ids, frame.generated_at))
    expected = [
        (float(frame.generated_at[i]), int(frame.node_ids[i]),
         int(frame.epochs[i]))
        for i in order
    ]
    assert _keys(frame) == expected
    # ... and the sort key really is non-decreasing.
    assert expected == sorted(expected)


def test_tie_break_changes_diagnosis_input_order_not_content():
    # Two orderings of the same rows produce identical packet multisets.
    rows = [(1, 0, 100.0), (2, 0, 100.0), (1, 1, 100.0)]
    a = list(iter_packets(_frame(rows)))
    b = list(iter_packets(_frame(list(reversed(rows)))))
    assert [(p[0], p[1], p[2]) for p in a] == [(p[0], p[1], p[2]) for p in b]


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_frames(n):
    rows = [(1, 0, 100.0)][:n]
    assert len(list(iter_packets(_frame(rows)))) == n
