"""StreamingStateBuilder: per-packet, chunked and batch paths agree.

The engine's foundational contract: ``push`` (a one-row
``push_columns``), ``push_frame`` (chunk at a time) and ``build_states``
(whole frame) emit the same states, bit for bit, as the per-packet
oracle's differencing loop (``tests/packet_oracle.py``), and the
per-node cache gives the builder bounded memory regardless of stream
length.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.states import (
    StreamingStateBuilder,
    build_states,
    stack_states,
)
from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import TraceFrame

from .packet_oracle import PacketLoopBuilder, replay_frame_rows


def _make_frame(rows):
    """rows: (node_id, epoch, generated_at, values)."""
    if rows:
        values = np.vstack([r[3] for r in rows])
    else:
        values = np.zeros((0, NUM_METRICS))
    return TraceFrame(
        node_ids=np.array([r[0] for r in rows], dtype=np.int64),
        epochs=np.array([r[1] for r in rows], dtype=np.int64),
        generated_at=np.array([r[2] for r in rows], dtype=float),
        received_at=np.array([r[2] + 1.0 for r in rows], dtype=float),
        values=values,
    )


def _random_rows(rng, n_nodes=5, n_epochs=12, drop=0.2):
    rows = []
    for node in range(1, n_nodes + 1):
        for epoch in range(n_epochs):
            if rng.random() < drop:
                continue
            rows.append(
                (node, epoch, epoch * 600.0 + node, rng.normal(size=NUM_METRICS))
            )
    return rows


def _assert_states_equal(a, b):
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.node_ids, b.node_ids)
    assert np.array_equal(a.epochs_from, b.epochs_from)
    assert np.array_equal(a.epochs_to, b.epochs_to)
    assert np.array_equal(a.times_from, b.times_from)
    assert np.array_equal(a.times_to, b.times_to)


@pytest.mark.parametrize("kwargs", [{}, {"max_epoch_gap": 2}, {"per_epoch_rate": True}])
def test_push_matches_push_frame_and_batch(kwargs):
    rng = np.random.default_rng(3)
    frame = _make_frame(_random_rows(rng))

    batch = build_states(frame, **kwargs)
    for builder in (PacketLoopBuilder(**kwargs), StreamingStateBuilder(**kwargs)):
        streamed = []
        for i in range(len(frame)):
            state = builder.push(
                frame.node_ids[i], frame.epochs[i], frame.generated_at[i],
                frame.values[i],
            )
            if state is not None:
                streamed.append(state)
        _assert_states_equal(stack_states(streamed), batch)


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, 1000])
def test_chunked_push_frame_matches_batch(chunk_rows):
    rng = np.random.default_rng(11)
    frame = _make_frame(_random_rows(rng))
    builder = StreamingStateBuilder()
    chunks = []
    for start in range(0, len(frame), chunk_rows):
        sub = TraceFrame(
            node_ids=frame.node_ids[start : start + chunk_rows],
            epochs=frame.epochs[start : start + chunk_rows],
            generated_at=frame.generated_at[start : start + chunk_rows],
            received_at=frame.received_at[start : start + chunk_rows],
            values=frame.values[start : start + chunk_rows],
        )
        chunks.append(builder.push_frame(sub))
    combined = stack_states(
        [s for chunk in chunks for s in _streamed(chunk)]
    )
    _assert_states_equal(combined, build_states(frame))


def _streamed(states):
    """StateMatrix rows as StreamedState-likes (for stack_states reuse)."""
    from repro.core.states import StreamedState

    return [
        StreamedState(
            values=states.values[i],
            node_id=int(states.node_ids[i]),
            epoch_from=int(states.epochs_from[i]),
            epoch_to=int(states.epochs_to[i]),
            time_from=float(states.times_from[i]),
            time_to=float(states.times_to[i]),
        )
        for i in range(len(states))
    ]


def test_matches_reference_loop_on_trace(testbed_trace):
    batch = build_states(testbed_trace)
    reference = replay_frame_rows(testbed_trace)
    _assert_states_equal(batch, reference)


def test_duplicate_epoch_refreshes_baseline_without_emitting():
    builder = StreamingStateBuilder()
    v1, v2, v3 = (np.full(NUM_METRICS, float(k)) for k in (1, 2, 5))
    assert builder.push(1, 0, 0.0, v1) is None
    # Same epoch again: no state, but the cache now holds v2.
    assert builder.push(1, 0, 10.0, v2) is None
    state = builder.push(1, 1, 600.0, v3)
    assert state is not None
    assert np.array_equal(state.values, v3 - v2)
    assert state.time_from == 10.0


def test_out_of_order_epoch_is_dropped_but_updates_cache():
    builder = StreamingStateBuilder()
    v = lambda k: np.full(NUM_METRICS, float(k))  # noqa: E731
    builder.push(1, 5, 3000.0, v(5))
    # A late epoch-3 packet cannot complete a forward pair...
    assert builder.push(1, 3, 3100.0, v(3)) is None
    # ...but it becomes the new baseline (batch semantics on sorted input).
    state = builder.push(1, 4, 3200.0, v(9))
    assert state is not None
    assert state.epoch_from == 3
    assert np.array_equal(state.values, v(9) - v(3))


def test_reboot_counter_reset_passes_through_signed():
    builder = StreamingStateBuilder()
    before = np.full(NUM_METRICS, 1e4)
    after = np.full(NUM_METRICS, 10.0)  # counters reset at reboot
    builder.push(1, 0, 0.0, before)
    state = builder.push(1, 1, 600.0, after)
    assert np.all(state.values < 0)  # large negative jump, not special-cased
    assert np.array_equal(state.values, after - before)


def test_max_epoch_gap_suppresses_distant_pairs():
    builder = StreamingStateBuilder(max_epoch_gap=2)
    v = lambda k: np.full(NUM_METRICS, float(k))  # noqa: E731
    builder.push(1, 0, 0.0, v(0))
    assert builder.push(1, 5, 3000.0, v(5)) is None  # gap 5 > 2
    assert builder.push(1, 6, 3600.0, v(6)) is not None  # gap 1


def test_cache_is_bounded_by_node_population():
    builder = StreamingStateBuilder()
    rng = np.random.default_rng(0)
    for epoch in range(200):
        for node in range(10):
            builder.push(node, epoch, epoch * 600.0, rng.normal(size=NUM_METRICS))
    assert len(builder) == 10  # one cached report per node, not per packet
    assert builder.n_packets == 2000
    assert builder.n_states == 10 * 199


def test_empty_frame_yields_empty_matrix():
    frame = _make_frame([])
    states = StreamingStateBuilder().push_frame(frame)
    assert len(states) == 0
    assert states.values.shape == (0, NUM_METRICS)


def _state_bytes(states):
    return [
        column.tobytes()
        for column in (
            states.values, states.node_ids, states.epochs_from,
            states.epochs_to, states.times_from, states.times_to,
        )
    ]


def _arrivals(rng, n_packets, n_nodes):
    """Interleaved, unsorted node ids (some huge), repeated and late
    epochs, duplicate packets, signed zeros and wide-range values."""
    ids = rng.choice(
        np.array([0, 1, 7, 2**40 + 3, 2**63 - 1] + list(range(100, 100 + n_nodes)),
                 dtype=np.int64),
        size=n_packets,
    )
    epochs = np.zeros(n_packets, dtype=np.int64)
    clock = {}
    for i, node in enumerate(ids.tolist()):
        step = int(rng.choice([1, 1, 1, 2, 5, 0, -1]))  # 0: duplicate, -1: late
        clock[node] = clock.get(node, 0) + step
        epochs[i] = clock[node]
    times = np.cumsum(rng.uniform(0.0, 3.0, n_packets))
    values = rng.normal(scale=10.0 ** rng.integers(-3, 6), size=(n_packets, NUM_METRICS))
    values[rng.random(values.shape) < 0.05] = -0.0
    return ids, epochs, times, values


@pytest.mark.parametrize("batch", [1, 2, 16, 512])
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"max_epoch_gap": 2}, {"per_epoch_rate": True},
     {"max_epoch_gap": 3, "per_epoch_rate": True}],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_slot_cache_matches_packet_oracle_bitwise(batch, kwargs, seed):
    """The slot-array cache against the per-packet dict cache, in
    batches of every size, across slot-array growth and a reset."""
    rng = np.random.default_rng([seed, batch])
    ids, epochs, times, values = _arrivals(rng, 1500, n_nodes=60)
    builder = StreamingStateBuilder(**kwargs)
    oracle = PacketLoopBuilder(**kwargs)
    got, want = [], []
    for start in range(0, len(ids), batch):
        if start == 1024:  # a batch boundary at every size
            builder.reset()
            oracle._last.clear()
        rows = slice(start, start + batch)
        got.extend(_state_bytes(builder.push_columns(
            ids[rows], epochs[rows], times[rows], values[rows]
        )))
        streamed = [
            oracle.push(ids[i], epochs[i], times[i], values[i])
            for i in range(start, min(start + batch, len(ids)))
        ]
        want.extend(_state_bytes(stack_states(
            [s for s in streamed if s is not None]
        )))
    assert got == want
    assert builder.n_states == oracle.n_states > 500
    assert builder.n_packets == oracle.n_packets == len(ids)
    assert len(builder) == len(oracle._last)


@pytest.mark.parametrize("kwargs", [{}, {"max_epoch_gap": 1}, {"per_epoch_rate": True}])
def test_full_frame_build_states_matches_packet_oracle_bitwise(kwargs):
    rng = np.random.default_rng(9)
    rows = _random_rows(rng, n_nodes=300, n_epochs=20, drop=0.3)
    frame = _make_frame(rows)
    assert _state_bytes(build_states(frame, **kwargs)) == _state_bytes(
        replay_frame_rows(frame, **kwargs)
    )
