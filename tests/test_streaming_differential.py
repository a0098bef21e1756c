"""Differential harness: streaming engine is bit-identical to batch.

For each trace the full diagnosis path runs twice —

* **batch**: ``build_states`` -> ``IncidentAggregator.extract`` (the
  model's training-statistics screen, then clustering; the paper's
  offline pipeline),
* **streaming**: packets replayed in arrival order through the
  per-packet oracle's differencing (``tests/packet_oracle.py``) and
  ``StreamingDiagnosisSession.process`` —

and the two must agree exactly: the same state matrix (bit for bit,
after reordering the time-major stream into the batch's node-major
order), the same screened states, and ``==``-equal incident lists.
Diagnosis weight vectors are compared with ``np.allclose`` — the batch
NNLS solver is vectorized over many right-hand sides and its results
vary at the ULP level with batch composition, which is exactly why the
incident path (where strengths feed clustering decisions) solves one
state at a time on both sides.

A second harness holds every entry point of the session's one ingest
step — ``push_batch`` over seeded random chunkings, one-row
``push_packet``, ``process`` and ``VN2.diagnose_stream`` — to the
per-packet oracle: the same updates, events, counters, node summaries,
incidents, drift, reservoir, flush and registry counts.

The tier-1 run covers the ``tiny`` and ``small`` CitySee presets plus
the testbed trace; set ``VN2_DIFF_ALL=1`` to additionally sweep the
scaled ``medium`` and ``full`` presets, as the CI streaming job does.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import pytest

from repro.core.incidents import IncidentAggregator
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states, stack_states
from repro.core.streaming import (
    PacketBatch,
    StreamingDiagnosisSession,
    iter_packets,
)
from repro.obs import MetricsRegistry
from repro.service.worker import _tracker_doc
from repro.traces.citysee import CitySeeProfile, generate_citysee_frame

from .packet_oracle import PacketLoopBuilder, PacketLoopSession

RUN_ALL_PRESETS = os.environ.get("VN2_DIFF_ALL", "") == "1"

#: Preset name -> a cost-reduced variant (same shape, fewer days).
PRESET_VARIANTS = {
    "tiny": CitySeeProfile.tiny(days=0.75),
    "small": CitySeeProfile.small(days=0.25),
    "medium": CitySeeProfile.medium(days=0.3),
    "full": CitySeeProfile.full(days=0.055),
}
TIER1_PRESETS = ("tiny", "small")


def _preset_params():
    params = []
    for name in PRESET_VARIANTS:
        marks = ()
        if name not in TIER1_PRESETS and not RUN_ALL_PRESETS:
            marks = (pytest.mark.skip(reason="set VN2_DIFF_ALL=1 to run"),)
        params.append(pytest.param(name, marks=marks))
    return params


@pytest.fixture(scope="module")
def preset_run():
    """Lazy (frame, fitted tool) per preset, built once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            frame = generate_citysee_frame(PRESET_VARIANTS[name])
            # Fixed rank: the differential property is about the diagnosis
            # path, not rank selection, and a sweep per preset is slow.
            tool = VN2(VN2Config(rank=12)).fit(frame)
            cache[name] = (frame, tool)
        return cache[name]

    return get


def _positions(frame):
    positions = {
        int(k): tuple(v)
        for k, v in frame.metadata.get("positions", {}).items()
    }
    return positions or None


def _canonical(states):
    """Time-major streamed states reordered into batch node-major order."""
    return states._take(np.lexsort((states.epochs_to, states.node_ids)))


def assert_same_states(streamed, batch, context):
    canon = _canonical(streamed)
    assert len(canon) == len(batch), context
    for column in ("values", "node_ids", "epochs_from", "epochs_to",
                   "times_from", "times_to"):
        assert np.array_equal(getattr(canon, column), getattr(batch, column)), (
            f"{context}: state column {column} differs"
        )


def _assert_differential(tool, frame, context):
    positions = _positions(frame)
    threshold = tool.config.exception_threshold
    batch_states = build_states(frame)

    # 1. States: the oracle's packet-at-a-time differencing vs the
    # whole-frame pass.
    builder = PacketLoopBuilder()
    streamed = []
    for packet in iter_packets(frame):
        state = builder.push(*packet)
        if state is not None:
            streamed.append(state)
    assert_same_states(stack_states(streamed), batch_states, context)

    # 2. Incidents: live session vs batch aggregator — exact equality,
    # including peak/total strengths (shared per-state NNLS solves).
    aggregator = IncidentAggregator(
        tool, positions=positions, exception_threshold=threshold
    )
    batch_incidents = aggregator.extract(batch_states)
    session = StreamingDiagnosisSession(
        tool, positions=positions, threshold_ratio=threshold
    )
    updates = [u for u in session.process(frame)]
    session.finish()
    stream_incidents = session.tracker.sorted_incidents()
    assert stream_incidents == batch_incidents, context

    # 3. Diagnoses: same screened set, allclose weights/residuals.
    flagged = {
        (u.state.node_id, u.state.epoch_to): u
        for u in updates
        if u.is_exception
    }
    batch_pairs = tool.diagnose_exceptions(batch_states)
    assert len(flagged) == len(batch_pairs), context
    for provenance, report in batch_pairs:
        update = flagged[(provenance.node_id, provenance.epoch_to)]
        assert update.state.epoch_from == provenance.epoch_from, context
        assert np.allclose(update.report.weights, report.weights), context
        assert np.isclose(update.report.residual, report.residual), context

    assert session.n_packets == len(frame)
    assert session.n_states == len(batch_states)
    return len(batch_states), len(batch_pairs), len(batch_incidents)


@pytest.mark.parametrize("preset", _preset_params())
def test_citysee_streaming_bit_identical_to_batch(preset, preset_run):
    frame, tool = preset_run(preset)
    n_states, n_exceptions, _ = _assert_differential(tool, frame, preset)
    assert n_states > 0 and n_exceptions > 0


def test_testbed_streaming_bit_identical_to_batch(testbed_tool, testbed_trace):
    n_states, n_exceptions, _ = _assert_differential(
        testbed_tool, testbed_trace, "testbed"
    )
    assert n_states > 0 and n_exceptions > 0


def test_diagnose_stream_flushes_open_incidents(testbed_tool, testbed_trace):
    """The generator facade ends with a state-less flush update."""
    updates = list(testbed_tool.diagnose_stream(testbed_trace))
    assert updates, "stream produced no updates"
    opened = [e for u in updates for e in u.events if e.kind == "open"]
    closed = [e for u in updates for e in u.events if e.kind == "close"]
    assert len(opened) == len(closed) > 0
    assert sorted(e.incident_id for e in opened) == sorted(
        e.incident_id for e in closed
    )
    final = updates[-1]
    if final.state is None:  # flush update present iff incidents were open
        assert final.events and all(e.kind == "close" for e in final.events)


def _stat_less_save(tool, path):
    """``tool`` saved the way an older version did: no training stats."""
    tool.save(path)
    with np.load(path.with_suffix(".npz")) as arrays:
        stripped = {
            k: arrays[k] for k in arrays.files if not k.startswith("train_")
        }
    np.savez_compressed(path.with_suffix(".npz"), **stripped)
    # A real legacy save predates model_version too.
    sidecar_path = path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())
    sidecar.pop("model_version", None)
    sidecar_path.write_text(json.dumps(sidecar))
    return path


def test_stat_less_save_is_refused(tmp_path, testbed_tool, capsys):
    """A save without training stats cannot screen, so no stream is
    diagnosed from it: ``vn2 watch`` stops at the load, before any
    packet, with one line on stderr and exit code 1."""
    from repro.cli import main

    path = _stat_less_save(testbed_tool, tmp_path / "model")
    code = main(["watch", str(tmp_path / "trace.jsonl"), "--model", str(path),
                 "--no-follow"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("vn2 watch: ") and err.count("\n") == 1
    assert "no training statistics" in err and "re-fit it with `vn2 train`" in err


# --------------------------------------------------------------------------
# every entry point == the per-packet oracle
# --------------------------------------------------------------------------


def _chunks(n, rng):
    """Random batch boundaries: sizes 1..600, small ones as often as big."""
    bounds, start = [], 0
    while start < n:
        high = 16 if rng.random() < 0.5 else 600
        size = int(rng.integers(1, high + 1))
        bounds.append((start, min(n, start + size)))
        start += size
    return bounds


def _registry_counts(registry):
    """The registry dump without timings: histograms keep their sample
    count, not their buckets or sums."""
    out = {}
    for name, entry in registry.dump().items():
        out[name] = [
            {k: v for k, v in series.items() if k not in ("sum", "counts")}
            for series in entry["series"]
        ]
    return out


def _session_outputs(session, events):
    drained = session.drain_exception_states()
    return {
        "events": events,
        "counters": session.counters(),
        "nodes": session.node_summaries(),
        "incidents": _tracker_doc(session.tracker),
        "drift": session.drift_score,
        "reservoir": [
            getattr(drained, column).tolist()
            for column in ("values", "node_ids", "epochs_from", "epochs_to",
                           "times_from", "times_to")
        ],
        "flush": session.finish(),
        "registry": _registry_counts(session.registry),
    }


def _update_key(update):
    """A :class:`StreamUpdate` as plain, ``==``-comparable values."""
    state, report = update.state, update.report
    return (
        None if state is None else (
            state.values.tobytes(), state.node_id, state.epoch_from,
            state.epoch_to, state.time_from, state.time_to,
        ),
        update.score,
        bool(update.is_exception),
        None if report is None else (
            report.weights.tobytes(), report.ranked, report.residual,
            report.relative_residual,
        ),
        update.observations,
        update.events,
    )


def _entry_points(tool, packets, seed, rotate_to=None, **kwargs):
    """Run ``packets`` through the oracle and through every entry point.

    Returns ``{name: (outputs, update keys or None)}``.  ``push_batch``
    takes a seeded random chunking.  With ``rotate_to``, every session
    switches to that model at the first batch boundary past the middle
    of the stream.
    """
    def make(cls=StreamingDiagnosisSession):
        return cls(
            tool,
            registry=MetricsRegistry(enabled=True),
            metric_labels={"deployment": "d",
                           "model_version": tool.model_version},
            keep_exception_states=64,
            max_closed_incidents=50,
            **kwargs,
        )

    chunks = _chunks(len(packets), np.random.default_rng(seed))
    cut = None
    if rotate_to is not None:
        cut = next(a for a, _ in chunks if a >= len(packets) // 2)
    halves = [packets] if cut is None else [packets[:cut], packets[cut:]]

    def one_at_a_time(session):
        updates = []
        for index, packet in enumerate(packets):
            if index == cut:
                session.set_model(rotate_to)
            update = session.push_packet(*packet)
            if update is not None:
                updates.append(update)
        return updates

    def processed(session):
        updates = []
        for i, half in enumerate(halves):
            if i:
                session.set_model(rotate_to)
            updates.extend(session.process(half))
        return updates

    runs = {}
    for name, cls, run in (
        ("oracle", PacketLoopSession, one_at_a_time),
        ("push_packet", StreamingDiagnosisSession, one_at_a_time),
        ("process", StreamingDiagnosisSession, processed),
    ):
        session = make(cls)
        updates = run(session)
        events = [e for u in updates for e in u.events]
        runs[name] = (_session_outputs(session, events),
                      [_update_key(u) for u in updates])
    batched, events = make(), []
    for start, end in chunks:
        if start == cut:
            batched.set_model(rotate_to)
        events.extend(
            batched.push_batch(PacketBatch.from_packets(packets[start:end]))
        )
    runs["push_batch"] = (_session_outputs(batched, events), None)
    return runs


def _assert_same_outputs(runs):
    expected, expected_updates = runs["oracle"]
    assert expected["events"], "workload emitted no incident events"
    for name, (got, updates) in runs.items():
        for key in expected:
            assert got[key] == expected[key], (name, key)
        if updates is not None:
            assert updates == expected_updates, name


def _assert_diagnose_stream_matches(tool, packets, **kwargs):
    """``VN2.diagnose_stream`` yields the oracle's updates, then one
    flush update."""
    oracle = PacketLoopSession(tool, **kwargs)
    expected = [_update_key(u) for u in oracle.process(packets)]
    closing = oracle.finish()
    got = [_update_key(u) for u in tool.diagnose_stream(packets, **kwargs)]
    if closing:
        flush = got.pop()
        assert flush == (None, None, False, None, [], closing)
    assert got == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_push_batch_matches_push_packet(seed, testbed_tool, testbed_trace):
    packets = list(iter_packets(testbed_trace))
    runs = _entry_points(testbed_tool, packets, seed)
    _assert_same_outputs(runs)
    assert runs["oracle"][0]["counters"]["exceptions"] > 0
    if seed == 0:
        _assert_diagnose_stream_matches(testbed_tool, packets)
        _assert_diagnose_stream_matches(
            testbed_tool, testbed_trace
        )


def _shuffled_arrivals(packets, rng):
    """Arrival stream with duplicate and out-of-order epochs: some packets
    arrive twice, some swap places with the next one."""
    out = []
    for packet in packets:
        out.append(packet)
        if rng.random() < 0.05:
            out.append(packet)
    for i in range(len(out) - 1):
        if rng.random() < 0.05:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


@pytest.mark.parametrize("kwargs", [
    {},
    {"max_epoch_gap": 2},
    {"per_epoch_rate": True},
    {"max_epoch_gap": 3, "per_epoch_rate": True},
], ids=["plain", "max_gap", "rate", "max_gap_rate"])
def test_push_batch_matches_on_disordered_lossy_stream(
    kwargs, testbed_tool, testbed_trace
):
    rng = np.random.default_rng(11)
    packets = [
        p for p in iter_packets(testbed_trace)
        if rng.random() > 0.15  # loss opens epoch gaps
    ]
    packets = _shuffled_arrivals(packets, rng)
    _assert_same_outputs(_entry_points(testbed_tool, packets, 5, **kwargs))
    if "per_epoch_rate" not in kwargs:  # not a diagnose_stream knob
        _assert_diagnose_stream_matches(testbed_tool, packets, **kwargs)


def test_push_batch_matches_with_stat_less_model(testbed_tool, testbed_trace):
    """A model without training stats gets one answer everywhere:
    ``push_batch``, every other streaming entry point, the per-packet
    oracle and the batch entry points all refuse it as not fitted,
    instead of diagnosing every state or none."""
    from repro.analysis.evaluation import evaluate_diagnoses
    from repro.analysis.node_report import node_health_report
    from repro.analysis.scorecard import score_frame

    tool = copy.deepcopy(testbed_tool)
    tool._train_mean = None
    packets = list(iter_packets(testbed_trace))[:1500]
    states = build_states(testbed_trace)

    def session(cls=StreamingDiagnosisSession):
        return cls(tool, registry=MetricsRegistry(enabled=False))

    def push_packets(cls=StreamingDiagnosisSession):
        one_row = session(cls)
        for packet in packets:
            one_row.push_packet(*packet)

    refusals = {
        "push_batch": lambda: session().push_batch(
            PacketBatch.from_packets(packets)
        ),
        "push_packet": push_packets,
        "oracle": lambda: push_packets(PacketLoopSession),
        "process": lambda: list(session().process(packets)),
        "diagnose_stream": lambda: list(tool.diagnose_stream(packets)),
        "exception_score": lambda: tool.exception_score(states.values[0]),
        "aggregator": lambda: IncidentAggregator(tool).observations(states),
        "evaluation": lambda: evaluate_diagnoses(
            tool, testbed_trace, states=states.select(range(50))
        ),
        "node_report": lambda: node_health_report(tool, testbed_trace),
        "scorecard": lambda: score_frame(tool, testbed_trace),
    }
    for name, call in refusals.items():
        with pytest.raises(RuntimeError, match="not fitted"):
            call()
            pytest.fail(f"{name} accepted a stat-less model")


def test_push_batch_matches_across_set_model(testbed_tool, testbed_trace):
    rotated = VN2(VN2Config(rank=6)).fit(testbed_trace)
    packets = list(iter_packets(testbed_trace))
    runs = _entry_points(testbed_tool, packets, 4, rotate_to=rotated)
    _assert_same_outputs(runs)
    labels = {
        tuple(sorted(series["labels"].items()))
        for series in runs["push_batch"][0]["registry"][
            "repro_streaming_states_total"
        ]
    }
    assert len(labels) == 2  # one series per model version


def test_push_batch_of_nothing_is_a_no_op(testbed_tool):
    session = StreamingDiagnosisSession(testbed_tool)
    assert session.push_batch(PacketBatch.from_packets([])) == []
    assert session.counters()["packets"] == 0
