"""Telemetry threaded through the real subsystems.

End-to-end checks of the observability PR's acceptance criteria: a fit
under an enabled tracer produces a span per pipeline stage while the
``timings_`` dict keeps its seed-era keys; the streaming session and
incident tracker report into an injected registry (with labels, and a
weakref-bound open-incident gauge); and the CLI faces — ``vn2 profile``
and ``vn2 watch --stats-every`` — work against real traces on disk.
"""

from __future__ import annotations

import gc
import json
import math

import pytest

from repro.cli import main
from repro.core.incidents import IncidentTracker, Observation
from repro.core.pipeline import VN2, VN2Config
from repro.core.streaming import StreamingDiagnosisSession, iter_packets
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_tracer,
    set_registry,
    set_tracer,
    validate_exposition,
)
from repro.traces.io import save_frame


@pytest.fixture()
def traced():
    """An enabled tracer and a fresh default registry, installed globally."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)
    prev_tracer = set_tracer(tracer)
    prev_registry = set_registry(registry)
    try:
        yield tracer, registry
    finally:
        set_tracer(prev_tracer)
        set_registry(prev_registry)


# ---------------------------------------------------------------------------
# VN2.fit under the tracer
# ---------------------------------------------------------------------------

FIT_STAGES = [
    "fit.states", "fit.exceptions", "fit.normalize", "fit.rank_sweep",
    "fit.nmf", "fit.sparsify", "fit.interpret",
]


def test_fit_spans_cover_every_stage(tiny_citysee_trace, traced):
    tracer, registry = traced
    tool = VN2(VN2Config(rank=None, rank_candidates=(4, 8))).fit(
        tiny_citysee_trace
    )

    (root,) = tracer.roots
    assert root.name == "fit"
    child_names = [c.name for c in root.children]
    assert child_names == FIT_STAGES  # every stage, in pipeline order
    by_name = {c.name: c for c in root.children}

    # timings_ keeps its seed-era keys, derived from the same spans
    assert set(tool.timings_) == {"states", "exceptions", "nmf", "sparsify"}
    assert tool.timings_["states"] == by_name["fit.states"].wall_s
    assert tool.timings_["exceptions"] == by_name["fit.exceptions"].wall_s
    assert tool.timings_["sparsify"] == by_name["fit.sparsify"].wall_s
    # the nmf key covers rank sweep + final factorization, as the old
    # stopwatch did
    assert tool.timings_["nmf"] == pytest.approx(
        by_name["fit.rank_sweep"].wall_s + by_name["fit.nmf"].wall_s
    )

    # stage attrs carry the run's shape
    assert by_name["fit.rank_sweep"].attrs["candidates"] == [4, 8]
    assert by_name["fit.nmf"].attrs["rank"] == tool.rank_

    # fit counters landed in the installed registry
    fits = registry.counter("repro_core_fits_total")
    states = registry.counter("repro_core_fit_states_total")
    assert fits.value == 1
    assert states.value == len(tool.states_)


def test_fixed_rank_fit_skips_the_sweep_span(tiny_citysee_trace, traced):
    tracer, _registry = traced
    VN2(VN2Config(rank=6)).fit(tiny_citysee_trace)
    (root,) = tracer.roots
    names = [c.name for c in root.children]
    assert "fit.rank_sweep" not in names
    assert "fit.nmf" in names


def test_diagnose_batch_records_nnls(tiny_citysee_tool, tiny_citysee_trace,
                                     traced):
    # the session-scoped tool fixture is listed first so its (possibly
    # traced) construction happens before the tracer swap, not inside it
    tracer, registry = traced
    from repro.core.states import build_states

    states = build_states(tiny_citysee_trace)
    reports = tiny_citysee_tool.diagnose_batch(states.values[:32])
    assert len(reports) == 32
    assert [r.name for r in tracer.roots] == ["diagnose.nnls"]
    assert tracer.roots[0].attrs == {"n_states": 32}
    assert tiny_citysee_tool.timings_["nnls"] == tracer.roots[0].wall_s
    assert registry.counter("repro_core_nnls_batches_total").value == 1
    assert registry.counter("repro_core_nnls_states_total").value == 32
    assert registry.histogram("repro_core_nnls_batch_seconds").count == 1


# ---------------------------------------------------------------------------
# Streaming session + incident tracker against an injected registry
# ---------------------------------------------------------------------------


def test_session_reports_into_injected_registry(testbed_tool, testbed_trace):
    frame = testbed_trace
    registry = MetricsRegistry(enabled=True)
    labels = {"deployment": "lab"}
    session = StreamingDiagnosisSession(
        testbed_tool, registry=registry, metric_labels=labels
    )
    for i, packet in enumerate(iter_packets(frame)):
        session.push_packet(*packet)
        if i >= 999:
            break

    counts = session.counters()
    assert counts["packets"] == 1000

    def metric(name):
        return registry.counter(name, labels=labels).value

    assert metric("repro_streaming_packets_total") == counts["packets"]
    assert metric("repro_streaming_states_total") == counts["states"]
    assert metric("repro_streaming_exceptions_total") == counts["exceptions"]
    assert metric("repro_incidents_opened_total") >= counts["incidents_open"]
    latency = registry.histogram(
        "repro_streaming_packet_seconds", labels=labels
    )
    assert latency.count == counts["packets"]
    assert latency.quantile(0.5) is not None

    # the open-incident gauge reads through to the tracker, live
    gauge = registry.gauge("repro_incidents_open", labels=labels)
    assert gauge.value == float(session.tracker.n_open)
    events = session.finish()
    assert metric("repro_streaming_incident_events_total") >= len(events)
    assert gauge.value == 0.0  # finish closed everything

    # the whole registry renders as valid Prometheus exposition
    text = registry.to_prometheus()
    assert validate_exposition(text) > 0
    assert 'repro_streaming_packets_total{deployment="lab"} 1000' in text

    # weakref binding: a collected tracker must not wedge the scrape
    del session
    gc.collect()
    assert gauge.value == 0.0 or math.isnan(gauge.value)
    validate_exposition(registry.to_prometheus())


def test_disabled_registry_session_still_counts(testbed_tool, testbed_trace):
    from repro.obs import NULL_REGISTRY

    frame = testbed_trace
    session = StreamingDiagnosisSession(testbed_tool, registry=NULL_REGISTRY)
    for i, packet in enumerate(iter_packets(frame)):
        session.push_packet(*packet)
        if i >= 99:
            break
    # the session's own counters dict is registry-independent
    assert session.counters()["packets"] == 100
    assert NULL_REGISTRY.collect() == {}


def _obs(node=1, start=0.0, end=600.0):
    return Observation(
        node_id=node, time_from=start, time_to=end,
        cause_index=0, hazard="congestion", strength=0.5,
    )


def test_tracker_eviction_counters_reach_registry():
    registry = MetricsRegistry(enabled=True)
    tracker = IncidentTracker(
        time_gap_s=600.0, max_closed=2, registry=registry,
        metric_labels={"deployment": "lab"},
    )
    for i in range(6):  # far-apart singles: each add closes the previous
        start = i * 10_000.0
        tracker.add(_obs(start=start, end=start + 600.0))
    tracker.flush()

    def metric(name):
        return registry.counter(name, labels={"deployment": "lab"}).value

    assert metric("repro_incidents_opened_total") == 6
    assert metric("repro_incidents_closed_total") == tracker.n_closed_total == 6
    assert metric("repro_incidents_evicted_total") == tracker.n_evicted == 4
    assert len(tracker.incidents) == 2
    gauge = registry.gauge("repro_incidents_open", labels={"deployment": "lab"})
    assert gauge.value == float(tracker.n_open) == 0.0


# ---------------------------------------------------------------------------
# CLI: vn2 profile / vn2 watch --stats-every
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployed(testbed_tool, testbed_trace, tmp_path_factory):
    """A saved model and JSONL trace, as the watch/profile CLIs want them."""
    root = tmp_path_factory.mktemp("obs-cli")
    model = root / "model"
    testbed_tool.save(model)
    trace = root / "trace.jsonl"
    save_frame(testbed_trace, trace, fmt="jsonl")
    return model, trace


def test_profile_train_prints_tree_and_exports_spans(deployed, tmp_path,
                                                     capsys):
    _model, trace = deployed
    spans_path = tmp_path / "spans.jsonl"
    out_model = tmp_path / "model"
    rc = main([
        "profile", "--top", "5", "--output", str(spans_path),
        "train", str(trace), "--rank", "6", "--no-filter",
        "--output", str(out_model),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profile: vn2 train" in out
    for stage in ("fit", "fit.states", "fit.nmf", "fit.sparsify"):
        assert stage in out
    assert f"spans -> {spans_path}" in out
    # the profiling tracer was uninstalled afterwards
    assert get_tracer().enabled is False

    records = [
        json.loads(line) for line in spans_path.read_text().splitlines()
    ]
    names = {r["name"] for r in records}
    assert {"vn2 train", "fit", "fit.nmf", "fit.interpret"} <= names
    roots = [r for r in records if r["parent_id"] is None]
    assert [r["name"] for r in roots] == ["vn2 train"]
    assert all(r["status"] == "ok" for r in records)


def test_profile_without_command_fails_cleanly(capsys):
    assert main(["profile"]) == 2
    assert "give a subcommand" in capsys.readouterr().err
    assert main(["profile", "profile", "train"]) == 2
    assert "cannot profile itself" in capsys.readouterr().err
    assert get_tracer().enabled is False


def test_watch_stats_every_goes_to_stderr_only(deployed, tmp_path, capsys):
    model, trace = deployed
    log = tmp_path / "events.jsonl"
    rc = main([
        "watch", str(trace), "--model", str(model), "--no-follow",
        "--stats-every", "0", "--output", str(log),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    stats_lines = [
        line for line in captured.err.splitlines()
        if line.startswith("[stats]")
    ]
    assert stats_lines, "no [stats] snapshots on stderr"
    assert "packets=" in stats_lines[-1]
    assert "incidents open=" in stats_lines[-1]
    # stdout keeps the event-line format, untouched by the stats feed
    assert "[stats]" not in captured.out
    assert "watched" in captured.out and "incidents" in captured.out
    # the JSONL event log keeps its exact schema
    event_keys = {
        "kind", "incident_id", "time", "hazard", "node_ids", "start", "end",
        "peak_strength", "total_strength", "n_observations",
    }
    events = [
        json.loads(line) for line in log.read_text().splitlines() if line
    ]
    assert events
    assert all(set(e) == event_keys for e in events)
