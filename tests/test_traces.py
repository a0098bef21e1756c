"""Tests for the trace frame's views, JSONL/CSV IO and PRR analysis."""

import numpy as np
import pytest

from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import GroundTruth, TraceFrame
from repro.traces.io import export_snapshots_csv, load_frame_jsonl, save_frame_jsonl
from repro.traces.prr import degraded_windows, prr_series


def make_trace(n_nodes=3, epochs=5, period=100.0):
    node_ids, epoch_ids, generated = [], [], []
    arrival_times, arrival_nodes = [], []
    for node in range(1, n_nodes + 1):
        for epoch in range(epochs):
            t = epoch * period + node
            node_ids.append(node)
            epoch_ids.append(epoch)
            generated.append(t)
            arrival_times.extend([t + 1.0] * 3)
            arrival_nodes.extend([node] * 3)
    generated = np.array(generated)
    return TraceFrame(
        node_ids=node_ids,
        epochs=epoch_ids,
        generated_at=generated,
        received_at=generated + 1.0,
        values=np.random.default_rng(0).uniform(
            0, 10, size=(len(node_ids), NUM_METRICS)
        ),
        metadata={"report_period_s": period, "n_nodes": n_nodes + 1,
                  "sim_end": epochs * period},
        ground_truth=[GroundTruth("node_failure", (2,), 150.0, 250.0)],
        packets_generated=n_nodes * epochs * 3,
        packets_received=len(arrival_times),
        arrival_times=arrival_times,
        arrival_nodes=arrival_nodes,
    )


def empty_frame(**kwargs):
    return TraceFrame(node_ids=[], epochs=[], generated_at=[], received_at=[],
                      values=np.zeros((0, NUM_METRICS)), **kwargs)


def test_node_ids_and_rows_for():
    trace = make_trace()
    assert trace.unique_node_ids == [1, 2, 3]
    rows = trace.node_slice(2)
    assert rows.stop - rows.start == 5
    assert np.all(trace.node_ids[rows] == 2)


def test_window_filters_by_generated_time():
    trace = make_trace()
    sub = trace.window(100.0, 300.0)
    assert np.all((sub.generated_at >= 100.0) & (sub.generated_at < 300.0))
    assert len(sub) == 6
    assert np.all((sub.arrival_times >= 100.0) & (sub.arrival_times < 300.0))
    assert len(sub.arrival_times) == 3 * 6


def test_delivery_ratio():
    trace = make_trace()
    assert trace.delivery_ratio() == pytest.approx(1.0)


def test_time_span():
    trace = make_trace(n_nodes=2, epochs=4, period=50.0)
    start, end = trace.time_span()
    assert start == pytest.approx(1.0)  # node 1, epoch 0 at t=0*50+1
    assert end == pytest.approx(3 * 50.0 + 2)  # node 2, last epoch


def test_time_span_empty():
    assert empty_frame().time_span() == (0.0, 0.0)


def test_ground_truth_in_window():
    trace = make_trace()
    assert trace.ground_truth_in(200.0, 300.0)
    assert not trace.ground_truth_in(300.0, 400.0)


def test_jsonl_roundtrip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.jsonl"
    save_frame_jsonl(trace, path)
    loaded = load_frame_jsonl(path)
    assert len(loaded) == len(trace)
    assert loaded.metadata["report_period_s"] == 100.0
    assert loaded.packets_generated == trace.packets_generated
    assert loaded.ground_truth[0].kind == "node_failure"
    assert loaded.ground_truth[0].node_ids == (2,)
    assert np.allclose(loaded.values[0], trace.values[0], atol=1e-5)
    assert np.array_equal(loaded.arrival_times, trace.arrival_times)
    assert np.array_equal(loaded.arrival_nodes, trace.arrival_nodes)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_frame_jsonl(path)


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format_version": 99, "metric_names": []}\n')
    with pytest.raises(ValueError):
        load_frame_jsonl(path)


def test_csv_export(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    export_snapshots_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(trace)
    assert lines[0].startswith("node_id,epoch,")


def test_prr_series_full_delivery():
    trace = make_trace()
    centers, prr = prr_series(trace, bin_seconds=100.0)
    assert len(centers) > 0
    assert np.all(prr > 0.9)


def test_prr_series_empty_trace():
    centers, prr = prr_series(empty_frame(metadata={}))
    assert len(centers) == 0


def test_prr_detects_outage():
    trace = make_trace(epochs=20)
    # drop all arrivals in [500, 1000)
    keep = (trace.arrival_times < 500) | (trace.arrival_times >= 1000)
    trace.arrival_times = trace.arrival_times[keep]
    trace.arrival_nodes = trace.arrival_nodes[keep]
    centers, prr = prr_series(trace, bin_seconds=100.0)
    windows = degraded_windows(centers, prr, threshold_fraction=0.8)
    assert windows
    start, end = windows[0]
    assert 400 <= start <= 600
    assert 900 <= end <= 1100


def test_degraded_windows_flat_series():
    centers = np.arange(10.0)
    prr = np.ones(10)
    assert degraded_windows(centers, prr) == []
