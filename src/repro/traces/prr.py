"""Sink PRR (packet reception ratio) analysis — the paper's Figure 6(a).

PRR over a time bin is the number of report packets that arrived at the
sink divided by the number the deployment *should* have produced: every
sensor node emits three report packets per reporting period.  Dead nodes
still count in the denominator — that is exactly why node failures depress
the sink PRR the way the paper observes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.traces.frame import TraceFrame


def prr_series(
    trace: TraceFrame,
    bin_seconds: float = 3600.0,
    n_sensor_nodes: Optional[int] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The sink PRR time series.

    Args:
        trace: A deployment trace with arrival accounting.
        bin_seconds: Width of each PRR bin.
        n_sensor_nodes: Number of reporting nodes; defaults to the trace
            metadata's ``n_nodes`` minus the sink.
        start, end: Analysis window; defaults to the full trace span.

    Returns:
        ``(bin_centers, prr)`` arrays; ``prr`` values are clipped to [0, 1].
    """
    period = float(trace.metadata.get("report_period_s", 600.0))
    if n_sensor_nodes is None:
        n_nodes = int(trace.metadata.get("n_nodes", 0))
        n_sensor_nodes = max(1, n_nodes - 1)
    arrival_times = trace.arrival_times
    if start is None:
        start = 0.0
    if end is None:
        end = float(trace.metadata.get("sim_end", 0.0))
        if end <= start and arrival_times.size:
            end = float(arrival_times.max())
    if end <= start:
        return np.array([]), np.array([])

    edges = np.arange(start, end + bin_seconds, bin_seconds)
    if len(edges) < 2:
        return np.array([]), np.array([])
    counts, _ = np.histogram(arrival_times, bins=edges)
    expected_per_bin = 3.0 * n_sensor_nodes * (bin_seconds / period)
    prr = np.clip(counts / expected_per_bin, 0.0, 1.0)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, prr


def latency_series(
    trace: TraceFrame,
    bin_seconds: float = 3600.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """End-to-end snapshot latency over time.

    Latency of a snapshot is ``received_at - generated_at`` — generation at
    the node to completion of all three report packets at the sink.  The
    series is the per-bin median latency; congested or loopy periods show
    up as latency spikes even before PRR collapses.

    Returns:
        ``(bin_centers, median_latency_s)``; bins without snapshots carry
        NaN.
    """
    if len(trace) == 0:
        return np.array([]), np.array([])
    generated = trace.generated_at
    latencies = trace.received_at - trace.generated_at
    start = float(generated.min())
    end = float(generated.max()) + bin_seconds
    edges = np.arange(start, end + bin_seconds, bin_seconds)
    if len(edges) < 2:
        return np.array([]), np.array([])
    centers = (edges[:-1] + edges[1:]) / 2.0
    medians = np.full(len(centers), np.nan)
    indices = np.searchsorted(edges, generated, side="right") - 1
    for b in range(len(centers)):
        mask = indices == b
        if mask.any():
            medians[b] = float(np.median(latencies[mask]))
    return centers, medians


def degraded_windows(
    centers: np.ndarray,
    prr: np.ndarray,
    threshold_fraction: float = 0.8,
) -> List[Tuple[float, float]]:
    """Contiguous windows where PRR drops below a fraction of its median.

    Used to locate degradation episodes like the paper's Sep 20-22 dip.
    """
    if len(prr) == 0:
        return []
    baseline = float(np.median(prr))
    low = prr < baseline * threshold_fraction
    windows: List[Tuple[float, float]] = []
    run_start: Optional[float] = None
    half_bin = (centers[1] - centers[0]) / 2.0 if len(centers) > 1 else 0.0
    for center, is_low in zip(centers, low):
        if is_low and run_start is None:
            run_start = center - half_bin
        elif not is_low and run_start is not None:
            windows.append((run_start, center - half_bin))
            run_start = None
    if run_start is not None:
        windows.append((run_start, centers[-1] + half_bin))
    return windows
