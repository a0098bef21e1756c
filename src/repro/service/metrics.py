"""Operator metrics for the sink service: counters and latency quantiles.

Kept dependency-free and allocation-light: one fixed-size ring buffer per
shard for ingest latencies (p50/p99 over the most recent window — a
long-lived sink must not keep every sample), plus registry-backed
counters from :mod:`repro.obs`.  Everything here is called from the
server's event loop, so observing a sample is O(1) and quantiles are only
computed when ``/metrics`` asks.

The ``/metrics`` JSON document keeps its original shape (ints plus the
``ingest_latency`` window quantiles); the same counters are *also* what
``/metrics?format=prometheus`` renders, because they live in the
service's private :class:`~repro.obs.MetricsRegistry` alongside the
streaming sessions' metrics.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.obs import LATENCY_BUCKETS, MetricsRegistry

#: Keys of :meth:`StreamingDiagnosisSession.counters` — the session-side
#: half of a shard snapshot.  The router seeds these to zero for a route
#: whose worker has not acked a batch yet.
SESSION_COUNTER_KEYS = (
    "packets", "states", "exceptions",
    "incidents_open", "incidents_closed", "incidents_evicted",
)

#: Every integer key summed into the ``/metrics`` ``totals`` section.
SHARD_TOTAL_KEYS = SESSION_COUNTER_KEYS + (
    "batches_accepted", "batches_rejected", "packets_accepted",
    "events_emitted", "queue_depth_packets",
)


def empty_session_counters() -> Dict[str, int]:
    return {key: 0 for key in SESSION_COUNTER_KEYS}


def sum_shard_totals(per_shard: Mapping[str, Mapping]) -> Dict[str, int]:
    """Roll per-shard snapshots up into the ``totals`` document."""
    return {
        key: sum(s[key] for s in per_shard.values())
        for key in SHARD_TOTAL_KEYS
    }


class LatencyWindow:
    """Rolling window of latency samples with on-demand quantiles.

    Args:
        size: Samples retained (oldest overwritten first).
    """

    def __init__(self, size: int = 4096):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self._buf = np.zeros(size, dtype=float)
        self._next = 0
        self.count = 0  #: lifetime samples observed

    def observe(self, seconds: float) -> None:
        """Record one sample (O(1))."""
        self._buf[self._next] = seconds
        self._next = (self._next + 1) % len(self._buf)
        self.count += 1

    def _window(self) -> np.ndarray:
        n = min(self.count, len(self._buf))
        return self._buf[:n]

    def quantile(self, q: float) -> Optional[float]:
        """Latency quantile over the retained window (None when empty)."""
        window = self._window()
        if window.size == 0:
            return None
        return float(np.quantile(window, q))

    def snapshot(self) -> dict:
        """The ``/metrics`` view: count, p50/p99/max over the window."""
        window = self._window()
        if window.size == 0:
            return {"count": 0, "p50_ms": None, "p99_ms": None, "max_ms": None}
        p50, p99 = np.quantile(window, [0.5, 0.99])
        return {
            "count": self.count,
            "p50_ms": round(float(p50) * 1000.0, 3),
            "p99_ms": round(float(p99) * 1000.0, 3),
            "max_ms": round(float(window.max()) * 1000.0, 3),
        }


class ShardCounters:
    """Per-deployment ingest accounting (the session tracks the rest).

    Counter state lives in a :class:`~repro.obs.MetricsRegistry` — the
    service passes its private registry with a ``{"deployment": name}``
    label set, so one Prometheus scrape covers every shard.  Constructed
    bare (no registry), a private enabled registry keeps the counters
    independent, preserving the original plain-int semantics.

    The legacy attribute names (``batches_accepted`` …) remain readable
    properties; mutation goes through the ``add_*`` methods.
    """

    def __init__(
        self,
        latency: Optional[LatencyWindow] = None,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Mapping[str, str]] = None,
    ):
        reg = MetricsRegistry(enabled=True) if registry is None else registry
        self.registry = reg
        labels = dict(labels) if labels else None
        self.latency = LatencyWindow() if latency is None else latency
        self._batches_accepted = reg.counter(
            "repro_service_batches_accepted_total",
            "Ingest batches queued for diagnosis",
            labels,
        )
        #: backpressure acks sent (never drops)
        self._batches_rejected = reg.counter(
            "repro_service_batches_rejected_total",
            "Ingest batches backpressured (retry_after acks)",
            labels,
        )
        self._packets_accepted = reg.counter(
            "repro_service_packets_accepted_total",
            "Packets queued for diagnosis",
            labels,
        )
        self._events_emitted = reg.counter(
            "repro_service_events_emitted_total",
            "Incident events fanned out to subscribers",
            labels,
        )
        self._ingest_seconds = reg.histogram(
            "repro_service_ingest_seconds",
            "Enqueue-to-diagnosed latency of one ingest batch",
            labels,
            buckets=LATENCY_BUCKETS,
        )

    # -- mutation (event-loop side) ------------------------------------

    def add_batch_accepted(self, n_packets: int) -> None:
        self._batches_accepted.inc()
        self._packets_accepted.inc(n_packets)

    def add_batch_rejected(self) -> None:
        self._batches_rejected.inc()

    def add_events_emitted(self, n_events: int) -> None:
        self._events_emitted.inc(n_events)

    def observe_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)
        self._ingest_seconds.observe(seconds)

    # -- legacy read surface -------------------------------------------

    @property
    def batches_accepted(self) -> int:
        return int(self._batches_accepted.value)

    @property
    def batches_rejected(self) -> int:
        return int(self._batches_rejected.value)

    @property
    def packets_accepted(self) -> int:
        return int(self._packets_accepted.value)

    @property
    def events_emitted(self) -> int:
        return int(self._events_emitted.value)

    def snapshot(self) -> Dict[str, object]:
        return {
            "batches_accepted": self.batches_accepted,
            "batches_rejected": self.batches_rejected,
            "packets_accepted": self.packets_accepted,
            "events_emitted": self.events_emitted,
            "ingest_latency": self.latency.snapshot(),
        }
