"""Metrics primitives: counters, gauges, fixed-bucket histograms, registry.

The telemetry layer every subsystem reports into.  Design constraints,
in order:

1. **Cheap enough to leave on.**  ``Counter.inc`` is one integer add;
   ``Histogram.observe`` is one bisect over a short tuple plus two adds.
   No locks on the hot path (single-writer subsystems — the streaming
   session, the service event loop — are the intended producers; the
   GIL makes the stray cross-thread read safe enough for monitoring).
2. **A no-op when disabled.**  A disabled registry hands out shared
   no-op metric objects whose mutators are empty methods, so
   instrumented code pays one method call and nothing else.
3. **Dependency-free.**  Pure stdlib; numpy never enters the hot path.

Naming convention (enforced only by review, documented in
``docs/observability.md``): ``repro_<subsystem>_<name>``, with counters
ending in ``_total`` and histogram/gauge units spelled out
(``_seconds``, ``_bytes``, ``_packets``).

Every metric is addressed by ``(name, labels)``; repeated
``registry.counter(...)`` calls with the same address return the same
object, so call sites never need module-level caching to stay correct
(though hot loops should hold the returned object).

:func:`MetricsRegistry.to_prometheus` renders the whole registry in the
Prometheus text exposition format (version 0.0.4); use
:func:`validate_exposition` to syntax-check such output (the CI job
does).
"""

from __future__ import annotations

import math
import os
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "NULL_REGISTRY",
    "get_registry",
    "merge_dumps",
    "set_registry",
    "validate_exposition",
]

#: General-purpose duration buckets (seconds): half a millisecond to 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fine-grained buckets for per-packet / per-solve latencies (seconds):
#: ten microseconds up to one second.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3,
    5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for key, _value in items:
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
    return items


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(items: LabelItems, extra: LabelItems = ()) -> str:
    merged = items + extra
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in merged
    )
    return "{" + body + "}"


def _format_value(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _format_le(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    as_int = int(bound)
    return str(as_int) if as_int == bound else repr(bound)


class Counter:
    """A monotonically increasing count.

    Values are plain Python ints, so they never wrap: incrementing past
    2**63 simply promotes to a big integer (asserted by the test suite).
    """

    kind = "counter"
    __slots__ = ("name", "help", "labels", "_value")

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self._value += amount

    @property
    def value(self):
        return self._value

    def sample(self) -> dict:
        return {"labels": dict(self.labels), "value": self._value}


class Gauge:
    """A value that goes up and down — or a live callback.

    ``set_function`` turns the gauge into a pull-through: reading
    :attr:`value` invokes the callback (used for "how many incidents are
    open right now" style metrics, where the source of truth already
    exists and duplicating it invites drift).
    """

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "_value", "_fn")

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._fn = None
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Make the gauge read through ``fn`` (None reverts to stored)."""
        self._fn = fn

    @property
    def value(self):
        if self._fn is not None:
            try:
                return self._fn()
            except Exception:
                # A dead callback (e.g. its owner was garbage collected
                # mid-call) must never take the whole scrape down.
                return float("nan")
        return self._value

    def sample(self) -> dict:
        return {"labels": dict(self.labels), "value": self.value}


class Histogram:
    """Fixed-bucket histogram with cheap observes and estimated quantiles.

    Buckets are upper bounds with Prometheus ``le`` semantics: a sample
    lands in the first bucket whose bound is **>= the value** (boundary
    values inclusive), with an implicit ``+Inf`` bucket catching the
    rest.  Quantiles are estimated by linear interpolation inside the
    target bucket — exact at bucket boundaries, bounded error inside —
    the same estimate ``histogram_quantile`` computes server-side.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "bounds", "_counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: LabelItems = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if any(math.isinf(b) or math.isnan(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` samples of ``value`` (O(log buckets))."""
        self._counts[bisect_left(self.bounds, value)] += count
        self.sum += value * count
        self.count += count

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, +Inf last."""
        return list(self._counts)

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile (``None`` when empty; ``0 <= q <= 1``)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                if i >= len(self.bounds):
                    # +Inf bucket: the largest finite bound is the best
                    # statement the histogram can make.
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                into = (target - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * min(max(into, 0.0), 1.0)
        return self.bounds[-1]

    def sample(self) -> dict:
        return {
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.sum,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class _NoopCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NoopGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set_function(self, fn=None) -> None:
        pass


class _NoopHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float, count: int = 1) -> None:
        pass


_NOOP_COUNTER = _NoopCounter("noop")
_NOOP_GAUGE = _NoopGauge("noop")
_NOOP_HISTOGRAM = _NoopHistogram("noop", buckets=(1.0,))


class MetricsRegistry:
    """The process's metric namespace.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: the first call
    for a ``(name, labels)`` address creates the series, later calls
    return it.  One *name* always maps to one kind (and one help string —
    the first one wins); requesting the same name as a different kind
    raises, catching copy-paste instrumentation bugs early.

    A registry constructed with ``enabled=False`` hands out shared no-op
    metrics and records nothing — the "instrumentation off" mode the
    overhead benchmark compares against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._helps: Dict[str, str] = {}
        self._bound: Dict[Callable, object] = {}

    # -- creation ------------------------------------------------------

    def bound(self, factory: Callable[["MetricsRegistry"], object]):
        """``factory(self)``, made on the first call and reused after.

        For a group of handles a hot path records through (such as
        :class:`~repro.core.inference.NNLSMetrics`) when its caller
        passes none: one dict lookup instead of a get-or-create per
        series per call.
        """
        handles = self._bound.get(factory)
        if handles is None:
            handles = self._bound[factory] = factory(self)
        return handles

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        items = _label_items(labels)
        key = (name, items)
        metric = self._metrics.get(key)
        if metric is not None:
            if metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {kind}, "
                        f"requested {cls.kind}"
                    )
                metric = cls(name, help=help, labels=items, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
            elif metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            # Help text is per *name*: the first non-empty string wins,
            # but a later registration may backfill an empty one (merge
            # paths can register a name before the instrumented code
            # does), so HELP coverage never depends on registration order.
            if help and not self._helps.get(name):
                self._helps[name] = help
            else:
                self._helps.setdefault(name, help)
        return metric

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        if not self.enabled:
            return _NOOP_COUNTER
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        if not self.enabled:
            return _NOOP_GAUGE
        gauge = self._get_or_create(Gauge, name, help, labels)
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self, name: str, help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        if not self.enabled:
            return _NOOP_HISTOGRAM
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # -- introspection -------------------------------------------------

    def collect(self) -> Dict[str, List[object]]:
        """Name -> series list, names sorted, series in creation order."""
        by_name: Dict[str, List[object]] = {}
        for (name, _labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            by_name.setdefault(name, []).append(metric)
        return by_name

    def snapshot(self) -> dict:
        """JSON-ready view of every series (the ``vn2 stats`` document)."""
        out: Dict[str, dict] = {}
        for name, series in self.collect().items():
            out[name] = {
                "kind": self._kinds[name],
                "help": self._helps.get(name, ""),
                "series": [metric.sample() for metric in series],
            }
        return out

    def reset(self) -> None:
        """Drop every registered series (test isolation helper)."""
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._helps.clear()
            self._bound.clear()

    # -- cross-process merge -------------------------------------------

    def dump(self) -> dict:
        """Full, mergeable state of every series.

        Unlike :meth:`snapshot` (which renders *derived* values such as
        histogram quantiles), a dump keeps raw histogram bucket counts so
        two processes' dumps can be summed without loss.  This is the
        payload a sink-cluster worker ships to the front door for the
        merged ``/metrics`` rollup; gauges are resolved through their
        callbacks at dump time.
        """
        out: Dict[str, dict] = {}
        for name, series in self.collect().items():
            entry: Dict[str, object] = {
                "kind": self._kinds[name],
                "help": self._helps.get(name, ""),
                "series": [],
            }
            for metric in series:
                record: Dict[str, object] = {"labels": dict(metric.labels)}
                if metric.kind == "histogram":
                    record["buckets"] = list(metric.bounds)
                    record["counts"] = metric.bucket_counts()
                    record["sum"] = metric.sum
                    record["count"] = metric.count
                else:
                    value = metric.value
                    record["value"] = (
                        float(value) if isinstance(value, float) else value
                    )
                entry["series"].append(record)
            out[name] = entry
        return out

    def merge_dump(self, dump: Mapping[str, dict]) -> None:
        """Fold one :meth:`dump` into this registry.

        Counters and gauges add; histograms add bucket by bucket (the
        bucket bounds must match — every repro metric name has one fixed
        bucket layout, so a mismatch means two incompatible versions and
        raises).  Series are matched by ``(name, labels)``: give each
        producer distinguishing labels (the cluster stamps ``worker``)
        when summing would hide information.
        """
        for name, entry in dump.items():
            kind = entry.get("kind")
            for record in entry.get("series", ()):
                labels = record.get("labels") or None
                if kind == "counter":
                    self.counter(name, entry.get("help", ""), labels).inc(
                        int(record.get("value", 0))
                    )
                elif kind == "gauge":
                    gauge = self.gauge(name, entry.get("help", ""), labels)
                    value = record.get("value", 0.0)
                    if value is None or (
                        isinstance(value, float) and math.isnan(value)
                    ):
                        value = 0.0  # dead callback at dump time adds nothing
                    gauge.inc(float(value))
                elif kind == "histogram":
                    bounds = tuple(record.get("buckets", ()))
                    histogram = self.histogram(
                        name, entry.get("help", ""), labels,
                        buckets=bounds or DEFAULT_BUCKETS,
                    )
                    if histogram.bounds != bounds:
                        raise ValueError(
                            f"histogram {name!r}: dump buckets {bounds} do "
                            f"not match registered {histogram.bounds}"
                        )
                    counts = record.get("counts", ())
                    for i, bucket_count in enumerate(counts):
                        histogram._counts[i] += int(bucket_count)
                    histogram.sum += float(record.get("sum", 0.0))
                    histogram.count += int(record.get("count", 0))
                else:
                    raise ValueError(
                        f"cannot merge metric {name!r} of kind {kind!r}"
                    )

    # -- exposition ----------------------------------------------------

    def to_prometheus(self) -> str:
        """Render the registry as Prometheus text exposition (0.0.4)."""
        lines: List[str] = []
        for name, series in self.collect().items():
            help_text = self._helps.get(name, "")
            if help_text:
                escaped = help_text.replace("\\", r"\\").replace("\n", r"\n")
                lines.append(f"# HELP {name} {escaped}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for metric in series:
                if metric.kind == "histogram":
                    cumulative = 0
                    counts = metric.bucket_counts()
                    for bound, bucket_count in zip(
                        list(metric.bounds) + [float("inf")], counts
                    ):
                        cumulative += bucket_count
                        label_str = _format_labels(
                            metric.labels, (("le", _format_le(bound)),)
                        )
                        lines.append(f"{name}_bucket{label_str} {cumulative}")
                    label_str = _format_labels(metric.labels)
                    lines.append(
                        f"{name}_sum{label_str} {_format_value(metric.sum)}"
                    )
                    lines.append(f"{name}_count{label_str} {metric.count}")
                else:
                    label_str = _format_labels(metric.labels)
                    lines.append(
                        f"{name}{label_str} {_format_value(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def merge_dumps(dumps: Iterable[Mapping[str, dict]]) -> MetricsRegistry:
    """Build one registry holding the sum of several :meth:`dump` payloads.

    The cluster front door calls this with its own dump plus one per
    worker to render a single merged ``/metrics`` scrape.  Matching
    ``(name, labels)`` series sum, so producers that must stay distinct
    in the rollup (per-worker session counters) need a distinguishing
    label before dumping.
    """
    merged = MetricsRegistry(enabled=True)
    for dump in dumps:
        merged.merge_dump(dump)
    return merged


#: A permanently disabled registry: pass it anywhere a ``registry``
#: argument is accepted to switch that producer's instrumentation off.
NULL_REGISTRY = MetricsRegistry(enabled=False)

_default_registry = MetricsRegistry(
    enabled=os.environ.get("VN2_OBS", "1") != "0"
)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (``VN2_OBS=0`` disables it)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


# --------------------------------------------------------------------------
# exposition-format validation (used by tests and the CI job)
# --------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$'
)


def validate_exposition(text: str, require_help: bool = False) -> int:
    """Syntax-check Prometheus text exposition; returns the sample count.

    Raises ``ValueError`` on the first malformed line.  This is a strict
    line-grammar check (HELP/TYPE comments, sample lines with optional
    labels and timestamps, numeric values incl. ``+Inf``/``NaN``), not a
    full semantic validation.

    With ``require_help=True``, additionally require every ``# TYPE``'d
    metric to carry a ``# HELP`` line with a non-empty description — the
    repo-wide exposition contract (CI scrapes are checked with it).
    """
    n_samples = 0
    typed: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise ValueError(
                        f"line {lineno}: malformed {parts[1]} comment: {line!r}"
                    )
                if parts[1] == "TYPE":
                    kind = parts[3] if len(parts) > 3 else ""
                    if kind not in (
                        "counter", "gauge", "histogram", "summary", "untyped"
                    ):
                        raise ValueError(
                            f"line {lineno}: unknown metric type {kind!r}"
                        )
                    typed[parts[2]] = kind
                else:
                    helped[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        labels = match.group("labels")
        if labels is not None and labels != "":
            for pair in _split_label_pairs(labels, lineno):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(
                        f"line {lineno}: malformed label pair {pair!r}"
                    )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric sample value {value!r}"
                ) from None
        n_samples += 1
    if n_samples == 0:
        raise ValueError("no samples in exposition")
    if require_help:
        missing = sorted(
            name for name in typed if not helped.get(name, "").strip()
        )
        if missing:
            raise ValueError(
                f"metrics missing a # HELP description: {', '.join(missing)}"
            )
    return n_samples


def _split_label_pairs(labels: str, lineno: int) -> List[str]:
    """Split ``a="x",b="y"`` respecting escaped quotes inside values."""
    pairs: List[str] = []
    depth_in_quotes = False
    current = ""
    i = 0
    while i < len(labels):
        ch = labels[i]
        if ch == "\\" and depth_in_quotes and i + 1 < len(labels):
            current += labels[i:i + 2]
            i += 2
            continue
        if ch == '"':
            depth_in_quotes = not depth_in_quotes
        if ch == "," and not depth_in_quotes:
            pairs.append(current)
            current = ""
        else:
            current += ch
        i += 1
    if current:
        pairs.append(current)
    if depth_in_quotes:
        raise ValueError(f"line {lineno}: unterminated label value")
    return pairs
