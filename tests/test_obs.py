"""Unit tests for the telemetry core: metrics primitives and tracing spans.

The ISSUE's contract points pinned here: histogram boundary values land
le-inclusively, empty histograms answer ``None`` to quantile queries,
counters promote past 2**63 instead of wrapping, spans nest and mark the
frame an exception crossed, and the Prometheus rendering of a registry
survives :func:`validate_exposition`.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    Span,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
    span,
    validate_exposition,
)


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------


def test_counter_counts():
    c = Counter("repro_test_total")
    assert c.value == 0
    c.inc()
    c.inc(41)
    assert c.value == 42
    assert c.sample() == {"labels": {}, "value": 42}


def test_counter_rejects_negative_increments():
    c = Counter("repro_test_total")
    with pytest.raises(ValueError, match="only go up"):
        c.inc(-1)
    assert c.value == 0


def test_counter_overflows_to_python_bigint():
    """Past the int64 range the counter must keep exact values, not wrap."""
    c = Counter("repro_test_total")
    c.inc(2**63 - 1)
    c.inc(1)
    c.inc(1)
    assert c.value == 2**63 + 1  # exact, and > any int64


# ---------------------------------------------------------------------------
# Gauge
# ---------------------------------------------------------------------------


def test_gauge_set_inc_dec():
    g = Gauge("repro_test_gauge")
    g.set(3.0)
    g.inc()
    g.dec(0.5)
    assert g.value == pytest.approx(3.5)


def test_gauge_callback_reads_through():
    g = Gauge("repro_test_gauge")
    state = {"n": 7}
    g.set_function(lambda: float(state["n"]))
    assert g.value == 7.0
    state["n"] = 9
    assert g.value == 9.0
    # a direct set() reverts to stored-value mode
    g.set(1.0)
    assert g.value == 1.0


def test_gauge_callback_failure_reads_nan_not_raises():
    g = Gauge("repro_test_gauge")

    def boom() -> float:
        raise RuntimeError("owner died")

    g.set_function(boom)
    assert math.isnan(g.value)  # a scrape must never crash on a dead gauge


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


def test_histogram_boundary_values_are_le_inclusive():
    """A sample exactly on a bucket bound belongs to that bucket."""
    h = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 5.0))
    for value in (1.0, 2.0, 5.0):
        h.observe(value)
    assert h.bucket_counts() == [1, 1, 1, 0]  # nothing spilled to +Inf
    h.observe(5.0000001)
    assert h.bucket_counts() == [1, 1, 1, 1]
    h.observe(0.0)  # below the first bound still lands in the first bucket
    assert h.bucket_counts() == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(13.0000001)


def test_histogram_empty_quantiles_are_none():
    h = Histogram("repro_test_seconds", buckets=(1.0, 2.0))
    assert h.quantile(0.5) is None
    assert h.quantile(0.0) is None
    assert h.quantile(1.0) is None
    sample = h.sample()
    assert sample["count"] == 0
    assert sample["p50"] is None and sample["p99"] is None


def test_histogram_quantile_range_checked():
    h = Histogram("repro_test_seconds", buckets=(1.0,))
    with pytest.raises(ValueError, match="quantile"):
        h.quantile(1.5)
    with pytest.raises(ValueError, match="quantile"):
        h.quantile(-0.1)


def test_histogram_quantile_interpolates_within_bucket():
    h = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
    for _ in range(10):
        h.observe(1.5)  # all ten samples in the (1, 2] bucket
    # Linear interpolation inside the bucket: p50 sits mid-bucket.
    assert h.quantile(0.5) == pytest.approx(1.5)
    assert h.quantile(1.0) == pytest.approx(2.0)


def test_histogram_overflow_bucket_reports_last_finite_bound():
    h = Histogram("repro_test_seconds", buckets=(1.0, 2.0))
    h.observe(100.0)
    assert h.quantile(0.5) == pytest.approx(2.0)


def test_histogram_observe_count_equals_repeated_observes():
    """``observe(v, count=n)`` is n samples of v: a batch recording its
    per-packet share keeps one sample per packet."""
    once = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
    repeated = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
    once.observe(1.5, count=7)
    once.observe(3.0)
    for _ in range(7):
        repeated.observe(1.5)
    repeated.observe(3.0)
    assert once.bucket_counts() == repeated.bucket_counts() == [0, 7, 1, 0]
    assert once.count == repeated.count == 8
    assert once.sum == repeated.sum == pytest.approx(13.5)
    noop = MetricsRegistry(enabled=False).histogram("repro_x_seconds")
    noop.observe(1.0, count=5)
    assert noop.count == 0


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError, match="at least one"):
        Histogram("repro_test_seconds", buckets=())
    with pytest.raises(ValueError, match="strictly increase"):
        Histogram("repro_test_seconds", buckets=(1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        Histogram("repro_test_seconds", buckets=(1.0, float("inf")))


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_returns_same_object():
    reg = MetricsRegistry()
    a = reg.counter("repro_x_total", "help one")
    b = reg.counter("repro_x_total", "different help, same series")
    assert a is b
    # distinct labels -> distinct series under the same name
    c = reg.counter("repro_x_total", labels={"deployment": "lab"})
    assert c is not a
    a.inc()
    c.inc(2)
    assert (a.value, c.value) == (1, 2)


def test_registry_label_order_does_not_matter():
    reg = MetricsRegistry()
    a = reg.counter("repro_x_total", labels={"a": "1", "b": "2"})
    b = reg.counter("repro_x_total", labels={"b": "2", "a": "1"})
    assert a is b


def test_registry_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("repro_x_total")
    with pytest.raises(ValueError, match="already registered as counter"):
        reg.gauge("repro_x_total")
    with pytest.raises(ValueError, match="already registered as counter"):
        # even under different labels: one name, one kind
        reg.histogram("repro_x_total", labels={"deployment": "lab"})


def test_registry_rejects_invalid_names_and_labels():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="invalid metric name"):
        reg.counter("répro")
    with pytest.raises(ValueError, match="invalid label name"):
        reg.counter("repro_x_total", labels={"bad-label": "v"})


def test_disabled_registry_hands_out_shared_noops():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("repro_x_total")
    g = reg.gauge("repro_x_gauge")
    h = reg.histogram("repro_x_seconds")
    assert c is reg.counter("repro_other_total")  # shared singletons
    c.inc(1000)
    g.set(5.0)
    h.observe(1.0)
    assert c.value == 0
    assert g.value == 0.0
    assert h.count == 0
    assert reg.collect() == {}  # nothing was registered
    assert NULL_REGISTRY.enabled is False


def test_registry_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "things").inc(3)
    reg.histogram("repro_x_seconds", buckets=(1.0, 2.0)).observe(0.5)
    snap = reg.snapshot()
    assert snap["repro_x_total"]["kind"] == "counter"
    assert snap["repro_x_total"]["help"] == "things"
    assert snap["repro_x_total"]["series"] == [{"labels": {}, "value": 3}]
    hist = snap["repro_x_seconds"]["series"][0]
    assert hist["count"] == 1 and hist["sum"] == pytest.approx(0.5)
    # snapshot is JSON-ready by contract
    json.dumps(snap)


def test_registry_reset_drops_series():
    reg = MetricsRegistry()
    reg.counter("repro_x_total").inc()
    reg.reset()
    assert reg.collect() == {}
    assert reg.counter("repro_x_total").value == 0


def test_registry_bound_handles_are_made_once_per_registry():
    made = []

    def handles(registry):
        made.append(registry)
        return registry.counter("repro_x_total")

    reg, other = MetricsRegistry(), MetricsRegistry()
    assert reg.bound(handles) is reg.bound(handles)
    assert other.bound(handles) is not reg.bound(handles)
    assert made == [reg, other]
    reg.reset()  # the bound handles went with the series
    reg.bound(handles).inc()
    assert made == [reg, other, reg]
    assert reg.counter("repro_x_total").value == 1


def test_default_registry_swap():
    previous = set_registry(NULL_REGISTRY)
    try:
        assert get_registry() is NULL_REGISTRY
    finally:
        set_registry(previous)
    assert get_registry() is previous


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def test_to_prometheus_validates_and_is_cumulative():
    reg = MetricsRegistry()
    reg.counter("repro_x_total", "things counted", {"deployment": "lab"}).inc(2)
    reg.gauge("repro_x_open", "open right now").set(1.0)
    h = reg.histogram("repro_x_seconds", "latency", buckets=(1.0, 2.0))
    h.observe(0.5)
    h.observe(1.5)
    h.observe(99.0)
    text = reg.to_prometheus()

    assert validate_exposition(text) > 0
    lines = text.splitlines()
    assert 'repro_x_total{deployment="lab"} 2' in lines
    assert "# TYPE repro_x_seconds histogram" in lines
    # le buckets are cumulative and end with +Inf == _count
    assert 'repro_x_seconds_bucket{le="1"} 1' in lines
    assert 'repro_x_seconds_bucket{le="2"} 2' in lines
    assert 'repro_x_seconds_bucket{le="+Inf"} 3' in lines
    assert "repro_x_seconds_count 3" in lines


def test_to_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter(
        "repro_x_total", labels={"deployment": 'we"ird\\name\nline'}
    ).inc()
    text = reg.to_prometheus()
    assert validate_exposition(text) == 1
    assert r'deployment="we\"ird\\name\nline"' in text


def test_validate_exposition_rejects_malformed():
    with pytest.raises(ValueError, match="no samples"):
        validate_exposition("")
    with pytest.raises(ValueError, match="malformed sample"):
        validate_exposition("this is not a metric line\n")
    with pytest.raises(ValueError, match="non-numeric"):
        validate_exposition("repro_x_total twelve\n")
    with pytest.raises(ValueError, match="unknown metric type"):
        validate_exposition("# TYPE repro_x_total countre\nrepro_x_total 1\n")
    with pytest.raises(ValueError, match="malformed label pair"):
        validate_exposition('repro_x_total{deployment=lab} 1\n')
    # special values are fine
    assert validate_exposition("repro_x_gauge NaN\nrepro_x_max +Inf\n") == 2


# ---------------------------------------------------------------------------
# Tracing: spans
# ---------------------------------------------------------------------------


def test_spans_nest_and_measure():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", kind="test") as outer:
        with tracer.span("inner") as inner:
            pass
        with tracer.span("inner") as second:
            pass
    assert [root.name for root in tracer.roots] == ["outer"]
    assert [c.name for c in outer.children] == ["inner", "inner"]
    assert outer.children == [inner, second]
    assert outer.wall_s is not None and outer.wall_s >= 0.0
    assert inner.wall_s is not None
    assert outer.self_s <= outer.wall_s
    assert outer.attrs == {"kind": "test"}
    assert tracer.current is None


def test_span_exception_marks_error_and_reraises():
    tracer = Tracer(enabled=True)
    with pytest.raises(KeyError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise KeyError("gone")
    outer = tracer.roots[0]
    inner = outer.children[0]
    assert inner.status == "error"
    assert inner.error == "KeyError: 'gone'"
    assert outer.status == "error"  # the exception crossed both frames
    assert inner.wall_s is not None  # still finished/timed
    # the stack unwound cleanly: new spans root correctly
    with tracer.span("after"):
        pass
    assert [r.name for r in tracer.roots] == ["outer", "after"]


def test_disabled_tracer_times_but_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("quiet") as sp:
        pass
    assert sp.wall_s is not None  # call sites rely on the measurement
    assert tracer.roots == []
    assert tracer.current is None


def test_span_dict_roundtrip():
    tracer = Tracer(enabled=True)
    with pytest.raises(ValueError):
        with tracer.span("outer", rank=8):
            with tracer.span("inner"):
                raise ValueError("x")
    original = tracer.roots[0]
    clone = Span.from_dict(json.loads(json.dumps(original.to_dict())))
    assert [s.name for s in clone.walk()] == [s.name for s in original.walk()]
    assert clone.attrs == {"rank": 8}
    assert clone.children[0].status == "error"
    assert clone.wall_s == pytest.approx(original.wall_s)


def test_tracer_attach_grafts_under_open_span():
    worker = Tracer(enabled=True)
    with worker.span("runner.job"):
        pass
    shipped = worker.roots[0].to_dict()

    parent = Tracer(enabled=True)
    with parent.span("vn2 train"):
        parent.attach(shipped)
    assert [c.name for c in parent.roots[0].children] == ["runner.job"]
    # disabled tracers ignore attach
    assert Tracer(enabled=False).attach(shipped) is None


def test_to_jsonl_links_parents():
    tracer = Tracer(enabled=True)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
        with tracer.span("c"):
            pass
    records = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
    by_name = {r["name"]: r for r in records}
    assert by_name["a"]["parent_id"] is None and by_name["a"]["depth"] == 0
    assert by_name["b"]["parent_id"] == by_name["a"]["span_id"]
    assert by_name["c"]["parent_id"] == by_name["a"]["span_id"]
    assert by_name["b"]["depth"] == 1


def test_render_and_top_table_cover_the_tree():
    tracer = Tracer(enabled=True)
    with tracer.span("fit"):
        with tracer.span("fit.nmf", rank=8):
            pass
    rendered = tracer.render()
    assert "fit" in rendered and "fit.nmf" in rendered and "rank=8" in rendered
    table = tracer.top_table()
    assert "fit.nmf" in table
    assert Tracer(enabled=True).top_table() == "(no spans recorded)"


def test_set_tracer_swaps_the_global():
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        assert get_tracer() is tracer
        with span("swapped"):
            pass
    finally:
        set_tracer(previous)
    assert [r.name for r in tracer.roots] == ["swapped"]
    assert get_tracer() is previous


def test_module_level_span_always_times():
    # the process-default tracer is disabled under pytest: no recording,
    # but the measurement contract must hold (timings_ depends on it).
    assert get_tracer().enabled is False
    with span("unrecorded") as sp:
        pass
    assert sp.wall_s is not None and sp.wall_s >= 0.0


def test_default_buckets_strictly_increase():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))
