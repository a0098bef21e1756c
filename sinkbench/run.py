"""Sink benchmark: drive ``vn2 serve`` with pre-encoded load and check it.

Usage (from the repository root)::

    python3 sinkbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads (see ``sinkbench/NOTES.md`` for why each exists):

* ``ingest``   — 10,000 offered packets/s, 8 deployments, 512-packet
  lines, in-process sink, default screen.
* ``pool``     — the same load against ``vn2 serve --workers 2``.
* ``diagnose`` — 3,000 offered packets/s, 2 deployments, 16-packet
  lines, ``--threshold 0.001``.

Every workload is an open loop: one connection sends the lines on a
due-time schedule, and one subscriber connection receives the events.

A ``--trace 0`` run launches the sink three times, each in its own
process, and sends each one a third of ``--seconds`` of load.  Each
time it waits until the sink reports every packet diagnosed and checks
``/metrics``, ``/incidents`` and the received event stream against an
in-process replay; the end-to-end metrics are medians over the three
sinks, with CPU times scaled by a probe of the host's speed that runs
the whole time (:mod:`reference`).  ``--trace 1`` sends half of
``--seconds`` of load to one plain sink and the same load to one under
``traced_serve.py`` and prints the per-layer metrics.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"

#: Sink settings and load shape per workload.
WORKLOADS = {
    "ingest": {
        "groups": 8, "batch": 512, "threshold": None,
        "serve": ["--queue-size", "16384"], "pps": 10000.0,
    },
    "pool": {
        "groups": 8, "batch": 512, "threshold": None,
        "serve": ["--queue-size", "16384", "--workers", "2"], "pps": 10000.0,
    },
    "diagnose": {
        "groups": 2, "batch": 16, "threshold": 0.001,
        "serve": ["--threshold", "0.001"], "pps": 3000.0,
    },
}
#: Sinks per ``--trace 0`` run, each sent ``--seconds / SINKS`` of load;
#: every end-to-end metric is the median over them.
SINKS = 3
#: Further launches per ``--trace 0`` run that only time set-up:
#: ``setup_s`` is the median over all ``SINKS + SETUP_ONLY`` launches.
SETUP_ONLY = 2
#: Share of lines, in send order, whose latencies are not timed: the
#: sink's per-deployment sessions and solver caches warm up on them.
WARMUP = 0.1

END_TO_END = {
    "ingest_pps": "pkt/s", "cpu_us_per_pkt": "us",
    "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "protocol.decode_us_per_pkt": "us", "protocol.bytes_per_pkt": "B",
    "protocol.encode_us_per_event": "us", "client.encode_us_per_pkt": "us",
    "server.ingest_latency_p99_ms": "ms", "server.queue_peak_packets": "count",
    "server.batches_rejected": "count", "pool.pipe_bytes_per_pkt": "B",
    "pool.pickle_us_per_pkt": "us", "states.push_us_per_pkt": "us",
    "screen.us_per_state": "us", "screen.flagged_ratio": "ratio",
    "nnls.us_per_solve": "us", "nnls.factor_cache_hit_ratio": "ratio",
    "nnls.warm_start_ratio": "ratio", "report.us_per_exception": "us",
    "tracker.us_per_obs": "us", "tracker.events_per_obs": "ratio",
    "session.self_us_per_pkt": "us", "sink.unattributed_frac": "ratio",
    "loadgen.late_p99_ms": "ms", "loadgen.ack_p50_ms": "ms",
    "loadgen.ack_p99_ms": "ms", "loadgen.event_p50_ms": "ms",
    "loadgen.event_p99_ms": "ms", "trace.cpu_us_per_pkt": "us",
    "trace.overhead_us_per_pkt": "us",
}


@dataclass
class Plan:
    """Everything a run sends, decided during set-up."""

    schedule: List                  #: lines in send order
    expected: Dict[str, object]     #: deployment -> check.Expected
    encode_s_per_pkt: float = 0.0

    @property
    def deployments(self) -> List[str]:
        return sorted(self.expected)


def build_plan(spec: dict, seed: int, seconds: float, frame, tool) -> Plan:
    """Partition, encode and replay one workload's inputs for ``seed``.

    A pass sends every group's packets to fresh deployments, its lines
    merged by their first packet's time.  The schedule holds
    ``seconds * pps`` packets (at least) and cuts the last pass short.
    """
    import inputs
    from check import replay

    packets = inputs.packets_in_order(frame)
    groups = inputs.partition_nodes(frame.node_ids, spec["groups"], seed)
    streams = inputs.split_packets(packets, groups)
    budget = seconds * spec["pps"]
    passes = max(1, math.ceil(budget / len(packets)))
    names = inputs.deployment_names(seed, spec["groups"] * passes, "open")
    group_of = {}
    seq = 1
    per_pass = []
    encode_s = 0.0
    for p in range(passes):
        lines_of = []
        for g, stream in enumerate(streams):
            name = names[p * spec["groups"] + g]
            t0 = time.process_time()
            lines_of.append(inputs.encode_lines(name, stream, spec["batch"], seq))
            encode_s += time.process_time() - t0
            seq += len(lines_of[-1])
            group_of[name] = g
        per_pass.append(lines_of)
    schedule: List = []
    offered = 0
    for lines_of in per_pass:
        merged = inputs.interleave(
            {lines[0].deployment: lines for lines in lines_of}
        )
        for line in merged:
            if offered >= budget:
                break
            schedule.append(line)
            offered += len(line.packets)
    sent: Dict[str, int] = {}
    for line in schedule:
        sent[line.deployment] = sent.get(line.deployment, 0) + len(line.packets)
    # Deployments fed the same prefix of the same group share a replay.
    replays: Dict[tuple, object] = {}
    expected = {}
    for name, n in sent.items():
        key = (group_of[name], n)
        if key not in replays:
            replays[key] = replay(tool, streams[key[0]][:n], spec["threshold"])
        expected[name] = replays[key]
    return Plan(schedule, expected, encode_s / (passes * len(packets)))


@dataclass
class Phase:
    """One measured pass of the load against one sink."""

    setup: tuple                    #: (wall_s, cpu_s) of the launch
    packets: int
    t_first: float
    t_done: float
    cpu_s: float
    #: ``time.time`` at the start and end of the CPU window.
    window: tuple
    #: The same window in ``time.monotonic`` seconds, for the probe.
    mono_window: tuple
    rss_mb: float
    ledger: object
    metrics_doc: dict
    t_stop: float
    problems: List[str]
    failed: int


def run_phase(spec: dict, plan: Plan, model: Path, run_dir: Path,
              spans_dir: Optional[Path] = None) -> Phase:
    """Launch a sink, send it the plan's load, check the outputs."""
    import loadgen
    from check import compare
    from sink import Sink

    sink = Sink(ROOT, model, run_dir, spec["serve"], spans_dir)
    wires = []
    try:
        setup = sink.start()
        ledger = loadgen.Ledger()
        n_packets = sum(len(line.packets) for line in plan.schedule)
        wires = [loadgen.Wire(sink.port), loadgen.Wire(sink.port)]
        loadgen.subscribe(wires[1], plan.deployments, 10_000_000)
        cpu0, wall0, mono0 = sink.cpu_s(), time.time(), time.monotonic()
        t_first = loadgen.open_loop(
            wires[0], wires[1], plan.schedule, ledger, spec["pps"]
        )
        t_done = sink.wait_diagnosed(n_packets)
        cpu_s = sink.cpu_s() - cpu0
        window = (wall0, time.time())
        mono_window = (mono0, time.monotonic())
        rss_mb = sink.peak_rss_mb()
        metrics_doc = sink.http_get("/metrics")
        incidents_doc = sink.http_get("/incidents")
        t_stop = time.perf_counter()
        sink.signal_stop()
        loadgen.drain_events(wires, ledger)
    finally:
        for wire in wires:
            wire.close()
        code = sink.stop()
    received = _events_by_deployment(ledger)
    problems = compare(plan.expected, metrics_doc, incidents_doc, received)
    if code != 0:
        problems.append(f"vn2 serve exited with {code}")
    if ledger.errors:
        problems.append(f"sink errors: {ledger.errors[:3]!r}")
    return Phase(setup, n_packets, t_first, t_done, cpu_s, window,
                 mono_window, rss_mb, ledger, metrics_doc, t_stop, problems,
                 _failed_packets(plan, ledger, metrics_doc, received))


def time_setup(spec: dict, model: Path, run_dir: Path) -> tuple:
    """Launch a sink, stop it once ready; return its ``(wall_s, cpu_s)``."""
    from sink import Sink

    sink = Sink(ROOT, model, run_dir, spec["serve"])
    try:
        return sink.start()
    finally:
        sink.stop()


def _events_by_deployment(ledger) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = {}
    for _t, raw in ledger.events:
        msg = json.loads(raw)
        out.setdefault(msg["deployment"], []).append(msg["event"])
    return out


def _failed_packets(plan: Plan, ledger, metrics_doc: dict,
                    received: Dict[str, List[dict]]) -> int:
    """Refused, never acked or never diagnosed packets, plus missing or
    differing events."""
    from check import event_mismatches

    failed = 0
    accepted: Dict[str, int] = {}
    for line in plan.schedule:
        entry = ledger.lines.get(line.seq)
        if entry is None or entry[2] < 0 or entry[3] != len(line.packets):
            failed += len(line.packets)
        else:
            accepted[line.deployment] = (
                accepted.get(line.deployment, 0) + len(line.packets)
            )
    served = metrics_doc["deployments"]
    for name, n in accepted.items():
        failed += max(0, n - served.get(name, {}).get("packets", 0))
    for name, want in plan.expected.items():
        failed += event_mismatches(want.events + want.flush_events,
                                   received.get(name, []))
    return failed


def _quantiles(samples: List[float]) -> tuple:
    """(p50, p99) of ``samples`` by the nearest-rank rule; zeros when
    there are none (JSON has no NaN)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0, 0.0

    def rank(q: float) -> float:
        return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]

    return rank(0.50), rank(0.99)


def latencies(plan: Plan, phase: Phase) -> Dict[str, List[float]]:
    """Ack and event latency samples (seconds) from the ledger.

    An ack is timed from the line's due time; a refused or unanswered
    line counts as the whole run.  An event is timed from the due time
    of the line holding the packet whose ``generated_at`` it carries;
    flush events (received after the stop signal) are not timed.  Neither are the first
    :data:`WARMUP` share of lines, in send order, nor their events.
    """
    worst = phase.t_done - phase.t_first
    ack = []
    due_of: Dict[str, Dict[float, list]] = {}
    sent = phase.ledger.lines
    timed_from = int(len(plan.schedule) * WARMUP)
    for i, line in enumerate(plan.schedule):
        entry = sent.get(line.seq)
        if entry is None or entry[2] < 0 or entry[3] != len(line.packets):
            ack.append(worst)
            continue
        timed = i >= timed_from
        if timed:
            ack.append(entry[2] - entry[0])
        times = due_of.setdefault(line.deployment, {})
        for t in line.times:
            times.setdefault(t, []).append((entry[0], timed))
    event = []
    unmatched = 0
    for t_recv, raw in phase.ledger.events:
        if t_recv >= phase.t_stop:
            continue
        msg = json.loads(raw)
        dues = due_of.get(msg["deployment"], {}).get(msg["event"]["time"])
        if not dues:
            unmatched += 1
            continue
        # Several packets can share a timestamp: take the latest line
        # sent before the event arrived.
        due, timed = max([d for d in dues if d[0] <= t_recv] or dues)
        if timed:
            event.append(t_recv - due)
    return {"ack": ack, "event": event, "unmatched": unmatched}


def late_p99_ms(phase: Phase) -> float:
    late = [entry[1] - entry[0] for entry in phase.ledger.lines.values()]
    return _quantiles(late)[1] * 1e3


def end_to_end(plan: Plan, phases: List[Phase], setups: List[tuple],
               probe: list) -> Dict[str, float]:
    """Medians over ``phases`` (one per sink) and over every launch's
    ``(wall_s, cpu_s)`` in ``setups``; latency percentiles over the
    samples of all phases.  CPU times are scaled by the ``probe``
    samples (see :mod:`reference`): each sink's load by those of its
    load, set-up by all of them."""
    from reference import scale

    lats = [latencies(plan, phase) for phase in phases]
    ack50, ack99 = _quantiles([x for lat in lats for x in lat["ack"]])
    ev50, ev99 = _quantiles([x for lat in lats for x in lat["event"]])
    latency = {
        "loadgen.ack_p50_ms": ack50 * 1e3, "loadgen.ack_p99_ms": ack99 * 1e3,
        "loadgen.event_p50_ms": ev50 * 1e3, "loadgen.event_p99_ms": ev99 * 1e3,
    }
    walls, cpus = zip(*setups)
    print(f"set-up of {len(walls)} launches: median wall "
          f"{statistics.median(walls):.3f}s, CPU {statistics.median(cpus):.3f}s")
    print("unscaled CPU us/packet, scale: " + ", ".join(
        f"{cpu_us(ph, 1.0):.2f} {scale(probe, ph.mono_window):.4f}"
        for ph in phases) + f"; set-up scale {scale(probe):.4f}")
    print(f"samples: {sum(len(lat['ack']) for lat in lats)} timed acks, "
          f"{sum(len(lat['event']) for lat in lats)} timed events "
          f"({sum(lat['unmatched'] for lat in lats)} without a matching "
          "packet); " + ", ".join(f"{k} {v:.3f}" for k, v in latency.items()))

    def median(per_phase) -> float:
        return statistics.median(per_phase(phase) for phase in phases)

    return {
        "ingest_pps": median(lambda ph: ph.packets / (ph.t_done - ph.t_first)),
        "cpu_us_per_pkt": median(
            lambda ph: cpu_us(ph, scale(probe, ph.mono_window))),
        "setup_s": statistics.median(cpus) * scale(probe),
        "peak_rss_mb": median(lambda ph: ph.rss_mb),
        **latency,
    }


def cpu_us(phase: Phase, scale: float) -> float:
    """The sink's CPU microseconds per packet, times ``scale``."""
    return phase.cpu_s / phase.packets * 1e6 * scale


def per_layer(plan: Plan, base: Phase, traced: Phase, spans_dir: Path,
              probe: list) -> Dict[str, float]:
    from reference import scale
    from spans import layer_self_s, load_spans, span_totals

    # Spans and CPU time cover the same window: subscribe decodes before
    # it and the drain's flush events after it are left out.
    totals = span_totals(load_spans(spans_dir), traced.window)
    layers = layer_self_s(totals)
    counts = traced.metrics_doc["totals"]
    shards = traced.metrics_doc["deployments"].values()
    packets = counts["packets"]
    states = counts["states"]
    exceptions = counts["exceptions"]
    events = counts["events_emitted"]
    solves = totals["nnls.solve_warm"]["calls"] + totals["nnls.solve_cold"]["calls"]
    hits = totals["nnls.solve_warm"]["v1"] + totals["nnls.solve_cold"]["v1"]
    misses = totals["nnls.solve_warm"]["v2"] + totals["nnls.solve_cold"]["v2"]
    obs = totals["tracker.add"]["calls"]
    covered = sum(layers.values())
    traced_cpu = cpu_us(traced, scale(probe, traced.mono_window))
    base_cpu = cpu_us(base, scale(probe, base.mono_window))
    p99s = [s["ingest_latency"]["p99_ms"] for s in shards
            if s["ingest_latency"]["p99_ms"] is not None]
    untraced = end_to_end(plan, [base], [base.setup], probe)

    def per(value: float, n: float) -> float:
        return value / n if n else 0.0

    return {
        "protocol.decode_us_per_pkt": per(layers["protocol.decode"], packets) * 1e6,
        "protocol.bytes_per_pkt": per(totals["protocol.decode"]["v1"], packets),
        "protocol.encode_us_per_event": per(layers["protocol.encode"], events) * 1e6,
        "client.encode_us_per_pkt": plan.encode_s_per_pkt * 1e6,
        "server.ingest_latency_p99_ms": max(p99s) if p99s else 0.0,
        "server.queue_peak_packets": max(s["queue_peak_packets"] for s in shards),
        "server.batches_rejected": counts["batches_rejected"],
        "pool.pipe_bytes_per_pkt": per(totals["pool.pickle_dumps"]["v1"], packets),
        "pool.pickle_us_per_pkt": per(layers["pool.pickle"], packets) * 1e6,
        "states.push_us_per_pkt": per(layers["states"], packets) * 1e6,
        "screen.us_per_state": per(layers["screen"], states) * 1e6,
        "screen.flagged_ratio": per(exceptions, states),
        "nnls.us_per_solve": per(layers["nnls"], solves) * 1e6,
        "nnls.factor_cache_hit_ratio": per(hits, hits + misses),
        "nnls.warm_start_ratio": per(totals["nnls.solve_warm"]["calls"], solves),
        "report.us_per_exception": per(layers["report"], exceptions) * 1e6,
        "tracker.us_per_obs": per(layers["tracker"], obs) * 1e6,
        "tracker.events_per_obs": per(totals["tracker.add"]["v1"], obs),
        "session.self_us_per_pkt": per(layers["session"], packets) * 1e6,
        "sink.unattributed_frac": 1.0 - per(covered, traced.cpu_s),
        "loadgen.late_p99_ms": late_p99_ms(traced),
        **{k: v for k, v in untraced.items() if k.startswith("loadgen.")},
        "trace.cpu_us_per_pkt": traced_cpu,
        "trace.overhead_us_per_pkt": traced_cpu - base_cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"sinkbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    import inputs
    import reference
    from repro.core.pipeline import VN2

    spec = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    frame, model = inputs.prepare(CACHE)
    tool = VN2.load(model)
    seconds = args.seconds / SINKS if args.trace == 0 else args.seconds / 2
    plan = build_plan(spec, args.seed, seconds, frame, tool)
    print(f"set-up: {time.perf_counter() - t0:.1f}s, "
          f"{len(plan.schedule)} lines to {len(plan.expected)} deployments")

    run_dir = CACHE / f"run-{args.workload}-{args.seed}-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    spans_dir = run_dir / "spans"
    probe = reference.Probe()
    try:
        if args.trace == 0:
            phases = [run_phase(spec, plan, model, run_dir)
                      for _ in range(SINKS)]
            setups = [phase.setup for phase in phases]
            for _ in range(SETUP_ONLY):
                setups.append(time_setup(spec, model, run_dir))
        else:
            phases = [run_phase(spec, plan, model, run_dir),
                      run_phase(spec, plan, model, run_dir, spans_dir)]
    except Exception:
        log = run_dir / "serve.log"
        if log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise
    finally:
        samples = probe.stop()
    if args.trace == 0:
        metrics = end_to_end(plan, phases, setups, samples)
        units = END_TO_END
        metrics = {name: metrics[name] for name in units}
    else:
        metrics = per_layer(plan, *phases, spans_dir, samples)
        units = PER_LAYER
    shutil.rmtree(run_dir, ignore_errors=True)
    problems = [p for phase in phases for p in phase.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    attempted = sum(phase.packets for phase in phases)
    failed = sum(phase.failed for phase in phases)
    print(f"{'ops':32s} {attempted:14d} packets")
    print(f"{'ops_failed':32s} {failed:14d} packets")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
