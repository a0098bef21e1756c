"""Run ``vn2 serve`` with a span around each layer-boundary call.

Usage::

    python sinkbench/traced_serve.py SPANS_DIR <vn2 serve arguments...>

The wrappers are installed on the modules' public names before the
server starts, so nothing under ``src/`` changes.  Pool workers are
forked from this process and inherit them; each worker writes its spans
to ``SPANS_DIR/spans-<pid>.npz`` when its pipe loop ends, and the front
door writes its own file at exit.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanStore  # noqa: E402


def install(store: SpanStore, spans_dir: Path) -> None:
    """Wrap the sink's layer entry points in ``store`` spans."""
    import multiprocessing.reduction as reduction

    from repro.core import incidents, pipeline, states, streaming
    from repro.service import metrics, protocol, worker

    wrap = store.wrap

    # service.protocol: the front door's decode, and event encoding.
    protocol.decode = wrap(
        "protocol.decode", protocol.decode,
        measure=lambda a, k, r: (len(a[0]), 0.0),
    )

    def _parse_measure(args, kwargs, result):
        store.batch = result[0] if result[0] is not None else -1
        return len(result[2]), 0.0

    protocol.parse_ingest = wrap(
        "protocol.parse_ingest", protocol.parse_ingest, measure=_parse_measure
    )
    protocol.event_message = wrap(
        "protocol.event_message", protocol.event_message
    )
    protocol.incident_event_obj = wrap(
        "protocol.incident_event_obj", protocol.incident_event_obj
    )
    protocol.encode = wrap(
        "protocol.encode_event", protocol.encode,
        name_of=lambda a, k: (
            "protocol.encode_event" if a[0].get("type") == "event"
            else "protocol.encode_other"
        ),
    )

    # core: the per-packet diagnosis path inside push_packet.
    session_cls = streaming.StreamingDiagnosisSession
    session_cls.push_packet = wrap("session.push_packet", session_cls.push_packet)
    states.StreamingStateBuilder.push = wrap(
        "states.push", states.StreamingStateBuilder.push
    )
    pipeline.VN2._exception_scores = wrap(
        "screen.score", pipeline.VN2._exception_scores
    )
    solve = streaming.infer_weights_batch

    def _solve(*args, **kwargs):
        cache = kwargs.get("solver_cache")
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        result = solve(*args, **kwargs)
        if cache is not None:
            _solve.delta = (cache.hits - hits, cache.misses - misses)
        else:
            _solve.delta = (0, 0)
        return result

    streaming.infer_weights_batch = wrap(
        "nnls.solve_cold", _solve,
        measure=lambda a, k, r: _solve.delta,
        name_of=lambda a, k: (
            "nnls.solve_warm" if k.get("warm_start") is not None
            else "nnls.solve_cold"
        ),
    )
    pipeline.VN2._build_report = wrap("report.build", pipeline.VN2._build_report)
    streaming.sparsify_inferred = wrap(
        "report.sparsify", streaming.sparsify_inferred
    )
    streaming.observations_for_state = wrap(
        "report.observations", streaming.observations_for_state
    )
    incidents.IncidentTracker.add = wrap(
        "tracker.add", incidents.IncidentTracker.add,
        measure=lambda a, k, r: (len(r), 0.0),
    )

    # Batch ids: the pool worker's own batch id; inproc shards have
    # none, so count finished batches (ShardCounters.observe_latency runs
    # once per diagnosed batch).
    handle_ingest = worker.ShardWorker.handle_ingest

    def _handle_ingest(self, msg):
        store.batch = msg["batch_id"]
        return handle_ingest(self, msg)

    worker.ShardWorker.handle_ingest = _handle_ingest
    observe = metrics.ShardCounters.observe_latency

    def _observe(self, seconds):
        store.batch += 1
        return observe(self, seconds)

    metrics.ShardCounters.observe_latency = _observe

    # runner.pool / service.backends: the worker pipe pickles every
    # message through ForkingPickler.
    dumps = reduction.ForkingPickler.dumps
    loads = reduction.ForkingPickler.loads
    reduction.ForkingPickler.dumps = staticmethod(wrap(
        "pool.pickle_dumps", dumps,
        measure=lambda a, k, r: (len(r), 0.0),
    ))
    reduction.ForkingPickler.loads = staticmethod(wrap(
        "pool.pickle_loads", loads,
        measure=lambda a, k, r: (memoryview(a[0]).nbytes, 0.0),
    ))

    worker_main = worker.worker_main

    def _worker_main(conn, worker_id, tool, options=None):
        store.reset()
        try:
            return worker_main(conn, worker_id, tool, options)
        finally:
            store.dump(spans_dir / f"spans-{os.getpid()}.npz")

    worker.worker_main = _worker_main


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_dir = Path(argv[0])
    spans_dir.mkdir(parents=True, exist_ok=True)
    store = SpanStore()
    install(store, spans_dir)
    pid = os.getpid()
    atexit.register(
        lambda: os.getpid() == pid
        and store.dump(spans_dir / f"spans-{pid}.npz")
    )
    from repro.cli import main as vn2_main

    return vn2_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
