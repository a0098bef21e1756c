"""Streaming ingestion: chunked trace reads bound memory, not wall-clock.

The acceptance claim of the streaming refactor, measured: ingesting the
default CitySee trace from disk through ``iter_frame_chunks`` +
``StreamingStateBuilder.push_frame`` must allocate a small fraction of
the full-frame path's peak (tracemalloc) while staying within 1.2x of
its wall-clock — and both paths must produce the same state bytes (one
SHA-256 over the full matrix equals one fed chunk by chunk).
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc

from repro.core.states import StreamingStateBuilder, build_states
from repro.traces.io import iter_frame_chunks, load_frame, save_frame

CHUNK_ROWS = 2048


def _full_path(path):
    """Load everything, difference everything, hash the state bytes."""
    states = build_states(load_frame(path))
    return len(states), hashlib.sha256(states.values).hexdigest()


def _chunked_path(path):
    """Bounded-memory replay: fixed-size chunks through the same engine."""
    builder = StreamingStateBuilder()
    digest = hashlib.sha256()
    n_states = 0
    for chunk in iter_frame_chunks(path, chunk_rows=CHUNK_ROWS):
        states = builder.push_frame(chunk)
        digest.update(states.values)
        n_states += len(states)
    return n_states, digest.hexdigest()


def _measure(fn, path):
    tracemalloc.start()
    tracemalloc.reset_peak()
    result = fn(path)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    t0 = time.perf_counter()
    fn(path)  # untraced timing run (tracemalloc skews wall-clock)
    seconds = time.perf_counter() - t0
    return result, peak, seconds


def test_bench_streaming_ingestion(benchmark, citysee_default_trace,
                                   tmp_path_factory):
    path = tmp_path_factory.mktemp("stream-bench") / "citysee.npz"
    save_frame(citysee_default_trace, path, fmt="npz")

    (full_states, full_hash), full_peak, full_s = _measure(_full_path, path)
    (chunk_states, chunk_hash), chunk_peak, chunk_s = benchmark.pedantic(
        lambda: _measure(_chunked_path, path), rounds=1, iterations=1
    )

    print("\n=== Streaming ingestion vs full-frame load ===")
    print(f"rows: {len(citysee_default_trace)}  chunk_rows: {CHUNK_ROWS}")
    print(f"full:    peak {full_peak / 1e6:8.1f} MB   {full_s:6.2f} s")
    print(f"chunked: peak {chunk_peak / 1e6:8.1f} MB   {chunk_s:6.2f} s")
    print(f"peak ratio {chunk_peak / full_peak:.3f}, "
          f"time ratio {chunk_s / full_s:.2f}")

    # Same states out of both paths, to the last bit.
    assert chunk_states == full_states > 0
    assert chunk_hash == full_hash

    # The point of the refactor: a fraction of the memory ...
    assert chunk_peak <= 0.5 * full_peak, (
        f"chunked peak {chunk_peak} not below half of full {full_peak}"
    )
    # ... without giving up wall-clock (generous bound: same order).
    assert chunk_s <= 1.2 * full_s, (
        f"chunked {chunk_s:.2f}s vs full {full_s:.2f}s exceeds 1.2x"
    )
