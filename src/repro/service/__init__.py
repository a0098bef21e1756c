"""``repro.service``: the deployed diagnosis sink.

The streaming core behind a network boundary: an asyncio TCP/HTTP front
door (:mod:`~repro.service.server`) routing one
:class:`~repro.core.streaming.StreamingDiagnosisSession` shard per named
deployment to a :class:`~repro.service.worker.ShardWorker` through a
:class:`~repro.service.backends.ShardRouter` — one worker on the
server's event loop by default, or a consistent-hash-routed pool of
worker processes with ``workers=N``.
Plus an NDJSON wire protocol (:mod:`~repro.service.protocol`), a
sync/async client SDK (:mod:`~repro.service.client`) and a trace load
generator (:mod:`~repro.service.loadgen`).  Start one from the CLI with
``vn2 serve [--workers N]`` or in-process with
:func:`start_service_thread`.
"""

from repro.service.backends import HashRing, ShardRouter
from repro.service.client import (
    AsyncServiceClient,
    BackoffPolicy,
    ServiceClient,
    ServiceUnavailable,
    SubmitResult,
    http_get_json,
    http_post_json,
)
from repro.service.metrics import LatencyWindow, ShardCounters
from repro.service.models import ModelManager
from repro.service.protocol import PROTOCOL_VERSION, ProtocolError
from repro.service.server import (
    DiagnosisService,
    ServiceConfig,
    ServiceHandle,
    start_service_thread,
)

_LAZY = {"LoadgenReport", "replay_trace", "FanoutReport", "replay_trace_fanout"}


def __getattr__(name: str):
    # Lazy so `python -m repro.service.loadgen` doesn't trigger runpy's
    # already-imported warning (the loadgen imports this package).
    if name in _LAZY:
        from repro.service import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AsyncServiceClient",
    "BackoffPolicy",
    "DiagnosisService",
    "FanoutReport",
    "HashRing",
    "LatencyWindow",
    "LoadgenReport",
    "ModelManager",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "ServiceUnavailable",
    "ShardCounters",
    "ShardRouter",
    "SubmitResult",
    "http_get_json",
    "http_post_json",
    "replay_trace",
    "replay_trace_fanout",
    "start_service_thread",
]
