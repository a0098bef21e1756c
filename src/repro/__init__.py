"""VN2: visibility of network performance in large-scale sensor networks.

Reproduction of "Enhancing Visibility of Network Performance in Large-scale
Sensor Networks" (ICDCS 2014).  The package bundles:

``repro.simnet``
    A discrete-event wireless-sensor-network simulator (CTP-like collection
    tree, CSMA MAC, RSSI/noise radio model, hardware model, fault injection)
    used as the substrate that produces metric traces.

``repro.metrics``
    The 43-metric catalog, the C1/C2/C3 report packets and the sink-side
    collector.

``repro.traces``
    The trace frame, JSONL/NPZ/CSV IO and the synthetic CitySee / testbed
    trace generators.

``repro.core``
    The VN2 algorithm itself: state construction, exception detection,
    non-negative matrix factorization, sparsification, rank selection,
    NNLS inference and root-cause interpretation.

``repro.baselines``
    Sympathy-style decision-tree diagnosis, Agnostic-Diagnosis-style
    correlation graphs and a PCA detector, for comparison.

``repro.analysis``
    One experiment harness per table/figure of the paper.

``repro.service``
    The deployed sink: an asyncio TCP/HTTP diagnosis server with one
    streaming-session shard per deployment, explicit backpressure, a
    sync/async client SDK and a trace load generator.

Top-level conveniences (``repro.VN2`` etc.) are provided lazily so that
importing :mod:`repro` stays cheap and subpackages can be used standalone.
"""

from typing import TYPE_CHECKING


def _detect_version() -> str:
    """Single-source the version from installed package metadata.

    ``pyproject.toml`` is authoritative; the fallback below only serves
    source-tree runs (``PYTHONPATH=src``) where the distribution is not
    installed, and must be kept in sync with it.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
    except ImportError:  # pragma: no cover - py<3.8 unsupported
        return "1.0.0"
    try:
        return version("repro")
    except PackageNotFoundError:
        return "1.0.0"


__version__ = _detect_version()

# name -> (module, attribute) for lazy top-level re-exports
_LAZY_EXPORTS = {
    "VN2": ("repro.core.pipeline", "VN2"),
    "VN2Config": ("repro.core.pipeline", "VN2Config"),
    "DiagnosisReport": ("repro.core.pipeline", "DiagnosisReport"),
    "ModelIntegrityError": ("repro.core.pipeline", "ModelIntegrityError"),
    "OnlineVN2Updater": ("repro.core.lifecycle", "OnlineVN2Updater"),
    "incremental_refit": ("repro.core.lifecycle", "incremental_refit"),
    "NMFResult": ("repro.core.nmf", "NMFResult"),
    "nmf": ("repro.core.nmf", "nmf"),
    "TraceFrame": ("repro.traces.frame", "TraceFrame"),
    "build_states": ("repro.core.states", "build_states"),
    "StateMatrix": ("repro.core.states", "StateMatrix"),
    "StreamingStateBuilder": ("repro.core.states", "StreamingStateBuilder"),
    "StreamingDiagnosisSession": (
        "repro.core.streaming",
        "StreamingDiagnosisSession",
    ),
    "IncidentTracker": ("repro.core.incidents", "IncidentTracker"),
    "DiagnosisService": ("repro.service.server", "DiagnosisService"),
    "ServiceConfig": ("repro.service.server", "ServiceConfig"),
    "ServiceClient": ("repro.service.client", "ServiceClient"),
    "infer_weights_batch": ("repro.core.inference", "infer_weights_batch"),
    "METRICS": ("repro.metrics.catalog", "METRICS"),
    "METRIC_NAMES": ("repro.metrics.catalog", "METRIC_NAMES"),
    "NUM_METRICS": ("repro.metrics.catalog", "NUM_METRICS"),
}

__all__ = ["__version__", *_LAZY_EXPORTS]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.core.incidents import IncidentTracker
    from repro.core.inference import infer_weights_batch
    from repro.core.nmf import NMFResult, nmf
    from repro.core.lifecycle import OnlineVN2Updater, incremental_refit
    from repro.core.pipeline import (
        VN2,
        DiagnosisReport,
        ModelIntegrityError,
        VN2Config,
    )
    from repro.core.states import StateMatrix, StreamingStateBuilder, build_states
    from repro.core.streaming import StreamingDiagnosisSession
    from repro.service.client import ServiceClient
    from repro.service.server import DiagnosisService, ServiceConfig
    from repro.metrics.catalog import METRICS, METRIC_NAMES, NUM_METRICS
    from repro.traces.frame import TraceFrame


def _lazy_exports(namespace: dict, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package whose public
    names are re-exported lazily.

    Args:
        namespace: The package's ``globals()``; each value is cached
            there on first access.
        exports: name -> (module, attribute); the module is imported
            only when one of its names is first looked up.
    """
    import importlib

    def __getattr__(name: str):
        try:
            module_name, attr = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module_name), attr)
        namespace[name] = value  # cache for subsequent lookups
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _LAZY_EXPORTS)
