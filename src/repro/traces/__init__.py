"""The trace frame, its IO and the synthetic CitySee / testbed generators.

Exports resolve lazily (PEP 562), so importing :mod:`repro.traces.frame`
or :mod:`repro.traces.io` does not load the network simulator behind
the testbed and CitySee generators.
"""

from repro import _lazy_exports

# name -> (module, attribute) for lazy re-exports
_LAZY_EXPORTS = {
    "GroundTruth": ("repro.traces.frame", "GroundTruth"),
    "TraceFrame": ("repro.traces.frame", "TraceFrame"),
    "frame_from_network": ("repro.traces.frame", "frame_from_network"),
    "export_snapshots_csv": ("repro.traces.io", "export_snapshots_csv"),
    "save_frame": ("repro.traces.io", "save_frame"),
    "load_frame": ("repro.traces.io", "load_frame"),
    "save_frame_jsonl": ("repro.traces.io", "save_frame_jsonl"),
    "load_frame_jsonl": ("repro.traces.io", "load_frame_jsonl"),
    "save_frame_npz": ("repro.traces.io", "save_frame_npz"),
    "load_frame_npz": ("repro.traces.io", "load_frame_npz"),
    "prr_series": ("repro.traces.prr", "prr_series"),
    "TestbedScenario": ("repro.traces.testbed", "TestbedScenario"),
    "generate_testbed_frame": ("repro.traces.testbed", "generate_testbed_frame"),
    "CitySeeProfile": ("repro.traces.citysee", "CitySeeProfile"),
    "generate_citysee_frame": ("repro.traces.citysee", "generate_citysee_frame"),
    "PlantedDataset": ("repro.traces.synthetic", "PlantedDataset"),
    "generate_planted_dataset": (
        "repro.traces.synthetic",
        "generate_planted_dataset",
    ),
    "match_components": ("repro.traces.synthetic", "match_components"),
    "planted_psi": ("repro.traces.synthetic", "planted_psi"),
    "recovery_score": ("repro.traces.synthetic", "recovery_score"),
}

__all__ = list(_LAZY_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _LAZY_EXPORTS)
