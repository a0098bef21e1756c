"""The trace frame, its IO and the synthetic CitySee / testbed generators."""

from repro.traces.frame import GroundTruth, TraceFrame, frame_from_network
from repro.traces.io import (
    export_snapshots_csv,
    load_frame,
    load_frame_jsonl,
    load_frame_npz,
    save_frame,
    save_frame_jsonl,
    save_frame_npz,
)
from repro.traces.prr import prr_series
from repro.traces.testbed import TestbedScenario, generate_testbed_frame
from repro.traces.citysee import CitySeeProfile, generate_citysee_frame
from repro.traces.synthetic import (
    PlantedDataset,
    generate_planted_dataset,
    match_components,
    planted_psi,
    recovery_score,
)

__all__ = [
    "GroundTruth",
    "TraceFrame",
    "frame_from_network",
    "export_snapshots_csv",
    "save_frame",
    "load_frame",
    "save_frame_jsonl",
    "load_frame_jsonl",
    "save_frame_npz",
    "load_frame_npz",
    "prr_series",
    "TestbedScenario",
    "generate_testbed_frame",
    "CitySeeProfile",
    "generate_citysee_frame",
    "PlantedDataset",
    "generate_planted_dataset",
    "match_components",
    "planted_psi",
    "recovery_score",
]
