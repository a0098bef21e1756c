"""Golden-trace regression anchor.

``tests/data/golden_trace.jsonl`` is a committed trace from a known
simulator configuration (4x4 grid, seed 12345, one loop pulse + one
reboot).  These tests pin two things across future changes:

1. the trace *format* stays loadable (schema compatibility), and
2. the *pipeline behaviour* on a fixed input stays sane — states build,
   exceptions are found, the loop/reboot signatures remain diagnosable.

If the simulator's random streams or protocol logic change, regenerate
the file with ``tests/data/regenerate_golden.py`` and review the diff —
the point is that such changes become *visible*, not forbidden.  The
byte-for-byte test below fails until that is done.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import detect_exceptions
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states
from repro.metrics.catalog import METRIC_INDEX
from repro.traces.io import load_frame_jsonl

from .data.regenerate_golden import write_golden

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_trace.jsonl"


@pytest.fixture(scope="module")
def golden():
    return load_frame_jsonl(GOLDEN)


def test_golden_loads_with_expected_shape(golden):
    assert len(golden) == 217
    assert golden.delivery_ratio() == pytest.approx(0.9661, abs=1e-3)
    assert len(golden.unique_node_ids) == 15
    kinds = {g.kind for g in golden.ground_truth}
    assert kinds == {"routing_loop", "node_reboot"}


def test_golden_file_regenerates_byte_for_byte(tmp_path):
    """The committed file is exactly what the simulator writes today."""
    out = tmp_path / "golden_trace.jsonl"
    write_golden(out)
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_states_and_exceptions(golden):
    states = build_states(golden)
    assert len(states) == 217 - len(golden.unique_node_ids)
    exceptions = detect_exceptions(states)
    assert 2 <= len(exceptions) <= len(states) // 2


def test_golden_reboot_state_present(golden):
    """Node 5's reboot at t=1000 must appear as a counter reset."""
    states = build_states(golden).for_node(5)
    tx = METRIC_INDEX["transmit_counter"]
    resets = [
        i for i, p in enumerate(states.provenance)
        if p.time_from <= 1000.0 <= p.time_to
        and states.values[i][tx] < 0
    ]
    assert resets


def test_golden_loop_state_present(golden):
    """The loop pulse must inflate the loop nodes' counters."""
    states = build_states(golden)
    loop_idx = METRIC_INDEX["loop_counter"]
    inflated = [
        i for i, p in enumerate(states.provenance)
        if p.node_id in (10, 11) and states.values[i][loop_idx] > 5
    ]
    assert inflated


def test_golden_end_to_end_diagnosis(golden):
    tool = VN2(VN2Config(rank=6)).fit(golden)
    states = build_states(golden)
    loop_idx = METRIC_INDEX["loop_counter"]
    candidates = [
        i for i, p in enumerate(states.provenance)
        if p.node_id in (10, 11) and states.values[i][loop_idx] > 5
    ]
    report = tool.diagnose(states.values[candidates[0]])
    assert report.ranked, "loop state must be attributed to something"
    hazards = {
        hazard
        for cause in report.ranked[:3]
        for hazard, _s in cause.label.hazards[:3]
    }
    assert hazards & {"routing_loop", "duplicate_storm", "queue_overflow",
                      "contention"}
