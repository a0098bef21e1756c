"""Regenerate tests/data/golden_trace.jsonl (run from the repo root).

Only do this deliberately, after a simulator change you intend to keep:
the golden tests exist to make such changes visible.  Update the expected
constants in tests/test_golden_trace.py to match the printed summary.
``tests/test_golden_trace.py`` also checks that :func:`write_golden`
reproduces the committed file byte for byte.
"""

from pathlib import Path
from typing import Union

from repro.simnet.faults import FaultInjector, ForcedLoop, NodeReboot
from repro.simnet.network import Network, NetworkConfig
from repro.simnet.radio import RadioParams
from repro.simnet.topology import grid_topology
from repro.traces.frame import TraceFrame, frame_from_network
from repro.traces.io import save_frame_jsonl


def write_golden(path: Union[str, Path]) -> TraceFrame:
    """Simulate the golden run and write it to ``path`` as JSONL."""
    topology = grid_topology(rows=4, cols=4, spacing=9.0)
    network = Network(topology, NetworkConfig(
        report_period_s=120.0, beacon_min_s=10.0, beacon_max_s=120.0,
        seed=12345, radio=RadioParams(tx_power_dbm=-10.0), max_range_m=40.0,
    ))
    FaultInjector([
        ForcedLoop(10, 11, start=600.0, end=900.0),
        NodeReboot(5, at=1000.0),
    ]).install(network)
    network.run(1800.0)
    frame = frame_from_network(network, metadata={
        "kind": "golden",
        "positions": {
            str(n): list(p) for n, p in topology.positions.items()
        },
    })
    save_frame_jsonl(frame, path)
    return frame


def main() -> None:
    frame = write_golden("tests/data/golden_trace.jsonl")
    print(f"golden trace: {len(frame)} snapshots, "
          f"delivery {frame.delivery_ratio():.4f}")


if __name__ == "__main__":
    main()
