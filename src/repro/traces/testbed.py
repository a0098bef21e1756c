"""Synthetic 45-node testbed traces (the paper's Section V-A experiments).

The paper's testbed: 45 TelosB nodes in a 9x5 grid, CC2420 at power
level 2, every node reporting C1/C2/C3 every three minutes, for about two
hours.  Two kinds of events are introduced manually every ten minutes:
*node failure* (remove 5-7 nodes) and *node reboot* (put some of them
back).  Two scenarios differ in where the removed nodes sit:

* **Scenario 1 (LOCAL)** — nodes are removed from one local area;
* **Scenario 2 (EXPANSIVE)** — nodes are removed spread across the grid.

(The paper finds scenario 2's exceptions easier to detect — Fig 5(i)
matches the training profile more closely than Fig 5(h).)
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.simnet.faults import FaultInjector, NodeFailure, NodeReboot
from repro.simnet.network import Network, NetworkConfig
from repro.simnet.radio import RadioParams
from repro.simnet.topology import Topology, grid_topology
from repro.traces.frame import TraceFrame, frame_from_network
from repro.traces.io import load_frame_npz, save_frame_npz


class TestbedScenario(enum.Enum):
    """Where the removed nodes are located."""

    __test__ = False  # not a pytest collection target despite the name

    LOCAL = "local"  # scenario 1 in the paper
    EXPANSIVE = "expansive"  # scenario 2 in the paper


def _testbed_config(seed: int, report_period_s: float) -> NetworkConfig:
    """Radio/network parameters for the 9x5, 8 m-spaced indoor grid."""
    return NetworkConfig(
        report_period_s=report_period_s,
        beacon_min_s=15.0,
        beacon_max_s=240.0,
        neighbor_timeout_s=900.0,
        seed=seed,
        radio=RadioParams(tx_power_dbm=-10.0),
        max_range_m=40.0,
    )


def _pick_local(
    candidates: Sequence[int],
    topology: Topology,
    count: int,
    rng: np.random.Generator,
) -> List[int]:
    """``count`` nodes clustered around a random anchor node."""
    anchor = int(rng.choice(list(candidates)))
    ax, ay = topology.positions[anchor]
    ordered = sorted(
        candidates,
        key=lambda nid: math.hypot(
            topology.positions[nid][0] - ax, topology.positions[nid][1] - ay
        ),
    )
    return ordered[:count]


def _pick_expansive(
    candidates: Sequence[int],
    count: int,
    rng: np.random.Generator,
) -> List[int]:
    """``count`` nodes sampled uniformly across the grid."""
    picked = rng.choice(list(candidates), size=min(count, len(candidates)),
                        replace=False)
    return [int(n) for n in picked]


def build_failure_schedule(
    topology: Topology,
    scenario: TestbedScenario,
    rng: np.random.Generator,
    first_event_at: float,
    last_event_at: float,
    cycle_s: float = 600.0,
    reboot_offset_s: float = 300.0,
) -> List[object]:
    """The remove/put-back schedule the paper's experiments use.

    Every ``cycle_s`` seconds, 5-7 currently-alive nodes are removed; at
    ``reboot_offset_s`` into each cycle, roughly half of the currently
    removed nodes are put back (rebooted).
    """
    faults: List[object] = []
    removed: List[int] = []
    alive = set(topology.sensor_ids)
    t = first_event_at
    while t <= last_event_at:
        count = int(rng.integers(5, 8))
        candidates = sorted(alive)
        if len(candidates) <= count + 5:
            break  # never hollow the network out entirely
        if scenario is TestbedScenario.LOCAL:
            to_remove = _pick_local(candidates, topology, count, rng)
        else:
            to_remove = _pick_expansive(candidates, count, rng)
        for node_id in to_remove:
            faults.append(NodeFailure(node_id, at=t))
            alive.discard(node_id)
            removed.append(node_id)
        # Put back about half of everything currently removed.
        n_back = max(1, len(removed) // 2)
        back = [int(n) for n in rng.choice(removed, size=n_back, replace=False)]
        for node_id in back:
            faults.append(NodeReboot(node_id, at=t + reboot_offset_s))
            removed.remove(node_id)
            alive.add(node_id)
        t += cycle_s
    return faults


def testbed_cache_paths(
    scenario: TestbedScenario,
    seed: int = 7,
    duration_s: float = 7200.0,
    warmup_s: float = 1200.0,
    report_period_s: float = 180.0,
    rows: int = 9,
    cols: int = 5,
    spacing_m: float = 8.0,
    cache_dir: Optional[Path] = None,
) -> Path:
    """NPZ cache path for one testbed run, keyed by its parameters.

    Same contract as :func:`repro.traces.citysee.citysee_cache_paths`: a
    pure function of the generation parameters, shared by serial calls and
    the scenario runner's spool-to-cache workers.
    """
    from repro.traces.citysee import default_cache_dir

    payload = json.dumps(
        {
            "scenario": scenario.value,
            "seed": seed,
            "duration_s": duration_s,
            "warmup_s": warmup_s,
            "report_period_s": report_period_s,
            "rows": rows,
            "cols": cols,
            "spacing_m": spacing_m,
            "v": 1,
        },
        sort_keys=True,
    )
    key = hashlib.sha256(payload.encode()).hexdigest()[:16]
    directory = cache_dir or default_cache_dir()
    return directory / f"testbed-{key}.npz"


def generate_testbed_frame(
    scenario: TestbedScenario = TestbedScenario.EXPANSIVE,
    seed: int = 7,
    duration_s: float = 7200.0,
    warmup_s: float = 1200.0,
    report_period_s: float = 180.0,
    rows: int = 9,
    cols: int = 5,
    spacing_m: float = 8.0,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
) -> TraceFrame:
    """Run the testbed experiment and return its trace as a frame.

    The trace covers ``warmup_s + duration_s`` simulated seconds; failures
    and reboots start after the warmup (the tree needs time to form), every
    10 minutes, exactly as in the paper's two-hour runs.

    With ``use_cache=True`` an identical earlier run is reloaded from the
    NPZ trace cache instead of re-simulated (writes are atomic, so
    concurrent generators of the same parameters never clobber each
    other).  Off by default to preserve the historical run-every-time
    behavior of direct calls.
    """
    npz_path: Optional[Path] = None
    if use_cache:
        npz_path = testbed_cache_paths(
            scenario, seed, duration_s, warmup_s, report_period_s,
            rows, cols, spacing_m, cache_dir,
        )
        if npz_path.exists():
            return load_frame_npz(npz_path)

    topology = grid_topology(rows=rows, cols=cols, spacing=spacing_m)
    config = _testbed_config(seed, report_period_s)
    network = Network(topology, config)

    rng = network.rngs.stream("testbed.schedule")
    faults = build_failure_schedule(
        topology,
        scenario,
        rng,
        first_event_at=warmup_s,
        last_event_at=warmup_s + duration_s - 600.0,
    )
    FaultInjector(faults).install(network)
    network.run(warmup_s + duration_s)

    frame = frame_from_network(
        network,
        metadata={
            "kind": "testbed",
            "scenario": scenario.value,
            "warmup_s": warmup_s,
            "duration_s": duration_s,
            "rows": rows,
            "cols": cols,
            "spacing_m": spacing_m,
            "positions": {
                str(nid): list(pos) for nid, pos in topology.positions.items()
            },
        },
    )
    if npz_path is not None:
        save_frame_npz(frame, npz_path)
    return frame
