"""Shared fixtures: expensive traces are built once per session.

Trace generation dominates test cost, so every trace used by more than one
test lives here as a session-scoped fixture.  Every fixture is a
:class:`~repro.traces.frame.TraceFrame`.  The CitySee generator also
caches to disk (keyed by parameters), which makes repeat ``pytest`` runs
much faster.
"""

from __future__ import annotations

import pytest

from repro.simnet.network import Network, NetworkConfig
from repro.simnet.radio import RadioParams
from repro.simnet.topology import grid_topology


@pytest.fixture(scope="session")
def testbed_trace():
    """The paper's testbed run (expansive scenario, seed 7)."""
    from repro.traces.testbed import TestbedScenario, generate_testbed_frame

    return generate_testbed_frame(TestbedScenario.EXPANSIVE, seed=7)


@pytest.fixture(scope="session")
def testbed_trace_local():
    """The paper's testbed run (local scenario, seed 7)."""
    from repro.traces.testbed import TestbedScenario, generate_testbed_frame

    return generate_testbed_frame(TestbedScenario.LOCAL, seed=7)


@pytest.fixture(scope="session")
def tiny_citysee_trace():
    """A tiny CitySee-like run with background faults (disk-cached)."""
    from repro.traces.citysee import CitySeeProfile, generate_citysee_frame

    return generate_citysee_frame(CitySeeProfile.tiny(), episode=False)


@pytest.fixture(scope="session")
def multicause_trace():
    """The controlled three-simultaneous-hazards trace."""
    from repro.analysis.baseline_comparison import build_multicause_frame

    return build_multicause_frame()


@pytest.fixture(scope="session")
def small_grid_network():
    """A fresh, short 5x5 grid run (for network-level assertions)."""
    topology = grid_topology(rows=5, cols=5, spacing=9.0)
    config = NetworkConfig(
        report_period_s=120.0,
        beacon_min_s=10.0,
        beacon_max_s=120.0,
        seed=5,
        radio=RadioParams(tx_power_dbm=-10.0),
        max_range_m=40.0,
    )
    network = Network(topology, config)
    network.run(1800.0)
    return network


@pytest.fixture(scope="session")
def testbed_tool(testbed_trace):
    """VN2 trained the paper's way on the testbed trace's first hour."""
    from repro.analysis.testbed_experiments import fit_testbed_tool, train_test_split

    train, _test = train_test_split(testbed_trace)
    return fit_testbed_tool(train)


@pytest.fixture(scope="session")
def tiny_citysee_tool(tiny_citysee_trace):
    """VN2 trained with the CitySee protocol on the tiny trace."""
    from repro.core.pipeline import VN2, VN2Config

    return VN2(VN2Config(rank=12)).fit(tiny_citysee_trace)
