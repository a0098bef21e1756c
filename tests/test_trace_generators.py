"""Tests for the testbed and CitySee trace generators."""

import numpy as np
import pytest

from repro.traces.citysee import CitySeeProfile, generate_citysee_frame
from repro.traces.testbed import TestbedScenario, build_failure_schedule
from repro.simnet.topology import grid_topology


def test_testbed_trace_shape(testbed_trace):
    # 45-node grid, ~2 h of 3-minute reports: in the ballpark of the
    # paper's 1,639 packets
    assert 1000 <= len(testbed_trace) <= 2600
    assert len(testbed_trace.unique_node_ids) >= 40
    assert testbed_trace.delivery_ratio() > 0.8


def test_testbed_ground_truth_mix(testbed_trace):
    kinds = {g.kind for g in testbed_trace.ground_truth}
    assert "node_failure" in kinds
    assert "node_reboot" in kinds
    failures = [g for g in testbed_trace.ground_truth if g.kind == "node_failure"]
    assert len(failures) >= 10


def test_testbed_positions_metadata(testbed_trace):
    positions = testbed_trace.metadata["positions"]
    assert len(positions) == 45


def test_failure_schedule_local_is_clustered():
    topo = grid_topology(rows=9, cols=5, spacing=8.0)
    rng = np.random.default_rng(0)
    faults = build_failure_schedule(
        topo, TestbedScenario.LOCAL, rng, first_event_at=0.0, last_event_at=0.0
    )
    removed = [f.node_id for f in faults if type(f).__name__ == "NodeFailure"]
    xs = [topo.positions[n][0] for n in removed]
    ys = [topo.positions[n][1] for n in removed]
    spread_local = np.std(xs) + np.std(ys)

    rng = np.random.default_rng(0)
    faults = build_failure_schedule(
        topo, TestbedScenario.EXPANSIVE, rng, first_event_at=0.0, last_event_at=0.0
    )
    removed = [f.node_id for f in faults if type(f).__name__ == "NodeFailure"]
    xs = [topo.positions[n][0] for n in removed]
    ys = [topo.positions[n][1] for n in removed]
    spread_expansive = np.std(xs) + np.std(ys)
    assert spread_local < spread_expansive


def test_failure_schedule_keeps_network_populated():
    topo = grid_topology(rows=9, cols=5, spacing=8.0)
    rng = np.random.default_rng(1)
    faults = build_failure_schedule(
        topo, TestbedScenario.EXPANSIVE, rng,
        first_event_at=0.0, last_event_at=7200.0,
    )
    failures = sum(1 for f in faults if type(f).__name__ == "NodeFailure")
    reboots = sum(1 for f in faults if type(f).__name__ == "NodeReboot")
    assert failures > reboots > 0


def test_citysee_tiny_trace(tiny_citysee_trace):
    assert len(tiny_citysee_trace) > 1000
    assert tiny_citysee_trace.delivery_ratio() > 0.6
    kinds = {g.kind for g in tiny_citysee_trace.ground_truth}
    assert "node_reboot" in kinds
    assert "interference" in kinds


def test_citysee_cache_roundtrip(tmp_path):
    profile = CitySeeProfile(
        n_nodes=12, days=0.5, day_seconds=1800.0, report_period_s=60.0,
        area=(150.0, 100.0), comm_radius_m=80.0, seed=5,
    )
    first = generate_citysee_frame(profile, use_cache=True, cache_dir=tmp_path)
    files = list(tmp_path.glob("citysee-*.jsonl"))
    assert len(files) == 1
    second = generate_citysee_frame(profile, use_cache=True, cache_dir=tmp_path)
    assert len(first) == len(second)
    assert np.allclose(first.values[0], second.values[0], atol=1e-5)


def test_citysee_profiles_have_same_epochs_per_day():
    for profile in (CitySeeProfile.small(), CitySeeProfile.medium(),
                    CitySeeProfile.full()):
        epochs_per_day = profile.day_seconds / profile.report_period_s
        assert 50 <= epochs_per_day <= 150


def test_citysee_episode_recorded_in_ground_truth(tmp_path):
    profile = CitySeeProfile(
        n_nodes=12, days=2.0, day_seconds=1800.0, report_period_s=60.0,
        area=(150.0, 100.0), comm_radius_m=80.0, seed=5,
        reboots_per_day=0.0, interference_per_day=0.0, loops_per_day=0.0,
        degradations_per_day=0.0, bursts_per_day=0.0, drains_per_day=0.0,
    )
    trace = generate_citysee_frame(
        profile, episode=True, episode_days=(0.5, 1.0), use_cache=False
    )
    kinds = {g.kind for g in trace.ground_truth}
    assert "interference" in kinds
    assert "node_failure" in kinds
