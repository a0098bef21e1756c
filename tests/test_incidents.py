"""Tests for incident aggregation (combination diagnosis)."""

import numpy as np
import pytest

from repro.core.incidents import (
    Incident,
    IncidentAggregator,
    Observation,
    incidents_from_frame,
)
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states


@pytest.fixture(scope="module")
def multicause_tool(multicause_trace):
    states = build_states(multicause_trace)
    return VN2(VN2Config(rank=12)).fit_states(states)


def make_obs(node, t0, t1, hazard="routing_loop", strength=0.5):
    return Observation(
        node_id=node, time_from=t0, time_to=t1, cause_index=0,
        hazard=hazard, strength=strength,
    )


def make_aggregator(tool, positions=None, **kwargs):
    return IncidentAggregator(tool, positions=positions, **kwargs)


# ----------------------------------------------------------------------
# clustering unit behaviour (uses a fitted tool only for construction)
# ----------------------------------------------------------------------


def test_temporally_close_observations_merge(multicause_tool):
    agg = make_aggregator(multicause_tool, time_gap_s=100.0)
    obs = [
        make_obs(1, 0.0, 50.0),
        make_obs(2, 60.0, 120.0),
        make_obs(3, 150.0, 200.0),
    ]
    incidents = agg.cluster(obs)
    assert len(incidents) == 1
    incident = incidents[0]
    assert incident.node_ids == (1, 2, 3)
    assert incident.start == 0.0
    assert incident.end == 200.0
    assert incident.n_observations == 3
    assert incident.peak_strength == pytest.approx(0.5)


def test_large_time_gap_splits_incidents(multicause_tool):
    agg = make_aggregator(multicause_tool, time_gap_s=100.0)
    obs = [make_obs(1, 0.0, 50.0), make_obs(2, 500.0, 550.0)]
    incidents = agg.cluster(obs)
    assert len(incidents) == 2


def test_different_hazards_never_merge(multicause_tool):
    agg = make_aggregator(multicause_tool, time_gap_s=1000.0)
    obs = [
        make_obs(1, 0.0, 50.0, hazard="routing_loop"),
        make_obs(1, 10.0, 60.0, hazard="contention"),
    ]
    incidents = agg.cluster(sorted(obs, key=lambda o: (o.hazard, o.time_from)))
    assert len(incidents) == 2
    assert {i.hazard for i in incidents} == {"routing_loop", "contention"}


def test_spatial_radius_splits_far_nodes(multicause_tool):
    positions = {1: (0.0, 0.0), 2: (1000.0, 0.0)}
    agg = make_aggregator(
        multicause_tool, positions=positions, time_gap_s=1000.0, radius_m=50.0
    )
    obs = [make_obs(1, 0.0, 50.0), make_obs(2, 10.0, 60.0)]
    incidents = agg.cluster(obs)
    assert len(incidents) == 2


def test_spatially_close_nodes_merge(multicause_tool):
    positions = {1: (0.0, 0.0), 2: (10.0, 0.0)}
    agg = make_aggregator(
        multicause_tool, positions=positions, time_gap_s=1000.0, radius_m=50.0
    )
    obs = [make_obs(1, 0.0, 50.0), make_obs(2, 10.0, 60.0)]
    assert len(agg.cluster(obs)) == 1


def test_incident_describe_and_overlap(multicause_tool):
    incident = Incident(
        hazard="routing_loop", node_ids=(1, 2), start=10.0, end=20.0,
        peak_strength=0.7, total_strength=1.2, n_observations=3,
    )
    assert "routing_loop" in incident.describe()
    assert incident.overlaps(15.0, 30.0)
    assert not incident.overlaps(20.0, 30.0)


def test_empty_states_no_incidents(multicause_tool):
    from repro.core.states import StateMatrix
    from repro.metrics.catalog import NUM_METRICS

    agg = make_aggregator(multicause_tool)
    empty = StateMatrix(np.zeros((0, NUM_METRICS)), [])
    assert agg.extract(empty) == []


# ----------------------------------------------------------------------
# end to end on the multi-cause trace
# ----------------------------------------------------------------------


def test_incidents_recover_the_fault_window(multicause_tool, multicause_trace):
    incidents = incidents_from_frame(multicause_tool, multicause_trace)
    assert incidents, "expected at least one incident"
    window = multicause_trace.metadata["window"]
    # the strongest incidents overlap the injected fault window
    top = incidents[:3]
    assert any(inc.overlaps(window[0], window[1] + 600.0) for inc in top)
    # and the fault window produced far fewer incidents than observations
    agg = IncidentAggregator(multicause_tool)
    n_obs = len(agg.observations(build_states(multicause_trace)))
    assert len(incidents) < n_obs / 3


def test_incident_nodes_are_plausible(multicause_tool, multicause_trace):
    incidents = incidents_from_frame(multicause_tool, multicause_trace)
    window = multicause_trace.metadata["window"]
    in_window = [
        inc for inc in incidents if inc.overlaps(window[0], window[1] + 600.0)
    ]
    assert in_window
    # loop nodes 21/22 and/or burst nodes 28/29/34 appear in the incidents
    involved = set()
    for inc in in_window:
        involved.update(inc.node_ids)
    assert involved & {21, 22, 28, 29, 34}
