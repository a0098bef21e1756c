"""Tests for per-node health reports."""

import pytest

from repro.analysis.node_report import node_health_report
from repro.core.pipeline import VN2, VN2Config


@pytest.fixture(scope="module")
def report(multicause_trace):
    tool = VN2(VN2Config(rank=12)).fit(multicause_trace)
    return node_health_report(tool, multicause_trace)


def test_covers_all_reporting_nodes(report, multicause_trace):
    assert len(report.nodes) == len(multicause_trace.unique_node_ids)


def test_continuity_bounded(report):
    for health in report.nodes:
        assert 0.0 <= health.continuity <= 1.0
        assert 0.0 <= health.exception_fraction <= 1.0


def test_loop_nodes_are_unhealthy(report):
    """Nodes 21/22 run the forced loop: low continuity or exceptions."""
    troubled = {h.node_id: h for h in report.nodes}
    for node_id in (21, 22):
        health = troubled[node_id]
        assert not health.healthy, (
            node_id, health.continuity, health.exception_fraction,
            health.silent_windows,
        )


def test_worst_sorts_by_continuity(report):
    worst = report.worst(5)
    continuities = [h.continuity for h in worst]
    assert continuities == sorted(continuities)


def test_loop_nodes_have_silent_windows_or_causes(report):
    """During loop pulses the loop nodes either stop reporting (silent
    windows) or their states carry attributed causes."""
    by_id = {h.node_id: h for h in report.nodes}
    for node_id in (21, 22):
        health = by_id[node_id]
        assert health.silent_windows or health.top_causes


def test_to_text_renders(report):
    text = report.to_text()
    assert "continuity" in text
    assert "node" in text


def test_healthy_majority(report):
    healthy = sum(1 for h in report.nodes if h.healthy)
    assert healthy >= len(report.nodes) * 0.5
