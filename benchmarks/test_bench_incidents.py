"""E1 (extension) — combination diagnosis: incidents from a fault window.

The paper's future work, made concrete: thousands of per-state diagnoses
compress into a handful of network-level incidents that overlap the
injected fault window and involve the injected nodes.
"""

from repro.core.incidents import IncidentAggregator, incidents_from_frame
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states


def test_bench_incidents(benchmark, multicause_trace):
    tool = VN2(VN2Config(rank=12)).fit(multicause_trace)

    incidents = benchmark.pedantic(
        lambda: incidents_from_frame(tool, multicause_trace, min_observations=3),
        rounds=1,
        iterations=1,
    )
    print("\n=== Incidents (combination diagnosis) ===")
    for incident in incidents[:8]:
        print(" ", incident.describe())

    window = multicause_trace.metadata["window"]
    assert incidents
    # compression: far fewer incidents than raw observations
    n_obs = len(
        IncidentAggregator(tool).observations(build_states(multicause_trace))
    )
    print(f"{n_obs} observations -> {len(incidents)} incidents")
    assert len(incidents) <= n_obs / 3
    # the strongest incidents cover the injected window and nodes
    top = incidents[:3]
    assert any(i.overlaps(window[0], window[1] + 600.0) for i in top)
    involved = set()
    for incident in top:
        involved.update(incident.node_ids)
    assert involved & {21, 22, 28, 29, 34}
