"""Quickstart: simulate a sensor network, train VN2, diagnose a fault.

Run:  python examples/quickstart.py

The script builds a 45-node grid, injects a routing loop, trains the
representative matrix Ψ on the collected trace, and then asks VN2 to
explain the state of one of the looped nodes — expecting the loop
signature (transmit/duplicate/loop counters inflating together) among the
top-ranked root causes.
"""

from repro import VN2, VN2Config
from repro.core.states import build_states
from repro.simnet import (
    ForcedLoop,
    FaultInjector,
    Network,
    NetworkConfig,
    grid_topology,
)
from repro.simnet.radio import RadioParams
from repro.traces.frame import frame_from_network


def main() -> None:
    # 1. Simulate: a 9x5 grid reporting every 2 minutes for 1.5 hours,
    #    with a 10-minute routing loop injected in the middle.
    topology = grid_topology(rows=9, cols=5, spacing=8.0)
    config = NetworkConfig(
        report_period_s=120.0,
        seed=7,
        radio=RadioParams(tx_power_dbm=-10.0),
        max_range_m=40.0,
    )
    network = Network(topology, config)
    FaultInjector(
        [
            # Three loop pulses give the factorization enough loop states
            # to dedicate a representative vector to the signature.
            ForcedLoop(22, 27, start=2400.0, end=2700.0),
            ForcedLoop(22, 27, start=3000.0, end=3300.0),
            ForcedLoop(22, 27, start=3600.0, end=3900.0),
        ]
    ).install(network)
    network.run(5400.0)
    trace = frame_from_network(network)
    print(
        f"trace: {len(trace)} snapshots from {len(trace.unique_node_ids)} nodes, "
        f"delivery ratio {trace.delivery_ratio():.3f}"
    )

    # 2. Train: compress the trace's exception states into Ψ (r = 8).
    tool = VN2(VN2Config(rank=8)).fit(trace)
    print(f"\nrepresentative matrix Ψ: {tool.psi.shape[0]} root-cause vectors")
    for label in tool.labels:
        marker = " (baseline)" if label.is_baseline else ""
        print(f"  Ψ{label.index + 1}: {label.primary_hazard or label.family}{marker}")

    # 3. Diagnose: pick the looped node's state covering the fault window
    #    and ask which root causes explain it.
    states = build_states(trace).for_node(22)
    in_fault = [
        i
        for i, p in enumerate(states.provenance)
        if p.time_from <= 2550.0 <= p.time_to
    ]
    state = states.values[in_fault[0]] if in_fault else states.values[-1]
    report = tool.diagnose(state)
    print(f"\ndiagnosis of node 22 during the loop:\n  {report.summary()}")
    if report.primary is not None:
        print(f"\nexplanation of the top cause:\n  {report.primary.label.explanation}")


if __name__ == "__main__":
    main()
