"""Why multi-cause attribution matters: VN2 vs classic diagnosers.

Run:  python examples/compare_baselines.py

Reproduces the paper's motivating argument as a live comparison.  A
routing loop, an interference region and a traffic burst act
*simultaneously* on one window of a 36-node network.  Four diagnosers
look at the same states:

* VN2 — NNLS against the learned Ψ: names several causes per state;
* Sympathy-style decision tree — stops at its first matching check;
* Agnostic Diagnosis — correlation-graph drift: flags nodes, explains
  nothing;
* PCA — subspace residual: flags states, explains nothing.
"""

from repro.analysis.baseline_comparison import (
    build_multicause_frame,
    exp_baselines,
)
from repro.baselines.sympathy import SympathyDiagnoser
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states


def main() -> None:
    print("simulating simultaneous loop + jamming + burst ...")
    trace = build_multicause_frame(seed=21)
    window = trace.metadata["window"]
    print(
        f"trace: {len(trace)} snapshots; fault window "
        f"[{window[0]:.0f}, {window[1]:.0f})s\n"
    )

    print("=== scoreboard ===")
    result = exp_baselines(trace)
    print(result.to_text())

    # Show one concrete state both tools disagree about.
    states = build_states(trace)
    tool = VN2(VN2Config(rank=12)).fit_states(states)
    sympathy = SympathyDiagnoser().fit(states.in_window(0.0, float(window[0])))

    in_window = [
        i for i, p in enumerate(states.provenance)
        if p.node_id in (21, 22) and p.time_from >= window[0]
        and p.time_to <= window[1] + 600.0
    ]
    if in_window:
        # pick the most exceptional of the loop nodes' window states
        idx = max(
            in_window, key=lambda i: tool.exception_score(states.values[i])
        )
        state = states.values[idx]
        p = states.provenance[idx]
        print(f"\n=== one state, two stories (node {p.node_id}, "
              f"t=[{p.time_from:.0f},{p.time_to:.0f})s) ===")
        report = tool.diagnose(state)
        print("VN2:     ", report.summary())
        verdict = sympathy.diagnose(state)
        print("Sympathy:", verdict.cause or "looks fine",
              f"(checked {verdict.metric})" if verdict.metric else "")


if __name__ == "__main__":
    main()
