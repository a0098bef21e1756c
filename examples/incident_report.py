"""Post-mortem incident report: combination diagnosis + PRR impact.

Run:  python examples/incident_report.py

Implements the paper's two future-work items on top of the core tool:

* **combination diagnosis** — per-state NNLS diagnoses are clustered
  spatio-temporally into network-level *incidents* ("a routing loop over
  nodes {21, 22} from t=2400 to t=4800");
* **protocol performance estimation** — each root cause gets a fitted
  *PRR cost*, so the report says not just what happened but what it cost.

The trace under investigation carries three simultaneous hazards (routing
loop + interference + traffic burst) in its middle window — the exact
situation single-cause diagnosers garble.
"""

from repro.analysis.baseline_comparison import build_multicause_frame
from repro.analysis.performance import estimate_cause_costs
from repro.core.incidents import incidents_from_frame
from repro.core.pipeline import VN2, VN2Config


def main() -> None:
    print("simulating the incident (loop + jamming + burst) ...")
    trace = build_multicause_frame(seed=21)
    window = trace.metadata["window"]
    print(
        f"trace: {len(trace)} snapshots, delivery {trace.delivery_ratio():.3f}; "
        f"fault window [{window[0]:.0f}, {window[1]:.0f})s\n"
    )

    print("training VN2 on the full history (unsupervised) ...")
    tool = VN2(VN2Config(rank=12)).fit(trace)

    print("\n=== Incident report ===")
    incidents = incidents_from_frame(tool, trace, min_observations=3)
    if not incidents:
        print("no incidents found")
    for rank, incident in enumerate(incidents[:8], start=1):
        marker = (
            " <- fault window"
            if incident.overlaps(window[0], window[1] + 600.0)
            else ""
        )
        print(f"{rank}. {incident.describe()}{marker}")

    print("\n=== Estimated PRR cost per root cause ===")
    model = estimate_cause_costs(tool, trace, bin_seconds=600.0)
    print(model.to_text())

    print(
        "\nreading: 'mean impact' is how many PRR points each cause "
        "typically costs;\nthe top rows should be the loop/contention "
        "signatures active in the fault window."
    )


if __name__ == "__main__":
    main()
