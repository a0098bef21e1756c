"""The paper's testbed experiment (Section V-A), end to end.

Run:  python examples/testbed_failure_reboot.py [--scenario local|expansive]

45 TelosB-like nodes in a 9x5 grid report every 3 minutes for ~2 hours
while 5-7 nodes are removed (and some put back) every 10 minutes.  The
first hour trains Ψ with r = 10 and no exception filter — exactly the
paper's choices — and the second hour tests that the same root causes
explain the new states (Fig 5 h/i), that failure and reboot events light
up different rows (Fig 5 g), and that the four discussed signature vectors
exist in Ψ (Fig 5 c-f).
"""

import argparse

from repro.analysis.testbed_experiments import (
    exp_fig5b,
    exp_fig5cf,
    exp_fig5g,
    exp_fig5hi,
)
from repro.traces.testbed import TestbedScenario, generate_testbed_frame


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario", choices=["local", "expansive"], default="expansive"
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    scenario = TestbedScenario(args.scenario)

    print(f"simulating testbed ({scenario.value} removal, seed {args.seed})...")
    trace = generate_testbed_frame(scenario, seed=args.seed)
    print(
        f"  {len(trace)} snapshots, {len(trace.ground_truth)} injected events, "
        f"delivery {trace.delivery_ratio():.3f}\n"
    )

    print("=== Fig 5(b): training states vs Ψ rows ===")
    fig5b = exp_fig5b(trace)
    print(fig5b.to_text(), "\n")

    print("=== Fig 5(c-f): signature vectors ===")
    print(exp_fig5cf(fig5b.tool).to_text(), "\n")

    print("=== Fig 5(g): failure vs reboot strength profiles ===")
    print(exp_fig5g(fig5b.tool, trace).to_text(), "\n")

    print("=== Fig 5(h)/(i): train-vs-test profile agreement ===")
    result = exp_fig5hi(scenario, seed=args.seed, trace=trace)
    print(result.to_text())


if __name__ == "__main__":
    main()
