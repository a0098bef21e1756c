"""Harnesses for the paper's Figure 5 (testbed experiments).

The paper's protocol: 45 nodes, two-hour run, node-failure and node-reboot
events introduced every 10 minutes; the first hour trains Ψ (r = 10, no
exception filter — the trace is small), the second hour tests.  The four
sub-experiments reproduced here:

* Fig 5(b): correlation of all training states with Ψ rows;
* Fig 5(c-f): the signature profiles of the main correlated vectors;
* Fig 5(g): root-cause strength distribution for failure vs reboot events;
* Fig 5(h)/(i): train-vs-test strength profiles for the two scenarios —
  the paper's headline accuracy claim is that they are positively related,
  more so for the expansive scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.inference import sparsify_inferred
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import StateMatrix, build_states
from repro.metrics.catalog import METRIC_INDEX
from repro.traces.frame import TraceFrame
from repro.traces.testbed import TestbedScenario

TESTBED_RANK = 10


def generate_scenario_frames(
    scenarios: Sequence[TestbedScenario],
    seed: int = 7,
    jobs: int = 1,
    use_cache: bool = False,
) -> Dict[TestbedScenario, TraceFrame]:
    """Generate one testbed frame per scenario through the scenario runner.

    The scenarios are independent simulations, so they shard cleanly
    across ``jobs`` pool workers; output is bit-identical to serial
    generation either way.
    """
    from repro.runner import run_jobs, testbed_scenario_jobs

    report = run_jobs(
        testbed_scenario_jobs(scenarios, seed=seed),
        n_workers=jobs,
        use_cache=use_cache,
    )
    return dict(zip(scenarios, report.frames()))


def train_test_split(trace: TraceFrame) -> Tuple[TraceFrame, TraceFrame]:
    """First experiment hour for training, second for testing (paper)."""
    warmup = float(trace.metadata.get("warmup_s", 1200.0))
    duration = float(trace.metadata.get("duration_s", 7200.0))
    half = warmup + duration / 2.0
    return trace.window(0.0, half), trace.window(half, warmup + duration)


def fit_testbed_tool(train: TraceFrame, rank: int = TESTBED_RANK) -> VN2:
    """Train Ψ the way the paper does for testbed data (no ε filter)."""
    return VN2(VN2Config(rank=rank, filter_exceptions=False)).fit(train)


# ----------------------------------------------------------------------
# Fig 5(b)
# ----------------------------------------------------------------------


@dataclass
class Fig5bResult:
    """Training-state correlation scatter against the r=10 matrix."""

    weights: np.ndarray  # (n_states, r)
    points: List[Tuple[int, int]]
    top_rows: List[int]  # rows used by most states, descending
    tool: VN2

    def to_text(self) -> str:
        usage = (self.weights > 0).mean(axis=0)
        rows = [(f"Ψ{j + 1}", f"{100 * usage[j]:.1f}%") for j in range(len(usage))]
        return format_table(["root cause", "states using it"], rows)


def exp_fig5b(
    trace: TraceFrame,
    rank: int = TESTBED_RANK,
    retention: float = 0.9,
) -> Fig5bResult:
    """Fig 5(b): extract Ψ from hour-1 states, correlate them against it.

    Inferred weights are sparsified row-wise (Algorithm 2 applied at
    inference) so the scatter keeps only each state's dominant causes.
    """
    train, _test = train_test_split(trace)
    tool = fit_testbed_tool(train, rank)
    weights = sparsify_inferred(
        tool.correlation_strengths(tool.states_), retention=retention
    )
    points: List[Tuple[int, int]] = []
    for i in range(weights.shape[0]):
        for j in np.flatnonzero(weights[i] > 0):
            points.append((i, int(j)))
    usage = weights.mean(axis=0)
    top_rows = [int(j) for j in np.argsort(usage)[::-1]]
    return Fig5bResult(weights=weights, points=points, top_rows=top_rows, tool=tool)


# ----------------------------------------------------------------------
# Fig 5(c-f)
# ----------------------------------------------------------------------


@dataclass
class SignatureMatch:
    """A Ψ row matched to one of the paper's four discussed signatures."""

    signature: str
    row_index: Optional[int]
    score: float
    profile: Optional[np.ndarray]


@dataclass
class Fig5cfResult:
    """The four signature vectors of Fig 5(c)-(f)."""

    matches: List[SignatureMatch]

    def found(self, signature: str) -> bool:
        return any(
            m.signature == signature and m.row_index is not None
            for m in self.matches
        )

    def to_text(self) -> str:
        rows = []
        for m in self.matches:
            row_name = f"Ψ{m.row_index + 1}" if m.row_index is not None else "-"
            rows.append((m.signature, row_name, f"{m.score:.3f}"))
        return format_table(["signature", "matched row", "score"], rows)


def _signature_score(display_row: np.ndarray, metric_names: Sequence[str]) -> float:
    """Mean |displayed movement| over the named metrics."""
    idx = [METRIC_INDEX[m] for m in metric_names]
    return float(np.mean(np.abs(display_row[idx])))


#: The paper's four discussed testbed signatures (Fig 5c-f):
#: Ψ1-type — parent unreachable (NOACK retransmits + parent change);
#: Ψ2/Ψ10-type — link dynamics (neighbor RSSI/ETX);
#: Ψ4-type — node reboot seen by neighbors (neighbor count jumps);
#: baseline — the normal-states vector (detected by usage, not metrics).
SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "parent_unreachable": ("noack_retransmit_counter", "parent_change_counter"),
    "link_dynamics": tuple(f"rssi_{i}" for i in range(1, 11))
    + tuple(f"etx_{i}" for i in range(1, 11)),
    "neighbor_join": ("neighbor_num",),
}


def exp_fig5cf(tool: VN2, min_score: float = 0.15) -> Fig5cfResult:
    """Fig 5(c)-(f): locate the paper's four signature rows in Ψ."""
    display = tool.psi_display()
    matches: List[SignatureMatch] = []
    for signature, metrics in SIGNATURES.items():
        scores = np.array(
            [_signature_score(display[j], metrics) for j in range(display.shape[0])]
        )
        best = int(np.argmax(scores))
        if scores[best] >= min_score:
            matches.append(
                SignatureMatch(signature, best, float(scores[best]), display[best])
            )
        else:
            matches.append(SignatureMatch(signature, None, float(scores[best]), None))
    baseline_rows = [label.index for label in tool.labels if label.is_baseline]
    if baseline_rows:
        j = baseline_rows[0]
        matches.append(SignatureMatch("normal_states", j, 1.0, display[j]))
    else:
        matches.append(SignatureMatch("normal_states", None, 0.0, None))
    return Fig5cfResult(matches=matches)


# ----------------------------------------------------------------------
# Fig 5(g)
# ----------------------------------------------------------------------


@dataclass
class Fig5gResult:
    """Mean root-cause strengths under failure vs reboot ground truth."""

    failure_profile: np.ndarray  # length r
    reboot_profile: np.ndarray  # length r
    n_failure_states: int
    n_reboot_states: int
    profile_distance: float  # L1 distance between normalized profiles

    def to_text(self) -> str:
        rows = [
            (f"Ψ{j + 1}", f"{f:.4f}", f"{b:.4f}")
            for j, (f, b) in enumerate(
                zip(self.failure_profile, self.reboot_profile)
            )
        ]
        table = format_table(["root cause", "node failure", "node reboot"], rows)
        return (
            f"{table}\nprofiles differ by L1={self.profile_distance:.3f} "
            f"(failure n={self.n_failure_states}, reboot n={self.n_reboot_states})"
        )


def _event_states(
    states: StateMatrix,
    trace: TraceFrame,
    kind: str,
    radius_m: float,
    slack_s: float,
) -> List[int]:
    """Indices of states observing an event of ``kind``.

    * ``node_reboot`` events are observed by the rebooted node itself —
      its next state shows every counter jumping back toward zero.
    * ``node_failure`` events are observed by the dead node's *neighbors*
      (the node itself goes silent): they see NOACK retransmits and parent
      changes.  Neighborhood comes from the trace's stored positions.

    One vectorized mask per event over the state columns.
    """
    positions = {
        int(k): tuple(v) for k, v in trace.metadata.get("positions", {}).items()
    }
    events = [g for g in trace.ground_truth if g.kind == kind]
    if positions:
        xs = np.array([positions[int(n)][0] for n in states.node_ids])
        ys = np.array([positions[int(n)][1] for n in states.node_ids])
    picked = np.zeros(len(states), dtype=bool)
    for event in events:
        in_time = (states.times_from - slack_s <= event.start) & (
            event.start <= states.times_to + slack_s
        )
        event_node = event.node_ids[0]
        if kind == "node_reboot":
            picked |= in_time & (states.node_ids == event_node)
            continue
        mask = in_time & (states.node_ids != event_node)
        if positions:  # the failed node's spatial neighborhood
            ex, ey = positions[event_node]
            mask &= (xs - ex) ** 2 + (ys - ey) ** 2 <= radius_m**2
        picked |= mask
    return [int(i) for i in np.flatnonzero(picked)]


def exp_fig5g(
    tool: VN2,
    trace: TraceFrame,
    radius_m: float = 18.0,
    slack_s: float = 60.0,
) -> Fig5gResult:
    """Fig 5(g): strength distributions for the two ground-truth events."""
    states = build_states(trace)
    failure_idx = _event_states(states, trace, "node_failure", radius_m, slack_s)
    reboot_idx = _event_states(states, trace, "node_reboot", radius_m, slack_s)

    def profile(indices: List[int]) -> np.ndarray:
        if not indices:
            return np.zeros(tool.rank_)
        weights = sparsify_inferred(
            tool.correlation_strengths(states.select(indices))
        )
        return weights.mean(axis=0)

    failure_profile = profile(failure_idx)
    reboot_profile = profile(reboot_idx)

    # Distinguishability is judged on the *fault* rows: the baseline
    # (normal-states) vector soaks up similar mass in both profiles.
    fault_rows = np.array(
        [not label.is_baseline for label in tool.labels], dtype=bool
    )

    def normalize(v: np.ndarray) -> np.ndarray:
        masked = np.where(fault_rows, v, 0.0)
        total = masked.sum()
        return masked / total if total > 0 else masked

    distance = float(
        np.abs(normalize(failure_profile) - normalize(reboot_profile)).sum()
    )
    return Fig5gResult(
        failure_profile=failure_profile,
        reboot_profile=reboot_profile,
        n_failure_states=len(failure_idx),
        n_reboot_states=len(reboot_idx),
        profile_distance=distance,
    )


# ----------------------------------------------------------------------
# Fig 5(h) / 5(i)
# ----------------------------------------------------------------------


@dataclass
class Fig5hiResult:
    """Train-vs-test strength profiles for one scenario."""

    scenario: TestbedScenario
    train_profile: np.ndarray
    test_profile: np.ndarray
    profile_correlation: float  # Pearson r between the two profiles
    profile_distance: float  # L1 distance between sum-normalized profiles

    def to_text(self) -> str:
        rows = [
            (f"Ψ{j + 1}", f"{a:.4f}", f"{b:.4f}")
            for j, (a, b) in enumerate(zip(self.train_profile, self.test_profile))
        ]
        table = format_table(["root cause", "training", "testing"], rows)
        return (
            f"scenario={self.scenario.value}\n{table}\n"
            f"train/test correlation r={self.profile_correlation:.3f}"
        )


def exp_fig5hi(
    scenario: TestbedScenario,
    seed: int = 7,
    rank: int = TESTBED_RANK,
    trace: Optional[TraceFrame] = None,
    jobs: int = 1,
) -> Fig5hiResult:
    """Fig 5(h) or 5(i): do test states reuse the training root causes?"""
    if trace is None:
        trace = generate_scenario_frames([scenario], seed=seed, jobs=jobs)[
            scenario
        ]
    train, test = train_test_split(trace)
    tool = fit_testbed_tool(train, rank)
    train_w = sparsify_inferred(tool.correlation_strengths(tool.states_))
    test_states = build_states(test)
    test_w = sparsify_inferred(tool.correlation_strengths(test_states))
    train_profile = train_w.mean(axis=0)
    test_profile = test_w.mean(axis=0)
    if train_profile.std() > 0 and test_profile.std() > 0:
        correlation = float(np.corrcoef(train_profile, test_profile)[0, 1])
    else:
        correlation = 0.0

    def normalize(v: np.ndarray) -> np.ndarray:
        total = v.sum()
        return v / total if total > 0 else v

    distance = float(
        np.abs(normalize(train_profile) - normalize(test_profile)).sum()
    )
    return Fig5hiResult(
        scenario=scenario,
        train_profile=train_profile,
        test_profile=test_profile,
        profile_correlation=correlation,
        profile_distance=distance,
    )


def exp_fig5hi_both(
    seed: int = 7,
    rank: int = TESTBED_RANK,
    jobs: int = 1,
) -> Dict[TestbedScenario, Fig5hiResult]:
    """Fig 5(h) *and* 5(i) from one two-scenario grid.

    Both scenario traces are generated through the scenario runner in a
    single submission, so ``jobs=2`` runs them concurrently.
    """
    frames = generate_scenario_frames(
        list(TestbedScenario), seed=seed, jobs=jobs
    )
    return {
        scenario: exp_fig5hi(scenario, seed=seed, rank=rank, trace=frame)
        for scenario, frame in frames.items()
    }
