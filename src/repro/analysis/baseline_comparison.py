"""VN2 vs the baselines on a multi-cause episode (DESIGN.md's B1).

The paper's central criticism of evidence-based tools: they assume one
root cause per symptom, while real failures are combinations.  This
harness constructs a window where three hazards act *simultaneously* — a
routing loop, an interference region and a traffic burst — and scores each
tool on the states of nodes affected by two or more hazards at once:

* **attribution recall** — of the hazard kinds truly acting on the state,
  what fraction did the tool name?  (VN2 can name several; Sympathy's
  tree stops at one; the detectors name none.)
* **detection rate** — fraction of multi-cause states flagged abnormal at
  all (the only score PCA and Agnostic Diagnosis can earn).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.agnostic import AgnosticDiagnoser
from repro.baselines.pca import PCADetector
from repro.baselines.sympathy import SympathyDiagnoser
from repro.core.inference import active_causes
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states
from repro.simnet.faults import FaultInjector, ForcedLoop, Interference, TrafficBurst
from repro.simnet.network import Network, NetworkConfig
from repro.simnet.radio import RadioParams
from repro.simnet.topology import grid_topology
from repro.traces.frame import TraceFrame, frame_from_network

# The canonical hazard -> fault-kind mapping lives in
# repro.analysis.evaluation; re-exported here for backwards compatibility.
from repro.analysis.evaluation import HAZARD_TO_FAULTS, truth_kinds_for_states


#: Sympathy verdict -> ground-truth fault kinds.
SYMPATHY_TO_FAULTS: Dict[str, Tuple[str, ...]] = {
    "node_reboot": ("node_reboot",),
    "no_route": ("node_failure",),
    "routing_loop": ("routing_loop",),
    "queue_overflow": ("traffic_burst", "routing_loop"),
    "link_disconnection": ("node_failure",),
    "bad_link": ("interference", "link_degradation"),
    "contention": ("interference", "traffic_burst"),
    "parent_churn": ("link_degradation",),
    "low_battery": ("battery_drain",),
}


@dataclass
class MethodScore:
    """Scores of one diagnosis method."""

    method: str
    attribution_recall: float
    detection_rate: float
    mean_causes_named: float


@dataclass
class BaselineComparisonResult:
    """All methods on the multi-cause window."""

    scores: List[MethodScore]
    n_multicause_states: int
    truth_kinds: Tuple[str, ...]

    def score_of(self, method: str) -> MethodScore:
        for s in self.scores:
            if s.method == method:
                return s
        raise KeyError(method)

    def to_text(self) -> str:
        rows = [
            (
                s.method,
                f"{s.attribution_recall:.2f}",
                f"{s.detection_rate:.2f}",
                f"{s.mean_causes_named:.2f}",
            )
            for s in self.scores
        ]
        table = format_table(
            ["method", "attribution recall", "detection rate", "causes/state"],
            rows,
        )
        return (
            f"{table}\n{self.n_multicause_states} multi-cause states; "
            f"truth kinds: {', '.join(self.truth_kinds)}"
        )


def build_multicause_frame(seed: int = 21) -> TraceFrame:
    """A controlled frame whose middle window has three overlapping hazards."""
    topology = grid_topology(rows=6, cols=6, spacing=9.0)
    config = NetworkConfig(
        report_period_s=120.0,
        beacon_min_s=10.0,
        beacon_max_s=120.0,
        seed=seed,
        radio=RadioParams(tx_power_dbm=-10.0),
        max_range_m=40.0,
    )
    network = Network(topology, config)
    window = (2400.0, 4800.0)
    # The hazards run in intermittent pulses: continuous worst-case faults
    # would suppress the very report packets that carry their evidence
    # (few complete snapshots -> few evaluable states).
    faults: List[object] = []
    pulse = 300.0
    t = window[0]
    while t < window[1]:
        faults.append(ForcedLoop(21, 22, start=t, end=t + pulse))
        faults.append(
            Interference(center=(22.0, 22.0), radius=22.0, start=t,
                         end=t + pulse, delta_db=12.0)
        )
        faults.append(
            TrafficBurst(node_ids=(28, 29, 34), start=t, end=t + pulse,
                         interval_s=3.0)
        )
        t += 2 * pulse
    FaultInjector(faults).install(network)
    network.run(6600.0)
    return frame_from_network(
        network,
        metadata={
            "kind": "multicause",
            "window": list(window),
            "positions": {
                str(nid): list(pos) for nid, pos in topology.positions.items()
            },
        },
    )


def exp_baselines(
    trace: Optional[TraceFrame] = None,
    rank: int = 12,
    min_weight_fraction: float = 0.15,
) -> BaselineComparisonResult:
    """Score VN2, Sympathy, Agnostic and PCA on the multi-cause window."""
    if trace is None:
        trace = build_multicause_frame()
    states = build_states(trace)

    # Identify the multi-cause evaluation states.
    eval_indices: List[int] = []
    truths: List[Set[str]] = []
    for i, kinds in enumerate(truth_kinds_for_states(states, trace)):
        if len(kinds) >= 2:
            eval_indices.append(i)
            truths.append(kinds)
    eval_states = states.select(eval_indices)
    all_truth_kinds = tuple(sorted(set().union(*truths))) if truths else ()

    scores: List[MethodScore] = []

    # ---- VN2: trained unsupervised on the full history (paper protocol).
    tool = VN2(VN2Config(rank=rank, filter_exceptions=True)).fit_states(states)
    weights = tool.correlation_strengths(eval_states)
    recalls, counts, detected = [], [], 0
    for row, truth in zip(weights, truths):
        active = active_causes(row, min_weight_fraction)
        named: Set[str] = set()
        for j in active:
            label = tool.labels[int(j)]
            if label.is_baseline:
                continue
            for hazard, _score in label.hazards[:3]:
                named.update(HAZARD_TO_FAULTS.get(hazard, ()))
        recalls.append(len(named & truth) / len(truth))
        counts.append(len([j for j in active if not tool.labels[int(j)].is_baseline]))
        if counts[-1] > 0:
            detected += 1
    scores.append(
        MethodScore(
            method="VN2",
            attribution_recall=float(np.mean(recalls)) if recalls else 0.0,
            detection_rate=detected / len(eval_indices) if eval_indices else 0.0,
            mean_causes_named=float(np.mean(counts)) if counts else 0.0,
        )
    )

    # ---- Sympathy: thresholds from the clean prefix, one cause per state.
    window = trace.metadata.get("window", [0.0, 0.0])
    clean = states.in_window(0.0, float(window[0]))
    sympathy = SympathyDiagnoser().fit(clean if len(clean) >= 2 else states)
    recalls, counts, detected = [], [], 0
    for values, truth in zip(eval_states.values, truths):
        verdict = sympathy.diagnose(values)
        named = set(SYMPATHY_TO_FAULTS.get(verdict.cause, ())) if verdict.cause else set()
        recalls.append(len(named & truth) / len(truth))
        counts.append(1 if verdict.cause else 0)
        if verdict.is_abnormal:
            detected += 1
    scores.append(
        MethodScore(
            method="Sympathy",
            attribution_recall=float(np.mean(recalls)) if recalls else 0.0,
            detection_rate=detected / len(eval_indices) if eval_indices else 0.0,
            mean_causes_named=float(np.mean(counts)) if counts else 0.0,
        )
    )

    # The detectors (Agnostic Diagnosis, PCA) cannot attribute causes, so
    # they are scored on detection over the whole fault window: did the
    # affected nodes' states get flagged abnormal at all?
    window_states = states.in_window(float(window[0]), float(window[1]) + 600.0)
    affected_nodes = {int(n) for n in states.node_ids[eval_indices]}

    # ---- Agnostic Diagnosis: per-node correlation drift.  Its natural
    # granularity is the *node* ("performs good or not"), so detection is
    # the fraction of affected nodes flagged abnormal at least once during
    # the fault window.
    agnostic_detect = 0.0
    try:
        agnostic = AgnosticDiagnoser(window=6, anomaly_factor=1.5).fit(
            clean if len(clean) >= 12 else states
        )
        flagged_nodes = {
            v.node_id
            for v in agnostic.diagnose_batch(window_states)
            if v.is_abnormal
        }
        if affected_nodes:
            agnostic_detect = len(flagged_nodes & affected_nodes) / len(
                affected_nodes
            )
    except ValueError:
        pass
    scores.append(
        MethodScore(
            method="AgnosticDiagnosis",
            attribution_recall=0.0,
            detection_rate=agnostic_detect,
            mean_causes_named=0.0,
        )
    )

    # ---- PCA: subspace residual, detection only.
    pca = PCADetector(n_components=8).fit(clean if len(clean) > 8 else states)
    verdicts = pca.diagnose_batch(eval_states)
    pca_detect = float(np.mean([v.is_abnormal for v in verdicts])) if verdicts else 0.0
    scores.append(
        MethodScore(
            method="PCA",
            attribution_recall=0.0,
            detection_rate=pca_detect,
            mean_causes_named=0.0,
        )
    )

    return BaselineComparisonResult(
        scores=scores,
        n_multicause_states=len(eval_indices),
        truth_kinds=all_truth_kinds,
    )
