"""Per-fault-family accuracy scorecard for chaos scenario runs.

The kind-level evaluation in :mod:`repro.analysis.evaluation` asks "did the
diagnosis name *this exact fault kind*?".  Chaos runs mix families of
related faults (three interference primitives are all RF trouble; a duty
cycle and a gateway failure are both churn), so the scorecard asks the
operator's coarser question instead: **when family X was hurting the
network, did the tool point at family X — and how fast?**

Three numbers per family:

* **precision / recall** over faulted states, with truth and predictions
  both lifted from kinds/hazards to families;
* **detection rate** — the fraction of ground-truth *episodes* whose
  family was named on an affected node at least once inside the episode
  window (long-window faults such as firmware skew have tiny state-level
  recall but are trivially "detected" in this sense);
* **detection latency** — seconds from episode start to the end of the
  first state naming the family.

The CI gate (`vn2 chaos score --gate`) checks each preset's detection
rates against the conservative per-family floors in
:data:`repro.chaos.presets.PRESETS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.evaluation import HAZARD_TO_FAULTS
from repro.analysis.reporting import format_table
from repro.chaos.dsl import FAMILIES, FAULT_FAMILIES
from repro.core.inference import sparsify_inferred
from repro.core.pipeline import VN2
from repro.core.states import StateMatrix, build_states
from repro.traces.frame import TraceFrame

#: Hazards whose Ψ signature points at a family beyond what the kind-level
#: hazard->fault table implies.  ``clock_instability`` is the paper's Table I
#: timing hazard; a firmware-skewed node's truncated neighbor table reads as
#: neighbor/parent dynamics, so those hazards also count toward "reporting".
_EXTRA_FAMILY_HAZARDS: Dict[str, Tuple[str, ...]] = {
    "clock_instability": ("timing",),
    "link_dynamics": ("reporting",),
    "parent_churn": ("reporting",),
}


def _build_family_hazards() -> Dict[str, Tuple[str, ...]]:
    table: Dict[str, Set[str]] = {}
    for hazard, kinds in HAZARD_TO_FAULTS.items():
        table[hazard] = {FAULT_FAMILIES[k] for k in kinds if k in FAULT_FAMILIES}
    for hazard, families in _EXTRA_FAMILY_HAZARDS.items():
        table.setdefault(hazard, set()).update(families)
    return {hazard: tuple(sorted(fams)) for hazard, fams in table.items()}


#: VN2 hazard name -> fault families it counts as naming.
FAMILY_HAZARDS: Dict[str, Tuple[str, ...]] = _build_family_hazards()


def predicted_families(
    tool: VN2,
    weights_row: np.ndarray,
    min_strength: float,
    hazards_per_cause: int = 3,
) -> Set[str]:
    """Fault families named by one state's (sparsified) weight vector."""
    named: Set[str] = set()
    for j in np.flatnonzero(weights_row >= min_strength):
        label = tool.labels[int(j)]
        if label.is_baseline:
            continue
        for hazard, _score in label.hazards[:hazards_per_cause]:
            named.update(FAMILY_HAZARDS.get(hazard, ()))
    return named


def truth_families_for_states(
    states: StateMatrix, frame: TraceFrame
) -> List[Set[str]]:
    """Per-state ground-truth families, computed columnar.

    Unlike the kind-level evaluation, *every* ground-truth episode with a
    node list participates — the chaos primitives all record affected
    nodes, so family truth covers the whole schedule.
    """
    families: List[Set[str]] = [set() for _ in range(len(states))]
    if len(states) == 0:
        return families
    for g in frame.ground_truth:
        family = FAULT_FAMILIES.get(g.kind)
        if family is None or not g.node_ids:
            continue
        overlap = (states.times_from <= g.end) & (states.times_to >= g.start)
        if not overlap.any():
            continue
        member = np.isin(
            states.node_ids, np.asarray(tuple(g.node_ids), dtype=np.int64)
        )
        for i in np.flatnonzero(overlap & member):
            families[int(i)].add(family)
    return families


@dataclass
class FamilyScore:
    """One family's row of the scorecard."""

    family: str
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    episodes: int = 0
    detected: int = 0
    latencies_s: List[float] = field(default_factory=list)

    @property
    def precision(self) -> float:
        denom = self.true_positives + self.false_positives
        return self.true_positives / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.true_positives + self.false_negatives
        return self.true_positives / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0

    @property
    def support(self) -> int:
        return self.true_positives + self.false_negatives

    @property
    def detection_rate(self) -> float:
        return self.detected / self.episodes if self.episodes else 0.0

    @property
    def median_latency_s(self) -> Optional[float]:
        if not self.latencies_s:
            return None
        return float(np.median(self.latencies_s))

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "precision": round(self.precision, 4),
            "recall": round(self.recall, 4),
            "f1": round(self.f1, 4),
            "support": self.support,
            "episodes": self.episodes,
            "detected": self.detected,
            "detection_rate": round(self.detection_rate, 4),
            "median_latency_s": self.median_latency_s,
        }


@dataclass
class ChaosScorecard:
    """Per-family accuracy of one chaos run."""

    scenario_name: str
    per_family: List[FamilyScore]
    n_states: int
    min_strength: float

    def family(self, name: str) -> FamilyScore:
        for score in self.per_family:
            if score.family == name:
                return score
        raise KeyError(name)

    def families(self) -> Tuple[str, ...]:
        return tuple(s.family for s in self.per_family)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario_name,
            "n_states": self.n_states,
            "min_strength": self.min_strength,
            "families": [s.to_json_dict() for s in self.per_family],
        }

    def to_text(self) -> str:
        rows = []
        for s in self.per_family:
            latency = (
                f"{s.median_latency_s:.0f}s"
                if s.median_latency_s is not None
                else "-"
            )
            rows.append(
                (
                    s.family,
                    f"{s.precision:.2f}",
                    f"{s.recall:.2f}",
                    f"{s.f1:.2f}",
                    s.support,
                    f"{s.detected}/{s.episodes}",
                    latency,
                )
            )
        table = format_table(
            ["family", "precision", "recall", "f1", "support",
             "detected", "median latency"],
            rows,
        )
        return (
            f"scorecard[{self.scenario_name}]\n{table}\n"
            f"({self.n_states} states, min_strength={self.min_strength})"
        )

    def check_gates(self, floors: Dict[str, float]) -> List[str]:
        """Gate failures: families whose detection rate is below its floor."""
        failures: List[str] = []
        for family, floor in sorted(floors.items()):
            try:
                score = self.family(family)
            except KeyError:
                failures.append(
                    f"{self.scenario_name}: family {family!r} has no ground-"
                    f"truth episodes but a gate floor of {floor:.2f}"
                )
                continue
            if score.detection_rate < floor:
                failures.append(
                    f"{self.scenario_name}: {family} detection rate "
                    f"{score.detection_rate:.2f} below floor {floor:.2f} "
                    f"({score.detected}/{score.episodes} episodes)"
                )
        return failures


def score_frame(
    tool: VN2,
    frame: TraceFrame,
    scenario_name: str = "chaos",
    min_strength: float = 0.2,
    retention: float = 0.9,
    exception_threshold: Optional[float] = 0.01,
) -> ChaosScorecard:
    """Score a fitted tool's diagnoses on one chaos frame, per family.

    State-level truth/prediction matching mirrors
    :func:`repro.analysis.evaluation.evaluate_diagnoses`, lifted from fault
    kinds to families; episode detection scans each ground-truth window for
    the first affected-node state naming the episode's family.
    """
    tool._require_fitted()
    states = build_states(frame)
    if len(states) == 0:
        raise ValueError("frame has no states to score")
    weights = sparsify_inferred(
        tool.correlation_strengths(states), retention=retention
    )
    exceptional = np.ones(len(states), dtype=bool)
    if exception_threshold is not None:
        exceptional = (
            tool._exception_scores(states.values) >= exception_threshold
        )

    predicted: List[Set[str]] = [
        predicted_families(tool, weights[i], min_strength)
        if exceptional[i]
        else set()
        for i in range(len(states))
    ]
    truth = truth_families_for_states(states, frame)

    scores: Dict[str, FamilyScore] = {}

    def bucket(family: str) -> FamilyScore:
        if family not in scores:
            scores[family] = FamilyScore(family)
        return scores[family]

    for pred, true in zip(predicted, truth):
        for family in pred & true:
            bucket(family).true_positives += 1
        for family in pred - true:
            bucket(family).false_positives += 1
        for family in true - pred:
            bucket(family).false_negatives += 1

    # Episode-level detection: first affected-node state inside the window
    # whose prediction names the episode's family.
    for g in frame.ground_truth:
        family = FAULT_FAMILIES.get(g.kind)
        if family is None or not g.node_ids:
            continue
        score = bucket(family)
        score.episodes += 1
        overlap = (states.times_from <= g.end) & (states.times_to >= g.start)
        member = np.isin(
            states.node_ids, np.asarray(tuple(g.node_ids), dtype=np.int64)
        )
        hit_times = [
            float(states.times_to[int(i)])
            for i in np.flatnonzero(overlap & member)
            if family in predicted[int(i)]
        ]
        if hit_times:
            score.detected += 1
            score.latencies_s.append(max(0.0, min(hit_times) - g.start))

    ordered = [scores[f] for f in FAMILIES if f in scores]
    extras = sorted(set(scores) - set(FAMILIES))
    ordered.extend(scores[f] for f in extras)
    return ChaosScorecard(
        scenario_name=scenario_name,
        per_family=ordered,
        n_states=len(states),
        min_strength=min_strength,
    )


def score_scenario_frame(
    frame: TraceFrame,
    scenario_name: str = "chaos",
    rank: Optional[int] = None,
    min_strength: float = 0.2,
) -> ChaosScorecard:
    """Fit VN2 on the chaos frame itself, then score it.

    Chaos runs are their own training data, like the seed-sweep
    evaluation: the NMF basis learns the run's dominant behaviours and the
    scorecard measures whether fault states decompose onto hazard-labelled
    causes.
    """
    from repro.core.pipeline import VN2Config

    tool = VN2(VN2Config(rank=rank)).fit(frame)
    return score_frame(
        tool, frame, scenario_name=scenario_name, min_strength=min_strength
    )


# ----------------------------------------------------------------------
# preset suite (runner-driven)
# ----------------------------------------------------------------------


@dataclass
class ChaosSuiteResult:
    """Scorecards for a set of presets, plus gate verdicts."""

    scorecards: List[ChaosScorecard]
    gate_failures: List[str]
    run_report: Optional[object] = None  # the runner's RunReport, for timings

    @property
    def ok(self) -> bool:
        return not self.gate_failures

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "presets": [card.to_json_dict() for card in self.scorecards],
            "gate_failures": list(self.gate_failures),
            "ok": self.ok,
        }

    def to_text(self) -> str:
        blocks = [card.to_text() for card in self.scorecards]
        if self.gate_failures:
            blocks.append(
                "GATE FAILURES:\n" + "\n".join(f"  {f}" for f in self.gate_failures)
            )
        else:
            blocks.append("all gates passed")
        return "\n\n".join(blocks)


def run_chaos_suite(
    names: Optional[Sequence[str]] = None,
    seed: int = 2011,
    scale: str = "tiny",
    jobs: int = 1,
    use_cache: bool = True,
    min_strength: float = 0.2,
    gate: bool = True,
) -> ChaosSuiteResult:
    """Run presets through the process pool, fit + score each one.

    Generating the traces (the dominant cost) shards across ``jobs`` workers
    with bit-identical frames; fitting and scoring stay in the parent.
    """
    from repro.chaos.presets import PRESETS
    from repro.runner import chaos_preset_jobs, run_jobs

    job_specs = chaos_preset_jobs(names, seed=seed, scale=scale)
    report = run_jobs(job_specs, n_workers=jobs, use_cache=use_cache)
    scorecards: List[ChaosScorecard] = []
    failures: List[str] = []
    for job, result in zip(job_specs, report.results):
        name = job.scenario.name
        card = score_scenario_frame(
            result.frame(), scenario_name=name, min_strength=min_strength
        )
        scorecards.append(card)
        if gate:
            failures.extend(card.check_gates(dict(PRESETS[name].gate_floors)))
    return ChaosSuiteResult(
        scorecards=scorecards, gate_failures=failures, run_report=report
    )
