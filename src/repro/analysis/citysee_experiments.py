"""Harnesses for the paper's Figure 6 (CitySee field study).

The paper's protocol: Ψ (25x43) is extracted from the training trace; a
later 14-day trace shows a clear PRR degradation (Sep 20-22); correlating
that window's states against Ψ reveals the responsible root causes —
network loops, contention and node failures.

Here the "later trace" is a 14-profile-day run with a concentrated episode
injected on days 6-8 (loops + wide interference + node failures), and the
harnesses check the same chain: the PRR series dips inside the episode
(6a), strength concentrates on a few Ψ rows (6b), and those rows decode to
the loop/contention/failure families (6c).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.reporting import format_series, format_table
from repro.core.interpretation import RootCauseLabel
from repro.core.pipeline import VN2, VN2Config
from repro.core.states import build_states
from repro.traces.citysee import CitySeeProfile
from repro.traces.frame import TraceFrame
from repro.traces.prr import degraded_windows, prr_series


#: Hazard names that satisfy each of the paper's three episode diagnoses.
EPISODE_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "network_loop": ("routing_loop", "duplicate_storm", "queue_overflow"),
    "contention": ("contention", "noise_increase", "noack_retransmit"),
    "node_failure": ("node_failure", "parent_churn", "node_reboot",
                     "link_disconnection", "low_voltage"),
}


# ----------------------------------------------------------------------
# Fig 6(a)
# ----------------------------------------------------------------------


@dataclass
class Fig6aResult:
    """PRR time series with the detected degradation windows."""

    bin_centers: np.ndarray
    prr: np.ndarray
    degraded: List[Tuple[float, float]]
    episode_window: Tuple[float, float]
    dip_depth: float  # baseline PRR minus episode-minimum PRR

    def episode_detected(self) -> bool:
        """True if any degraded window overlaps the injected episode."""
        s, e = self.episode_window
        return any(ds < e and de > s for ds, de in self.degraded)

    def to_text(self) -> str:
        lines = [format_series("PRR", self.bin_centers, self.prr)]
        lines.append(
            f"episode window: [{self.episode_window[0]:.0f}, "
            f"{self.episode_window[1]:.0f}) s; dip depth={self.dip_depth:.2f}"
        )
        for s, e in self.degraded:
            lines.append(f"degraded: [{s:.0f}, {e:.0f}) s")
        return "\n".join(lines)


def exp_fig6a(
    trace: TraceFrame,
    bin_fraction_of_day: float = 0.25,
) -> Fig6aResult:
    """Fig 6(a): the sink PRR series around the degradation episode."""
    profile = trace.metadata.get("profile", {})
    day_seconds = float(profile.get("day_seconds", 86400.0))
    episode_days = trace.metadata.get("episode_days", [6.0, 8.0])
    episode_window = (
        float(episode_days[0]) * day_seconds,
        float(episode_days[1]) * day_seconds,
    )
    centers, prr = prr_series(trace, bin_seconds=day_seconds * bin_fraction_of_day)
    degraded = degraded_windows(centers, prr)
    in_episode = (centers >= episode_window[0]) & (centers < episode_window[1])
    outside = ~in_episode
    if in_episode.any() and outside.any():
        dip = float(np.median(prr[outside]) - prr[in_episode].min())
    else:
        dip = 0.0
    return Fig6aResult(
        bin_centers=centers,
        prr=prr,
        degraded=degraded,
        episode_window=episode_window,
        dip_depth=dip,
    )


# ----------------------------------------------------------------------
# Fig 6(b)
# ----------------------------------------------------------------------


@dataclass
class Fig6bResult:
    """Strength of every Ψ row over the degradation window."""

    strengths: np.ndarray  # length r: mean weight over episode states
    top_rows: List[int]  # descending by strength
    n_states: int
    concentration: float  # share of total strength held by the top 4 rows
    tool: VN2

    def to_text(self) -> str:
        rows = [
            (f"Ψ{j + 1}", f"{self.strengths[j]:.4f}",
             self.tool.labels[j].primary_hazard or "-")
            for j in self.top_rows[:8]
        ]
        table = format_table(["root cause", "mean strength", "hazard"], rows)
        return (
            f"{table}\ntop-4 concentration={self.concentration:.2f} "
            f"over {self.n_states} episode states"
        )


def exp_fig6b(
    tool: VN2,
    episode_trace: TraceFrame,
    window: Optional[Tuple[float, float]] = None,
) -> Fig6bResult:
    """Fig 6(b): correlate the degradation window's states against Ψ."""
    if window is None:
        profile = episode_trace.metadata.get("profile", {})
        day_seconds = float(profile.get("day_seconds", 86400.0))
        episode_days = episode_trace.metadata.get("episode_days", [6.0, 8.0])
        window = (
            float(episode_days[0]) * day_seconds,
            float(episode_days[1]) * day_seconds,
        )
    states = build_states(episode_trace).in_window(*window)
    if len(states) == 0:
        raise ValueError("no states inside the requested window")
    weights = tool.correlation_strengths(states)
    strengths = weights.mean(axis=0)
    top = list(np.argsort(strengths)[::-1])
    total = float(strengths.sum())
    concentration = float(strengths[top[:4]].sum()) / total if total > 0 else 0.0
    return Fig6bResult(
        strengths=strengths,
        top_rows=[int(j) for j in top],
        n_states=len(states),
        concentration=concentration,
        tool=tool,
    )


# ----------------------------------------------------------------------
# Fig 6(c)
# ----------------------------------------------------------------------


@dataclass
class Fig6cResult:
    """Interpretation of the top episode root causes."""

    rows: List[Tuple[int, RootCauseLabel]]
    families_found: Dict[str, bool]

    def all_families_found(self) -> bool:
        return all(self.families_found.values())

    def to_text(self) -> str:
        lines = []
        for index, label in self.rows:
            tops = ", ".join(
                f"{n}={v:+.2f}" for n, v in label.top_metrics[:4]
            )
            lines.append(f"Ψ{index + 1}: {tops}\n    -> {label.explanation}")
        found = ", ".join(
            f"{family}={'yes' if ok else 'NO'}"
            for family, ok in self.families_found.items()
        )
        lines.append(f"episode families: {found}")
        return "\n".join(lines)


def exp_fig6c(fig6b: Fig6bResult, top_k: int = 6) -> Fig6cResult:
    """Fig 6(c): decode the top rows; expect loop+contention+failure."""
    tool = fig6b.tool
    rows: List[Tuple[int, RootCauseLabel]] = []
    hazard_hits: List[str] = []
    for j in fig6b.top_rows[:top_k]:
        label = tool.labels[j]
        rows.append((j, label))
        hazard_hits.extend(name for name, _score in label.hazards[:3])
    families_found = {
        family: any(h in hazards for h in hazard_hits)
        for family, hazards in EPISODE_FAMILIES.items()
    }
    return Fig6cResult(rows=rows, families_found=families_found)


# ----------------------------------------------------------------------
# end-to-end convenience
# ----------------------------------------------------------------------


def run_citysee_study(
    profile: Optional[CitySeeProfile] = None,
    rank: int = 25,
    use_cache: bool = True,
    jobs: int = 1,
) -> Tuple[VN2, TraceFrame, Fig6aResult, Fig6bResult, Fig6cResult]:
    """The full Fig 6 chain: train on clean days, diagnose the episode.

    Runs entirely on the columnar frame path — no per-snapshot objects
    are materialized anywhere in the study.  The training and episode
    runs are independent simulations, submitted as a two-job grid to the
    scenario runner; ``jobs=2`` generates them concurrently with
    bit-identical results.
    """
    from repro.runner import citysee_study_jobs, run_jobs

    profile = profile or CitySeeProfile.medium()
    report = run_jobs(
        citysee_study_jobs(profile), n_workers=jobs, use_cache=use_cache
    )
    training, episode_trace = report.frames()
    tool = VN2(VN2Config(rank=rank)).fit(training)
    fig6a = exp_fig6a(episode_trace)
    fig6b = exp_fig6b(tool, episode_trace)
    fig6c = exp_fig6c(fig6b)
    return tool, episode_trace, fig6a, fig6b, fig6c
