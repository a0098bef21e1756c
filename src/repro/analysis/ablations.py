"""Ablations of VN2's two design choices DESIGN.md calls out.

* **Exception filtering** (paper IV-B): does pre-filtering to exception
  states actually protect rare-fault representability from being drowned
  by normal states?
* **Sparsification retention** (Algorithm 2's 0.9): how do accuracy and
  explanation sparsity trade off as the retained mass varies?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.exceptions import detect_exceptions
from repro.core.nmf import frobenius_loss, nmf
from repro.core.normalization import MinMaxNormalizer
from repro.core.pipeline import VN2, VN2Config
from repro.core.sparsify import sparsify_weights
from repro.core.states import build_states
from repro.traces.citysee import CitySeeProfile
from repro.traces.frame import TraceFrame


# ----------------------------------------------------------------------
# exception-filter ablation
# ----------------------------------------------------------------------


@dataclass
class FilterVariantStats:
    """One arm of the filter ablation."""

    name: str
    n_training_states: int
    distinct_hazards: int  # non-baseline hazards among Ψ labels
    exception_reconstruction_error: float  # on the held-aside exceptions


@dataclass
class FilterAblationResult:
    """Filter on vs off, trained at the same rank on the same trace."""

    with_filter: FilterVariantStats
    without_filter: FilterVariantStats

    def to_text(self) -> str:
        rows = [
            (
                v.name,
                v.n_training_states,
                v.distinct_hazards,
                f"{v.exception_reconstruction_error:.3f}",
            )
            for v in (self.with_filter, self.without_filter)
        ]
        return format_table(
            ["variant", "train states", "distinct hazards", "exception recon err"],
            rows,
        )


def _variant_stats(name: str, tool: VN2, exception_values: np.ndarray) -> FilterVariantStats:
    hazards = {
        label.primary_hazard
        for label in tool.labels
        if not label.is_baseline and label.primary_hazard
    }
    normalized = tool.normalizer_.transform(exception_values)
    weights = tool.correlation_strengths(exception_values)
    error = frobenius_loss(normalized, weights, tool.psi) / max(
        float(np.linalg.norm(normalized)), 1e-12
    )
    n_train = (
        len(tool.exceptions_.states) if tool.exceptions_ is not None
        else len(tool.states_)
    )
    return FilterVariantStats(
        name=name,
        n_training_states=n_train,
        distinct_hazards=len(hazards),
        exception_reconstruction_error=error,
    )


def exp_ablation_filter(trace: TraceFrame, rank: int = 15) -> FilterAblationResult:
    """Train with and without the ε filter; score on the exception states."""
    states = build_states(trace)
    exceptions = detect_exceptions(states)
    exception_values = exceptions.states.values

    tool_filtered = VN2(VN2Config(rank=rank, filter_exceptions=True)).fit_states(states)
    tool_unfiltered = VN2(VN2Config(rank=rank, filter_exceptions=False)).fit_states(states)
    return FilterAblationResult(
        with_filter=_variant_stats("filter on", tool_filtered, exception_values),
        without_filter=_variant_stats("filter off", tool_unfiltered, exception_values),
    )


# ----------------------------------------------------------------------
# sparsification-retention ablation
# ----------------------------------------------------------------------


@dataclass
class RetentionPoint:
    """Sweep measurements at one retention level."""

    retention: float
    kept_fraction: float
    accuracy: float  # ‖E − W̄Ψ‖
    mean_active_causes: float  # nonzero W̄ entries per exception


@dataclass
class SparsifyAblationResult:
    """Accuracy/sparsity trade-off over the retention sweep."""

    points: List[RetentionPoint]
    dense_accuracy: float

    def to_text(self) -> str:
        rows = [
            (
                f"{p.retention:.2f}",
                f"{100 * p.kept_fraction:.1f}%",
                f"{p.accuracy:.3f}",
                f"{p.mean_active_causes:.2f}",
            )
            for p in self.points
        ]
        table = format_table(
            ["retention", "entries kept", "accuracy", "causes/exception"], rows
        )
        return f"{table}\ndense accuracy = {self.dense_accuracy:.3f}"


def exp_ablation_sparsify(
    trace: TraceFrame,
    rank: int = 15,
    retentions: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0),
) -> SparsifyAblationResult:
    """Sweep Algorithm 2's retained-mass target on a fixed factorization."""
    states = build_states(trace)
    exceptions = detect_exceptions(states)
    normalizer = MinMaxNormalizer.fit(exceptions.states.values, pad_fraction=0.05)
    E = normalizer.transform(exceptions.states.values)
    result = nmf(E, min(rank, min(E.shape)), init="nndsvd")
    points: List[RetentionPoint] = []
    for retention in retentions:
        sparse = sparsify_weights(result.W, retention=retention)
        active = (sparse.W_sparse > 0).sum(axis=1)
        points.append(
            RetentionPoint(
                retention=retention,
                kept_fraction=sparse.kept_fraction,
                accuracy=frobenius_loss(E, sparse.W_sparse, result.Psi),
                mean_active_causes=float(active.mean()),
            )
        )
    return SparsifyAblationResult(points=points, dense_accuracy=result.loss)


# ----------------------------------------------------------------------
# multi-seed ablation suite (runner-driven)
# ----------------------------------------------------------------------


@dataclass
class AblationSuiteResult:
    """Both ablations over a seed sweep, one trace per derived seed."""

    seeds: List[int]
    filter_results: List[FilterAblationResult]
    sparsify_results: List[SparsifyAblationResult]

    def mean_filter_gap(self) -> float:
        """Mean (filter-off − filter-on) exception reconstruction error."""
        gaps = [
            r.without_filter.exception_reconstruction_error
            - r.with_filter.exception_reconstruction_error
            for r in self.filter_results
        ]
        return float(np.mean(gaps)) if gaps else 0.0

    def to_text(self) -> str:
        blocks = []
        for seed, filt, spar in zip(
            self.seeds, self.filter_results, self.sparsify_results
        ):
            blocks.append(f"--- seed {seed} ---")
            blocks.append(filt.to_text())
            blocks.append(spar.to_text())
        blocks.append(
            f"mean filter gap (off - on) over {len(self.seeds)} seeds: "
            f"{self.mean_filter_gap():+.3f}"
        )
        return "\n".join(blocks)


def exp_ablation_suite(
    profile: Optional[CitySeeProfile] = None,
    rank: int = 15,
    n_seeds: int = 2,
    jobs: int = 1,
    use_cache: bool = True,
) -> AblationSuiteResult:
    """Run both ablations across a seed sweep of CitySee traces.

    The per-seed traces are independent simulator runs; the grid is
    submitted to the scenario runner, so ``jobs=n_seeds`` generates them
    concurrently with bit-identical results.
    """
    from repro.runner import citysee_seed_sweep, run_jobs

    profile = profile or CitySeeProfile.small()
    sweep = citysee_seed_sweep(profile, n_seeds, namespace="ablation")
    report = run_jobs(sweep, n_workers=jobs, use_cache=use_cache)
    frames = report.frames()
    return AblationSuiteResult(
        seeds=[job.profile.seed for job in sweep],
        filter_results=[exp_ablation_filter(f, rank=rank) for f in frames],
        sparsify_results=[exp_ablation_sparsify(f, rank=rank) for f in frames],
    )
