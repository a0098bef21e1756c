"""Online model lifecycle: incremental refits and drift-triggered updates.

A long-running deployment cannot afford a cold ``VN2.fit`` every time the
network drifts, and a *serving* deployment cannot afford the model it is
diagnosing with to mutate under its feet.  This module owns both halves:

* :func:`incremental_refit` — the warm-started update core.  It absorbs a
  batch of new states into a fitted :class:`~repro.core.pipeline.VN2` by
  re-screening/re-normalizing the combined state set and resuming NMF
  from the current Ψ (old W rows carried over where the training rows
  line up, new rows NNLS-seeded), so root-cause identities stay aligned
  across updates at a fraction of a cold refit's sweeps.
  ``VN2.refit_with`` is a thin delegate over this function.
* :class:`OnlineVN2Updater` — the lifecycle driver.  It treats the
  current model as an immutable fitted artifact: ``absorb`` clones it,
  refits the clone and returns the clone, leaving the original untouched
  for whoever is still serving it (the sink swaps atomically on rotation).
  It also keeps a bounded window of relative residuals from recent
  diagnoses — the *drift score* — and exposes ``should_refit`` as the
  refit trigger.

Every model carries a content-hash ``model_version``
(:attr:`~repro.core.pipeline.VN2.model_version`); a refit invalidates it,
so the updated clone gets a fresh version and the serving layers can tell
the two apart.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Deque

import numpy as np

from repro.obs import get_registry, span
from repro.core.inference import infer_weights_batch
from repro.core.nmf import NMFResult, _EPS, frobenius_loss
from repro.core.normalization import MinMaxNormalizer
from repro.core.pipeline import VN2, DiagnosisReport
from repro.core.sparsify import sparsify_weights
from repro.core.states import StateMatrix, merge_state_matrices


def incremental_refit(
    tool: VN2,
    new_states: StateMatrix,
    warm_iterations: int = 60,
    tol: float = 0.0,
) -> VN2:
    """Absorb ``new_states`` into ``tool`` with warm-started NMF (in place).

    The combined state set is re-filtered and re-normalized, W is
    re-seeded by NNLS against the current Ψ, and both factors adapt with
    at most ``warm_iterations`` multiplicative sweeps.  ``tol > 0`` stops
    the sweeps early once one sweep's relative loss improvement drops
    below it — the lever that makes frequent online absorbs cheap; the
    default 0 keeps the historical fixed-budget behaviour bit for bit.

    Mutates and returns ``tool``; callers needing the serving copy kept
    intact should go through :meth:`OnlineVN2Updater.absorb`, which
    refits a clone.

    Models restored with :meth:`VN2.load` carry no training states
    (``states_ is None`` — the save format keeps only the factors); for
    those the refit runs against ``new_states`` alone, still warm-started
    from the loaded Ψ so root-cause identities carry over.
    """
    tool._require_fitted()
    if len(new_states) == 0:
        raise ValueError("incremental_refit needs at least one new state")
    with span(
        "lifecycle.refit",
        n_new_states=len(new_states),
        warm_iterations=warm_iterations,
    ):
        previous_W = tool.nmf_.W
        n_old = 0 if tool.states_ is None else len(tool.states_)
        if tool.states_ is None:
            combined = new_states
        else:
            combined = merge_state_matrices([tool.states_, new_states])
        tool.states_ = combined
        training = tool._screen_training(combined)

        tool.normalizer_ = MinMaxNormalizer.fit(
            training.values, pad_fraction=tool.config.normalizer_pad
        )
        E = tool.normalizer_.transform(training.values)

        # Warm start: re-seed W against the current Ψ, then a short run
        # of multiplicative updates on both factors.  Without the ε
        # filter the training rows are exactly [old states; new states],
        # so the old rows keep their previous weights as the seed (they
        # are already near-optimal against the carried-over Ψ; the
        # sweeps below re-adapt them to the refreshed normalization) and
        # only the new rows pay an NNLS solve.  With the filter on the
        # exception set is re-screened, so there is no row alignment to
        # exploit and the whole training set is NNLS-seeded.
        Psi = np.maximum(tool.nmf_.Psi.copy(), 1e-6)
        if (
            not tool.config.filter_exceptions
            and n_old
            and previous_W.shape == (n_old, Psi.shape[0])
        ):
            W_new, _residuals = infer_weights_batch(Psi, E[n_old:])
            W = np.vstack([previous_W, W_new])
        else:
            W, _residuals = infer_weights_batch(Psi, E)
        W = np.maximum(W, 1e-6)
        loss_history = []
        previous = None
        for _ in range(warm_iterations):
            Psi *= (W.T @ E) / (W.T @ W @ Psi + _EPS)
            W *= (E @ Psi.T) / (W @ (Psi @ Psi.T) + _EPS)
            loss = frobenius_loss(E, W, Psi)
            loss_history.append(loss)
            if (
                tol > 0.0
                and previous is not None
                and previous - loss <= tol * previous
            ):
                break
            previous = loss
        tool.nmf_ = NMFResult(
            W=W,
            Psi=Psi,
            loss_history=loss_history,
            n_iter=len(loss_history),
            converged=False,
        )
        tool.sparsify_ = sparsify_weights(W, retention=tool.config.retention)
        usage = (
            tool.sparsify_.W_sparse.mean(axis=0)
            if not tool.config.filter_exceptions
            else None
        )
        tool.labels_ = tool._interpreter.interpret(
            tool.psi_display(),
            energies=tool._row_energies(),
            usage=usage,
        )
    tool._model_version = None
    tool._plan = None
    registry = get_registry()
    registry.counter(
        "repro_core_refits_total", "Incremental VN2 refits performed"
    ).inc()
    registry.counter(
        "repro_core_refit_states_total",
        "New states absorbed by incremental refits",
    ).inc(len(new_states))
    return tool


class OnlineVN2Updater:
    """Drift tracking and clone-and-refit updates over a fitted model.

    The updater never mutates the model it was handed: :meth:`absorb`
    deep-copies the current model, runs :func:`incremental_refit` on the
    copy and makes the copy current.  A sink serving ``updater.model``
    therefore keeps answering from a consistent artifact until it chooses
    to rotate to the returned one.

    Args:
        tool: The fitted (or loaded) starting model.
        warm_iterations: Sweep cap per absorb.
        tol: Relative-improvement early stop for the warm sweeps (unlike
            ``refit_with`` this defaults *on* — an online updater exists
            to make absorbs cheap).
        drift_threshold: ``should_refit`` fires at this drift score.
        drift_window: Residual samples retained for the drift score.
        min_samples: Drift score reads 0 until this many samples arrive
            (a handful of bad reconstructions is noise, not drift).
    """

    def __init__(
        self,
        tool: VN2,
        warm_iterations: int = 60,
        tol: float = 1e-4,
        drift_threshold: float = 0.5,
        drift_window: int = 256,
        min_samples: int = 32,
    ):
        tool._require_fitted()
        if drift_window < 1:
            raise ValueError(f"drift_window must be >= 1, got {drift_window}")
        self.tool = tool
        self.warm_iterations = warm_iterations
        self.tol = tol
        self.drift_threshold = drift_threshold
        self.min_samples = min_samples
        self._residuals: Deque[float] = deque(maxlen=drift_window)
        self.n_absorbed = 0  #: states absorbed over this updater's lifetime

    @property
    def model(self) -> VN2:
        """The current (latest absorbed) model artifact."""
        return self.tool

    @property
    def model_version(self) -> str:
        return self.tool.model_version

    # -- drift ----------------------------------------------------------

    def note_report(self, report: DiagnosisReport) -> None:
        """Feed one diagnosis into the drift window."""
        self.note_residual(report.relative_residual)

    def note_residual(self, relative_residual: float) -> None:
        """Feed one relative reconstruction residual into the drift window.

        Relative residuals live in [0, 1]: near 0 the model explains the
        state, near 1 it cannot — a window full of high residuals means
        the network has drifted away from what Ψ spans.
        """
        self._residuals.append(float(relative_residual))

    @property
    def drift_score(self) -> float:
        """Mean relative residual over the window (0 until warmed up)."""
        if len(self._residuals) < self.min_samples:
            return 0.0
        return float(np.mean(self._residuals))

    def should_refit(self) -> bool:
        """True when the drift score has crossed ``drift_threshold``."""
        return self.drift_score >= self.drift_threshold

    # -- updates --------------------------------------------------------

    def absorb(self, new_states: StateMatrix) -> VN2:
        """Refit a clone of the current model with ``new_states``.

        Returns the refitted clone (also the new :attr:`model`); the
        previous model object is left untouched for concurrent readers.
        Resets the drift window — the new model gets a clean slate.
        """
        with span("lifecycle.absorb", n_states=len(new_states)):
            updated = copy.deepcopy(self.tool)
            incremental_refit(
                updated,
                new_states,
                warm_iterations=self.warm_iterations,
                tol=self.tol,
            )
        get_registry().counter(
            "repro_core_absorbs_total",
            "OnlineVN2Updater clone-and-refit updates",
        ).inc()
        self.tool = updated
        self.n_absorbed += len(new_states)
        self._residuals.clear()
        return updated
