"""The VN2 facade: train the representative matrix, diagnose new states.

Typical use::

    from repro import VN2, VN2Config
    from repro.traces import generate_citysee_frame

    frame = generate_citysee_frame()
    tool = VN2(VN2Config(rank=25)).fit(frame)

    report = tool.diagnose(state_vector)   # one 43-metric delta
    for cause in report.ranked:
        print(cause.strength, cause.label.explanation)

``fit`` performs the whole training pipeline of the paper's Fig 1:
states -> exception extraction -> normalization -> NMF -> sparsification,
with the compression factor chosen automatically from a rank sweep when
``config.rank`` is None.  Models can be saved and re-loaded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.obs import get_registry, span
from repro.core.exceptions import (
    ExceptionSet,
    detect_exceptions,
    deviation_stats,
)
from repro.core.inference import infer_weights_batch
from repro.core.interpretation import RootCauseInterpreter, RootCauseLabel
from repro.core.nmf import NMFResult, nmf
from repro.core.normalization import MinMaxNormalizer
from repro.core.rank_selection import RankSweepResult, choose_rank, rank_sweep
from repro.core.sparsify import SparsifyResult, sparsify_weights
from repro.core.states import StateMatrix, build_states
from repro.metrics.catalog import NUM_METRICS
from repro.traces.frame import TraceFrame

if TYPE_CHECKING:
    from repro.core.plan import DiagnosisPlan


class ModelIntegrityError(ValueError):
    """A saved model's payload does not match its recorded ``model_version``.

    Raised by :meth:`VN2.load` when the content hash recomputed over the
    ``.npz`` arrays and ``.json`` sidecar disagrees with the
    ``model_version`` the sidecar records — i.e. the files were edited (or
    corrupted) after :meth:`VN2.save` wrote them.  Saves from versions
    that predate ``model_version`` carry no recorded hash and load
    unchecked.
    """


def _model_fingerprint(
    arrays: Mapping[str, np.ndarray], meta: Mapping[str, object]
) -> str:
    """Content hash of a model payload: every array plus the sidecar meta.

    Deterministic across save/load round trips: arrays are hashed in
    sorted name order as (name, shape, raw float64 bytes), and the meta
    document — minus any ``model_version`` entry, so the hash can be
    stored inside the document it covers — as canonical JSON.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=float))
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    meta = {k: v for k, v in dict(meta).items() if k != "model_version"}
    digest.update(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()[:12]


@dataclass
class VN2Config:
    """Training configuration.

    Attributes:
        rank: Compression factor r; ``None`` selects it automatically via a
            rank sweep (the paper picked 25 for CitySee, 10 for the
            testbed).
        rank_candidates: Ranks tried when ``rank is None``.
        filter_exceptions: Run the ε-based exception filter before NMF.
            The paper skips it for the small testbed trace ("the normal
            statuses are not large enough to conceal the representation"),
            so testbed experiments set this to False.
        exception_threshold: The ``ε/max(ε)`` ratio (paper: 0.01).
        retention: Algorithm 2 mass retention for sparsifying W.
        nmf_iterations: Maximum multiplicative-update sweeps.
        nmf_init: ``"nndsvd"`` (deterministic) or ``"random"`` (paper).
        seed: Seed for random NMF initialisation.
        normalizer_pad: Range padding when fitting the min-max normalizer.
        min_weight_fraction: Causes below this fraction of the strongest
            cause are dropped from ranked diagnosis output.
    """

    rank: Optional[int] = None
    rank_candidates: Sequence[int] = tuple(range(5, 41, 5))
    filter_exceptions: bool = True
    exception_threshold: float = 0.01
    retention: float = 0.9
    nmf_iterations: int = 300
    nmf_init: str = "nndsvd"
    seed: int = 0
    normalizer_pad: float = 0.05
    min_weight_fraction: float = 0.1

    def __post_init__(self) -> None:
        if len(tuple(self.rank_candidates)) == 0:
            raise ValueError(
                "rank_candidates must be non-empty, got "
                f"{self.rank_candidates!r}"
            )
        if self.rank is not None and self.rank < 1:
            raise ValueError(
                f"rank must be a positive integer or None, got {self.rank!r}"
            )
        if not 0.0 < self.retention <= 1.0:
            raise ValueError(
                f"retention must be in (0, 1], got {self.retention!r}"
            )
        if not 0.0 < self.exception_threshold < 1.0:
            raise ValueError(
                "exception_threshold must be in (0, 1), got "
                f"{self.exception_threshold!r}"
            )


@dataclass
class RankedCause:
    """One root cause in a diagnosis, with quantified influence."""

    index: int
    strength: float
    label: RootCauseLabel


@dataclass
class DiagnosisReport:
    """Outcome of diagnosing one network state.

    Attributes:
        weights: Full length-r NNLS weight vector.
        ranked: Significant causes, strongest first.
        residual: ``‖s - wΨ‖`` in normalized units.
        relative_residual: Residual over the state's norm (0 = perfect
            reconstruction; near 1 = the model cannot explain this state).
    """

    weights: np.ndarray
    ranked: List[RankedCause]
    residual: float
    relative_residual: float

    @property
    def primary(self) -> Optional[RankedCause]:
        """The strongest cause, if any is significant."""
        return self.ranked[0] if self.ranked else None

    def summary(self) -> str:
        """One-line human-readable digest."""
        if not self.ranked:
            return "no significant root cause (state is near normal)"
        parts = [
            f"Ψ{c.index + 1} ({c.label.primary_hazard or c.label.family}, "
            f"w={c.strength:.3f})"
            for c in self.ranked
        ]
        return "; ".join(parts)


class VN2:
    """The measurement-and-analysis tool (paper Sections III-IV)."""

    def __init__(self, config: Optional[VN2Config] = None):
        self.config = config or VN2Config()
        # fitted state (populated by fit / fit_states)
        self.states_: Optional[StateMatrix] = None
        self.exceptions_: Optional[ExceptionSet] = None
        self.normalizer_: Optional[MinMaxNormalizer] = None
        self.nmf_: Optional[NMFResult] = None
        self.sparsify_: Optional[SparsifyResult] = None
        self.rank_sweep_: Optional[RankSweepResult] = None
        self.rank_: Optional[int] = None
        self.labels_: Optional[List[RootCauseLabel]] = None
        self._interpreter = RootCauseInterpreter()
        # online exception-scoring statistics (set by fit_states)
        self._train_mean: Optional[np.ndarray] = None
        self._train_std: Optional[np.ndarray] = None
        self._train_max_eps: float = 0.0
        # content-hash version of the fitted payload (lazy; see
        # ``model_version``); invalidated by anything that refits.
        self._model_version: Optional[str] = None
        # the model's DiagnosisPlan (lazy; see ``plan``); dropped together
        # with ``_model_version``.
        self._plan = None
        #: Per-stage wall-clock seconds of the latest fit / batch call
        #: (keys: states, exceptions, nmf, sparsify, nnls).
        self.timings_: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def fit(self, trace: TraceFrame) -> "VN2":
        """Train from a frame (differencing performed internally)."""
        with span("fit"):
            with span("fit.states") as sp:
                states = build_states(trace)
            self.fit_states(states)
            self.timings_ = {"states": sp.wall_s, **self.timings_}
        return self

    def fit_states(self, states: StateMatrix) -> "VN2":
        """Train from pre-built network states.

        Every stage runs under a :func:`repro.obs.span` (``fit.exceptions``
        … ``fit.interpret``) — ``vn2 profile train`` renders them as a
        tree — and the :attr:`timings_` dict keeps its seed-era keys
        (``states``/``exceptions``/``nmf``/``sparsify``) derived from the
        same measurements.
        """
        if len(states) < 2:
            raise ValueError(
                f"need at least 2 states to train, got {len(states)}"
            )
        self.states_ = states
        self.timings_ = {}
        self._model_version = None
        self._plan = None

        with span("fit.exceptions", n_states=len(states)) as sp:
            training = self._screen_training(states)
        self.timings_["exceptions"] = sp.wall_s
        if len(training) < 2:
            raise ValueError(
                "exception filter left fewer than 2 states; lower the "
                "threshold or disable filter_exceptions"
            )

        with span("fit.normalize"):
            self.normalizer_ = MinMaxNormalizer.fit(
                training.values, pad_fraction=self.config.normalizer_pad
            )
            E = self.normalizer_.transform(training.values)

        nmf_seconds = 0.0
        rank = self.config.rank
        if rank is None:
            candidates = [
                r for r in self.config.rank_candidates if r <= min(E.shape)
            ]
            if not candidates:
                candidates = [min(E.shape)]
            with span("fit.rank_sweep", candidates=candidates) as sp:
                self.rank_sweep_ = rank_sweep(
                    E,
                    candidates,
                    retention=self.config.retention,
                    n_iter=self.config.nmf_iterations,
                    init=self.config.nmf_init,
                    rng=np.random.default_rng(self.config.seed),
                )
                rank = choose_rank(self.rank_sweep_)
            nmf_seconds += sp.wall_s
        rank = int(min(rank, min(E.shape)))
        self.rank_ = rank

        with span("fit.nmf", rank=rank, shape=list(E.shape)) as sp:
            self.nmf_ = nmf(
                E,
                rank,
                n_iter=self.config.nmf_iterations,
                init=self.config.nmf_init,
                rng=np.random.default_rng(self.config.seed),
            )
        nmf_seconds += sp.wall_s
        # Seed-compatible key: rank sweep and final factorization together,
        # exactly what the old ad-hoc stopwatch covered.
        self.timings_["nmf"] = nmf_seconds

        with span("fit.sparsify") as sp:
            self.sparsify_ = sparsify_weights(
                self.nmf_.W, retention=self.config.retention
            )
        self.timings_["sparsify"] = sp.wall_s
        # Usage-based baseline detection mirrors the paper's testbed
        # reasoning ("Ψ7 is used much more than any other feature, so it
        # must represent normal states") — which is only sound when the
        # training set contains the normal states, i.e. when the exception
        # filter is off.  A filtered training set is all-exceptional, and
        # its most-used row is the dominant *fault*, not normality.
        usage = (
            self.sparsify_.W_sparse.mean(axis=0)
            if not self.config.filter_exceptions
            else None
        )
        with span("fit.interpret"):
            self.labels_ = self._interpreter.interpret(
                self.psi_display(),
                energies=self._row_energies(),
                usage=usage,
            )
        registry = get_registry()
        registry.counter(
            "repro_core_fits_total", "VN2 models fitted in this process"
        ).inc()
        registry.counter(
            "repro_core_fit_states_total",
            "Network states consumed by VN2 fits",
        ).inc(len(states))
        return self

    def _screen_training(self, states: StateMatrix) -> StateMatrix:
        """Take the training statistics of ``states``; return the NMF rows.

        The mean, spread and largest deviation over the training states
        let ``exception_score`` reproduce the paper's ``ε/max(ε)`` ratio
        on states arriving after training.  With the exception filter on,
        the same ``ε`` feeds :func:`detect_exceptions` and only the
        flagged states are returned.
        """
        self._train_mean, self._train_std, epsilon = deviation_stats(
            states.values
        )
        self._train_max_eps = float(np.max(epsilon))
        if not self.config.filter_exceptions:
            self.exceptions_ = None
            return states
        self.exceptions_ = detect_exceptions(
            states,
            threshold_ratio=self.config.exception_threshold,
            epsilon=epsilon,
        )
        return self.exceptions_.states

    # ------------------------------------------------------------------
    # fitted accessors
    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if self.nmf_ is None or self.normalizer_ is None:
            raise RuntimeError("VN2 model is not fitted yet; call fit() first")

    @property
    def psi(self) -> np.ndarray:
        """The representative matrix Ψ (r x 43), in normalized units."""
        self._require_fitted()
        return self.nmf_.Psi

    def psi_display(self) -> np.ndarray:
        """Ψ in the paper's display convention (signed, scaled to [-1, 1])."""
        self._require_fitted()
        return self.normalizer_.display(self.nmf_.Psi)

    def _row_energies(self) -> np.ndarray:
        """Unnormalized magnitude of each Ψ row about the zero-delta point."""
        self._require_fitted()
        centred = self.nmf_.Psi - self.normalizer_.rest_point()
        return np.linalg.norm(centred, axis=1)

    @property
    def labels(self) -> List[RootCauseLabel]:
        """Interpretations of every Ψ row."""
        self._require_fitted()
        return list(self.labels_ or [])

    def _payload_arrays(self) -> Dict[str, np.ndarray]:
        """The arrays :meth:`save` persists — also the hashed payload."""
        return {
            "W": self.nmf_.W,
            "Psi": self.nmf_.Psi,
            "W_sparse": self.sparsify_.W_sparse,
            "lo": self.normalizer_.lo,
            "hi": self.normalizer_.hi,
            "train_mean": self._train_mean,
            "train_std": self._train_std,
            "train_max_eps": np.array(self._train_max_eps),
        }

    def _sidecar_meta(self) -> Dict[str, object]:
        """The json sidecar document (sans ``model_version``)."""
        return {
            "rank": self.rank_,
            "config": {
                "rank": self.config.rank,
                "rank_candidates": list(self.config.rank_candidates),
                "filter_exceptions": self.config.filter_exceptions,
                "exception_threshold": self.config.exception_threshold,
                "retention": self.config.retention,
                "nmf_iterations": self.config.nmf_iterations,
                "nmf_init": self.config.nmf_init,
                "seed": self.config.seed,
                "normalizer_pad": self.config.normalizer_pad,
                "min_weight_fraction": self.config.min_weight_fraction,
            },
            "normalizer": {
                "method": self.normalizer_.method,
                "robust_quantile": self.normalizer_.robust_quantile,
            },
        }

    @property
    def model_version(self) -> str:
        """Content-hash version of the fitted model (short sha256 hex).

        Covers exactly what :meth:`save` persists — the factor matrices,
        normalizer ranges, training statistics and the config sidecar — so
        two models answer diagnoses identically whenever their versions
        match.  Computed lazily and cached; any refit invalidates it.
        """
        self._require_fitted()
        if self._model_version is None:
            self._model_version = _model_fingerprint(
                self._payload_arrays(), self._sidecar_meta()
            )
        return self._model_version

    @property
    def plan(self) -> "DiagnosisPlan":
        """The fitted model's :class:`~repro.core.plan.DiagnosisPlan`.

        Built on first use and kept until a refit drops it (wherever
        :attr:`model_version` is reset), so every diagnosis against this
        model shares one set of model-only arrays.
        """
        plan = self._plan
        if plan is None:
            from repro.core.plan import DiagnosisPlan

            plan = self._plan = DiagnosisPlan(self)
        return plan

    def explain(self, index: int) -> RootCauseLabel:
        """Interpretation of root-cause vector ``Ψ[index]`` (0-based)."""
        self._require_fitted()
        return self.labels_[index]

    # ------------------------------------------------------------------
    # diagnosis
    # ------------------------------------------------------------------

    def _normalize_states(self, states: np.ndarray) -> np.ndarray:
        return self.normalizer_.transform(np.atleast_2d(states))

    def exception_score(self, state: np.ndarray) -> float:
        """The paper's ``ε/max(ε)`` ratio for a new state.

        ``ε`` is the state's squared-z-score deviation from the training
        states' per-metric mean, and ``max(ε)`` the largest deviation seen
        in training.  A state scoring >= the training exception threshold
        (0.01 in the paper) would have been flagged as an exception.
        """
        return float(self._exception_scores(state)[0])

    def is_exception(self, state: np.ndarray, threshold_ratio: Optional[float] = None) -> bool:
        """True if ``state`` deviates like a training exception."""
        if threshold_ratio is None:
            threshold_ratio = self.config.exception_threshold
        return self.exception_score(state) >= threshold_ratio

    def _build_report(
        self, weights: np.ndarray, residual: float, state_norm: float
    ) -> DiagnosisReport:
        """:meth:`DiagnosisPlan.report <repro.core.plan.DiagnosisPlan.report>`
        of this model.  No diagnosis path calls it; it stays because
        ``sinkbench/traced_serve.py`` wraps it by name."""
        return self.plan.report(weights, residual, state_norm)

    def diagnose(self, state: np.ndarray) -> DiagnosisReport:
        """Attribute one 43-metric state delta to root causes (Problem 3).

        Solves through :func:`~repro.core.inference.infer_weights_batch`'s
        one-column kernel, so the report's weights and residual equal a
        cold streamed diagnosis of the same state bit for bit.
        """
        self._require_fitted()
        state = np.asarray(state, dtype=float).ravel()
        if state.shape[0] != NUM_METRICS:
            raise ValueError(
                f"state must have {NUM_METRICS} metrics, got {state.shape[0]}"
            )
        plan = self.plan
        normalized = plan.normalize(state)
        # The normalizer clips ±inf but passes NaN, which the pivoting
        # loop would turn into all-zero weights and a NaN residual.
        if not np.all(np.isfinite(normalized)):
            raise ValueError("state must not contain NaN")
        weights, residual = plan.solve(normalized)
        return plan.report(weights, residual, plan.state_norm(normalized))

    def diagnose_batch(
        self, states: Union[StateMatrix, np.ndarray]
    ) -> List[DiagnosisReport]:
        """Attribute a whole batch of states in one vectorized NNLS sweep.

        Equivalent to ``[self.diagnose(s) for s in states]`` (weights agree
        to solver round-off) but solves every non-negative least-squares
        problem simultaneously via
        :func:`repro.core.inference.infer_weights_batch`.

        Returns one :class:`DiagnosisReport` per state, in order.
        """
        self._require_fitted()
        values = states.values if isinstance(states, StateMatrix) else states
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[1] != NUM_METRICS:
            raise ValueError(
                f"states must have {NUM_METRICS} metrics, got {values.shape[1]}"
            )
        normalized = self._normalize_states(values)
        with span("diagnose.nnls", n_states=values.shape[0]) as sp:
            weights, residuals = infer_weights_batch(self.nmf_.Psi, normalized)
        self.timings_["nnls"] = sp.wall_s
        norms = np.linalg.norm(normalized, axis=1)
        report = self.plan.report
        return [
            report(weights[i], float(residuals[i]), float(norms[i]))
            for i in range(values.shape[0])
        ]

    def _exception_scores(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`exception_score` over state rows."""
        if self._train_mean is None:
            raise RuntimeError("VN2 model is not fitted yet; call fit() first")
        values = np.atleast_2d(np.asarray(values, dtype=float))
        z = (values - self._train_mean) / self._train_std
        eps = (z * z).sum(axis=1)
        if self._train_max_eps <= 0:
            return np.zeros(values.shape[0])
        return eps / self._train_max_eps

    def diagnose_exceptions(
        self,
        states: StateMatrix,
        threshold_ratio: Optional[float] = None,
    ) -> List[Tuple["StateProvenance", DiagnosisReport]]:
        """Diagnose only the exceptional states of a batch.

        The deployed loop (paper Fig 1): screen incoming states with the
        ε rule against the training statistics (one vectorized pass),
        diagnose the survivors in one batch NNLS sweep.
        Returns (provenance, report) pairs in state order.
        """
        self._require_fitted()
        if threshold_ratio is None:
            threshold_ratio = self.config.exception_threshold
        flagged = np.flatnonzero(
            self._exception_scores(states.values) >= threshold_ratio
        )
        reports = self.diagnose_batch(states.values[flagged])
        return [
            (states.provenance[int(i)], report)
            for i, report in zip(flagged, reports)
        ]

    def diagnose_stream(
        self,
        packets,
        threshold_ratio: Optional[float] = None,
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
        max_epoch_gap: Optional[int] = None,
        min_strength: float = 0.2,
        retention: float = 0.9,
        time_gap_s: float = 600.0,
        radius_m: float = 60.0,
    ):
        """Diagnose a packet stream incrementally (generator).

        The online face of the engine: packets go through the streaming
        state builder, the ε exception screen, one per-state NNLS solve
        and the incident tracker, yielding one
        :class:`~repro.core.streaming.StreamUpdate` per completed state.
        Packets are pushed in
        :data:`~repro.core.streaming.SLICE_PACKETS`-packet slices, so the
        updates arrive a slice at a time, not per packet — memory stays
        bounded by the node population and the slice, never the trace
        length.

        ``packets`` is anything :func:`repro.core.streaming.iter_packets`
        accepts: a :class:`~repro.traces.frame.TraceFrame` (iterated in
        arrival order) or an iterable of raw
        ``(node_id, epoch, generated_at, values)`` tuples.

        After the source is exhausted a final update (``state=None``)
        carrying the flush-close incident events is yielded, so every
        incident the stream opened is eventually closed.

        Keyword arguments mirror
        :class:`~repro.core.streaming.StreamingDiagnosisSession`; for a
        long-lived feed (e.g. tailing a file) construct the session
        directly to control flushing yourself.
        """
        from repro.core.streaming import StreamingDiagnosisSession, StreamUpdate

        session = StreamingDiagnosisSession(
            self,
            positions=positions,
            threshold_ratio=threshold_ratio,
            max_epoch_gap=max_epoch_gap,
            min_strength=min_strength,
            retention=retention,
            time_gap_s=time_gap_s,
            radius_m=radius_m,
        )
        for update in session.process(packets):
            yield update
        closing = session.finish()
        if closing:
            yield StreamUpdate(
                state=None,
                score=None,
                is_exception=False,
                report=None,
                observations=[],
                events=closing,
            )

    def correlation_strengths(self, states: Union[StateMatrix, np.ndarray]) -> np.ndarray:
        """NNLS weights for a batch of states: (n, r) matrix.

        This is what the paper's correlation-scatter figures (3c, 5b, 6b)
        plot: which Ψ rows each exception state activates.
        """
        self._require_fitted()
        values = states.values if isinstance(states, StateMatrix) else states
        normalized = self._normalize_states(values)
        with span("diagnose.nnls", n_states=normalized.shape[0]) as sp:
            weights, _residuals = infer_weights_batch(self.nmf_.Psi, normalized)
        self.timings_["nnls"] = sp.wall_s
        return weights

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------

    def refit_with(
        self,
        new_states: StateMatrix,
        warm_iterations: int = 60,
        tol: float = 0.0,
    ) -> "VN2":
        """Update the model with freshly collected states (warm start).

        The combined state set is re-filtered and re-normalized, and NMF
        resumes from the current Ψ: the existing root-cause vectors seed
        the factorization (W for the new exception set is obtained by
        NNLS), then a short run of multiplicative updates adapts both
        factors.  This keeps root-cause identities stable across updates
        while needing far fewer sweeps than a cold refit — the operational
        mode of a long-running deployment ("retrain nightly").

        One entry point over :func:`repro.core.lifecycle.incremental_refit`
        (which :class:`~repro.core.lifecycle.OnlineVN2Updater` also drives);
        ``tol > 0`` enables relative-improvement early stopping of the warm
        multiplicative sweeps (0 keeps the historical fixed-budget run).

        The compression factor r is kept; call :meth:`fit_states` for a
        full retrain with rank re-selection.
        """
        from repro.core.lifecycle import incremental_refit

        return incremental_refit(
            self, new_states, warm_iterations=warm_iterations, tol=tol
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Persist the fitted model (npz next to a small json sidecar).

        Besides the factor matrices and normalizer ranges, the training
        deviation statistics (mean/std/max ε) are stored so a loaded
        model can still screen incoming states — the ``vn2 watch`` /
        :meth:`diagnose_stream` deployment path.  The sidecar records the
        payload's :attr:`model_version` content hash; :meth:`load`
        verifies it, so tampered or corrupted files fail loudly.
        """
        self._require_fitted()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = self._payload_arrays()
        np.savez_compressed(path.with_suffix(".npz"), **arrays)
        sidecar = self._sidecar_meta()
        sidecar["model_version"] = self.model_version
        path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "VN2":
        """Load a model saved with :meth:`save`.

        A sidecar without a recorded ``model_version`` loads unchecked.

        Raises:
            ModelIntegrityError: The sidecar records a ``model_version``
                and the payload on disk no longer hashes to it.
            ValueError: The save has no training statistics, so the
                model could not screen states; re-fit it with
                ``vn2 train``.
        """
        path = Path(path)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        arrays = np.load(path.with_suffix(".npz"))
        missing = [
            name for name in ("train_mean", "train_std", "train_max_eps")
            if name not in arrays.files
        ]
        if missing:
            raise ValueError(
                f"model at {path} has no training statistics "
                f"({', '.join(missing)} missing), so it cannot screen "
                "states; re-fit it with `vn2 train`"
            )
        computed = _model_fingerprint(
            {name: arrays[name] for name in arrays.files}, sidecar
        )
        recorded = sidecar.get("model_version")
        if recorded is not None and recorded != computed:
            raise ModelIntegrityError(
                f"model payload at {path} hashes to {computed} but its "
                f"sidecar records model_version {recorded}; the files were "
                "modified after saving (or corrupted)"
            )
        config_kwargs = dict(sidecar["config"])
        if "rank_candidates" in config_kwargs:
            config_kwargs["rank_candidates"] = tuple(
                config_kwargs["rank_candidates"]
            )
        tool = cls(VN2Config(**config_kwargs))
        tool.rank_ = sidecar["rank"]
        norm_meta = sidecar.get("normalizer", {})
        tool.normalizer_ = MinMaxNormalizer(
            lo=arrays["lo"],
            hi=arrays["hi"],
            method=norm_meta.get("method", "robust"),
            robust_quantile=norm_meta.get("robust_quantile", 0.98),
        )
        tool._train_mean = arrays["train_mean"]
        tool._train_std = arrays["train_std"]
        tool._train_max_eps = float(arrays["train_max_eps"])
        tool.nmf_ = NMFResult(
            W=arrays["W"],
            Psi=arrays["Psi"],
            loss_history=[],
            n_iter=0,
            converged=True,
        )
        tool.sparsify_ = SparsifyResult(
            W_sparse=arrays["W_sparse"],
            mask=arrays["W_sparse"] > 0,
            kept_fraction=float((arrays["W_sparse"] > 0).mean()),
            retained_mass=1.0,
        )
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
        tool._model_version = computed
        return tool
