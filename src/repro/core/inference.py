"""Root-cause inference for new states (the paper's Problem 3).

Given the representative matrix Ψ and an incoming state ``s``, find the
non-negative correlation strengths ``w`` minimising ``‖s - wΨ‖`` — a convex
non-negative least-squares problem, solved exactly for a whole state
matrix at once by :func:`infer_weights_batch` (block principal pivoting,
with scipy's Lawson-Hanson NNLS as the per-column fallback).  ``w_j > 0``
means root cause j is active; its magnitude quantifies influence, which
is what lets an exception be attributed to *several* root causes at once
(the paper's core claim against single-cause diagnosis trees).
"""

from __future__ import annotations

import time
from itertools import compress
from typing import Optional, Tuple

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs

from repro.core.sparsify import _check_weights, _row_mass_mask
from repro.obs import get_registry

#: LAPACK ``dpotrf`` (Cholesky factorization) and ``dpotrs`` (triangular
#: solves against the factor), the routines ``cho_factor`` and
#: ``cho_solve`` end in, resolved once for float64 operands.
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), (np.zeros((1, 1)),))


def nnls(A: np.ndarray, b: np.ndarray):
    """``scipy.optimize.nnls``, imported on the first call.

    Only columns the pivoting sweep fails to converge on reach it, so
    the sink does not pay for importing ``scipy.optimize`` at start-up.
    """
    from scipy.optimize import nnls as scipy_nnls

    return scipy_nnls(A, b)


class NNLSSolverCache:
    """Per-model cache of passive-set factorizations across solves.

    The factorization solved in every pivoting round depends only on Ψ
    and the passive-set pattern — not on the state — so a streaming
    session diagnosing packet after packet against one model keeps
    recomputing the same handful of Cholesky factors (supports cluster
    around the model's active causes).  Every streaming session hands its
    own cache to each solve (:meth:`repro.core.plan.DiagnosisPlan.solve`)
    so repeat patterns skip straight to the triangular solves.

    A cached factor is byte-for-byte the factor a cold call would have
    computed from the same Ψ, so the cache changes solve *speed*, never
    solved values: sessions with and without it stay bit-identical.  It
    must be dropped when the model rotates (factors are meaningless
    against a new Ψ) — :meth:`StreamingDiagnosisSession.set_model` does.

    ``max_patterns`` bounds memory against adversarial support churn; on
    overflow the cache is simply cleared (deterministic, and harmless —
    entries rebuild on the next solve).  Hits are counted on
    ``repro_core_nnls_factor_cache_hits_total``.
    """

    __slots__ = ("max_patterns", "factors", "hits", "misses", "_m_hits")

    def __init__(self, max_patterns: int = 2048, registry=None, labels=None):
        if max_patterns < 1:
            raise ValueError(
                f"max_patterns must be >= 1, got {max_patterns}"
            )
        self.max_patterns = max_patterns
        self.factors: dict = {}
        self.hits = 0
        self.misses = 0
        reg = get_registry() if registry is None else registry
        self._m_hits = reg.counter(
            "repro_core_nnls_factor_cache_hits_total",
            "Passive-set factorizations reused from the solver cache",
            dict(labels) if labels else None,
        )

    def __len__(self) -> int:
        return len(self.factors)

    def clear(self) -> None:
        """Drop every factor (model rotation: Ψ changed)."""
        self.factors.clear()


class NNLSMetrics:
    """The three ``repro_core_nnls_*`` series one solver caller records.

    Bound once per caller (docs/observability.md: never create metrics
    inside the hot loop).  A :class:`StreamingDiagnosisSession` binds one
    against its own registry and labels and hands it to every
    :meth:`~repro.core.plan.DiagnosisPlan.solve`, so a sink worker's
    solves land in the registry the sink serves; callers that pass none
    (fit, ``VN2.diagnose``, ``diagnose_batch``) record in the
    process-default registry.
    """

    __slots__ = ("batches", "states", "seconds")

    def __init__(self, registry, labels=None):
        self.batches = registry.counter(
            "repro_core_nnls_batches_total", "Batch NNLS sweeps solved", labels
        )
        self.states = registry.counter(
            "repro_core_nnls_states_total",
            "States diagnosed through batch NNLS",
            labels,
        )
        self.seconds = registry.histogram(
            "repro_core_nnls_batch_seconds",
            "Wall time of one batch NNLS sweep",
            labels,
        )

    def record(self, n_states: int, seconds: float) -> None:
        self.batches.inc()
        self.states.inc(n_states)
        self.seconds.observe(seconds)


def default_nnls_metrics() -> NNLSMetrics:
    """The :class:`NNLSMetrics` of the process-default registry.

    What a solve records into when its caller passes none.  Bound once
    per registry object (:meth:`~repro.obs.MetricsRegistry.bound`), so it
    follows :func:`~repro.obs.set_registry` without four registry
    lookups per solve.
    """
    return get_registry().bound(NNLSMetrics)


def _pattern_factor(AtA: np.ndarray, passive: np.ndarray):
    """Factor one passive set's normal-equations Gram block.

    Returns ``("chol", factor)``, or ``("lstsq", None)`` when the block
    is not numerically positive definite (a rank-deficient pattern, e.g.
    duplicate Ψ rows) and the solve must fall back to least squares on
    the design matrix.  Both outcomes are deterministic in the pattern,
    so cached and fresh factors solve to identical bits.
    """
    # cho_factor(block, check_finite=False) minus its batch wrapper: the
    # same upper factor with the other triangle left as it was.
    c, info = _potrf(
        AtA[np.ix_(passive, passive)], lower=False, overwrite_a=False,
        clean=False,
    )
    if info > 0:  # a leading minor is not positive definite
        return "lstsq", None
    if info < 0:
        raise ValueError(
            f"LAPACK reported an illegal value in {-info}-th argument "
            'on entry to "POTRF".'
        )
    return "chol", (c, False)


def _cached_factor(
    AtA: np.ndarray,
    key: bytes,
    passive: np.ndarray,
    cache: Optional[NNLSSolverCache],
):
    """:func:`_pattern_factor`, through ``cache`` when one is given.

    ``key`` is the passive-set pattern's bytes (one byte per cause, 1 in
    the passive set), the cache key of its factor.
    """
    if cache is None:
        return _pattern_factor(AtA, passive)
    entry = cache.factors.get(key)
    if entry is None:
        cache.misses += 1
        entry = _pattern_factor(AtA, passive)
        if len(cache.factors) >= cache.max_patterns:
            cache.factors.clear()
        cache.factors[key] = entry
    else:
        cache.hits += 1
        cache._m_hits.inc()
    return entry


def _solve_passive_column(A, B, AtA, AtB, passive, key, cache=None):
    """One column's least-squares solve restricted to its passive set.

    ``passive`` is the index array of the passive set, ascending, and
    ``key`` the pattern's cache key (see :func:`_cached_factor`).
    Returns the (r, 1) solution, zero off the passive set.  Every one-column solve
    goes through this module-level name, so a caller can swap in a
    reference solver for all of them at once.
    """
    X = np.zeros((AtA.shape[0], 1))
    if not len(passive):
        return X
    kind, factor = _cached_factor(AtA, key, passive, cache)
    if kind == "chol":
        # cho_solve(factor, ..., check_finite=False) minus its wrapper;
        # the fancy-indexed right-hand side is a copy LAPACK may overwrite.
        c, lower = factor
        solution, info = _potrs(c, AtB[passive], lower=lower, overwrite_b=True)
        if info != 0:
            raise ValueError(
                f"illegal value in {-info}th argument of internal potrs"
            )
        X[passive] = solution
    else:
        X[passive] = np.linalg.lstsq(A[:, passive], B, rcond=None)[0]
    return X


def _solve_passive_sets(
    A: np.ndarray,
    B: np.ndarray,
    F: np.ndarray,
    AtA: np.ndarray,
    AtB: np.ndarray,
    cache: Optional[NNLSSolverCache] = None,
) -> np.ndarray:
    """Least-squares solve of every column restricted to its passive set.

    Columns sharing a passive-set pattern are solved together through the
    pattern's normal equations ``AtA[S,S] x = AtB[S]`` with one Cholesky
    factorization (patterns repeat heavily in practice: most states
    activate the same few causes), falling back to ``lstsq`` on the
    design matrix for rank-deficient patterns.  With a ``cache``, factors
    persist across calls, and reuse is bit-identical to recomputation.
    """
    r = F.shape[0]
    k = F.shape[1]
    X = np.zeros((r, k))
    if k == 0 or not F.any():
        return X
    if k == 1:
        pattern = F[:, 0]
        return _solve_passive_column(
            A, B, AtA, AtB, np.flatnonzero(pattern), pattern.tobytes(), cache
        )
    patterns, inverse = np.unique(F.T, axis=0, return_inverse=True)
    for g in range(patterns.shape[0]):
        passive = np.flatnonzero(patterns[g])
        if passive.size == 0:
            continue
        cols = np.flatnonzero(inverse == g)
        kind, factor = _cached_factor(
            AtA, patterns[g].tobytes(), passive, cache
        )
        if kind == "chol":
            solution = cho_solve(
                factor, AtB[np.ix_(passive, cols)], check_finite=False
            )
        else:
            solution = np.linalg.lstsq(
                A[:, passive], B[:, cols], rcond=None
            )[0]
        X[np.ix_(passive, cols)] = solution
    return X


def _pivot_columns(A, B, AtA, AtB, cache, max_iter, tol):
    """Block principal pivoting over every column at once (Kim & Park).

    Every column starts cold, from an empty passive set.  Returns the
    (r, n) solutions, not yet clipped at zero.
    """
    r, n = AtA.shape[0], B.shape[1]
    F = np.zeros((r, n), dtype=bool)  # passive (unconstrained) sets
    X = np.zeros((r, n))
    Y = -AtB.copy()  # dual: Y = AtA X - AtB
    # Backup-rule bookkeeping (per column): full exchanges are allowed
    # while they shrink the infeasible count; otherwise fall back to
    # flipping only the largest infeasible index, which provably
    # terminates.
    alpha = np.full(n, 3, dtype=int)
    beta = np.full(n, r + 1, dtype=int)
    converged = np.zeros(n, dtype=bool)

    for _ in range(max_iter):
        infeasible = (F & (X < -tol)) | (~F & (Y < -tol))
        n_infeasible = infeasible.sum(axis=0)
        converged |= n_infeasible == 0
        active = np.flatnonzero(~converged)
        if active.size == 0:
            break
        improved = np.zeros(n, dtype=bool)
        improved[active] = n_infeasible[active] < beta[active]
        beta[improved] = n_infeasible[improved]
        alpha[improved] = 3
        budgeted = np.zeros(n, dtype=bool)
        budgeted[active] = ~improved[active] & (alpha[active] >= 1)
        alpha[budgeted] -= 1
        full_exchange = improved | budgeted
        F ^= infeasible & full_exchange[None, :]
        for j in active[~full_exchange[active]]:  # Murty's rule (rare)
            k = int(np.max(np.flatnonzero(infeasible[:, j])))
            F[k, j] = ~F[k, j]
        X[:, active] = _solve_passive_sets(
            A, B[:, active], F[:, active], AtA, AtB[:, active], cache
        )
        X[~F] = 0.0
        Y[:, active] = AtA @ X[:, active] - AtB[:, active]

    for j in np.flatnonzero(~converged):  # pathological columns only
        X[:, j], _ = nnls(A, B[:, j])
    return X


def _pivot_column(A, B, AtA, AtB, cache, max_iter, tol):
    """:func:`_pivot_columns` for exactly one column, bit for bit.

    The per-state solve a streaming session makes.  The passive set, the
    infeasibility test and the α/β/exchange bookkeeping run on Python
    lists (the pattern's bytes are its factor's cache key); every
    floating-point operation is the sweep's, on the same (r, 1) / (m, 1)
    operands: the passive solve (:func:`_solve_passive_column`) and
    ``AtA @ X - AtB``.  The solve zeroes everything off the passive set,
    so the sweep's ``X[~F] = 0.0`` has nothing to do here.
    """
    flags = [False] * AtA.shape[0]
    causes = range(len(flags))

    def solve():
        passive = np.fromiter(compress(causes, flags), np.intp)
        X = _solve_passive_column(A, B, AtA, AtB, passive, bytes(flags), cache)
        return X, X[:, 0].tolist(), (AtA @ X - AtB)[:, 0].tolist()

    # Cold: X = 0 and Y = -AtB; x is read only where a flag is set.
    X, x, y = np.zeros((len(flags), 1)), [], (-AtB)[:, 0].tolist()
    floor = -tol
    alpha, beta = 3, len(flags) + 1
    for _ in range(max_iter):
        infeasible = [
            j for j in causes if (x[j] if flags[j] else y[j]) < floor
        ]
        n_infeasible = len(infeasible)
        if n_infeasible == 0:
            break
        if n_infeasible < beta:
            beta, alpha = n_infeasible, 3
        elif alpha >= 1:
            alpha -= 1
        else:  # Murty's rule: flip only the largest infeasible index
            k = infeasible[-1]
            infeasible = [k]
        for j in infeasible:
            flags[j] = not flags[j]
        X, x, y = solve()
    else:  # no convergence within max_iter
        X[:, 0], _ = nnls(A, B[:, 0])
    return X


def infer_weights_batch(
    Psi: np.ndarray,
    states: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-12,
    *,
    solver_cache: "Optional[NNLSSolverCache]" = None,
    metrics: Optional[NNLSMetrics] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve every NNLS problem of a state matrix in one vectorized sweep.

    Implements block principal pivoting (Kim & Park, 2011): all columns
    share the precomputed Grams ``ΨΨᵀ`` / ``ΨSᵀ``, passive/active sets are
    exchanged simultaneously across columns, and columns with identical
    passive sets share one Cholesky factorization of the pattern's Gram
    block.  Finite termination is enforced with the standard backup
    (Murty) rule; the rare column that still has not converged after
    ``max_iter`` exchanges falls back to per-column Lawson-Hanson.  The
    result satisfies the same KKT conditions scipy's ``nnls`` solves to,
    so weights agree with ``scipy.optimize.nnls`` to within solver round-off.

    A single state (``states`` with one row) runs the one-column pivoting
    loop every per-state solve uses (see
    :meth:`repro.core.plan.DiagnosisPlan.solve`) instead of the
    vectorized sweep.  It performs the same floating-point operations
    on same-shaped operands, so its output is bit-identical to the sweep
    on that column; only the per-column bookkeeping is cheaper.

    Every column starts from an empty passive set.  ``solver_cache``
    carries passive-set factorizations across calls (they depend only on
    Ψ and the pattern, and supports repeat heavily within a stream).  A
    cache hit reuses the exact factor an uncached call would recompute,
    so cached and uncached solves are bit-identical.

    Args:
        Psi: (r, m) representative matrix.
        states: (n, m) states.
        max_iter: Pivoting-sweep cap before the scipy fallback.
        tol: Infeasibility tolerance on primal/dual variables.
        solver_cache: Optional :class:`NNLSSolverCache` shared across
            calls against the same Ψ (drop it when the model changes).
        metrics: Where the solve is counted (:class:`NNLSMetrics`);
            ``None`` counts it in the process-default registry.

    Returns:
        (W, residuals): (n, r) weights and length-n residuals
        ``‖s_i - w_iΨ‖``.
    """
    Psi = np.asarray(Psi, dtype=float)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if Psi.ndim != 2:
        raise ValueError(f"Psi must be 2-D, got shape {Psi.shape}")
    if states.shape[1] != Psi.shape[1]:
        raise ValueError(
            f"states have {states.shape[1]} metrics but Psi has {Psi.shape[1]}"
        )
    r = Psi.shape[0]
    n = states.shape[0]
    if n == 0 or r == 0:
        return np.zeros((n, r)), np.linalg.norm(states, axis=1)
    _t0 = time.perf_counter()

    A = Psi.T  # (m, r): the design matrix of min ‖A x - b‖, x >= 0
    B = states.T  # (m, n)
    AtA = A.T @ A
    AtB = A.T @ B

    sweep = _pivot_column if n == 1 else _pivot_columns
    X = sweep(A, B, AtA, AtB, solver_cache, max_iter, tol)

    X = np.maximum(X, 0.0)
    residuals = np.linalg.norm(B - A @ X, axis=0)
    if metrics is None:
        metrics = default_nnls_metrics()
    metrics.record(n, time.perf_counter() - _t0)
    return X.T, residuals


def sparsify_inferred(weights: np.ndarray, retention: float = 0.9) -> np.ndarray:
    """Row-wise Algorithm 2 applied to inferred weights.

    Keeps, per state, only the largest weights covering ``retention`` of
    that state's explanation mass — the same Occam's-razor step the paper
    applies to the training W, reused at inference time so diagnoses stay
    sparse.  Same checks and bits as the ``W_sparse`` of
    ``sparsify_weights(row_normalize=True)``, without its mass statistics.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    _check_weights(weights, retention)
    return np.where(_row_mass_mask(weights, retention), weights, 0.0)


def active_causes(
    weights: np.ndarray, min_fraction: float = 0.1
) -> np.ndarray:
    """Indices of causes whose weight is >= ``min_fraction`` of the max.

    A simple significance filter for reporting: NNLS often assigns tiny
    residual-mopping weights that are not diagnostically meaningful.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.size == 0 or weights.max() <= 0:
        return np.zeros(0, dtype=int)
    return np.flatnonzero(weights >= min_fraction * weights.max())
