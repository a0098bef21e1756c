"""Exception detection: which states feed the NMF.

Most of a healthy network's states are boring; feeding them all to NMF
makes normal behaviour "conceal representability of network exceptions"
(paper, Section IV-B).  The paper's rule: compute each metric's mean,
measure every state's deviation ``ε_u`` from the mean, and flag the state
as an exception when ``ε_u / max(ε) >= 0.01``.

Deviation here is the squared z-score sum (deviation from the mean in
units of each metric's own spread) — without per-metric scaling, a large-
magnitude metric such as ``light`` would drown out every counter.

The rule is implemented once, incrementally, in
:class:`StreamingExceptionDetector`: states are ingested one packet (or
one chunk) at a time, Welford/Chan accumulators maintain running
mean/variance for O(1) online scoring, and :meth:`~
StreamingExceptionDetector.finalize` applies the paper's batch rule over
everything ingested.  The batch :func:`detect_exceptions` is a thin
replay — feed all states, finalize — and a packet-at-a-time replay
produces a bit-identical :class:`ExceptionSet` (finalization reduces the
same buffered rows with the same exact two-pass statistics; the Welford
running stats serve only the *online* scores, where no finished trace
exists to take a mean over).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np

from repro.core.states import StateMatrix
from repro.metrics.catalog import NUM_METRICS


@dataclass
class ExceptionSet:
    """The detected exception states.

    Attributes:
        states: The exception rows (a view-like :class:`StateMatrix`).
        indices: Row indices into the original state matrix.
        epsilon: Deviation score of every original state (not just
            exceptions), for plotting Fig 3(a)-style series.
        threshold_ratio: The ``ε/max(ε)`` cutoff used.
    """

    states: StateMatrix
    indices: np.ndarray
    epsilon: np.ndarray
    threshold_ratio: float

    def __len__(self) -> int:
        return len(self.states)

    @property
    def exception_fraction(self) -> float:
        """Share of all states flagged as exceptions."""
        if self.epsilon.size == 0:
            return 0.0
        return len(self.states) / self.epsilon.size


def deviation_scores(values: np.ndarray) -> np.ndarray:
    """Per-state deviation ``ε_u``: sum of squared z-scores vs column means."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("expected a 2-D state matrix")
    if values.shape[0] == 0:
        return np.zeros(0)
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    z = (values - mean) / std
    return (z * z).sum(axis=1)


class StreamingExceptionDetector:
    """Incremental exception detection over an unbounded state stream.

    Two faces, one accumulator:

    * **Online** — :meth:`update` folds each arriving state into Welford
      (growing window) or windowed (sliding window) mean/variance
      accumulators in O(metrics) time and tracks the running maximum
      deviation, so :meth:`score` / :meth:`is_exception` give the paper's
      ``ε/max(ε)`` ratio *as of now*, with memory independent of how many
      states have streamed past (when ``keep_states=False``).
    * **Replay** — with ``keep_states=True`` (the default) ingested rows
      are also buffered, and :meth:`finalize` applies the exact batch
      rule over them: two-pass mean/std (not the running estimates), the
      ``ε/max(ε)`` cutoff and the ``min_exceptions`` floor.  Feeding one
      chunk or one packet at a time buffers identical rows, so finalize
      is bit-identical either way — this is what makes the batch
      :func:`detect_exceptions` a thin replay over this class.

    Args:
        threshold_ratio: The ``ε/max(ε)`` cutoff (paper: 0.01).
        min_exceptions: Floor on the finalized exception count.
        window: Sliding-window length for the online statistics; ``None``
            (default) grows forever (pure Welford).
        keep_states: Buffer ingested rows for :meth:`finalize`.  Set to
            False for pure online monitoring with bounded memory (then
            only :meth:`score` / :meth:`is_exception` are available).
    """

    def __init__(
        self,
        threshold_ratio: float = 0.01,
        min_exceptions: int = 2,
        window: Optional[int] = None,
        keep_states: bool = True,
    ):
        if window is not None and window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.threshold_ratio = threshold_ratio
        self.min_exceptions = min_exceptions
        self.window = window
        self.keep_states = keep_states
        self.count = 0
        self._mean: Optional[np.ndarray] = None
        self._m2: Optional[np.ndarray] = None
        self._max_eps = 0.0
        self._buffer: List[np.ndarray] = []
        self._window_rows: Optional[Deque[np.ndarray]] = (
            deque() if window is not None else None
        )

    # -- online accumulation ------------------------------------------

    @property
    def mean(self) -> Optional[np.ndarray]:
        """Running per-metric mean (None before the first update)."""
        return None if self._mean is None else self._mean.copy()

    @property
    def std(self) -> Optional[np.ndarray]:
        """Running per-metric standard deviation (floored like the batch
        rule: constant metrics get spread 1.0)."""
        if self._mean is None or self.count == 0:
            return None
        var = np.maximum(self._m2 / self.count, 0.0)
        std = np.sqrt(var)
        return np.where(std < 1e-12, 1.0, std)

    def _welford_add(self, row: np.ndarray) -> None:
        if self._mean is None:
            self._mean = np.zeros_like(row)
            self._m2 = np.zeros_like(row)
        self.count += 1
        delta = row - self._mean
        self._mean = self._mean + delta / self.count
        self._m2 = self._m2 + delta * (row - self._mean)

    def _welford_remove(self, row: np.ndarray) -> None:
        if self.count <= 1:
            self.count = 0
            self._mean = np.zeros_like(row)
            self._m2 = np.zeros_like(row)
            return
        mean_after = (self.count * self._mean - row) / (self.count - 1)
        self._m2 = self._m2 - (row - mean_after) * (row - self._mean)
        self._m2 = np.maximum(self._m2, 0.0)  # guard round-off
        self._mean = mean_after
        self.count -= 1

    def _merge_chunk(self, chunk: np.ndarray) -> None:
        """Chan's parallel update: fold a whole chunk's statistics in."""
        k = chunk.shape[0]
        chunk_mean = chunk.mean(axis=0)
        chunk_m2 = ((chunk - chunk_mean) ** 2).sum(axis=0)
        if self._mean is None or self.count == 0:
            # First chunk: adopt its statistics verbatim, so a single
            # whole-trace chunk reproduces numpy's mean/var bit-for-bit.
            self._mean = chunk_mean
            self._m2 = chunk_m2
            self.count = k
            return
        total = self.count + k
        delta = chunk_mean - self._mean
        self._m2 = (
            self._m2 + chunk_m2 + delta * delta * (self.count * k / total)
        )
        self._mean = self._mean + delta * (k / total)
        self.count = total

    def update(self, values: np.ndarray) -> None:
        """Ingest one state row or a (n, m) chunk of them."""
        values = np.asarray(values, dtype=float)
        rows = np.atleast_2d(values)
        if rows.shape[0] == 0:
            return
        if self._window_rows is not None:
            for row in rows:
                row = np.array(row, dtype=float)
                self._welford_add(row)
                self._window_rows.append(row)
                while len(self._window_rows) > self.window:
                    self._welford_remove(self._window_rows.popleft())
        elif rows.shape[0] == 1:
            self._welford_add(np.array(rows[0], dtype=float))
        else:
            self._merge_chunk(rows)
        if self.keep_states:
            self._buffer.append(np.array(rows, dtype=float))
        # Track the running deviation maximum against the updated stats,
        # the online stand-in for the batch rule's max(ε).
        eps = self._epsilon_online(rows)
        if eps.size:
            self._max_eps = max(self._max_eps, float(eps.max()))

    def _epsilon_online(self, rows: np.ndarray) -> np.ndarray:
        std = self.std
        if std is None:
            return np.zeros(0)
        z = (rows - self._mean) / std
        return (z * z).sum(axis=1)

    def score(self, state: np.ndarray) -> float:
        """Online ``ε/max(ε)`` of one state against the stats *so far*."""
        state = np.asarray(state, dtype=float).ravel()
        eps = self._epsilon_online(state[None, :])
        if eps.size == 0 or self._max_eps <= 0.0:
            return 0.0
        return float(eps[0]) / self._max_eps

    def is_exception(self, state: np.ndarray) -> bool:
        """True when the online score reaches the threshold."""
        return self.score(state) >= self.threshold_ratio

    # -- exact batch replay -------------------------------------------

    def finalize(
        self,
        states: Optional[StateMatrix] = None,
        epsilon: Optional[np.ndarray] = None,
    ) -> ExceptionSet:
        """Apply the exact batch rule over everything ingested.

        Args:
            states: The :class:`StateMatrix` the ingested rows came from
                (used for provenance in the returned exception set).  If
                omitted, a provenance-free matrix is rebuilt from the
                buffer.
            epsilon: Pre-computed :func:`deviation_scores` of the ingested
                rows, if the caller already has them.
        """
        if states is None:
            if not self.keep_states:
                raise RuntimeError(
                    "finalize() needs buffered states; construct the "
                    "detector with keep_states=True or pass states="
                )
            values = (
                np.vstack(self._buffer)
                if self._buffer
                else np.zeros((0, NUM_METRICS))
            )
            states = StateMatrix(
                values=values,
                node_ids=np.zeros(len(values), dtype=np.int64),
                epochs_from=np.zeros(len(values), dtype=np.int64),
                epochs_to=np.zeros(len(values), dtype=np.int64),
                times_from=np.zeros(len(values), dtype=float),
                times_to=np.zeros(len(values), dtype=float),
            )
        if epsilon is None:
            epsilon = deviation_scores(states.values)
        epsilon = np.asarray(epsilon, dtype=float)
        if epsilon.size == 0:
            return ExceptionSet(
                states=states,
                indices=np.zeros(0, dtype=int),
                epsilon=epsilon,
                threshold_ratio=self.threshold_ratio,
            )
        max_eps = float(epsilon.max())
        if max_eps <= 0.0:
            indices = np.zeros(0, dtype=int)
        else:
            indices = np.flatnonzero(epsilon / max_eps >= self.threshold_ratio)
        if len(indices) < self.min_exceptions:
            indices = np.argsort(epsilon)[::-1][: self.min_exceptions]
            indices = np.sort(indices)
        return ExceptionSet(
            states=states.select(indices.tolist()),
            indices=indices,
            epsilon=epsilon,
            threshold_ratio=self.threshold_ratio,
        )


def detect_exceptions(
    states,
    threshold_ratio: float = 0.01,
    min_exceptions: int = 2,
    epsilon: Optional[np.ndarray] = None,
) -> ExceptionSet:
    """Flag exception states by the paper's ``ε/max(ε)`` rule.

    A thin replay over :class:`StreamingExceptionDetector`: ingest all
    states as one chunk, finalize.  Feeding the same states one packet at
    a time gives a bit-identical exception set.

    Args:
        states: All network states — a :class:`StateMatrix`, or a
            :class:`~repro.traces.frame.TraceFrame` that is differenced
            with :func:`repro.core.states.build_states` first.
        threshold_ratio: A state is an exception when its deviation is at
            least this fraction of the maximum deviation (paper: 0.01).
        min_exceptions: If the rule selects fewer rows than this, the
            top-``min_exceptions`` states by deviation are taken instead
            (degenerate traces otherwise produce an empty training set).
        epsilon: Pre-computed :func:`deviation_scores` of ``states`` (the
            pipeline computes them once for its online scoring stats and
            passes them here to avoid a second pass).
    """
    if not isinstance(states, StateMatrix):
        from repro.core.states import build_states

        states = build_states(states)
    detector = StreamingExceptionDetector(
        threshold_ratio=threshold_ratio,
        min_exceptions=min_exceptions,
        keep_states=False,  # the caller's StateMatrix is the buffer
    )
    if len(states):
        detector.update(states.values)
    return detector.finalize(states, epsilon=epsilon)
