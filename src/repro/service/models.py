"""Model lifecycle on the front door: background refits and rotation.

The sink serves one fitted :class:`~repro.core.pipeline.VN2` model per
process tree.  This module adds the online half of the model's life:

* :class:`ModelManager` — owned by the
  :class:`~repro.service.server.DiagnosisService`.  It periodically
  drains the exception states every shard retained
  (``ServiceConfig.keep_exception_states``), watches the per-shard drift
  scores, and when the trigger fires absorbs the drained states into a
  *clone* of the served model via
  :func:`~repro.core.lifecycle.incremental_refit` — in a **child
  process** (:class:`repro.runner.pool.ProcessPool`), so a refit never
  steals event-loop time from ingest.  The refitted model is then
  rotated into every live session through
  :meth:`~repro.service.backends.ShardRouter.rotate_model`, whose
  per-shard FIFO barrier guarantees no event is lost, duplicated or
  reordered across the swap.
* Explicit rotation: ``POST /model {"path": ...}`` (and
  ``vn2 model rotate``) loads a saved model — integrity-checked against
  its recorded ``model_version`` — and swaps it in the same way.

Every lifecycle action is observable: rotations and refits are counted
(``repro_service_model_rotations_total``,
``repro_service_refits_total`` …), the swap runs under a
``service.model_rotate`` span, and ``GET /model`` returns the serving
version, drift scores and lifecycle counters.

See ``docs/model_lifecycle.md`` for the full semantics, including how
rotation composes with the cluster's at-least-once crash handoff.
"""

from __future__ import annotations

import asyncio
import threading
import weakref
from typing import Dict, List, Optional

from repro.core.states import StateMatrix, merge_state_matrices
from repro.obs import span

__all__ = ["ModelManager"]


def _refit_main(conn, worker_id: str, tool, states, warm_iterations, tol) -> None:
    """Child-process target: one refit, one reply, exit.

    Runs in a :class:`~repro.runner.pool.ProcessPool` child so the NMF
    iterations never block the server's event loop (or its GIL).  The
    inputs ride the fork; only the refitted model crosses the pipe back.
    """
    try:
        from repro.core.lifecycle import incremental_refit

        updated = incremental_refit(
            tool, states, warm_iterations=warm_iterations, tol=tol
        )
        conn.send({"type": "refit_done", "tool": updated})
    except Exception as exc:
        try:
            conn.send({
                "type": "refit_error",
                "error": f"{type(exc).__name__}: {exc}",
            })
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ModelManager:
    """Drift-triggered refits and zero-downtime rotation for one service.

    All async methods run on the service's event loop; lifecycle
    operations (refit, rotate) serialize on one lock so two triggers can
    never race a swap.
    """

    #: Iteration budget / early-stop tolerance for background refits.
    warm_iterations = 60
    tol = 1e-4
    #: Hard ceiling on one child refit (seconds).
    refit_timeout_s = 600.0

    def __init__(self, service):
        self.service = service
        self.n_rotations = 0
        self.n_refits = 0
        #: Drained-but-not-yet-absorbed state batches (kept across refit
        #: checks that don't trigger — a drain must never lose states).
        self._pending: List[StateMatrix] = []
        #: Latest per-deployment drift scores seen by a refit check.
        self._drift: Dict[str, float] = {}
        self._task: Optional[asyncio.Task] = None
        self._lock = asyncio.Lock()
        self.last_error: Optional[str] = None
        registry = service.registry
        self._m_rotations = registry.counter(
            "repro_service_model_rotations_total",
            "Zero-downtime model rotations applied across the shard workers",
        )
        self._m_refits = registry.counter(
            "repro_service_refits_total",
            "Background refits completed by the model manager",
        )
        self._m_refit_failures = registry.counter(
            "repro_service_refit_failures_total",
            "Background refits that failed or produced no model",
        )
        self._m_refit_states = registry.counter(
            "repro_service_refit_states_total",
            "Exception states absorbed by background refits",
        )
        ref = weakref.ref(self)
        registry.gauge(
            "repro_service_model_drift",
            "Largest per-deployment drift score at the last refit check",
            fn=lambda: (
                max(ref()._drift.values(), default=0.0)
                if ref() is not None else 0.0
            ),
        )
        registry.gauge(
            "repro_service_refit_backlog_states",
            "Exception states drained from shards but not yet absorbed",
            fn=lambda: (
                float(sum(len(p) for p in ref()._pending))
                if ref() is not None else 0.0
            ),
        )

    # -- introspection -------------------------------------------------

    @property
    def model_version(self) -> str:
        return self.service.tool.model_version

    def doc(self) -> dict:
        """The ``GET /model`` document."""
        config = self.service.config
        return {
            "model_version": self.model_version,
            "model": self.service.tool._sidecar_meta(),
            "rotations": self.n_rotations,
            "refits": self.n_refits,
            "pending_states": sum(len(p) for p in self._pending),
            "drift": dict(sorted(self._drift.items())),
            "drift_score": max(self._drift.values(), default=0.0),
            "refit_every_s": config.refit_every_s,
            "drift_threshold": config.drift_threshold,
            "refit_min_states": config.refit_min_states,
            "last_error": self.last_error,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Arm the periodic refit task when the service configured one."""
        if self.service.config.refit_every_s is not None:
            self._task = asyncio.get_running_loop().create_task(
                self._periodic(), name="model-manager"
            )

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _periodic(self) -> None:
        period = self.service.config.refit_every_s
        while True:
            await asyncio.sleep(period)
            try:
                await self.maybe_refit()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # keep the cadence alive
                self.last_error = f"{type(exc).__name__}: {exc}"
                self._m_refit_failures.inc()

    # -- rotation ------------------------------------------------------

    async def rotate(self, tool) -> dict:
        """Swap ``tool`` into every live session; returns the boundaries."""
        tool._require_fitted()
        async with self._lock:
            return await self._rotate_locked(tool)

    async def _rotate_locked(self, tool) -> dict:
        previous = self.service.tool.model_version
        version = tool.model_version
        with span(
            "service.model_rotate", model_version=version, previous=previous
        ):
            boundaries = await self.service.backend.rotate_model(tool)
        self.n_rotations += 1
        self._m_rotations.inc()
        return {
            "model_version": version,
            "previous": previous,
            "boundaries": boundaries,
        }

    # -- refit ---------------------------------------------------------

    async def maybe_refit(self, force: bool = False) -> Optional[dict]:
        """One refit check: drain, decide, absorb in a child, rotate.

        Returns the rotation document (plus ``absorbed_states``) when a
        refit happened, ``None`` when the trigger didn't fire.  With
        ``force`` the drift/min-states gates are skipped (any retained
        state is enough) — the ``POST /model {"refit": true}`` path.
        """
        config = self.service.config
        async with self._lock:
            states, drift = await self.service.backend.collect_refit_states()
            if drift:
                self._drift = dict(drift)
            merged = merge_state_matrices(list(states.values()))
            if merged is not None:
                self._pending.append(merged)
            total = sum(len(p) for p in self._pending)
            if total == 0:
                return None
            if not force:
                if total < config.refit_min_states:
                    return None
                if (
                    config.drift_threshold is not None
                    and max(self._drift.values(), default=0.0)
                    < config.drift_threshold
                ):
                    return None
            batch = merge_state_matrices(self._pending)
            self._pending = []
            updated = await asyncio.to_thread(
                self._refit_blocking, self.service.tool, batch
            )
            if updated is None:
                self._m_refit_failures.inc()
                # The batch was consumed by the failed attempt; retrying
                # it against the same model would fail the same way, so
                # it is dropped (counted above) rather than re-queued.
                return None
            self.n_refits += 1
            self._m_refits.inc()
            self._m_refit_states.inc(len(batch))
            result = await self._rotate_locked(updated)
            result["absorbed_states"] = len(batch)
            return result

    def _refit_blocking(self, tool, states):
        """Run one refit in a single-shot pool child; None on failure."""
        from repro.runner.pool import WORKER_LOST, ProcessPool

        box: dict = {}
        done = threading.Event()

        def on_message(worker_id: str, message: dict) -> None:
            mtype = message.get("type")
            if mtype == "refit_done":
                box["tool"] = message.get("tool")
                done.set()
            elif mtype == "refit_error":
                box["error"] = message.get("error")
                done.set()
            elif mtype == WORKER_LOST:
                done.set()

        pool = ProcessPool(
            _refit_main,
            1,
            args=(tool, states, self.warm_iterations, self.tol),
            on_message=on_message,
        )
        pool.start()
        try:
            done.wait(timeout=self.refit_timeout_s)
        finally:
            pool.stop(timeout=5.0)
        if "error" in box:
            self.last_error = box["error"]
        return box.get("tool")
