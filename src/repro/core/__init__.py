"""The VN2 algorithm: the paper's primary contribution.

Data flow (paper Sections III-IV):

1. :mod:`repro.core.states` — difference successive snapshots into
   *network state* vectors ``S = P_i - P_{i-1}``.
2. :mod:`repro.core.exceptions` — keep only *exception* states, found by
   deviation from the mean state (``ε_u / max(ε) >= 0.01``).
3. :mod:`repro.core.normalization` — min-max map the exception matrix into
   [0, 1] so NMF is well-posed on signed deltas.
4. :mod:`repro.core.nmf` — factorize ``E ≈ W Ψ`` (Algorithm 1).
5. :mod:`repro.core.sparsify` — sparsify ``W`` keeping 90 % of its mass
   (Algorithm 2).
6. :mod:`repro.core.rank_selection` — choose the compression factor ``r``
   from the original-vs-sparse accuracy curves (Fig 3b).
7. :mod:`repro.core.inference` — attribute a new state to root causes by
   NNLS (Problem 3).
8. :mod:`repro.core.interpretation` — explain each Ψ row via the Table I
   hazard knowledge base.

:class:`repro.core.pipeline.VN2` wires all of it behind one facade.
"""

from repro.core.states import (
    StateMatrix,
    StateProvenance,
    StreamedState,
    StreamingStateBuilder,
    build_states,
    stack_states,
)
from repro.core.exceptions import ExceptionSet, detect_exceptions
from repro.core.normalization import MinMaxNormalizer
from repro.core.nmf import NMFResult, nmf, nmf_best_of, kl_divergence, frobenius_loss
from repro.core.sparsify import sparsify_weights
from repro.core.rank_selection import RankSweepResult, rank_sweep, choose_rank
from repro.core.inference import NNLSSolverCache, infer_weights_batch
from repro.core.interpretation import RootCauseInterpreter, RootCauseLabel
from repro.core.pipeline import (
    VN2,
    VN2Config,
    DiagnosisReport,
    ModelIntegrityError,
)
from repro.core.lifecycle import OnlineVN2Updater, incremental_refit
from repro.core.incidents import (
    Incident,
    IncidentAggregator,
    IncidentEvent,
    IncidentTracker,
    Observation,
    incidents_from_frame,
)
from repro.core.streaming import (
    PacketBatch,
    StreamingDiagnosisSession,
    StreamUpdate,
    iter_packets,
)

__all__ = [
    "StateMatrix",
    "StateProvenance",
    "StreamedState",
    "StreamingStateBuilder",
    "build_states",
    "stack_states",
    "ExceptionSet",
    "detect_exceptions",
    "MinMaxNormalizer",
    "NMFResult",
    "nmf",
    "nmf_best_of",
    "kl_divergence",
    "frobenius_loss",
    "sparsify_weights",
    "RankSweepResult",
    "rank_sweep",
    "choose_rank",
    "NNLSSolverCache",
    "infer_weights_batch",
    "RootCauseInterpreter",
    "RootCauseLabel",
    "VN2",
    "VN2Config",
    "DiagnosisReport",
    "ModelIntegrityError",
    "OnlineVN2Updater",
    "incremental_refit",
    "Incident",
    "IncidentAggregator",
    "IncidentEvent",
    "IncidentTracker",
    "Observation",
    "incidents_from_frame",
    "PacketBatch",
    "StreamingDiagnosisSession",
    "StreamUpdate",
    "iter_packets",
]
