"""The per-model diagnosis plan is bit-identical to the per-call chain.

:class:`~repro.core.plan.DiagnosisPlan` takes the model-only work out of
every flagged state's diagnosis.  These tests replay the testbed trace
at a 0.001 screen (most states flagged, so the plan runs thousands of
times) through ``push_batch``'s ingest step at seeded chunkings, once on
the plan and once on the oracle (``tests/diagnosis_oracle.py``, the chain
the plan replaced), and compare the two bit for bit: reports, their
observations, incident events, node summaries and drift.  They also pin
model rotation, the factor cache against the uncached oracle, the
refusal of a stat-less model, ``VN2.diagnose`` against a streamed
diagnosis, the report step of ``diagnose_batch`` and the public
per-state helpers.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.incidents import observation_weights, observations_for_state
from repro.core.pipeline import VN2, VN2Config
from repro.core.plan import DiagnosisPlan
from repro.core.states import StreamedState, build_states
from repro.core.streaming import (
    PacketBatch,
    StreamingDiagnosisSession,
    _arrival_order,
)
from repro.obs import MetricsRegistry

from . import diagnosis_oracle as oracle

THRESHOLD = 0.001


def _bits(value) -> bytes:
    """A float's exact bits (``==`` would equate -0.0 and 0.0)."""
    return np.float64(value).tobytes()


def _report_key(report):
    if report is None:
        return None
    return (
        report.weights.tobytes(),
        _bits(report.residual),
        _bits(report.relative_residual),
        [(c.index, _bits(c.strength), id(c.label)) for c in report.ranked],
    )


def _solution_key(solution):
    weights, residual, state_norm = solution
    return (weights.tobytes(), _bits(residual), _bits(state_norm))


def _report_of(session, solution, k):
    """Diagnosis ``k``'s report: the oracle chain's own, or the plan's
    (what ``_updates`` builds from the solution)."""
    if isinstance(session, oracle.OracleSession):
        return session.reports[k]
    return session._plan.report(*solution)


def _obs_key(obs):
    return (obs.node_id, _bits(obs.time_from), _bits(obs.time_to),
            obs.cause_index, obs.hazard, _bits(obs.strength))


def _event_key(event):
    inc = event.incident
    return (event.kind, event.incident_id, _bits(event.time), inc.hazard,
            inc.node_ids, _bits(inc.start), _bits(inc.end),
            _bits(inc.peak_strength), _bits(inc.total_strength),
            inc.n_observations)


@pytest.fixture(scope="module")
def frame(testbed_trace):
    return testbed_trace


@pytest.fixture(scope="module")
def other_tool(testbed_trace):
    """A second, different model to rotate to."""
    return VN2(VN2Config(rank=6, nmf_iterations=40)).fit(testbed_trace)


def _batches(frame, seed):
    order = _arrival_order(frame)
    rng = np.random.default_rng(seed)
    start = 0
    while start < len(order):
        rows = order[start:start + int(rng.integers(1, 48))]
        start += len(rows)
        yield PacketBatch(frame.node_ids[rows], frame.epochs[rows],
                          frame.generated_at[rows], frame.values[rows])


def _session(cls, tool, **kwargs):
    return cls(tool, threshold_ratio=THRESHOLD,
               registry=MetricsRegistry(enabled=False), **kwargs)


def _replay(cls, tool, frame, seed, rotate_to=None, **kwargs):
    """Every diagnosis, event, summary and drift of one replay."""
    session = _session(cls, tool, **kwargs)
    batches = list(_batches(frame, seed))
    diagnoses, events, drift = [], [], []
    for i, batch in enumerate(batches):
        if rotate_to is not None and i == len(batches) // 2:
            drift.append([_bits(x) for x in session._drift])
            session.set_model(rotate_to)
        _s, _sc, _f, batch_diagnoses = session._push(batch)
        for solution, observations, batch_events in batch_diagnoses:
            report = _report_of(session, solution, len(diagnoses))
            diagnoses.append((
                _solution_key(solution), _report_key(report),
                [_obs_key(o) for o in observations],
            ))
            events.extend(_event_key(e) for e in batch_events)
    events.extend(_event_key(e) for e in session.finish())
    drift.append([_bits(x) for x in session._drift])
    return {
        "diagnoses": diagnoses,
        "events": events,
        "summaries": repr(session.node_summaries()),
        "drift": drift,
        "counters": session.counters(),
    }


def _assert_same(got, want):
    assert len(got["diagnoses"]) == len(want["diagnoses"])
    assert want["events"], "the replay must emit incident events"
    for i, (a, b) in enumerate(zip(got["diagnoses"], want["diagnoses"])):
        assert a == b, f"diagnosis {i} differs"
    assert got["events"] == want["events"]
    assert got["summaries"] == want["summaries"]
    assert got["drift"] == want["drift"]
    assert got["counters"] == want["counters"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streamed_replay_matches_oracle(testbed_tool, frame, seed):
    got = _replay(StreamingDiagnosisSession, testbed_tool, frame, seed)
    want = _replay(oracle.OracleSession, testbed_tool, frame, seed)
    assert len(got["diagnoses"]) > 1000  # the plan really ran
    _assert_same(got, want)


def test_set_model_mid_stream_matches_oracle(testbed_tool, other_tool, frame):
    got = _replay(StreamingDiagnosisSession, testbed_tool, frame, 3,
                  rotate_to=other_tool)
    want = _replay(oracle.OracleSession, testbed_tool, frame, 3,
                   rotate_to=other_tool)
    _assert_same(got, want)


def test_cold_session_matches_oracle(testbed_tool, frame):
    """Every solve starts cold; the session's factor cache must leave it
    bit-identical to the oracle chain solving with no cache at all."""
    got = _replay(StreamingDiagnosisSession, testbed_tool, frame, 4)
    want = _replay(oracle.OracleSession, testbed_tool, frame, 4,
                   cached=False)
    _assert_same(got, want)


def test_statless_model_matches_oracle(testbed_tool, frame):
    """A model without training stats cannot screen: the session refuses
    a batch exactly as the oracle does, before diagnosing anything."""
    statless = copy.deepcopy(testbed_tool)
    statless._train_mean = None
    batch = _whole_batch(frame)
    for cls in (StreamingDiagnosisSession, oracle.OracleSession):
        session = _session(cls, statless)
        with pytest.raises(RuntimeError, match="not fitted"):
            session._push(batch)
        assert session.n_exceptions == 0


def test_diagnose_matches_oracle_and_cold_stream(testbed_tool, frame):
    session = _session(StreamingDiagnosisSession, testbed_tool)
    states, _sc, flags, diagnoses = session._push(_whole_batch(frame))
    flagged = np.flatnonzero(flags)
    assert flagged.size > 100
    for i, (solution, _obs, _events) in zip(flagged.tolist(), diagnoses):
        report = session._plan.report(*solution)
        values = states.values[i]
        direct = testbed_tool.diagnose(values)
        assert _report_key(direct) == _report_key(report)
        assert _report_key(direct) == _report_key(
            oracle.diagnose(testbed_tool, values)
        )


@pytest.mark.parametrize("cached", [True, False])
def test_update_reports_match_oracle(testbed_tool, frame, cached):
    """``_updates`` (``process``, ``diagnose_stream``, ``push_packet``)
    still hands out the chain's reports, next to the same events, whether
    or not the oracle solves through a factor cache."""
    session = _session(StreamingDiagnosisSession, testbed_tool)
    reference = _session(oracle.OracleSession, testbed_tool, cached=cached)
    got, want = (
        [(_report_key(u.report), [_obs_key(o) for o in u.observations],
          [_event_key(e) for e in u.events])
         for u in s.process(frame) if u.is_exception]
        for s in (session, reference)
    )
    assert len(got) > 1000
    assert got == want
    assert [key for key, _obs, _events in got] == [
        _report_key(r) for r in reference.reports
    ]
    one_row = _session(StreamingDiagnosisSession, testbed_tool)
    order = _arrival_order(frame)
    reports = []
    for i in order[:3000].tolist():
        update = one_row.push_packet(frame.node_ids[i], frame.epochs[i],
                                     frame.generated_at[i], frame.values[i])
        if update is not None and update.is_exception:
            reports.append(_report_key(update.report))
    assert reports and reports == [key for key, _o, _e in got[:len(reports)]]


def _whole_batch(frame):
    order = _arrival_order(frame)
    return PacketBatch(frame.node_ids[order], frame.epochs[order],
                       frame.generated_at[order], frame.values[order])


def test_diagnose_batch_reports_match_oracle(testbed_tool, testbed_trace):
    values = build_states(testbed_trace).values[:300]
    got = testbed_tool.diagnose_batch(values)
    want = oracle.diagnose_batch(testbed_tool, values)
    assert [_report_key(r) for r in got] == [_report_key(r) for r in want]


def test_per_state_helpers_match_oracle(testbed_tool, testbed_trace):
    states = build_states(testbed_trace)
    for i in range(0, len(states), 7):
        values = states.values[i]
        for retention in (0.9, 0.5, 1.0):
            got = observation_weights(testbed_tool, values, retention)
            want = oracle.observation_weights(testbed_tool, values, retention)
            assert got.tobytes() == want.tobytes()
        args = (testbed_tool, values, states.node_ids[i],
                states.times_from[i], states.times_to[i])
        for min_strength in (0.2, 0.05):
            got = observations_for_state(*args, min_strength=min_strength)
            want = oracle.observations_for_state(
                *args, min_strength=min_strength
            )
            assert [_obs_key(o) for o in got] == [_obs_key(o) for o in want]


def test_plan_is_built_once_and_dropped_on_refit(testbed_tool, frame):
    tool = copy.deepcopy(testbed_tool)
    plan = tool.plan
    assert tool.plan is plan
    assert np.array_equal(plan.AtA, plan.Psi @ plan.Psi.T)
    tool.refit_with(build_states(frame).select(range(200)),
                    warm_iterations=2)
    assert tool._plan is None
    assert tool.plan is not plan


def test_session_checks_retention_and_min_strength_once(testbed_tool):
    with pytest.raises(ValueError, match="retention"):
        StreamingDiagnosisSession(testbed_tool, retention=0.0)
    with pytest.raises(ValueError, match="retention"):
        StreamingDiagnosisSession(testbed_tool, retention=1.5)
    with pytest.raises(ValueError, match="min_strength"):
        StreamingDiagnosisSession(testbed_tool, min_strength=float("nan"))
    with pytest.raises(ValueError, match="retention"):
        observation_weights(testbed_tool, np.zeros(43), retention=0.0)


def _weight_rows(r, rng):
    """Solved-weight rows that stress Algorithm 2's cut: ties, zeros,
    signed zeros, subnormals and wide ranges."""
    yield np.zeros(r)
    yield np.full(r, -0.0)
    yield np.full(r, 0.25)  # all tied
    yield np.full(r, 5e-324)  # all subnormal
    tied = np.zeros(r)
    tied[::3] = 0.5
    yield tied
    sub = np.zeros(r)
    sub[:5] = [5e-324, 1e-310, 2e-315, 3e-320, 1e-308]
    yield sub
    one = np.zeros(r)
    one[r // 2] = 3.0
    yield one
    for _ in range(200):
        row = rng.random(r) * (rng.random(r) < 0.6)
        row[rng.random(r) < 0.2] = -0.0
        if rng.random() < 0.3:  # duplicated values: ties inside the cut
            row[rng.integers(0, r, 3)] = row.max()
        if rng.random() < 0.2:
            row *= 10.0 ** rng.integers(-320, 5)
        yield row


def test_scalar_sparsify_and_observations_match_oracle(testbed_tool):
    """The list-based sparsify -> observations pass against
    ``sparsify_inferred`` and the oracle's label walk, bitwise."""
    plan = testbed_tool.plan
    r = plan.Psi.shape[0]
    rng = np.random.default_rng(17)
    checked = 0
    for weights in _weight_rows(r, rng):
        for retention in (1e-9, 0.5, 0.9, 1.0):
            sparse = plan.sparsify(weights, retention)
            want = oracle.sparsify_inferred(weights, retention=retention)[0]
            assert np.array(sparse).tobytes() == want.tobytes()
            for min_strength in (0.2, 1e-3, 0.0, -1.0):
                got = plan.observations(sparse, 7, 10.0, 20.0, min_strength)
                expected = oracle.observations_for_state(
                    testbed_tool, None, 7, 10.0, 20.0,
                    min_strength=min_strength, weights=want,
                )
                assert [_obs_key(o) for o in got] == [
                    _obs_key(o) for o in expected
                ]
                checked += bool(got)
    assert checked > 100


class _CraftedPlan(DiagnosisPlan):
    """The model's plan, solving to queued weight rows and residuals."""

    __slots__ = ("queue",)

    def solve(self, normalized, previous=None, cache=None, metrics=None):
        return self.queue.pop(0)


@pytest.mark.parametrize("min_weight_fraction", [0.1, 1.0, 1.5])
def test_sink_family_and_drift_match_the_report(testbed_tool,
                                                min_weight_fraction):
    """Without a report, ``_diagnose`` sets the node's family and the
    drift sample exactly as the report's ``ranked[0]`` and relative
    residual would: ties, zero rows and the significance cut."""
    tool = copy.deepcopy(testbed_tool)
    tool.config.min_weight_fraction = min_weight_fraction
    tool._plan = None
    session = _session(StreamingDiagnosisSession, tool)
    plan = _CraftedPlan(tool)
    plan.queue = []
    session._plan = plan
    r = plan.Psi.shape[0]
    rng = np.random.default_rng(23)
    rows = [np.zeros(r), np.full(r, 0.3)]
    for _ in range(60):
        row = rng.random(r) * (rng.random(r) < 0.5)
        row[rng.integers(0, r, 2)] = row.max()  # a tie for the lead
        rows.append(row)
    zero = tool.normalizer_.lo - 1.0  # normalizes to all zeros
    for k, weights in enumerate(rows):
        values = zero if k % 4 == 0 else rng.normal(size=zero.shape)
        residual = float(rng.random())
        plan.queue.append((weights, residual))
        summary = session._summary(5)
        summary["family"] = None
        solution, _obs, _events = session._diagnose(
            StreamedState(values, 5, k, k + 1, 0.0, 1.0)
        )
        state_norm = plan.state_norm(plan.normalize(values))
        assert _solution_key(solution) == _solution_key(
            (weights, residual, state_norm)
        )
        report = oracle.build_report(tool, weights, residual, state_norm)
        want = None if report.primary is None else report.primary.label.family
        assert summary["family"] == want
        assert _bits(session._drift[-1]) == _bits(report.relative_residual)
