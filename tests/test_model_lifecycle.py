"""The model lifecycle core: versioning, integrity, online updates.

``model_version`` is a content hash of the fitted payload — identical
artifacts hash alike, any change to factors, normalizer or config hashes
differently, and a save/load roundtrip preserves it.  Tampering with a
saved payload must fail loudly (:class:`ModelIntegrityError`); saves
from before the hash existed still load.  On top of that sits
:class:`OnlineVN2Updater` — clone-and-refit absorbs with a drift-score
trigger — and :func:`~repro.core.states.merge_state_matrices`, the
state concatenation behind both ``incremental_refit`` and the per-shard
batch the sink's :class:`~repro.service.models.ModelManager` refits from.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.lifecycle import OnlineVN2Updater, incremental_refit
from repro.core.pipeline import (
    VN2,
    ModelIntegrityError,
    VN2Config,
    _model_fingerprint,
)
from repro.core.states import build_states, merge_state_matrices


@pytest.fixture(scope="module")
def split_trace(testbed_trace):
    warmup = float(testbed_trace.metadata["warmup_s"])
    duration = float(testbed_trace.metadata["duration_s"])
    half = warmup + duration / 2.0
    return testbed_trace.window(0.0, half), testbed_trace.window(
        half, warmup + duration
    )


@pytest.fixture(scope="module")
def fitted(split_trace):
    first, _ = split_trace
    return VN2(VN2Config(rank=8, filter_exceptions=False)).fit(first)


# ----------------------------------------------------------------------
# model_version: the content hash
# ----------------------------------------------------------------------


def test_model_version_shape_and_stability(fitted):
    version = fitted.model_version
    assert len(version) == 12
    int(version, 16)  # twelve hex characters
    assert fitted.model_version == version  # cached, stable


def test_identical_fits_hash_identically(split_trace):
    first, _ = split_trace
    a = VN2(VN2Config(rank=8, filter_exceptions=False)).fit(first)
    b = VN2(VN2Config(rank=8, filter_exceptions=False)).fit(first)
    assert a.model_version == b.model_version


def test_config_change_changes_version(split_trace, fitted):
    first, _ = split_trace
    other = VN2(
        VN2Config(rank=8, filter_exceptions=False, nmf_iterations=140)
    ).fit(first)
    assert other.model_version != fitted.model_version


def test_version_survives_save_load(fitted, tmp_path):
    path = tmp_path / "model.npz"
    fitted.save(path)
    sidecar = json.loads((tmp_path / "model.json").read_text())
    assert sidecar["model_version"] == fitted.model_version
    assert VN2.load(path).model_version == fitted.model_version


def test_refit_invalidates_version(split_trace):
    first, second = split_trace
    tool = VN2(VN2Config(rank=8, filter_exceptions=False)).fit(first)
    before = tool.model_version
    tool.refit_with(build_states(second))
    assert tool.model_version != before


def test_unfitted_model_has_no_version():
    with pytest.raises(RuntimeError):
        VN2().model_version


# ----------------------------------------------------------------------
# integrity on load
# ----------------------------------------------------------------------


def test_tampered_payload_fails_loudly(fitted, tmp_path):
    path = tmp_path / "model.npz"
    fitted.save(path)
    arrays = dict(np.load(path))
    arrays["W_sparse"] = arrays["W_sparse"] * 1.5  # silent corruption
    np.savez_compressed(path, **arrays)
    with pytest.raises(ModelIntegrityError, match="model_version"):
        VN2.load(path)


def test_tampered_sidecar_fails_loudly(fitted, tmp_path):
    path = tmp_path / "model.npz"
    fitted.save(path)
    sidecar_path = tmp_path / "model.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["config"]["retention"] = 0.5
    sidecar_path.write_text(json.dumps(sidecar))
    with pytest.raises(ModelIntegrityError):
        VN2.load(path)


def test_legacy_save_without_version_loads_unchecked(fitted, tmp_path):
    path = tmp_path / "model.npz"
    fitted.save(path)
    sidecar_path = tmp_path / "model.json"
    sidecar = json.loads(sidecar_path.read_text())
    del sidecar["model_version"]
    sidecar_path.write_text(json.dumps(sidecar))
    loaded = VN2.load(path)
    # no recorded hash -> nothing to verify, version recomputed lazily
    assert loaded.model_version == fitted.model_version


def test_fingerprint_ignores_recorded_version(fitted):
    arrays = fitted._payload_arrays()
    meta = fitted._sidecar_meta()
    bare = _model_fingerprint(arrays, meta)
    assert bare == _model_fingerprint(
        arrays, {**meta, "model_version": "somethingelse"}
    )


# ----------------------------------------------------------------------
# incremental refit on loaded (state-less) models
# ----------------------------------------------------------------------


def test_refit_of_loaded_model_uses_new_states_only(
    fitted, split_trace, tmp_path
):
    _, second = split_trace
    path = tmp_path / "model.npz"
    fitted.save(path)
    loaded = VN2.load(path)
    assert loaded.states_ is None  # training states are not persisted

    new_states = build_states(second)
    incremental_refit(loaded, new_states, warm_iterations=20)
    assert len(loaded.states_) == len(new_states)
    assert loaded.rank_ == fitted.rank_
    report = loaded.diagnose(new_states.values[0])
    assert report.weights.shape == (8,)


def test_refit_rejects_empty_batch(fitted):
    from repro.core.states import stack_states

    with pytest.raises(ValueError, match="at least one"):
        incremental_refit(fitted, stack_states([]))


# ----------------------------------------------------------------------
# OnlineVN2Updater
# ----------------------------------------------------------------------


def test_absorb_leaves_serving_model_untouched(fitted, split_trace):
    _, second = split_trace
    updater = OnlineVN2Updater(fitted)
    psi_before = fitted.psi.copy()
    version_before = fitted.model_version

    updated = updater.absorb(build_states(second))
    assert updated is updater.model
    assert updated is not fitted
    assert np.array_equal(fitted.psi, psi_before)  # original untouched
    assert fitted.model_version == version_before
    assert updated.model_version != version_before
    assert updater.n_absorbed == len(build_states(second))


def test_drift_trigger(fitted):
    updater = OnlineVN2Updater(
        fitted, drift_threshold=0.5, min_samples=4, drift_window=8
    )
    assert updater.drift_score == 0.0
    for _ in range(3):
        updater.note_residual(0.9)
    assert updater.drift_score == 0.0  # below min_samples: noise
    updater.note_residual(0.9)
    assert updater.drift_score == pytest.approx(0.9)
    assert updater.should_refit()
    # the window is bounded: good residuals push the bad ones out
    for _ in range(8):
        updater.note_residual(0.1)
    assert updater.drift_score == pytest.approx(0.1)
    assert not updater.should_refit()


def test_absorb_resets_drift_window(fitted, split_trace):
    _, second = split_trace
    updater = OnlineVN2Updater(fitted, min_samples=2, drift_threshold=0.5)
    updater.note_residual(0.9)
    updater.note_residual(0.9)
    assert updater.should_refit()
    updater.absorb(build_states(second))
    assert updater.drift_score == 0.0


def test_updater_requires_fitted():
    with pytest.raises(RuntimeError):
        OnlineVN2Updater(VN2())


# ----------------------------------------------------------------------
# merge_state_matrices
# ----------------------------------------------------------------------


def test_merge_empty_is_none():
    from repro.core.states import stack_states

    assert merge_state_matrices([]) is None
    assert merge_state_matrices([stack_states([])]) is None


def test_merge_single_part_passthrough(split_trace):
    _, second = split_trace
    states = build_states(second)
    assert merge_state_matrices([states]) is states


def test_merge_concatenates_in_order(split_trace):
    first, second = split_trace
    a = build_states(first)
    b = build_states(second)
    merged = merge_state_matrices([a, b])
    assert len(merged) == len(a) + len(b)
    assert np.array_equal(merged.values[: len(a)], a.values)
    assert np.array_equal(merged.values[len(a):], b.values)
    assert np.array_equal(merged.node_ids[len(a):], b.node_ids)
