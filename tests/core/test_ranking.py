"""Tests for the wavelet parameter ranking (Equations 3 and 4)."""

import numpy as np
import pytest

from repro.core.ranking import WaveletRanker
from repro.wavelets.transform import IdentityTransform, WaveletTransform


@pytest.fixture
def identity_ranker():
    return WaveletRanker(IdentityTransform(8), use_accumulation=True)


def test_round_scores_equation3(identity_ranker):
    """V' = V + T(x_trained - x_start), with V initially zero."""

    start = np.zeros(8)
    trained = np.arange(8.0)
    scores = identity_ranker.round_scores_from_change(
        identity_ranker.transform.forward(trained - start)
    )
    assert np.allclose(scores, trained - start)
    # The persistent accumulator is not modified by computing round scores.
    assert np.allclose(identity_ranker._accumulator.scores, 0.0)


def test_end_of_round_equation4(identity_ranker):
    start = np.zeros(8)
    final = np.full(8, 2.0)
    identity_ranker.end_of_round(start, final)
    assert np.allclose(identity_ranker._accumulator.scores, 2.0)


def test_mark_shared_resets_selected_entries(identity_ranker):
    identity_ranker.end_of_round(np.zeros(8), np.arange(8.0))
    identity_ranker.mark_shared(np.array([0, 1, 2]))
    assert np.allclose(identity_ranker._accumulator.scores[:3], 0.0)
    assert np.allclose(identity_ranker._accumulator.scores[3:], np.arange(3.0, 8.0))


def test_unshared_coordinates_accumulate_across_rounds(identity_ranker):
    """A coordinate that keeps changing but is never shared grows in score."""

    for round_index in range(1, 4):
        start = np.zeros(8)
        final = np.zeros(8)
        final[5] = 1.0
        identity_ranker.end_of_round(start, final)
    assert identity_ranker._accumulator.scores[5] == pytest.approx(3.0)


def test_round_scores_include_history(identity_ranker):
    identity_ranker.end_of_round(np.zeros(8), np.ones(8))
    scores = identity_ranker.round_scores_from_change(
        identity_ranker.transform.forward(np.full(8, 0.5) - np.zeros(8))
    )
    assert np.allclose(scores, 1.5)


def test_accumulation_disabled_only_uses_local_change():
    ranker = WaveletRanker(IdentityTransform(4), use_accumulation=False)
    ranker.end_of_round(np.zeros(4), np.ones(4))  # should be ignored
    scores = ranker.round_scores_from_change(
        ranker.transform.forward(np.full(4, 0.25) - np.zeros(4))
    )
    assert np.allclose(scores, 0.25)
    assert np.allclose(ranker._accumulator.scores, 0.0)
    ranker.mark_shared(np.array([0]))  # no-op, must not raise


def test_wavelet_domain_scores_capture_parameter_changes():
    """A localized parameter change produces wavelet scores that reconstruct it."""

    transform = WaveletTransform(64, wavelet="sym2", levels=3)
    ranker = WaveletRanker(transform, use_accumulation=True)
    start = np.zeros(64)
    trained = np.zeros(64)
    trained[10:14] = 1.0
    scores = ranker.round_scores_from_change(transform.forward(trained - start))
    assert scores.size == transform.coefficient_size()
    assert np.allclose(transform.inverse(scores), trained - start, atol=1e-9)


def test_coefficient_size_matches_transform():
    transform = WaveletTransform(100)
    ranker = WaveletRanker(transform)
    assert ranker.coefficient_size == transform.coefficient_size()
