"""Tests for TopK sparsification."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.sparsification.base import fraction_to_count
from repro.sparsification.topk import topk_indices


def test_topk_selects_largest_magnitudes():
    scores = np.array([0.1, -5.0, 2.0, 0.0, -3.0])
    indices = topk_indices(scores, 2)
    assert np.array_equal(indices, [1, 4])


def test_topk_indices_sorted():
    scores = np.random.default_rng(0).normal(size=100)
    indices = topk_indices(scores, 17)
    assert np.all(np.diff(indices) > 0)
    assert indices.size == 17


def test_topk_count_larger_than_size_returns_all():
    indices = topk_indices(np.arange(5.0), 10)
    assert np.array_equal(indices, np.arange(5))


def test_topk_count_zero_raises():
    with pytest.raises(ConfigurationError):
        topk_indices(np.arange(5.0), 0)


def test_topk_threshold_property():
    """Every selected score is at least as large as every rejected score."""

    scores = np.random.default_rng(1).normal(size=500)
    indices = topk_indices(scores, 50)
    selected = np.abs(scores[indices])
    rejected = np.abs(np.delete(scores, indices))
    assert selected.min() >= rejected.max() - 1e-12


def test_fraction_to_count_bounds():
    assert fraction_to_count(0.1, 100) == 10
    assert fraction_to_count(1.0, 7) == 7
    assert fraction_to_count(0.001, 100) == 1
    with pytest.raises(ConfigurationError):
        fraction_to_count(0.0, 100)
    with pytest.raises(ConfigurationError):
        fraction_to_count(1.5, 100)


# -- the matrix form: every row is the 1-D call on that row -------------------------
def _score_rows(kind: str, rows: int = 40, width: int = 97) -> np.ndarray:
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(rows, width))
    if kind == "ties":
        # Exact zeros in every third column and few distinct magnitudes: the
        # selection threshold falls inside a run of equal values on every row.
        scores = np.round(scores * 2.0) / 2.0
        scores[:, ::3] = 0.0
        scores[rng.random(scores.shape) < 0.1] *= -1.0
    return scores


@pytest.mark.parametrize("kind", ["random", "ties"])
@pytest.mark.parametrize("count", [1, 96, 97, 102])
def test_topk_matrix_form_equals_row_by_row(kind, count):
    scores = _score_rows(kind)
    selected = topk_indices(scores, count)
    assert selected.shape == (scores.shape[0], min(count, scores.shape[1]))
    assert selected.dtype == np.int64
    for row, row_scores in zip(selected, scores):
        expected = topk_indices(row_scores, count)
        assert row.dtype == expected.dtype
        assert np.array_equal(row, expected)


def test_topk_matrix_form_of_one_row_and_validation():
    scores = _score_rows("ties", rows=1)
    assert np.array_equal(topk_indices(scores, 10)[0], topk_indices(scores[0], 10))
    with pytest.raises(ConfigurationError):
        topk_indices(scores, 0)
