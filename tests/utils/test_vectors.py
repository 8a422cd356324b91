"""Tests for flat-vector helpers."""

import numpy as np

from repro.utils.vectors import flatten_arrays


def test_flatten_concatenates_in_order_as_float64():
    arrays = [np.arange(6).reshape(2, 3), np.ones((4,)), np.zeros((2, 2, 2))]
    flat = flatten_arrays(arrays)
    assert flat.shape == (6 + 4 + 8,) and flat.dtype == np.float64
    assert flat.tolist() == list(range(6)) + [1.0] * 4 + [0.0] * 8


def test_flatten_empty_list():
    assert flatten_arrays([]).shape == (0,)
