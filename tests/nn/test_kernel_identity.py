"""Bit-identity of the conv-stack kernels with the forms they replaced.

Every stored digest rests on these kernels producing the same float64 bits as
before they were rewritten for speed, so each is pinned against its old form,
kept here as an oracle, by comparing ``uint64`` views (``==`` on floats cannot
tell -0.0 from 0.0 and fails on NaN):

* slice-form ``_col2im`` against the fancy-index scatter;
* ``ReLU``'s ``abs(fmax(x, 0.0))`` against ``np.where(x > 0, x, 0.0)``;
* eval-mode ``MaxPool2d`` (a ``np.maximum`` chain) against the training path;
* a root model's ``backward`` (parameter half only on its first layer) against
  a full backward through every layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.activations import ReLU
from repro.nn.conv import MaxPool2d, _col2im
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import CelebACNN, FEMNISTCNN, GNLeNet, MLPClassifier
from repro.nn.module import get_flat_gradients


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(bits(actual), bits(expected))


# -- col2im ------------------------------------------------------------------------
def col2im_fancy_index(columns, input_shape, kernel, stride, padding, out_h, out_w):
    """The scatter ``_col2im`` used before it accumulated through basic slices."""

    batch, channels, height, width = input_shape
    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    cols = columns.reshape(batch, out_h, out_w, channels, kernel, kernel)
    for row in range(kernel):
        row_span = row + stride * np.arange(out_h)
        for col in range(kernel):
            col_span = col + stride * np.arange(out_w)
            padded[:, :, row_span[:, None], col_span[None, :]] += cols[
                :, :, :, :, row, col
            ].transpose(0, 3, 1, 2)
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
def test_col2im_matches_the_fancy_index_form(kernel, stride, padding, batch):
    """Overlapping (stride < kernel), touching and gapped windows alike."""

    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    input_shape = (batch, 2, 7, 8)
    out_h = (7 + 2 * padding - kernel) // stride + 1
    out_w = (8 + 2 * padding - kernel) // stride + 1
    columns = rng.normal(size=(batch, out_h * out_w, 2 * kernel * kernel))
    columns[rng.random(columns.shape) < 0.1] = -0.0
    assert_same_bits(
        _col2im(columns, input_shape, kernel, stride, padding, out_h, out_w),
        col2im_fancy_index(columns, input_shape, kernel, stride, padding, out_h, out_w),
    )


# -- ReLU ----------------------------------------------------------------------------
def relu_where(inputs):
    return np.where(inputs > 0, inputs, 0.0)


def test_relu_matches_where_on_special_values():
    """-0.0 and both NaNs map to +0.0; infinities and denormals pass or clamp.

    A bare ``np.fmax(x, 0.0)`` is *not* enough: IEEE 754 lets ``fmax(-0.0, 0.0)``
    return either zero, and numpy 2.4.6 on x86-64 was seen to return -0.0 from
    its scalar loop (array heads and tails) but +0.0 from its SIMD loop, so the
    sign would depend on an element's position.  ``ReLU`` clears the sign with
    ``abs``; a numpy that broke this would move every stored digest, so it
    fails here first.
    """

    special = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -1.5]
    )
    for training in (True, False):
        layer = ReLU()
        layer.training = training
        for repeat in (1, 2, 3, 7):  # the same values at different SIMD lanes
            inputs = np.tile(special, repeat)
            assert_same_bits(layer.forward(inputs), relu_where(inputs))
            assert_same_bits(layer.forward(inputs[::-1]), relu_where(inputs[::-1]))


@pytest.mark.parametrize("length", [1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 63, 65, 127, 129, 1001])
def test_relu_matches_where_on_odd_length_arrays(length):
    rng = np.random.default_rng(length)
    inputs = rng.normal(size=length)
    inputs[rng.random(length) < 0.2] = -0.0
    inputs[rng.random(length) < 0.1] = 0.0
    inputs[rng.random(length) < 0.1] = np.nan
    inputs[rng.random(length) < 0.1] = -np.nan
    layer = ReLU()
    assert_same_bits(layer.forward(inputs), relu_where(inputs))
    strided = np.stack([inputs, -inputs, inputs])[:, ::2]  # non-contiguous rows
    assert_same_bits(layer.forward(strided), relu_where(strided))
    assert np.array_equal(layer._cache_mask, strided > 0)


# -- eval-mode pooling -----------------------------------------------------------------
def pool_both_ways(inputs, kernel):
    trained, evaluated = MaxPool2d(kernel), MaxPool2d(kernel)
    evaluated.eval()
    return trained.forward(inputs), evaluated.forward(inputs)


@pytest.mark.parametrize("shape", [(1, 1, 1, 1), (3, 2, 4, 5), (128, 8, 2, 2)])
@pytest.mark.parametrize("kernel", [2, 3])
def test_eval_pooling_matches_the_training_path(kernel, shape):
    batch, channels, out_h, out_w = shape
    rng = np.random.default_rng(kernel)
    full_shape = (batch, channels, out_h * kernel, out_w * kernel)
    random = rng.normal(size=full_shape)
    # Post-ReLU activations: most windows tie on +0.0, many hold only zeros.
    tie_heavy = ReLU().forward(rng.normal(size=full_shape) - 1.0)
    all_equal = np.full(full_shape, -2.5)
    for inputs in (random, tie_heavy, all_equal):
        trained, evaluated = pool_both_ways(inputs, kernel)
        assert_same_bits(evaluated, trained)
        assert not np.shares_memory(evaluated, inputs)


@pytest.mark.parametrize("kernel", [2, 3])
def test_eval_pooling_on_nan_and_mixed_sign_zeros(kernel):
    """Where the two paths may part, and why the zoo never gets there.

    A window holding a NaN yields NaN on both paths (``argmax`` stops at the
    first NaN, ``np.maximum`` propagates it).  A window whose maxima are zeros
    of *both* signs yields a zero on both paths, but ``argmax`` takes the first
    one while ``np.maximum`` may return either, so only the value is pinned.
    Every pool in the zoo reads a ``ReLU`` output, which holds no -0.0 (see
    ``test_relu_matches_where_on_special_values``).
    """

    rng = np.random.default_rng(kernel)
    shape = (5, 3, 4 * kernel, 3 * kernel)
    with_nan = rng.normal(size=shape)
    with_nan[rng.random(shape) < 0.2] = np.nan
    trained, evaluated = pool_both_ways(with_nan, kernel)
    assert np.isnan(trained).any() and not np.isnan(trained).all()
    assert np.array_equal(evaluated, trained, equal_nan=True)

    zeros = np.zeros(shape)
    zeros[rng.random(shape) < 0.5] = -0.0
    trained, evaluated = pool_both_ways(zeros, kernel)
    assert np.array_equal(evaluated, trained)
    assert np.array_equal(evaluated, np.zeros_like(evaluated))


# -- first-layer skip ------------------------------------------------------------------
def full_backward(model, grad_output):
    """Backward through *every* layer, the first layer's input half included."""

    if isinstance(model, MLPClassifier):
        return model.fc1.backward(model.act.backward(model.fc2.backward(grad_output)))
    grad = model.fc2.backward(grad_output)
    grad = model.fc1.backward(model.act3.backward(grad))
    grad = model.flatten.backward(grad)
    grad = model.conv2.backward(model.act2.backward(model.pool2.backward(grad)))
    return model.conv1.backward(model.act1.backward(model.pool1.backward(grad)))


@pytest.mark.parametrize(
    "make_model, input_shape, classes",
    [
        (lambda rng: GNLeNet(rng), (5, 3, 16, 16), 10),
        (lambda rng: FEMNISTCNN(rng), (5, 1, 16, 16), 10),
        (lambda rng: CelebACNN(rng), (5, 3, 16, 16), 2),
        (lambda rng: MLPClassifier(12, 7, 3, rng), (5, 12), 3),
    ],
    ids=["GNLeNet", "FEMNISTCNN", "CelebACNN", "MLPClassifier"],
)
def test_first_layer_skip_leaves_every_parameter_gradient_unchanged(
    make_model, input_shape, classes
):
    rng = np.random.default_rng(11)
    inputs = rng.normal(size=input_shape)
    targets = rng.integers(0, classes, size=input_shape[0])

    def gradients_through(backward):
        model = make_model(np.random.default_rng(3))
        loss = CrossEntropyLoss()
        loss.forward(model.forward(inputs), targets)
        returned = backward(model, loss.backward())
        return get_flat_gradients(model), returned

    skipped, nothing = gradients_through(lambda model, grad: model.backward(grad))
    full, input_gradient = gradients_through(full_backward)
    assert nothing is None
    assert input_gradient.shape == inputs.shape  # the oracle did compute dL/dinput
    assert np.abs(full).sum() > 0
    assert_same_bits(skipped, full)
