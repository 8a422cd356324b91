"""The conv-stack kernels against the forms they replaced.

Every stored digest rests on these kernels' float64 bits, so each rewrite is
pinned against its old forms, kept as oracles in ``tests/oracles/conv.py``.
Data movement is pinned bit for bit by comparing ``uint64`` views (``==`` on
floats cannot tell -0.0 from 0.0 and fails on NaN):

* flat-shift ``_im2col`` against the strided-slice loop over a padded buffer
  and the batch-major ``as_strided`` window copy, and flat-shift ``_col2im``
  against the strided-slice loop and the fancy-index scatter, for kernels 1-5,
  strides 1-3 and paddings 0-2; ``_im2col`` and ``Conv2d``'s input gradient
  (whose GEMM BLAS may write straight onto the fold's lattice) against the
  slice forms on batch-major and channel-major inputs as well;
* ``ReLU``'s ``abs(fmax(x, 0.0))`` against ``np.where(x > 0, x, 0.0)``;
* training-mode ``MaxPool2d`` (coalesced folds, winners kept as bit masks)
  against the ``argmax`` pool, forward value and ``backward``, on random,
  tie-heavy, all-equal, mixed-sign-zero and NaN windows in both layouts,
  under upstream gradients that hold -0.0, +-inf and NaN;
* eval-mode ``MaxPool2d`` (``np.maximum`` folds) against the training path;
* a root model's ``backward`` (parameter half only on its first layer) against
  a full backward through every layer.

``Conv2d``'s products are one 2-D GEMM each, which sums in another order than
the batched ``matmul``/``einsum`` they replaced; they are pinned to 1e-12
relative against the old formulation instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d, MaxPool2d, _col2im, _im2col
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import CelebACNN, FEMNISTCNN, GNLeNet, MLPClassifier
from repro.nn.module import get_flat_gradients
from tests.oracles.conv import (
    col2im_fancy_index,
    col2im_slices,
    im2col_as_strided,
    im2col_slices,
    maxpool_argmax,
    maxpool_argmax_backward,
)


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(bits(actual), bits(expected))


# -- im2col / col2im -----------------------------------------------------------------
GEOMETRY = [
    pytest.param(kernel, stride, padding, batch)
    for kernel in (1, 2, 3, 5)
    for stride in (1, 2, 3)
    for padding in (0, 1, 2)
    for batch in (1, 3)
]


def output_size(kernel, stride, padding):
    """Output height/width on a (7, 8) input."""

    return (7 + 2 * padding - kernel) // stride + 1, (8 + 2 * padding - kernel) // stride + 1


def to_batch_major(columns, channels, kernel, batch, out_h, out_w):
    """Channel-major (C*k*k, N*P) columns in the old (N, P, C*k*k) layout."""

    return (
        columns.reshape(channels, kernel, kernel, batch, out_h, out_w)
        .transpose(3, 4, 5, 0, 1, 2)
        .reshape(batch, out_h * out_w, channels * kernel * kernel)
    )


def channel_major(array):
    """``array`` (N, C, H, W) as a view of a (C, N, H, W) buffer, as a conv layer outputs it."""

    return np.ascontiguousarray(array.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


LAYOUTS = {"batch-major": np.ascontiguousarray, "channel-major": channel_major}


def signed_normal(rng, shape):
    values = rng.normal(size=shape)
    values[rng.random(shape) < 0.1] = -0.0
    return values


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kernel, stride, padding, batch", GEOMETRY)
def test_im2col_matches_the_as_strided_form(kernel, stride, padding, batch, layout):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    inputs = LAYOUTS[layout](signed_normal(rng, (batch, 2, 7, 8)))
    columns, out_h, out_w = _im2col(inputs, kernel, stride, padding)
    assert (out_h, out_w) == output_size(kernel, stride, padding)
    assert columns.shape == (2 * kernel * kernel, batch * out_h * out_w)
    assert columns.flags.c_contiguous
    assert_same_bits(columns, im2col_slices(inputs, kernel, stride, padding)[0])
    assert_same_bits(
        to_batch_major(columns, 2, kernel, batch, out_h, out_w),
        im2col_as_strided(inputs, kernel, stride, padding),
    )


@pytest.mark.parametrize("kernel, stride, padding, batch", GEOMETRY)
def test_col2im_matches_the_fancy_index_form(kernel, stride, padding, batch):
    """Overlapping (stride < kernel), touching and gapped windows alike."""

    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    input_shape = (batch, 2, 7, 8)
    out_h, out_w = output_size(kernel, stride, padding)
    columns = signed_normal(rng, (2 * kernel * kernel, batch * out_h * out_w))
    folded = _col2im(lambda out: np.copyto(out, columns), input_shape, kernel, stride, padding)
    assert_same_bits(
        folded, col2im_slices(columns, input_shape, kernel, stride, padding, out_h, out_w)
    )
    assert_same_bits(
        folded,
        col2im_fancy_index(
            to_batch_major(columns, 2, kernel, batch, out_h, out_w),
            input_shape, kernel, stride, padding, out_h, out_w,
        ),
    )


# -- Conv2d products -------------------------------------------------------------------
def conv_einsum_form(layer, inputs, grad_output):
    """Output and weight/bias/input gradients as ``Conv2d`` formed them batch-major."""

    kernel, stride, padding = layer.kernel_size, layer.stride, layer.padding
    batch = inputs.shape[0]
    out_h, out_w = grad_output.shape[2:]
    columns = im2col_as_strided(inputs, kernel, stride, padding)
    weight_matrix = layer.weight.value.reshape(layer.out_channels, -1)
    output = columns @ weight_matrix.T + layer.bias.value
    output = output.transpose(0, 2, 1).reshape(batch, layer.out_channels, out_h, out_w)
    grad_matrix = grad_output.reshape(batch, layer.out_channels, -1).transpose(0, 2, 1)
    grad_weight = np.einsum("npo,npk->ok", grad_matrix, columns).reshape(layer.weight.shape)
    grad_bias = grad_matrix.sum(axis=(0, 1))
    grad_input = col2im_fancy_index(
        grad_matrix @ weight_matrix, inputs.shape, kernel, stride, padding, out_h, out_w
    )
    return output, grad_weight, grad_bias, grad_input


@pytest.mark.parametrize("kernel, stride, padding, batch", GEOMETRY)
def test_conv2d_matches_the_einsum_form(kernel, stride, padding, batch):
    """One 2-D GEMM per product moves bits, never more than summation order can."""

    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    layer = Conv2d(2, 3, kernel, rng, stride=stride, padding=padding)
    inputs = rng.normal(size=(batch, 2, 7, 8))
    output = layer.forward(inputs)
    grad_output = rng.normal(size=output.shape)
    grad_input = layer.backward(grad_output)
    expected = conv_einsum_form(layer, inputs, grad_output)
    for actual, oracle in zip((output, layer.weight.grad, layer.bias.grad, grad_input), expected):
        assert actual.shape == oracle.shape
        scale = float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(actual - oracle))) <= 1e-12 * scale


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("kernel, stride, padding, batch", GEOMETRY)
def test_conv2d_input_gradient_is_the_slice_fold_of_its_gemm(
    kernel, stride, padding, batch, layout
):
    """Bit for bit, also where BLAS writes the GEMM straight onto the fold's lattice."""

    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    layer = Conv2d(2, 3, kernel, rng, stride=stride, padding=padding)
    inputs = LAYOUTS[layout](rng.normal(size=(batch, 2, 7, 8)))
    output = layer.forward(inputs)
    grad_output = LAYOUTS[layout](rng.normal(size=output.shape))
    grad_input = layer.backward(grad_output)
    grad_matrix = grad_output.transpose(1, 0, 2, 3).reshape(3, -1)
    columns = layer.weight.value.reshape(3, -1).T @ grad_matrix
    out_h, out_w = output.shape[2:]
    assert_same_bits(
        grad_input, col2im_slices(columns, inputs.shape, kernel, stride, padding, out_h, out_w)
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


# -- training-mode pooling -------------------------------------------------------------
def pool_inputs(rng, shape):
    """Windows where ``argmax``'s choice is easy to get wrong, by name."""

    random = rng.normal(size=shape)
    # Post-ReLU activations: most windows tie on +0.0, many hold only zeros.
    tie_heavy = ReLU().forward(rng.normal(size=shape) - 1.0)
    mixed_zeros = np.zeros(shape)
    mixed_zeros[rng.random(shape) < 0.5] = -0.0
    with_nan = rng.normal(size=shape)
    with_nan[rng.random(shape) < 0.15] = np.nan
    with_nan[rng.random(shape) < 0.1] = -np.nan
    with_nan[rng.random(shape) < 0.1] = 0.0
    return {
        "random": random,
        "tie-heavy": tie_heavy,
        "all-equal": np.full(shape, -2.5),
        "mixed-zeros": mixed_zeros,
        "nan": with_nan,
    }


def special_gradient(rng, shape):
    grad = rng.normal(size=shape)
    for value, share in ((-0.0, 0.2), (np.inf, 0.05), (-np.inf, 0.05), (np.nan, 0.05)):
        grad[rng.random(shape) < share] = value
    return grad


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("values", ["random", "tie-heavy", "all-equal", "mixed-zeros", "nan"])
@pytest.mark.parametrize("kernel", [2, 3])
def test_training_pooling_matches_the_argmax_form(kernel, values, layout):
    """Forward bits and the routed gradient bits, ties and NaNs included.

    The earlier sample wins a tie, so a window of +0.0 and -0.0 returns its
    first zero; the first NaN wins a window; the winner's gradient keeps its
    bits (-0.0, infinities and NaN too) and every other input reads +0.0.
    """

    rng = np.random.default_rng(kernel)
    inputs = LAYOUTS[layout](pool_inputs(rng, (5, 3, 4 * kernel, 3 * kernel))[values])
    layer = MaxPool2d(kernel)
    output = layer.forward(inputs)
    expected, argmax = maxpool_argmax(inputs, kernel)
    assert_same_bits(output, expected)
    assert not np.shares_memory(output, inputs)
    for grad_layout in sorted(LAYOUTS):
        grad = LAYOUTS[grad_layout](special_gradient(rng, output.shape))
        assert_same_bits(
            layer.backward(grad), maxpool_argmax_backward(grad, argmax, inputs.shape, kernel)
        )


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
