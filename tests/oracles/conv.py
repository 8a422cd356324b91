"""Earlier forms of the window kernels in ``repro.nn.conv``.

``tests/nn/test_kernel_identity.py`` pins the shipped kernels to these bit for
bit: the ``argmax`` max-pool, the strided-slice ``im2col``/``col2im`` loops
over a padded buffer, and the batch-major ``as_strided`` window copy and
fancy-index scatter those loops replaced.
"""

import numpy as np


def im2col_slices(inputs, kernel, stride, padding):
    """``(C*k*k, N*out_h*out_w)`` columns by one strided slice of a padded buffer per offset."""

    batch, channels, height, width = inputs.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    source = inputs.transpose(1, 0, 2, 3)
    if padding:
        padded = np.zeros((channels, batch, height + 2 * padding, width + 2 * padding))
        padded[:, :, padding : padding + height, padding : padding + width] = source
        source = padded
    columns = np.empty((channels, kernel, kernel, batch, out_h, out_w))
    for row in range(kernel):
        rows = slice(row, row + stride * out_h, stride)
        for col in range(kernel):
            columns[:, row, col] = source[:, :, rows, col : col + stride * out_w : stride]
    return columns.reshape(channels * kernel * kernel, -1), out_h, out_w


def col2im_slices(columns, input_shape, kernel, stride, padding, out_h, out_w):
    """Fold channel-major columns onto a padded buffer, one strided slice per offset."""

    batch, channels, height, width = input_shape
    padded = np.zeros((channels, batch, height + 2 * padding, width + 2 * padding))
    cols = columns.reshape(channels, kernel, kernel, batch, out_h, out_w)
    for row in range(kernel):
        rows = slice(row, row + stride * out_h, stride)
        for col in range(kernel):
            padded[:, :, rows, col : col + stride * out_w : stride] += cols[:, row, col]
    return padded[:, :, padding : padding + height, padding : padding + width].transpose(
        1, 0, 2, 3
    )


def im2col_as_strided(inputs, kernel, stride, padding):
    """The batch-major ``(N, out_h*out_w, C*k*k)`` window copy."""

    batch, channels = inputs.shape[:2]
    if padding:
        inputs = np.pad(inputs, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (inputs.shape[2] - kernel) // stride + 1
    out_w = (inputs.shape[3] - kernel) // stride + 1
    strides = inputs.strides
    windows = np.lib.stride_tricks.as_strided(
        inputs,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(*strides[:2], strides[2] * stride, strides[3] * stride, *strides[2:]),
    )
    return np.ascontiguousarray(
        windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h * out_w, -1)
    )


def col2im_fancy_index(columns, input_shape, kernel, stride, padding, out_h, out_w):
    """Fold batch-major ``(N, out_h*out_w, C*k*k)`` columns by fancy-index scatter."""

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


def maxpool_argmax(inputs, kernel):
    """Max-pool ``inputs`` (N, C, H, W): the output, and the window ``argmax`` for ``backward``."""

    batch, channels, height, width = inputs.shape
    windows = (
        inputs.reshape(batch, channels, height // kernel, kernel, width // kernel, kernel)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(batch, channels, height // kernel, width // kernel, kernel * kernel)
    )
    argmax = windows.argmax(axis=-1)
    return np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0], argmax


def maxpool_argmax_backward(grad_output, argmax, input_shape, kernel):
    """Put each upstream gradient on its window's ``argmax``; every other input reads +0.0."""

    batch, channels, height, width = input_shape
    grad_windows = np.zeros((batch, channels, height // kernel, width // kernel, kernel * kernel))
    np.put_along_axis(grad_windows, argmax[..., None], grad_output[..., None], axis=-1)
    grad_input = grad_windows.reshape(
        batch, channels, height // kernel, width // kernel, kernel, kernel
    ).transpose(0, 1, 2, 4, 3, 5)
    return grad_input.reshape(input_shape)
