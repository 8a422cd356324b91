"""Convolution and pooling layers (NCHW tensors, channel-major im2col)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.nn.init import kaiming_uniform, uniform_init
from repro.nn.module import Module, Parameter

__all__ = ["Conv2d", "MaxPool2d"]


def _im2col(
    inputs: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``inputs`` (N, C, H, W) into columns of shape (C*k*k, N*out_h*out_w).

    Row ``(c, i, j)`` holds input channel ``c`` at kernel offset ``(i, j)`` for
    every output position, batch-major, so ``weight.reshape(O, -1) @ columns``
    is the whole convolution.
    """

    batch, channels, height, width = inputs.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ModelError("convolution output would be empty; check kernel/stride/padding")
    source = inputs.transpose(1, 0, 2, 3)  # (C, N, H, W) view
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


def _col2im(
    columns: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Fold (C*k*k, N*out_h*out_w) column gradients onto the input, inverting :func:`_im2col`.

    Returns an (N, C, H, W) view of a channel-major (C, N, H, W) buffer.
    """

    batch, channels, height, width = input_shape
    padded = np.zeros((channels, batch, height + 2 * padding, width + 2 * padding))
    cols = columns.reshape(channels, kernel, kernel, batch, out_h, out_w)
    # One strided basic slice per kernel offset: each target cell receives its
    # additions in (row, col) order, whatever the stride or overlap.
    for row in range(kernel):
        rows = slice(row, row + stride * out_h, stride)
        for col in range(kernel):
            padded[:, :, rows, col : col + stride * out_w : stride] += cols[:, row, col]
    return padded[:, :, padding : padding + height, padding : padding + width].transpose(
        1, 0, 2, 3
    )


class Conv2d(Module):
    """2-D convolution over NCHW inputs.

    Every product is one 2-D GEMM over the channel-major columns of
    :func:`_im2col`; outputs and input gradients are NCHW views of
    channel-major buffers.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ModelError("invalid Conv2d hyperparameters")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in),
            name="conv.weight",
        )
        self.bias = (
            Parameter(uniform_init(rng, (out_channels,), 1.0 / np.sqrt(fan_in)), name="conv.bias")
            if bias
            else None
        )
        self._cache: tuple[np.ndarray, tuple[int, int, int, int], int, int] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.forward_columns(*self.columns(inputs))

    def columns(
        self, inputs: np.ndarray
    ) -> tuple[np.ndarray, tuple[int, int, int, int], int, int]:
        """Check ``inputs`` and unfold them: the arguments of :meth:`forward_columns`.

        The columns depend on the layer's geometry only, never on its
        parameters, so layers of one geometry can share them.
        """

        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ModelError(
                f"Conv2d expected NCHW input with {self.in_channels} channels, got {inputs.shape}"
            )
        columns, out_h, out_w = _im2col(inputs, self.kernel_size, self.stride, self.padding)
        return columns, inputs.shape, out_h, out_w

    def forward_columns(
        self,
        columns: np.ndarray,
        input_shape: tuple[int, int, int, int],
        out_h: int,
        out_w: int,
    ) -> np.ndarray:
        """:meth:`forward` from the :func:`_im2col` columns of an input of ``input_shape``."""

        output = self.weight.value.reshape(self.out_channels, -1) @ columns  # (O, N*out_h*out_w)
        if self.bias is not None:
            output += self.bias.value[:, None]
        self._cache = (columns, input_shape, out_h, out_w) if self.training else None
        return output.reshape(self.out_channels, input_shape[0], out_h, out_w).transpose(
            1, 0, 2, 3
        )

    def backward_parameters(self, grad_output: np.ndarray) -> np.ndarray:
        """The parameter half of :meth:`backward`: accumulate the weight and bias gradients.

        All a model's first layer needs, since nothing consumes the gradient of
        the model's input.  Returns ``grad_output`` as the
        ``(out_channels, N*out_h*out_w)`` matrix the input half starts from.
        """

        if self._cache is None:
            raise ModelError("backward called before forward")
        columns = self._cache[0]
        grad_output = np.asarray(grad_output, dtype=np.float64)
        grad_matrix = grad_output.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        self.weight.grad += (grad_matrix @ columns.T).reshape(self.weight.value.shape)
        if self.bias is not None:
            self.bias.grad += grad_matrix.sum(axis=1)
        return grad_matrix

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_matrix = self.backward_parameters(grad_output)
        _, input_shape, out_h, out_w = self._cache
        grad_columns = self.weight.value.reshape(self.out_channels, -1).T @ grad_matrix
        return _col2im(
            grad_columns, input_shape, self.kernel_size, self.stride, self.padding, out_h, out_w
        )


class MaxPool2d(Module):
    """Max pooling with a square window (window size equals the stride)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ModelError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)
        self._cache: tuple[np.ndarray, tuple[int, ...]] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ModelError("MaxPool2d expects NCHW inputs")
        batch, channels, height, width = inputs.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ModelError(
                f"MaxPool2d window {k} does not evenly divide input size {height}x{width}"
            )
        if not self.training:
            # Inference needs the maximum, not where it was: fold the k*k
            # strided slices (window order, so ties resolve as ``argmax`` does).
            self._cache = None
            output = inputs[:, :, 0::k, 0::k].copy()
            for offset in range(1, k * k):
                np.maximum(output, inputs[:, :, offset // k :: k, offset % k :: k], out=output)
            return output
        reshaped = inputs.reshape(batch, channels, height // k, k, width // k, k)
        windows = reshaped.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // k, width // k, k * k
        )
        argmax = windows.argmax(axis=-1)
        output = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
        self._cache = (argmax, inputs.shape)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        argmax, input_shape = self._cache
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, channels, height, width = input_shape
        k = self.kernel_size
        grad_windows = np.zeros(
            (batch, channels, height // k, width // k, k * k), dtype=np.float64
        )
        np.put_along_axis(grad_windows, argmax[..., None], grad_output[..., None], axis=-1)
        grad_input = grad_windows.reshape(
            batch, channels, height // k, width // k, k, k
        ).transpose(0, 1, 2, 4, 3, 5)
        return grad_input.reshape(input_shape)
