"""Convolution and pooling layers (NCHW tensors, channel-major im2col)."""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.exceptions import ModelError
from repro.nn.init import kaiming_uniform, uniform_init
from repro.nn.module import Module, Parameter

__all__ = ["Conv2d", "MaxPool2d"]


def _strided(base: np.ndarray, offset: int, shape: tuple[int, ...], steps: tuple[int, ...]):
    """A view of the C-contiguous float64 ``base``, its offset and strides counted in elements."""

    return np.ndarray(shape, np.float64, base, offset * 8, tuple(8 * step for step in steps))


def _valid(out: int, size: int, offset: int, stride: int) -> tuple[int, int]:
    """The outputs ``o`` in ``[lo, hi)`` whose read ``o*stride + offset`` lies in ``[0, size)``."""

    lo = min(out, max(0, -(offset // stride)))
    return lo, max(lo, min(out, -((offset - size) // stride)))


class _ShiftGrid:
    """One convolution geometry as flat shifts over channel-major rows.

    A channel's ``N`` images lie one after another on a flat row of
    ``N * grid_h * grid_w`` cells.  Output ``(oy, ox)`` of image ``n`` sits at
    the lattice cell ``(oy*s, ox*s)`` of its grid, and kernel offset ``(i, j)``
    reads the cell ``(i - p)*grid_w + (j - p)`` further along the row, so an
    offset is one shift of the whole row.  A read that stays in the image
    lands on the right cell; one that leaves it lands before or after the
    images or wraps into a neighbouring row or image, and the kernels zero it
    (:meth:`zero_outside`).  The grid is the image unless the lattice needs
    more room, and for a stride-1 same-padding layer the lattice is the whole
    grid, a plain reshape.
    """

    def __init__(
        self, batch: int, height: int, width: int, kernel: int, stride: int, padding: int
    ) -> None:
        self.out_h = (height + 2 * padding - kernel) // stride + 1
        self.out_w = (width + 2 * padding - kernel) // stride + 1
        if self.out_h <= 0 or self.out_w <= 0:
            raise ModelError("convolution output would be empty; check kernel/stride/padding")
        self.batch, self.height, self.width = batch, height, width
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.grid_h = max(height, (self.out_h - 1) * stride + 1)
        self.grid_w = max(width, (self.out_w - 1) * stride + 1)
        self.cells = batch * self.grid_h * self.grid_w
        self.whole = stride == 1 and (self.out_h, self.out_w) == (self.grid_h, self.grid_w)
        # The cells the offsets reach before the first image and after the last.
        self.before = padding * (self.grid_w + 1)
        self.after = max(0, kernel - 1 - padding) * (self.grid_w + 1)
        # Index expressions of the (C, k, k, N, out_h, out_w) columns whose read
        # leaves the image: the offsets near the border, top, bottom, left, right.
        outside = []
        every = slice(None)
        for offset in range(kernel):
            top, bottom = _valid(self.out_h, height, offset - padding, stride)
            left, right = _valid(self.out_w, width, offset - padding, stride)
            if top:
                outside.append((every, offset, every, every, slice(None, top)))
            if bottom < self.out_h:
                outside.append((every, offset, every, every, slice(bottom, None)))
            if left:
                outside.append((every, every, offset, every, every, slice(None, left)))
            if right < self.out_w:
                outside.append((every, every, offset, every, every, slice(right, None)))
        self.outside = tuple(outside)

    def images(self, rows: np.ndarray, start: int) -> np.ndarray:
        """The ``(C, N, H, W)`` image cells of flat rows whose grids begin at ``start``."""

        length = rows.shape[-1]
        shape = (rows.shape[0], self.batch, self.height, self.width)
        return _strided(rows, start, shape, (length, self.grid_h * self.grid_w, self.grid_w, 1))

    def lattice(self, rows: np.ndarray, start: int, steps: tuple[int, ...]) -> np.ndarray:
        """The output lattice of flat rows, after leading axes of ``steps`` elements."""

        k, s = self.kernel, self.stride
        shape = (rows.shape[0], k, k, self.batch, self.out_h, self.out_w)
        cells = (self.grid_h * self.grid_w, s * self.grid_w, s)
        return _strided(rows, start, shape, steps + cells)

    def zero_outside(self, columns: np.ndarray) -> None:
        """Zero the ``(C, k, k, N, out_h, out_w)`` columns whose read leaves the image."""

        for index in self.outside:
            columns[index] = 0.0


@functools.lru_cache(maxsize=64)
def _shift_grid(
    batch: int, height: int, width: int, kernel: int, stride: int, padding: int
) -> _ShiftGrid:
    """The :class:`_ShiftGrid` of a geometry, built once: a train step meets the same few."""

    return _ShiftGrid(batch, height, width, kernel, stride, padding)


def _im2col(
    inputs: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``inputs`` (N, C, H, W) into columns of shape (C*k*k, N*out_h*out_w).

    Row ``(c, i, j)`` holds input channel ``c`` at kernel offset ``(i, j)`` for
    every output position, batch-major, so ``weight.reshape(O, -1) @ columns``
    is the whole convolution.  Row ``(c, i, j)`` is channel ``c``'s flat row
    shifted by offset ``(i, j)`` (see :class:`_ShiftGrid`): all rows are one
    copy of one strided view, then the reads that left the image are zeroed.
    """

    batch, channels, height, width = inputs.shape
    grid = _shift_grid(batch, height, width, kernel, stride, padding)
    length = grid.before + grid.cells + grid.after
    rows = np.zeros((channels, length))
    grid.images(rows, grid.before)[...] = inputs.transpose(1, 0, 2, 3)
    columns = np.ascontiguousarray(grid.lattice(rows, 0, (length, grid.grid_w, 1)))
    grid.zero_outside(columns)
    return columns.reshape(channels * kernel * kernel, -1), grid.out_h, grid.out_w


def _col2im(
    write_columns: Callable[[np.ndarray], object],
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold column gradients onto the input, inverting :func:`_im2col`.

    ``write_columns(out)`` writes the (C*k*k, N*out_h*out_w) column gradients
    into ``out``: straight onto the output lattice of the buffer the fold reads
    when the lattice is the whole grid (``Conv2d`` passes its GEMM, which BLAS
    then writes in place), else into a temporary laid on the lattice by one
    strided copy.  The entries whose target leaves the image are zeroed, and
    each offset's rows are shifted back onto the cells they were read from;
    ``np.add.reduce`` over the offsets, from +0.0, gives each input cell its
    additions in ``(row, col)`` order.  A zeroed entry adds +0.0 to whatever
    cell its shift wraps onto, which is exact: a cell that starts at +0.0
    never holds -0.0.  Returns an (N, C, H, W) view of a channel-major
    (C, N, H, W) buffer.
    """

    batch, channels, height, width = input_shape
    grid = _shift_grid(batch, height, width, kernel, stride, padding)
    column_rows = channels * kernel * kernel
    # Mirrored margins: a shift back reaches as far as the shift it undoes.
    before, length = grid.after, grid.after + grid.cells + grid.before
    spread = np.zeros((channels, kernel, kernel, length))
    lattice = grid.lattice(spread, before, (kernel * kernel * length, kernel * length, length))
    if grid.whole:
        write_columns(_strided(spread, before, (column_rows, grid.cells), (length, 1)))
    else:
        columns = np.empty((column_rows, batch * grid.out_h * grid.out_w))
        write_columns(columns)
        lattice[...] = columns.reshape(lattice.shape)
    grid.zero_outside(lattice)
    shifted = _strided(
        spread,
        before + grid.before,
        (channels, kernel, kernel, grid.cells),
        (kernel * kernel * length, kernel * length - grid.grid_w, length - 1, 1),
    )
    # numpy walks the reduced axes outermost first, i before j (the larger
    # stride), adding one whole row at a time: tests/nn/test_kernel_identity.py
    # pins the order against a loop of k*k adds.
    total = np.add.reduce(shifted, axis=(1, 2), initial=0.0)
    return grid.images(total, 0).transpose(1, 0, 2, 3)


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
        weight_t = self.weight.value.reshape(self.out_channels, -1).T
        return _col2im(
            functools.partial(np.matmul, weight_t, grad_matrix),
            self._cache[1],
            self.kernel_size,
            self.stride,
            self.padding,
        )


def _fold(lanes: list[np.ndarray], keeps: list[np.ndarray] | None) -> np.ndarray:
    """The maximum over ``lanes``, folded in order.

    With ``keeps`` it is ``argmax``'s pick: the running winner stays on a tie
    or when it is NaN, and a NaN lane takes over from a number, so the earlier
    sample wins a tie and the first NaN wins a window.  The winner's bits are
    chosen by a bitwise select, and each step appends where the running winner
    stayed, a boolean map, to ``keeps``.  Without ``keeps`` it is the
    ``np.maximum`` value.
    """

    winner = lanes[0]
    for lane in lanes[1:]:
        if keeps is None:
            winner = np.maximum(winner, lane)
            continue
        stays = winner >= lane
        stays |= np.isnan(winner)
        keeps.append(stays)
        lane_bits = lane.view(np.uint64)
        bits = np.bitwise_xor(winner.view(np.uint64), lane_bits)
        bits &= np.negative(stays, dtype=np.uint64)  # all ones where the winner stays
        bits ^= lane_bits
        winner = bits.view(np.float64)
    return winner.copy() if len(lanes) == 1 else winner


def _route(grad: np.ndarray, keeps: list[np.ndarray], lanes: list[np.ndarray]) -> None:
    """Undo a :func:`_fold`: the bits of ``grad`` go to the lane that won, +0.0 to the others.

    ``grad`` and ``lanes`` are ``uint64`` views.  From the last step back, a
    step's gradient splits into ``grad * stays`` (an integer product by 0 or
    1, which keeps or clears every bit) for the lanes before it and the
    remainder, ``grad ^ (grad * stays)``, for its own lane.
    """

    for step in range(len(lanes) - 1, 0, -1):
        np.multiply(grad, keeps[step - 1], out=lanes[step - 1])
        np.bitwise_xor(grad, lanes[step - 1], out=lanes[step])
        grad = lanes[step - 1]
    if grad is not lanes[0]:
        lanes[0][...] = grad


class MaxPool2d(Module):
    """Max pooling with a square window (window size equals the stride).

    It works on the C-contiguous block under its NCHW input: the channel-major
    ``(C, N, H, W)`` buffer that a ``Conv2d``/``ReLU`` output is a view of, or a
    batch-major array (any other layout is copied to batch-major first), and
    returns its output in the same layout.  A window is folded in ``argmax``
    order by :func:`_fold`: first the ``k`` columns of every window row, ``k``
    coalesced views of the block one cell apart, then the ``k`` row winners.
    Training keeps each step's winners as a boolean map for ``backward``.
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ModelError("kernel_size must be positive")
        self.kernel_size = int(kernel_size)
        self._cache: tuple[list[np.ndarray], tuple[int, ...], bool] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ModelError("MaxPool2d expects NCHW inputs")
        height, width = inputs.shape[2:]
        k = self.kernel_size
        if height % k or width % k:
            raise ModelError(
                f"MaxPool2d window {k} does not evenly divide input size {height}x{width}"
            )
        swapped = inputs.transpose(1, 0, 2, 3)
        channel_major = swapped.flags.c_contiguous and not inputs.flags.c_contiguous
        block = swapped if channel_major else np.ascontiguousarray(inputs)
        lead = block.shape[:2]
        keeps = [] if self.training else None
        columns = block.reshape(*lead, height, width // k, k)
        rows = _fold([columns[..., j] for j in range(k)], keeps)
        rows = rows.reshape(*lead, height // k, k, width // k)
        output = _fold([rows[..., i, :] for i in range(k)], keeps)
        self._cache = (keeps, block.shape, channel_major) if self.training else None
        return output.transpose(1, 0, 2, 3) if channel_major else output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ModelError("backward called before forward")
        keeps, shape, channel_major = self._cache
        grad = np.asarray(grad_output, dtype=np.float64)
        if channel_major:
            grad = grad.transpose(1, 0, 2, 3)
        *lead, height, width = shape
        k = self.kernel_size
        grad_rows = np.empty((*lead, height // k, k, width // k), dtype=np.uint64)
        _route(grad.view(np.uint64), keeps[k - 1 :], [grad_rows[..., i, :] for i in range(k)])
        grad_input = np.empty((*lead, height, width // k, k), dtype=np.uint64)
        grad_rows = grad_rows.reshape(*lead, height, width // k)
        _route(grad_rows, keeps[: k - 1], [grad_input[..., j] for j in range(k)])
        grad_input = grad_input.view(np.float64).reshape(shape)
        return grad_input.transpose(1, 0, 2, 3) if channel_major else grad_input
