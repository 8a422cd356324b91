"""Numerical gradient check for every model in the zoo.

Run by the ``gradcheck`` stage of ``scripts/ci.sh`` (or by hand with
``PYTHONPATH=src python scripts/gradcheck.py``); the same checks are part of the
test suite (tests/nn/test_gradients.py) at a smaller scale.

The model checks difference *parameters*, including an ``MLPClassifier`` whose
parameters carry a member axis (three MLPs in one call, as the arena's stacked
train step runs them) against the sum of its members' losses.  The layer checks
at the end difference a bare ``Conv2d``'s weight and bias and the *input* of
``Conv2d`` and ``MaxPool2d`` over kernel sizes, strides and paddings, which is
the only finite-difference cover of ``_im2col``/``_col2im`` beyond the one
geometry (kernel 3, stride 1, padding 1) a ``ConvClassifier`` uses.  The
``MaxPool2d`` checks and two of the ``Conv2d`` input checks run on both
batch-major arrays and channel-major views (an NCHW view of a ``(C, N, H, W)``
buffer), the layout a conv stack passes from layer to layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    CharLSTM,
    Conv2d,
    ConvClassifier,
    CrossEntropyLoss,
    MatrixFactorization,
    MaxPool2d,
    MLPClassifier,
    MSELoss,
    get_flat_gradients,
    get_flat_parameters,
    set_flat_parameters,
)


def numerical_gradient(model, loss, inputs, targets, epsilon=1e-6):
    base = get_flat_parameters(model)
    grad = np.zeros_like(base)
    for index in range(base.size):
        perturbed = base.copy()
        perturbed[index] += epsilon
        set_flat_parameters(model, perturbed)
        loss_plus = loss.forward(model.forward(inputs), targets)
        perturbed[index] -= 2 * epsilon
        set_flat_parameters(model, perturbed)
        loss_minus = loss.forward(model.forward(inputs), targets)
        grad[index] = (loss_plus - loss_minus) / (2 * epsilon)
    set_flat_parameters(model, base)
    return grad


def analytic_gradient(model, loss, inputs, targets):
    model.zero_grad()
    value = loss.forward(model.forward(inputs), targets)
    model.backward(loss.backward())
    return value, get_flat_gradients(model)


def check(name, model, loss, inputs, targets, tolerance=1e-5):
    _, analytic = analytic_gradient(model, loss, inputs, targets)
    numeric = numerical_gradient(model, loss, inputs, targets)
    error = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
    status = "OK " if error < tolerance else "FAIL"
    print(f"{status} {name}: relative error {error:.2e} over {analytic.size} parameters")
    return error < tolerance


class MemberSum:
    """The sum of a member-axis loss's per-member values.

    Member ``r``'s parameters enter member ``r``'s loss alone, so the gradient
    of the sum in them is that member's own gradient — what ``backward``
    returns for the stack.
    """

    def __init__(self, loss):
        self.loss = loss

    def forward(self, outputs, targets):
        return float(np.sum(self.loss.forward(outputs, targets)))

    def backward(self):
        return self.loss.backward()


def member_axis(model, members, rng):
    """``model`` rebound to ``members`` random parameter sets, one per leading row."""

    for parameter in model.parameters():
        parameter.value = rng.normal(scale=0.5, size=(members, *parameter.shape))
        parameter.grad = np.zeros_like(parameter.value)
    return model


class WeightedSum:
    """``sum(outputs * upstream)`` as a loss: its gradient in the outputs is ``upstream``."""

    def forward(self, outputs, upstream):
        self.upstream = upstream
        return float(np.sum(outputs * upstream))

    def backward(self):
        return self.upstream


def channel_major(array):
    """``array`` (N, C, H, W) as a view of a ``(C, N, H, W)`` buffer."""

    return np.ascontiguousarray(array.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)


LAYOUTS = {"batch-major": np.ascontiguousarray, "channel-major": channel_major}


def check_input_gradient(
    name, layer, inputs, upstream, layout=np.ascontiguousarray, tolerance=1e-6, epsilon=1e-6
):
    """``layer.backward`` against central differences of ``sum(forward(x) * upstream)`` in x.

    ``layout`` lays out every input (and the upstream gradient) the layer sees.
    """

    layer.forward(layout(inputs))
    analytic = layer.backward(layout(upstream))
    numeric = np.zeros_like(inputs)
    for index in np.ndindex(*inputs.shape):
        perturbed = inputs.copy()
        perturbed[index] += epsilon
        plus = float(np.sum(layer.forward(layout(perturbed)) * upstream))
        perturbed[index] -= 2 * epsilon
        minus = float(np.sum(layer.forward(layout(perturbed)) * upstream))
        numeric[index] = (plus - minus) / (2 * epsilon)
    error = np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric)))
    status = "OK " if error < tolerance else "FAIL"
    print(f"{status} {name}: relative error {error:.2e} over {inputs.size} inputs")
    return error < tolerance


def main() -> None:
    rng = np.random.default_rng(0)
    ok = True

    mlp = MLPClassifier(12, 8, 3, rng)
    ok &= check("MLPClassifier", mlp, CrossEntropyLoss(), rng.normal(size=(4, 12)),
                rng.integers(0, 3, size=4))

    stacked = member_axis(MLPClassifier(12, 8, 3, rng), 3, rng)
    ok &= check("MLPClassifier, member axis of 3", stacked, MemberSum(CrossEntropyLoss()),
                rng.normal(size=(3, 4, 12)), rng.integers(0, 3, size=(3, 4)))

    cnn = ConvClassifier(2, 8, 3, rng, channels=(2, 3), hidden=6)
    ok &= check("ConvClassifier", cnn, CrossEntropyLoss(), rng.normal(size=(2, 2, 8, 8)),
                rng.integers(0, 3, size=2))

    lstm = CharLSTM(6, rng, embedding_dim=3, hidden_size=4, num_layers=2)
    ok &= check("CharLSTM", lstm, CrossEntropyLoss(), rng.integers(0, 6, size=(3, 5)),
                rng.integers(0, 6, size=3))

    mf = MatrixFactorization(5, 7, rng, embedding_dim=3)
    pairs = np.stack([rng.integers(0, 5, size=6), rng.integers(0, 7, size=6)], axis=1)
    ok &= check("MatrixFactorization", mf, MSELoss(), pairs, rng.normal(size=6))

    for kernel in (2, 3, 5):
        for stride in (1, 2):
            for padding in (0, 2):
                conv = Conv2d(2, 3, kernel, rng, stride=stride, padding=padding)
                inputs = rng.normal(size=(2, 2, 7, 6))
                upstream = rng.normal(size=conv.forward(inputs).shape)
                name = f"Conv2d(kernel={kernel}, stride={stride}, padding={padding})"
                ok &= check(f"{name} weight+bias", conv, WeightedSum(), inputs, upstream)
                ok &= check_input_gradient(f"{name} input", conv, inputs, upstream)
    for kernel, stride, padding in ((3, 1, 1), (2, 2, 0)):
        conv = Conv2d(2, 3, kernel, rng, stride=stride, padding=padding)
        inputs = rng.normal(size=(2, 2, 6, 6))
        upstream = rng.normal(size=conv.forward(inputs).shape)
        name = f"Conv2d(kernel={kernel}, stride={stride}, padding={padding}) input, channel-major"
        ok &= check_input_gradient(name, conv, inputs, upstream, channel_major)
    for kernel in (2, 3):
        # Continuous random inputs: no window ties, so the maximum is differentiable.
        inputs = rng.normal(size=(2, 3, 2 * kernel, 3 * kernel))
        upstream = rng.normal(size=(2, 3, 2, 3))
        for layout_name, layout in LAYOUTS.items():
            name = f"MaxPool2d({kernel}) input, {layout_name}"
            ok &= check_input_gradient(name, MaxPool2d(kernel), inputs, upstream, layout)

    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
