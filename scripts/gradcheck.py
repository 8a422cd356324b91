"""Numerical gradient check for every model in the zoo.

Run by the ``gradcheck`` stage of ``scripts/ci.sh`` (or by hand with
``PYTHONPATH=src python scripts/gradcheck.py``); the same checks are part of the
test suite (tests/nn/test_gradients.py) at a smaller scale.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    CharLSTM,
    ConvClassifier,
    CrossEntropyLoss,
    MatrixFactorization,
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


def main() -> None:
    rng = np.random.default_rng(0)
    ok = True

    mlp = MLPClassifier(12, 8, 3, rng)
    ok &= check("MLPClassifier", mlp, CrossEntropyLoss(), rng.normal(size=(4, 12)),
                rng.integers(0, 3, size=4))

    cnn = ConvClassifier(2, 8, 3, rng, channels=(2, 3), hidden=6)
    ok &= check("ConvClassifier", cnn, CrossEntropyLoss(), rng.normal(size=(2, 2, 8, 8)),
                rng.integers(0, 3, size=2))

    lstm = CharLSTM(6, rng, embedding_dim=3, hidden_size=4, num_layers=2)
    ok &= check("CharLSTM", lstm, CrossEntropyLoss(), rng.integers(0, 6, size=(3, 5)),
                rng.integers(0, 6, size=3))

    mf = MatrixFactorization(5, 7, rng, embedding_dim=3)
    pairs = np.stack([rng.integers(0, 5, size=6), rng.integers(0, 7, size=6)], axis=1)
    ok &= check("MatrixFactorization", mf, MSELoss(), pairs, rng.normal(size=6))

    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
