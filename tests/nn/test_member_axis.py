"""Parameters with a leading member axis: many layers of one shape in one call.

``Linear``, ``MLPClassifier`` and ``CrossEntropyLoss`` take that axis in their
stride — weight ``(members, out, in)``, inputs ``(members, batch, ...)``,
logits ``(members, batch, classes)`` — and the arena's stacked train step
rests on row ``r`` being the member's own 2-D call, bit for bit.  Every
comparison here is through ``uint64`` views, so -0.0 and 0.0 differ.

The member parameters are views into the odd rows of an ``(2m + 1, d)`` arena
split into column ranges, the layout the arena hands the stacked model: rows
that are not contiguous with each other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.nn.layers import Linear
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLPClassifier


def bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_same_bits(actual, expected) -> None:
    assert np.shape(actual) == np.shape(expected)
    assert np.array_equal(bits(actual), bits(expected))


def bind_members(stacked, members, arena, grads):
    """Load each member's parameters into the odd rows of ``arena`` and bind
    ``stacked``'s parameters (and gradients) to per-tensor views of them."""

    rows = slice(1, None, 2)
    start = 0
    for position, parameter in enumerate(stacked.parameters()):
        shape = members[0].parameters()[position].shape
        stop = start + int(np.prod(shape))
        for row, member in enumerate(members):
            arena[2 * row + 1, start:stop] = member.parameters()[position].value.ravel()
        parameter.value = arena[rows, start:stop].reshape(len(members), *shape)
        parameter.grad = grads[rows, start:stop].reshape(len(members), *shape)
        assert np.shares_memory(parameter.value, arena)
        assert not parameter.value.flags.c_contiguous or len(members) == 1
        start = stop
    return stacked


def arena_for(members):
    size = sum(parameter.size for parameter in members[0].parameters())
    return np.zeros((2 * len(members) + 1, size)), np.zeros((2 * len(members) + 1, size))


def flat_grads(model) -> np.ndarray:
    return np.concatenate([parameter.grad.ravel() for parameter in model.parameters()])


@pytest.mark.parametrize("members", [1, 3, 64])
@pytest.mark.parametrize("hidden", [16, 1024])
def test_mlp_step_rows_equal_each_members_own_step(members, hidden):
    rng = np.random.default_rng(members * 7 + hidden)
    models = [MLPClassifier(16, hidden, 4, np.random.default_rng(row)) for row in range(members)]
    inputs = rng.normal(size=(members, 8, 1, 4, 4))
    targets = rng.integers(0, 4, size=(members, 8))

    expected_losses, expected_logits = [], []
    for row, model in enumerate(models):
        loss = CrossEntropyLoss()
        logits = model.forward(inputs[row])
        expected_logits.append(logits)
        expected_losses.append(loss.forward(logits, targets[row]))
        model.backward(loss.backward())

    arena, grads = arena_for(models)
    stacked = bind_members(MLPClassifier(16, hidden, 4, rng), models, arena, grads)
    loss = CrossEntropyLoss()
    logits = stacked.forward(inputs)
    losses = loss.forward(logits, targets)
    stacked.backward(loss.backward())

    assert isinstance(losses, np.ndarray) and losses.shape == (members,)
    for row, model in enumerate(models):
        assert_same_bits(logits[row], expected_logits[row])
        assert_same_bits(losses[row], expected_losses[row])
        assert_same_bits(grads[2 * row + 1], flat_grads(model))
    assert not grads[::2].any()  # the even rows were never members


def test_linear_forward_and_both_backward_halves_per_member():
    rng = np.random.default_rng(3)
    layers = [Linear(5, 3, np.random.default_rng(row)) for row in range(4)]
    inputs = rng.normal(size=(4, 6, 5))
    upstream = rng.normal(size=(4, 6, 3))
    expected = []
    for row, layer in enumerate(layers):
        expected.append((layer.forward(inputs[row]), layer.backward(upstream[row])))

    arena, grads = arena_for(layers)
    stacked = bind_members(Linear(5, 3, rng), layers, arena, grads)
    outputs = stacked.forward(inputs)
    input_grads = stacked.backward(upstream)
    for row, layer in enumerate(layers):
        assert_same_bits(outputs[row], expected[row][0])
        assert_same_bits(input_grads[row], expected[row][1])
        assert_same_bits(grads[2 * row + 1], flat_grads(layer))


def test_cross_entropy_per_member_values_and_gradients():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(3, 7, 5)) * 4.0
    targets = rng.integers(0, 5, size=(3, 7))
    stacked = CrossEntropyLoss()
    losses = stacked.forward(logits, targets)
    gradient = stacked.backward()
    for row in range(3):
        loss = CrossEntropyLoss()
        value = loss.forward(logits[row], targets[row])
        assert isinstance(value, float)
        assert_same_bits(losses[row], value)
        assert_same_bits(gradient[row], loss.backward())
    with pytest.raises(ModelError, match="mismatched batch sizes"):
        CrossEntropyLoss().forward(logits, targets[:, :6])
    with pytest.raises(ModelError, match="expects"):
        CrossEntropyLoss().forward(logits[None], targets[None])


def test_a_dead_unit_gradient_is_the_zeroed_rows_positive_zero():
    """A hidden unit the ReLU shuts for the whole batch, under a negative
    upstream gradient: the gradient reaching its parameters is -0.0 on every
    sample.  The member's own step adds what it makes of that to a zeroed
    row (``0.0 + g``: +0.0 whatever the sign of a zero ``g``); the stacked
    step must land the same bits, sign of zero included."""

    rng = np.random.default_rng(11)
    members = []
    for row in range(3):
        model = MLPClassifier(6, 4, 3, np.random.default_rng(row))
        model.fc1.bias.value[1] = -1e3  # unit 1 never fires
        model.fc2.weight.value[:, 1] = [1.0, 0.0, 0.0]  # its upstream: p_0 - 1 < 0
        members.append(model)
    inputs = rng.normal(size=(3, 5, 6))
    targets = np.zeros((3, 5), dtype=np.int64)

    model = members[0]
    loss = CrossEntropyLoss()
    loss.forward(model.forward(inputs[0]), targets[0])
    hidden_grad = model.act.backward(model.fc2.backward(loss.backward()))
    assert not hidden_grad[:, 1].any() and np.signbit(hidden_grad[:, 1]).all()
    for row, member in enumerate(members):
        for parameter in member.parameters():
            parameter.grad[...] = 0.0
        loss = CrossEntropyLoss()
        loss.forward(member.forward(inputs[row]), targets[row])
        member.backward(loss.backward())
        dead = np.append(member.fc1.weight.grad[1], member.fc1.bias.grad[1])
        assert not dead.any() and not np.signbit(dead).any()

    arena, grads = arena_for(members)
    stacked = bind_members(MLPClassifier(6, 4, 3, rng), members, arena, grads)
    loss = CrossEntropyLoss()
    loss.forward(stacked.forward(inputs), targets)
    stacked.backward(loss.backward())
    for row, member in enumerate(members):
        assert_same_bits(grads[2 * row + 1], flat_grads(member))
    assert not np.signbit(stacked.fc1.bias.grad[:, 1]).any()
