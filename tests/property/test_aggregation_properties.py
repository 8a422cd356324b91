"""Property-based tests for sparse aggregation and sparsification invariants."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import aggregation
from repro.core.aggregation import SparseContribution, partial_weighted_average
from repro.exceptions import SimulationError
from repro.sparsification.topk import topk_indices


def per_row_average(own, self_weight, contributions):
    """The one-vector average as it was written before the rows form: check and
    add contribution by contribution, then the row's total weight."""

    own = np.asarray(own, dtype=np.float64)
    result = own.copy()
    total_weight = float(self_weight)
    for contribution in contributions:
        indices = contribution.indices
        if indices is None:
            if contribution.values.shape != own.shape:
                raise SimulationError("a dense contribution must match the own vector's shape")
            indices = slice(None)
        elif indices.size and (indices.min() < 0 or indices.max() >= own.size):
            raise SimulationError("contribution indices out of range")
        result[indices] += contribution.weight * (contribution.values - own[indices])
        total_weight += contribution.weight
    if total_weight > 1.0 + 1e-6:
        raise SimulationError(
            f"mixing weights must not exceed 1 for a stable average, got {total_weight}"
        )
    return result


def inbox(contributions, unreadable_at):
    """An inbox read lazily, like ``inbox_contributions``: it may fail part-way."""

    for position, contribution in enumerate(contributions):
        if position == unreadable_at:
            raise SimulationError("received an unreadable message")
        yield contribution


def outcome(call):
    try:
        return call().tobytes()
    except SimulationError as error:
        return f"raised: {error}"


FINITE = st.floats(-1e6, 1e6, allow_nan=False) | st.just(-0.0)


@st.composite
def rows_cases(draw):
    """An own matrix and per-row inboxes: unequal lengths, empty inboxes, dense
    and sparse contributions overlapping across slots, and now and then an
    out-of-range index, a short dense vector, too much weight or an unreadable
    message."""

    rows = draw(st.integers(1, 6))
    size = draw(st.integers(1, 24))
    own = np.array(draw(st.lists(FINITE, min_size=rows * size, max_size=rows * size)))
    rare = st.integers(0, 24).map(lambda value: value == 0)
    self_weights, inboxes = [], []
    for _ in range(rows):
        self_weights.append(draw(st.floats(0.0, 0.6)))
        contributions = []
        for _ in range(draw(st.integers(0, 4))):
            weight = draw(st.floats(0.0, 0.3))
            if draw(st.integers(0, 4)) == 0:
                length = size - 1 if draw(rare) else size
                values = np.array(draw(st.lists(FINITE, min_size=length, max_size=length)))
                contributions.append(SparseContribution(weight, None, values))
                continue
            indices = draw(st.lists(st.integers(0, size - 1), max_size=size, unique=True))
            if draw(rare):
                indices.append(draw(st.sampled_from([-1, size])))
            values = np.array(draw(st.lists(FINITE, min_size=len(indices), max_size=len(indices))))
            indices = np.array(indices, dtype=np.int64)
            contributions.append(SparseContribution(weight, indices, values))
        unreadable_at = draw(st.integers(0, len(contributions))) if draw(rare) else None
        inboxes.append((contributions, unreadable_at))
    return own.reshape(rows, size), self_weights, inboxes


@settings(max_examples=300, deadline=None)
@given(case=rows_cases())
def test_rows_form_is_the_per_row_loop_byte_for_byte(case):
    """Same bytes, or the same error: the one the per-row loop meets first —
    whether a slot goes in as one flat update or message by message."""

    own, self_weights, inboxes = case

    def rows_form():
        return partial_weighted_average(
            own, self_weights, [inbox(*contributions) for contributions in inboxes]
        )

    def loop():
        return np.stack(
            [
                per_row_average(row, weight, inbox(*contributions))
                for row, weight, contributions in zip(own, self_weights, inboxes)
            ]
        )

    expected = outcome(loop)
    for flat_up_to in (0, aggregation._FLAT_SLOT_MEAN_VALUES, 1 << 62):
        with mock.patch.object(aggregation, "_FLAT_SLOT_MEAN_VALUES", flat_up_to):
            assert outcome(rows_form) == expected
    for row, weight, contributions in zip(own, self_weights, inboxes):
        # The one-row call is the n = 1 case of the same code.
        assert outcome(lambda: partial_weighted_average(row, weight, inbox(*contributions))) == (
            outcome(lambda: per_row_average(row, weight, inbox(*contributions)))
        )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=2, max_value=200),
    neighbors=st.integers(min_value=0, max_value=5),
)
def test_partial_average_stays_in_convex_hull(seed, size, neighbors):
    rng = np.random.default_rng(seed)
    own = rng.normal(size=size)
    weight = 1.0 / (neighbors + 1)
    vectors = [rng.normal(size=size) for _ in range(neighbors)]
    contributions = []
    for vector in vectors:
        count = rng.integers(1, size + 1)
        indices = np.sort(rng.choice(size, size=count, replace=False))
        contributions.append(SparseContribution(weight, indices, vector[indices]))
    result = partial_weighted_average(own, weight, contributions)
    stacked = np.stack([own] + vectors) if vectors else own[None]
    assert np.all(result <= stacked.max(axis=0) + 1e-9)
    assert np.all(result >= stacked.min(axis=0) - 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=2, max_value=200),
    neighbors=st.integers(min_value=1, max_value=5),
)
def test_identical_models_are_a_fixed_point(seed, size, neighbors):
    """If every node already holds the same vector, sparse averaging keeps it."""

    rng = np.random.default_rng(seed)
    shared = rng.normal(size=size)
    weight = 1.0 / (neighbors + 1)
    contributions = []
    for _ in range(neighbors):
        count = rng.integers(1, size + 1)
        indices = np.sort(rng.choice(size, size=count, replace=False))
        contributions.append(SparseContribution(weight, indices, shared[indices]))
    result = partial_weighted_average(shared, weight, contributions)
    assert np.allclose(result, shared, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=1, max_value=500),
    count=st.integers(min_value=1, max_value=500),
)
def test_topk_invariants(seed, size, count):
    scores = np.random.default_rng(seed).normal(size=size)
    indices = topk_indices(scores, count)
    assert indices.size == min(count, size)
    assert np.unique(indices).size == indices.size
    assert np.all(np.diff(indices) > 0) or indices.size <= 1
    if indices.size < size:
        selected = np.abs(scores[indices])
        rejected = np.abs(np.delete(scores, indices))
        assert selected.min() >= rejected.max() - 1e-12
