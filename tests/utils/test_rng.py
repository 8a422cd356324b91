"""Tests for deterministic RNG derivation."""

import numpy as np
import pytest

from repro.utils.rng import SeedSequenceFactory, derive_rng


def list_form_rng(seed, *namespace):
    """``derive_rng`` as first written: the entropy handed over as a list of ints."""

    entropy = [int(seed) & 0xFFFFFFFF]
    for part in namespace:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part) & 0xFFFFFFFF)
        else:
            acc = 2166136261
            for byte in str(part).encode("utf-8"):
                acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
            entropy.append(acc)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("seed", [0, -1, 2**31 - 1, 2**40 + 3])
@pytest.mark.parametrize(
    "namespace",
    [
        (),
        ("topology",),
        ("node", 17, "round", 3),
        ("node", 2**32, "batches"),
        ("node", 2**40 + 5, -7),
        (np.int64(12), np.uint32(2**32 - 1), "round", np.int32(-3)),
        ("",),
        ("", 0, ""),
        ("ü-ñ", True),
    ],
)
def test_the_streams_are_the_list_forms(seed, namespace):
    """Same pool, so the same first draws — and twice, past the hash cache."""

    for _ in range(2):
        expected = list_form_rng(seed, *namespace)
        actual = derive_rng(seed, *namespace)
        assert actual.bit_generator.state == expected.bit_generator.state
        draws = [generator.integers(0, 2**63, size=8) for generator in (actual, expected)]
        assert np.array_equal(*draws)
        assert np.array_equal(actual.random(4), expected.random(4))


def test_same_namespace_same_stream():
    a = derive_rng(42, "topology").random(5)
    b = derive_rng(42, "topology").random(5)
    assert np.array_equal(a, b)


def test_different_namespace_different_stream():
    a = derive_rng(42, "topology").random(5)
    b = derive_rng(42, "init").random(5)
    assert not np.array_equal(a, b)


def test_different_seed_different_stream():
    a = derive_rng(1, "x").random(5)
    b = derive_rng(2, "x").random(5)
    assert not np.array_equal(a, b)


def test_integer_namespace_components():
    a = derive_rng(5, "node", 0).random(3)
    b = derive_rng(5, "node", 1).random(3)
    assert not np.array_equal(a, b)


def test_factory_node_rng_independent_per_node():
    factory = SeedSequenceFactory(seed=3)
    a = factory.node_rng(0, "batches").random(4)
    b = factory.node_rng(1, "batches").random(4)
    assert not np.array_equal(a, b)


def test_factory_node_seed_stable():
    factory = SeedSequenceFactory(seed=3)
    assert factory.node_seed(2, "scheme") == factory.node_seed(2, "scheme")
    assert factory.node_seed(2, "scheme") != factory.node_seed(3, "scheme")
