"""Tests for the synthetic data generators."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.synthetic import (
    _smooth_prototype,
    make_class_images,
    make_client_character_sequences,
    make_client_images,
    make_rating_triples,
)
from repro.exceptions import DatasetError


def test_class_images_shapes_and_labels():
    rng = np.random.default_rng(0)
    images, labels = make_class_images(rng, 50, 4, image_size=8, channels=3)
    assert images.shape == (50, 3, 8, 8)
    assert labels.shape == (50,)
    assert set(np.unique(labels)).issubset(set(range(4)))


def test_class_images_are_class_separable():
    """Noise-free samples from the same class are identical; different classes differ."""

    rng = np.random.default_rng(1)
    images, labels = make_class_images(rng, 100, 3, image_size=8, channels=1, noise=0.0)
    class0 = images[labels == 0]
    class1 = images[labels == 1]
    assert np.allclose(class0[0], class0[1])
    assert not np.allclose(class0[0], class1[0])


def test_class_images_invalid_arguments():
    rng = np.random.default_rng(2)
    with pytest.raises(DatasetError):
        make_class_images(rng, 0, 3)
    with pytest.raises(DatasetError):
        make_class_images(rng, 10, 1)


def test_client_images_grouping_and_class_restriction():
    rng = np.random.default_rng(3)
    images, labels, clients = make_client_images(
        rng, num_clients=6, samples_per_client=10, num_classes=8, classes_per_client=2,
        image_size=8,
    )
    assert images.shape[0] == labels.shape[0] == clients.shape[0] == 60
    for client in range(6):
        client_labels = labels[clients == client]
        assert len(client_labels) == 10
        assert np.unique(client_labels).size <= 2


# -- the image builders against the forms they replaced ------------------------------
def make_class_images_astype(rng, num_samples, num_classes, image_size=16, channels=3, noise=0.6):
    """``make_class_images`` as it was before it added its noise in place."""

    prototypes = np.stack(
        [_smooth_prototype(rng, channels, image_size) for _ in range(num_classes)]
    )
    labels = rng.integers(0, num_classes, size=num_samples)
    images = prototypes[labels] + noise * rng.normal(
        size=(num_samples, channels, image_size, image_size)
    )
    return images.astype(np.float64), labels.astype(np.int64)


def make_client_images_concatenate(
    rng, num_clients, samples_per_client, num_classes, image_size=16, channels=1, noise=0.6,
    classes_per_client=None,
):
    """``make_client_images`` as it was before it wrote into preallocated arrays."""

    prototypes = np.stack(
        [_smooth_prototype(rng, channels, image_size) for _ in range(num_classes)]
    )
    images, labels, clients = [], [], []
    for client in range(num_clients):
        if classes_per_client is None:
            client_classes = np.arange(num_classes)
        else:
            client_classes = rng.choice(
                num_classes, size=min(classes_per_client, num_classes), replace=False
            )
        client_labels = rng.choice(client_classes, size=samples_per_client)
        images.append(
            prototypes[client_labels]
            + noise * rng.normal(size=(samples_per_client, channels, image_size, image_size))
        )
        labels.append(client_labels)
        clients.append(np.full(samples_per_client, client))
    return (
        np.concatenate(images).astype(np.float64),
        np.concatenate(labels).astype(np.int64),
        np.concatenate(clients).astype(np.int64),
    )


def assert_same_arrays(actual, expected):
    """Equal dtypes, shapes and bytes (so -0.0 and NaN payloads count)."""

    for got, want in zip(actual, expected, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_samples=50, num_classes=4, image_size=8, channels=3),
        dict(num_samples=7, num_classes=10, image_size=16, channels=1, noise=0.0),
        dict(num_samples=300, num_classes=2, image_size=5, channels=2, noise=1.7),
    ],
)
def test_class_images_match_the_astype_form(kwargs):
    rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
    assert_same_arrays(
        make_class_images(rng, **kwargs), make_class_images_astype(oracle_rng, **kwargs)
    )
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(
            num_clients=6, samples_per_client=10, num_classes=8, classes_per_client=2,
            image_size=8,
        ),
        dict(num_clients=64, samples_per_client=24, num_classes=2, channels=3),  # celeba
        dict(num_clients=1, samples_per_client=1, num_classes=3, classes_per_client=5, noise=0.0),
    ],
)
def test_client_images_match_the_concatenate_form(kwargs):
    rng, oracle_rng = np.random.default_rng(10), np.random.default_rng(10)
    assert_same_arrays(
        make_client_images(rng, **kwargs), make_client_images_concatenate(oracle_rng, **kwargs)
    )
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_client_images_allocate_their_output_once():
    """The peak stays near the output: no client list, concatenate or ``astype`` copy."""

    rng = np.random.default_rng(11)
    tracemalloc.start()
    try:
        outputs = make_client_images(
            rng, num_clients=64, samples_per_client=24, num_classes=2, channels=3
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * sum(array.nbytes for array in outputs)


def test_rating_triples_ranges_and_clients():
    rng = np.random.default_rng(4)
    pairs, ratings, clients = make_rating_triples(
        rng, num_users=5, num_items=20, samples_per_user=6
    )
    assert pairs.shape == (30, 2)
    assert np.all((ratings >= 1.0) & (ratings <= 5.0))
    assert np.array_equal(clients, pairs[:, 0])
    assert pairs[:, 1].max() < 20


def test_rating_triples_items_unique_per_user():
    rng = np.random.default_rng(5)
    pairs, _, _ = make_rating_triples(rng, num_users=3, num_items=10, samples_per_user=8)
    for user in range(3):
        items = pairs[pairs[:, 0] == user, 1]
        assert np.unique(items).size == items.size


def test_character_sequences_shapes_and_vocab():
    rng = np.random.default_rng(6)
    sequences, targets, clients = make_client_character_sequences(
        rng, num_clients=4, samples_per_client=5, vocab_size=12, sequence_length=7
    )
    assert sequences.shape == (20, 7)
    assert targets.shape == (20,)
    assert clients.shape == (20,)
    assert sequences.max() < 12 and sequences.min() >= 0
    assert targets.max() < 12


def test_character_sequences_are_predictable():
    """With highly deterministic transitions, the next character correlates with the last."""

    rng = np.random.default_rng(7)
    sequences, targets, _ = make_client_character_sequences(
        rng, num_clients=2, samples_per_client=200, vocab_size=6, sequence_length=5,
        determinism=50.0, styles=1,
    )
    last_chars = sequences[:, -1]
    # For a near-deterministic chain the most likely next character given the
    # last character dominates, so a frequency predictor beats chance by far.
    per_char_predictability = []
    for char in np.unique(last_chars):
        char_targets = targets[last_chars == char]
        counts = np.bincount(char_targets, minlength=6)
        per_char_predictability.append(counts.max() / counts.sum())
    assert np.mean(per_char_predictability) > 0.7
    assert np.mean(per_char_predictability) > 1.0 / 6.0 + 0.2


def test_character_sequences_invalid_arguments():
    rng = np.random.default_rng(8)
    with pytest.raises(DatasetError):
        make_client_character_sequences(rng, 2, 2, vocab_size=1)
