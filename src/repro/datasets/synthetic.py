"""Synthetic data generators.

The paper evaluates on CIFAR-10, MovieLens and the LEAF benchmarks, none of
which can be downloaded in this offline environment.  The generators here
produce class-conditional synthetic data with the same *shape* as those tasks
(multi-channel images, user/item rating pairs, character sequences grouped by
client) so that the decentralized-learning dynamics the paper studies — the
gap between full sharing, random sampling and JWINS under non-IID partitioning
— are exercised end to end.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError

__all__ = [
    "make_class_images",
    "make_client_character_sequences",
    "make_client_images",
    "make_rating_triples",
]


def _smooth_prototype(
    rng: np.random.Generator, channels: int, image_size: int, smoothness: int = 3
) -> np.ndarray:
    """A random low-frequency image prototype for one class."""

    coarse = rng.normal(size=(channels, smoothness, smoothness))
    # Bilinear-ish upsampling by repetition keeps the prototype low frequency,
    # which is what makes the classes separable by a small CNN.
    repeat = int(np.ceil(image_size / smoothness))
    image = np.repeat(np.repeat(coarse, repeat, axis=1), repeat, axis=2)
    return image[:, :image_size, :image_size]


def make_class_images(
    rng: np.random.Generator,
    num_samples: int,
    num_classes: int,
    image_size: int = 16,
    channels: int = 3,
    noise: float = 0.6,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-conditional images: one smooth prototype per class plus noise.

    Returns ``(images, labels)`` with images in NCHW layout.
    """

    if num_samples <= 0 or num_classes <= 1:
        raise DatasetError("need at least one sample and two classes")
    prototypes = np.stack(
        [_smooth_prototype(rng, channels, image_size) for _ in range(num_classes)]
    )
    labels = rng.integers(0, num_classes, size=num_samples)
    images = rng.normal(size=(num_samples, channels, image_size, image_size))
    images *= noise
    images += prototypes[labels]
    return images, labels


def make_client_images(
    rng: np.random.Generator,
    num_clients: int,
    samples_per_client: int,
    num_classes: int,
    image_size: int = 16,
    channels: int = 1,
    noise: float = 0.6,
    classes_per_client: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Client-grouped images (LEAF style): each client favours a few classes.

    Returns ``(images, labels, client_ids)``.  When ``classes_per_client`` is
    given each client only holds samples from that many classes, which is how
    FEMNIST/CelebA become non-IID when clients are spread over nodes.
    """

    if num_clients <= 0 or samples_per_client <= 0:
        raise DatasetError("num_clients and samples_per_client must be positive")
    prototypes = np.stack(
        [_smooth_prototype(rng, channels, image_size) for _ in range(num_classes)]
    )
    # Each output is allocated once at its final size and filled client by client.
    shape = (samples_per_client, channels, image_size, image_size)
    images = np.empty((num_clients * samples_per_client, *shape[1:]))
    labels = np.empty(num_clients * samples_per_client, dtype=np.int64)
    for client in range(num_clients):
        if classes_per_client is None:
            client_classes = np.arange(num_classes)
        else:
            client_classes = rng.choice(
                num_classes, size=min(classes_per_client, num_classes), replace=False
            )
        rows = slice(client * samples_per_client, (client + 1) * samples_per_client)
        labels[rows] = rng.choice(client_classes, size=samples_per_client)
        normal = rng.normal(size=shape)
        normal *= noise
        np.add(prototypes[labels[rows]], normal, out=images[rows])
    clients = np.repeat(np.arange(num_clients, dtype=np.int64), samples_per_client)
    return images, labels, clients


def make_rating_triples(
    rng: np.random.Generator,
    num_users: int,
    num_items: int,
    samples_per_user: int,
    latent_dim: int = 6,
    noise: float = 0.25,
    rating_range: tuple[float, float] = (1.0, 5.0),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MovieLens-like rating triples from a ground-truth latent factor model.

    Returns ``(pairs, ratings, client_ids)`` where ``pairs`` is an integer
    array of ``(user, item)`` columns and ``client_ids`` equals the user id
    (each user's ratings belong to that user, as in MovieLens).
    """

    if num_users <= 0 or num_items <= 0 or samples_per_user <= 0:
        raise DatasetError("MovieLens-like generator dimensions must be positive")
    low, high = rating_range
    user_factors = rng.normal(scale=0.8, size=(num_users, latent_dim))
    item_factors = rng.normal(scale=0.8, size=(num_items, latent_dim))
    user_bias = rng.normal(scale=0.3, size=num_users)
    item_bias = rng.normal(scale=0.3, size=num_items)
    middle = (low + high) / 2.0

    pairs: list[np.ndarray] = []
    ratings: list[np.ndarray] = []
    clients: list[np.ndarray] = []
    for user in range(num_users):
        items = rng.choice(num_items, size=min(samples_per_user, num_items), replace=False)
        scores = (
            middle
            + user_factors[user] @ item_factors[items].T
            + user_bias[user]
            + item_bias[items]
            + noise * rng.normal(size=items.size)
        )
        scores = np.clip(scores, low, high)
        pairs.append(np.stack([np.full(items.size, user), items], axis=1))
        ratings.append(scores)
        clients.append(np.full(items.size, user))
    return (
        np.concatenate(pairs).astype(np.int64),
        np.concatenate(ratings).astype(np.float64),
        np.concatenate(clients).astype(np.int64),
    )


def make_client_character_sequences(
    rng: np.random.Generator,
    num_clients: int,
    samples_per_client: int,
    vocab_size: int = 20,
    sequence_length: int = 12,
    styles: int = 4,
    determinism: float = 6.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shakespeare-like next-character data grouped by client.

    Text is generated from per-style Markov chains (a "style" loosely plays
    the role of a speaker in the Shakespeare corpus); each client writes in a
    single style, which makes the partitioned data non-IID.  Returns
    ``(sequences, next_chars, client_ids)``.
    """

    if vocab_size < 2 or sequence_length < 2:
        raise DatasetError("vocab_size and sequence_length must be at least 2")
    style_transitions = []
    for _ in range(styles):
        logits = rng.normal(size=(vocab_size, vocab_size)) * determinism
        probabilities = np.exp(logits - logits.max(axis=1, keepdims=True))
        style_transitions.append(probabilities / probabilities.sum(axis=1, keepdims=True))

    sequences: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    clients: list[np.ndarray] = []
    for client in range(num_clients):
        transition = style_transitions[client % styles]
        for _ in range(samples_per_client):
            chars = np.zeros(sequence_length + 1, dtype=np.int64)
            chars[0] = rng.integers(0, vocab_size)
            for position in range(1, sequence_length + 1):
                chars[position] = rng.choice(vocab_size, p=transition[chars[position - 1]])
            sequences.append(chars[:-1])
            targets.append(chars[-1])
            clients.append(client)
    return (
        np.stack(sequences).astype(np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(clients, dtype=np.int64),
    )
