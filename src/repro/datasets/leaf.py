"""LEAF-style client-image tasks: FEMNIST-like and CelebA-like.

Samples are grouped by the client who produced them (a writer, a
celebrity), and both tasks are built the same way: per-client images from
:func:`~repro.datasets.synthetic.make_client_images`, a seeded train/test
split and a LEAF-style CNN.  They differ in five values: the task name (also
the name of its RNG streams), channels, classes per client, model class and
class count.
"""

from __future__ import annotations

from repro.datasets.base import Dataset, LearningTask, classification_accuracy
from repro.datasets.synthetic import make_client_images
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import CelebACNN, ConvClassifier, FEMNISTCNN
from repro.utils.rng import derive_rng

__all__ = ["make_celeba_task", "make_femnist_task"]


def _client_image_task(
    seed: int,
    num_clients: int,
    samples_per_client: int,
    test_fraction: float,
    image_size: int,
    *,
    name: str,
    channels: int,
    classes_per_client: int | None,
    model: type[ConvClassifier],
    num_classes: int,
) -> LearningTask:
    """One client-image :class:`~repro.datasets.base.LearningTask`."""

    images, labels, clients = make_client_images(
        derive_rng(seed, name),
        num_clients=num_clients,
        samples_per_client=samples_per_client,
        num_classes=num_classes,
        image_size=image_size,
        channels=channels,
        classes_per_client=classes_per_client,
    )
    split = derive_rng(seed, name, "split")
    test_mask = split.random(images.shape[0]) < test_fraction
    train = Dataset(images[~test_mask], labels[~test_mask], clients[~test_mask])
    test = Dataset(images[test_mask], labels[test_mask], clients[test_mask])
    return LearningTask(
        name=name,
        train=train,
        test=test,
        model_factory=lambda model_rng: model(
            model_rng, image_size=image_size, num_classes=num_classes
        ),
        loss_factory=CrossEntropyLoss,
        accuracy_fn=classification_accuracy,
    )


def make_femnist_task(
    seed: int,
    num_clients: int = 64,
    samples_per_client: int = 30,
    test_fraction: float = 0.2,
    image_size: int = 16,
    classes_per_client: int = 6,
) -> LearningTask:
    """The FEMNIST-like handwritten-character task (10 classes, grayscale).

    A client favours a subset of classes, which reproduces the moderate
    non-IIDness the paper observes for FEMNIST (nodes likely carry samples of
    each class, although disproportionately).
    """

    return _client_image_task(
        seed, num_clients, samples_per_client, test_fraction, image_size,
        name="femnist", channels=1, classes_per_client=classes_per_client,
        model=FEMNISTCNN, num_classes=10,
    )


def make_celeba_task(
    seed: int,
    num_clients: int = 64,
    samples_per_client: int = 24,
    test_fraction: float = 0.2,
    image_size: int = 16,
) -> LearningTask:
    """The CelebA-like binary attribute task (2 classes, RGB).

    Each client is a celebrity; the task is a two-class attribute prediction
    (e.g. smiling / not smiling), which is why the paper's CelebA accuracies
    are high even under non-IID partitioning.
    """

    return _client_image_task(
        seed, num_clients, samples_per_client, test_fraction, image_size,
        name="celeba", channels=3, classes_per_client=None,
        model=CelebACNN, num_classes=2,
    )
