"""Dataset substrate: synthetic stand-ins for the paper's five workloads."""

from repro.datasets.base import (
    Dataset,
    LearningTask,
    classification_accuracy,
    iterate_minibatches,
    rating_accuracy,
)
from repro.datasets.cifar10 import make_cifar10_task
from repro.datasets.leaf import make_celeba_task, make_femnist_task
from repro.datasets.movielens import make_movielens_task
from repro.datasets.partition import (
    client_partition,
    iid_partition,
    partition_dataset,
    shard_partition,
)
from repro.datasets.shakespeare import make_shakespeare_task
from repro.datasets.synthetic import (
    make_class_images,
    make_client_character_sequences,
    make_client_images,
    make_rating_triples,
)

TASK_FACTORIES = {
    "cifar10": make_cifar10_task,
    "femnist": make_femnist_task,
    "celeba": make_celeba_task,
    "shakespeare": make_shakespeare_task,
    "movielens": make_movielens_task,
}
"""Mapping from workload name to its task factory (the five paper datasets)."""

__all__ = [
    "Dataset",
    "LearningTask",
    "classification_accuracy",
    "iterate_minibatches",
    "rating_accuracy",
    "make_celeba_task",
    "make_cifar10_task",
    "make_femnist_task",
    "make_movielens_task",
    "make_shakespeare_task",
    "client_partition",
    "iid_partition",
    "partition_dataset",
    "shard_partition",
    "make_class_images",
    "make_client_character_sequences",
    "make_client_images",
    "make_rating_triples",
    "TASK_FACTORIES",
]
