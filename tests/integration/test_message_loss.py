"""Integration tests for the lossy-network / churn model.

The paper argues that JWINS, unlike CHOCO, keeps no per-neighbor replicas and
is therefore "flexible to nodes leaving and joining".  The simulator models
this with a per-delivery message drop probability; these tests check that the
round loop keeps running and that full sharing and JWINS still learn when a
fifth of the messages never arrive.
"""

from dataclasses import replace

import pytest

from repro.baselines import choco_factory, full_sharing_factory, random_sampling_factory
from repro.compression.float_codec import FloatCodec, RawFloatCodec
from repro.core import JwinsConfig, jwins_factory
from repro.evaluation.workloads import get_workload
from repro.exceptions import ConfigurationError
from repro.observability.metrics import MetricsRegistry
from repro.scenarios import get_scenario
from repro.simulation import ExperimentConfig, run_experiment
from tests.conftest import make_toy_task


@pytest.fixture(scope="module")
def task():
    return make_toy_task(seed=41, train_samples=200, test_samples=80)


@pytest.fixture(scope="module")
def lossy_config():
    return ExperimentConfig(
        num_nodes=6,
        degree=2,
        rounds=10,
        local_steps=2,
        batch_size=8,
        learning_rate=0.2,
        eval_every=5,
        eval_test_samples=80,
        seed=13,
        partition="shards",
        message_drop_probability=0.2,
    )


def test_invalid_drop_probability_rejected():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(message_drop_probability=1.0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(message_drop_probability=-0.1)


def test_full_sharing_learns_despite_drops(task, lossy_config):
    result = run_experiment(task, full_sharing_factory(), lossy_config)
    assert result.rounds_completed == lossy_config.rounds
    assert result.final_accuracy > 0.5


def test_jwins_learns_despite_drops(task, lossy_config):
    result = run_experiment(task, jwins_factory(JwinsConfig.paper_default()), lossy_config)
    assert result.rounds_completed == lossy_config.rounds
    assert result.final_accuracy > 0.4


def test_choco_round_loop_survives_drops(task, lossy_config):
    """CHOCO's quality may degrade under loss, but the system must not crash."""

    result = run_experiment(task, choco_factory(0.2, 0.6), lossy_config)
    assert result.rounds_completed == lossy_config.rounds


def test_drops_do_not_change_metered_bytes(task, lossy_config):
    """Bytes are metered at the sender, so the uplink cost is loss-independent.

    The payloads themselves differ slightly (the models diverge once messages
    are lost, and the float codec's compressed size depends on the values), so
    the comparison allows a small relative tolerance.
    """

    lossless = replace(lossy_config, message_drop_probability=0.0)
    lossy = run_experiment(task, full_sharing_factory(), lossy_config)
    clean = run_experiment(task, full_sharing_factory(), lossless)
    assert lossy.total_bytes == pytest.approx(clean.total_bytes, rel=0.05)


def test_heavy_loss_degrades_learning(task, lossy_config):
    """With almost every message dropped, mixing slows down or stalls."""

    heavy = replace(lossy_config, message_drop_probability=0.95, rounds=8)
    light = replace(lossy_config, message_drop_probability=0.0, rounds=8)
    degraded = run_experiment(task, full_sharing_factory(), heavy)
    healthy = run_experiment(task, full_sharing_factory(), light)
    assert degraded.final_accuracy <= healthy.final_accuracy + 0.05


#: Everything a float codec is allowed to move in a lock-step result.
_CODEC_RESULT_FIELDS = (
    "total_bytes",
    "total_values_bytes",
    "simulated_time_seconds",
    "per_node_time_seconds",
)
_CODEC_RECORD_FIELDS = ("cumulative_bytes_per_node", "simulated_time_seconds")


def without_codec_fields(result):
    """``result.to_dict()`` minus the six byte/time fields a float codec sets."""

    document = result.to_dict()
    for name in _CODEC_RESULT_FIELDS:
        del document[name]
    for record in document["history"]:
        for name in _CODEC_RECORD_FIELDS:
            del record[name]
    return document


@pytest.fixture(scope="module", params=["toy", "cifar10"])
def codec_cell(request, task, lossy_config):
    """A lossy lock-step (task, config): the toy MLP, and 8 cifar10 CNN nodes."""

    if request.param == "toy":
        return task, lossy_config
    workload = get_workload("cifar10")
    config = workload.make_config(
        num_nodes=8,
        degree=4,
        rounds=3,
        eval_every=1,
        eval_test_samples=64,
        message_drop_probability=0.1,
    )
    return workload.make_task(1), config


@pytest.mark.parametrize(
    "factory",
    [
        jwins_factory(JwinsConfig()),
        full_sharing_factory(),
        random_sampling_factory(0.37),
        choco_factory(0.2, 0.6),
    ],
    ids=["jwins", "full-sharing", "random-sampling", "choco"],
)
def test_float_codec_is_lossless_over_a_whole_run(codec_cell, factory, monkeypatch):
    """The parent-free oracle: compressing the values changes only what they cost.

    The run without the codec swaps raw float32 sizing into ``FloatCodec``.
    Lock-step only.  Under the event loop a message's size sets its transfer
    time and hence the event order, so there a codec moves losses and
    accuracies too, legitimately.
    """

    task, config = codec_cell
    assert config.execution == "sync" and config.message_drop_probability > 0
    with_codec = run_experiment(task, factory, config)
    monkeypatch.setattr(FloatCodec, "compress", RawFloatCodec.compress)
    without = run_experiment(task, factory, config)
    assert with_codec.total_values_bytes < without.total_values_bytes
    assert without_codec_fields(with_codec) == without_codec_fields(without)


@pytest.mark.parametrize("probability", [0.0, 0.3])
@pytest.mark.parametrize("scenario", ["static", "churn-partition"])
@pytest.mark.parametrize("execution", ["sync", "async"])
def test_every_copy_sent_is_delivered_dropped_or_suppressed(
    task, execution, scenario, probability
):
    """Including lock-step copies to an offline neighbor, which no receiver loop sees."""

    config = ExperimentConfig(
        num_nodes=8,
        degree=3,
        rounds=9,
        eval_every=9,
        eval_test_samples=16,
        seed=3,
        execution=execution,
        message_drop_probability=probability,
        scenario=get_scenario(scenario, num_nodes=8, rounds=9),
    )
    registry = MetricsRegistry()
    result = run_experiment(task, full_sharing_factory(), config, observers=(registry,))
    assert result.rounds_completed == config.rounds
    sent = registry.counter("net_messages_sent", scheme="full-sharing").value
    delivered = registry.counter("engine_messages_delivered", scheme="full-sharing").value
    dropped = registry.counter("engine_messages_dropped").value
    suppressed = registry.counter("engine_messages_suppressed").value
    assert sent == delivered + dropped + suppressed
    assert (dropped > 0) == (probability > 0)
    assert (suppressed > 0) == (scenario != "static")
