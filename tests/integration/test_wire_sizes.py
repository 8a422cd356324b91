"""Parent-free oracle: every delivered message is metered at its encodings' real size.

The codecs size a record when they make it and pack its bytes only when
someone reads them, and the schemes read only the size.  So for every message
a short lossy, churning run delivers, the encodings are rebuilt from the
message's own payload with the sender's codecs, their bytes are forced, and
the metered ``values_bytes``/``metadata_bytes`` must be exactly those bytes
plus the record headers.  The rebuilt bytes must also decode to the payload.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import (
    ChocoScheme,
    choco_factory,
    full_sharing_factory,
    random_sampling_factory,
    topk_sharing_factory,
)
from repro.baselines.random_sampling import SEED_METADATA_BYTES
from repro.core import JwinsConfig, JwinsScheme, jwins_factory
from repro.observability.metrics import MetricsRegistry
from repro.scenarios import get_scenario
from repro.simulation import ExperimentConfig, Simulator
from tests.conftest import make_toy_task

#: Fixed headers of a float record (element count) and an index record.
FLOAT_HEADER_BYTES = 4
INDEX_HEADER_BYTES = 12

SCHEMES = {
    "jwins": jwins_factory(JwinsConfig()),
    "choco": choco_factory(0.2, 0.6),
    "topk": topk_sharing_factory(0.37),
    "full-sharing": full_sharing_factory(),
    "random-sampling": random_sampling_factory(0.37),
}

CONFIG = ExperimentConfig(
    num_nodes=6,
    degree=2,
    rounds=6,
    local_steps=1,
    batch_size=8,
    learning_rate=0.1,
    eval_every=3,
    eval_test_samples=32,
    seed=5,
    partition="shards",
    message_drop_probability=0.2,
    scenario=get_scenario("churn-partition", num_nodes=6, rounds=6),
)


def _codecs(scheme, payload):
    """The sender's ``(float codec, index codec or None, index universe)``."""

    if isinstance(scheme, JwinsScheme):
        return scheme._float_codec, scheme._index_codec, payload["coefficient_size"]
    if isinstance(scheme, ChocoScheme):
        return scheme._codec, scheme._index_codec, scheme.model_size
    return scheme._codec, None, None


@pytest.mark.parametrize("execution", ["sync", "async"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_delivered_message_costs_its_packed_encodings(scheme, execution):
    metrics = MetricsRegistry()
    config = replace(CONFIG, execution=execution)
    simulator = Simulator(make_toy_task(), SCHEMES[scheme], config, metrics=metrics)
    checked = []

    def check(message, receiver, now):
        payload = message.payload
        float_codec, index_codec, universe = _codecs(
            simulator.nodes[message.sender].scheme, payload
        )
        values = float_codec.compress(payload["values"])
        assert message.size.values_bytes == len(values.payload) + FLOAT_HEADER_BYTES
        restored = float_codec.decompress(values)
        assert np.array_equal(restored, np.asarray(payload["values"], dtype=np.float32))
        if index_codec is None:
            expected = SEED_METADATA_BYTES if "seed" in payload else 0
            assert message.size.metadata_bytes == expected
        else:
            indices = index_codec.encode(payload["indices"], universe)
            assert message.size.metadata_bytes == len(indices.payload) + INDEX_HEADER_BYTES
            assert np.array_equal(index_codec.decode(indices), np.sort(payload["indices"]))
        checked.append(message.sender)

    simulator.on_message(check)
    simulator.run()
    assert checked, "the run delivered no message"
    assert metrics.to_dict()["engine_messages_dropped"]["value"] > 0
    assert metrics.to_dict()["engine_messages_suppressed"]["value"] > 0
