"""Whole-run result digests of the three CNN workloads, pinned.

Every stored digest rests on the float64 bits of the conv stack.  A kernel
rewrite that moves one bit of one output, loss or gradient changes these
digests, so it fails here in tier-1 rather than only in the benchmark's
same-run digest check.  Each cell is short (4 nodes, 2 rounds, ``jwins``,
per-node engine) but runs local training, evaluation and gossip through every
conv, pool and ReLU layer of its model.  The constants were taken at the
commit before the window kernels were rewritten.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import jwins_factory
from repro.evaluation.workloads import get_workload
from repro.observability.contract import scrub_telemetry
from repro.simulation.runner import run_experiment

PINS = {
    "cifar10": "8688a522ad3199bdfefab27f0c1e2cc537fe7bb5cf50d3bd3224afea1b038a00",
    "celeba": "9753078bc2335f9cca53aa9fedbc9fd94b90a4db5ba5ced8d6b55202ed099444",
    "femnist": "24346910b9fafe2e257e738046bda3b9ccfed019454be75518a23155df600ae0",
}


def result_digest(workload: str) -> str:
    spec = get_workload(workload)
    config = spec.make_config(num_nodes=4, degree=2, rounds=2, eval_every=1, engine="pernode")
    result = run_experiment(spec.make_task(7), jwins_factory(), config, scheme_name="jwins")
    payload = json.dumps(scrub_telemetry(result.to_dict()), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINS))
def test_result_digest_is_pinned(workload):
    assert result_digest(workload) == PINS[workload]
