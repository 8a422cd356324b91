"""JWINS in the coefficient domain: one forward DWT per node-round.

A node keeps ``F_start``, the coefficients of its start model, and takes every
vector Algorithm 1 needs as a difference of coefficients: the local change is
``F_trained - F_start`` and the round change ``F_new - F_start``, with
``F_new`` the projection of the averaged vector (``forward(inverse(C))``).
The round that ran three forward DWTs survives only here, as
:class:`ThreeForwardJwins`, the oracle these tests hold the scheme to.

Tolerances are 1e-11 of the coefficient vectors' scale: ``F_start`` is a
projection, accurate to about 1.3e-12 of the model's coefficients
(``tests/wavelets/test_projection.py``), and a difference of two such vectors
inherits that absolute error whatever its own size.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.topk_sharing import TopKSharingScheme
from repro.core.config import JwinsConfig
from repro.core.interface import RoundContext
from repro.core.jwins import JwinsScheme
from repro.evaluation.workloads import WORKLOADS
from repro.nn.module import get_flat_parameters
from repro.scenarios import fuzz
from repro.scenarios.fuzz import FuzzCase, coefficient_drift
from repro.scenarios.schedule import ByzantineWindow, NodeOutage, ScenarioSchedule
from repro.wavelets.transform import WaveletTransform

TOLERANCE = 1e-11
NODES = 4
RING = [((node - 1) % NODES, (node + 1) % NODES) for node in range(NODES)]


class ThreeForwardJwins(JwinsScheme):
    """The round before the coefficient domain: three forward DWTs per node-round."""

    def prepare(self, context):
        trained = np.asarray(context.params_trained, dtype=np.float64)
        change = self.transform.forward(trained - context.params_start)
        (message,) = self.prepare_from_coefficients(
            [self], [context], change[None], self.transform.forward(trained)[None]
        )
        return message

    def aggregate(self, context, messages):
        (averaged,) = self.aggregate_coefficients([self], [context], [messages])
        new_params = self.transform.inverse(averaged)
        self.ranker.end_of_round(context.params_start, new_params)
        return new_params


def contexts_for(round_index, models, trained):
    return [
        RoundContext(
            round_index=round_index,
            params_start=models[node].copy(),
            params_trained=trained[node].copy(),
            self_weight=1.0 / 3.0,
            neighbor_weights={peer: 1.0 / 3.0 for peer in RING[node]},
            rng=np.random.default_rng(100 * round_index + node),
            node_id=node,
        )
        for node in range(NODES)
    ]


def rows_round(schemes, contexts):
    """One lock-step round through the rows hooks: ``(messages, new models)``."""

    messages = type(schemes[0]).prepare_rows(schemes, contexts)
    inboxes = [[messages[peer] for peer in RING[node]] for node in range(NODES)]
    blocks = type(schemes[0]).aggregate_rows(schemes, contexts, inboxes)
    return messages, np.concatenate([block for _, block in blocks])


def scale_error(actual, expected, scale):
    """``|actual - expected|`` over the norm of the round's coefficients."""

    return float(np.linalg.norm(actual - expected) / np.linalg.norm(scale))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_match_the_three_forward_oracle_on_every_task(name):
    """Messages and new models byte-equal; change, own, round change and
    accumulators within :data:`TOLERANCE`, over three rounds (the later ones
    start from a projected ``F_start``)."""

    task = WORKLOADS[name].make_task(1)
    initial = get_flat_parameters(task.make_model(np.random.default_rng(0)))
    config = JwinsConfig.paper_default()
    fast = [JwinsScheme(node, initial.size, seed=1, config=config) for node in range(NODES)]
    oracle = [ThreeForwardJwins(node, initial.size, seed=1, config=config) for node in range(NODES)]
    data = np.random.default_rng(5)
    models = initial + 0.01 * data.normal(size=(NODES, initial.size))
    worst = 0.0
    for round_index in range(3):
        trained = models + 0.01 * data.normal(size=models.shape)
        contexts_oracle = contexts_for(round_index, models, trained)
        messages_oracle = [s.prepare(c) for s, c in zip(oracle, contexts_oracle)]
        starts = [scheme.start_coefficients for scheme in fast]
        contexts = contexts_for(round_index, models, trained)
        messages = JwinsScheme.prepare_rows(fast, contexts)
        # Held until the aggregate consumes them.
        owns = [scheme._own_coefficients for scheme in fast]
        blocks = JwinsScheme.aggregate_rows(
            fast, contexts, [[messages[peer] for peer in RING[node]] for node in range(NODES)]
        )
        new_models = np.concatenate([block for _, block in blocks])
        for node in range(NODES):
            sent, expected_message = messages[node], messages_oracle[node]
            assert sent.size == expected_message.size
            for key in ("indices", "values"):
                assert sent.payload[key].tobytes() == expected_message.payload[key].tobytes()
            own = owns[node]
            assert own.tobytes() == oracle[node].transform.forward(trained[node]).tobytes()
            start = starts[node] if round_index else fast[node].transform.forward(models[node])
            worst = max(
                worst,
                scale_error(
                    own - start,
                    oracle[node].transform.forward(trained[node] - models[node]),
                    own,
                ),
            )
            inbox = [messages_oracle[peer] for peer in RING[node]]
            expected_model = oracle[node].aggregate(contexts_oracle[node], inbox)
            assert new_models[node].tobytes() == expected_model.tobytes()
            worst = max(
                worst,
                scale_error(
                    fast[node].start_coefficients - start,
                    oracle[node].transform.forward(expected_model - models[node]),
                    start,
                ),
                scale_error(fast[node].ranker._accumulator.scores, oracle[node].ranker._accumulator.scores, start),
            )
        models = new_models
    assert worst <= TOLERANCE


def test_a_round_runs_one_forward_dwt_after_the_first(monkeypatch):
    """Round 0 transforms the trained and the start models; later rounds only
    the trained ones, and no round transforms a change or a new model."""

    size = 340
    schemes = [JwinsScheme(node, size, seed=1) for node in range(NODES)]
    forward_rows: list[int] = []
    forward_batch = WaveletTransform.forward_batch

    def counting(self, matrix):
        forward_rows.append(len(matrix))
        return forward_batch(self, matrix)

    monkeypatch.setattr(WaveletTransform, "forward_batch", counting)
    monkeypatch.setattr(WaveletTransform, "forward", None)  # no 1-D transform either
    data = np.random.default_rng(3)
    models = data.normal(size=(NODES, size))
    for round_index in range(3):
        trained = models + 0.1 * data.normal(size=models.shape)
        _, models = rows_round(schemes, contexts_for(round_index, models, trained))
    assert forward_rows == [NODES, NODES, NODES, NODES]


#: Churn (a node away for two rounds, one gone for good), all three attacks.
HOSTILE = ScenarioSchedule(
    name="coefficient-invariant",
    outages=(NodeOutage(node=1, start_round=1, end_round=3), NodeOutage(node=3, start_round=3)),
    byzantine=(
        ByzantineWindow(start_round=0, end_round=2, nodes=(2,), mode="sign-flip"),
        ByzantineWindow(start_round=1, end_round=4, nodes=(4,), mode="stale-replay"),
        ByzantineWindow(start_round=2, end_round=5, nodes=(1,), mode="random-gradient"),
    ),
)


@pytest.mark.parametrize("engine", ["pernode", "arena"])
@pytest.mark.parametrize("execution", ["sync", "async"])
def test_f_start_is_the_dwt_of_the_model_after_every_node_round(monkeypatch, execution, engine):
    """The invariant the cache rests on, through churn, attacks and drops:
    only a node's own training and aggregate write its model."""

    checked: list[float] = []

    def recording(node):
        drift = coefficient_drift(node)
        if drift is not None:
            checked.append(drift)
        return drift

    monkeypatch.setattr(fuzz, "coefficient_drift", recording)
    case = FuzzCase(
        index=0,
        num_nodes=5,
        rounds=5,
        execution=execution,
        drop_probability=0.15,
        run_seed=3,
        schedule=HOSTILE,
    )
    spec = case.spec()  # movielens, d = 1,009: a pad sample at every level
    spec = replace(spec, overrides={**spec.overrides, "engine": engine})
    monkeypatch.setattr(FuzzCase, "spec", lambda self, *args: spec)
    assert fuzz._oracle_coefficients(case) is None
    assert len(checked) >= 5 * 4 and max(checked) <= fuzz.COEFFICIENT_TOLERANCE


def test_the_coefficients_oracle_rings_without_the_projection(monkeypatch):
    """Take ``F_new = C`` (no projection): F_start drifts by whole percents."""

    monkeypatch.setattr(WaveletTransform, "project_batch", lambda self, c: np.array(c))
    detail, diff = fuzz._oracle_coefficients(fuzz.generate_case(0, 0))
    assert "F_start" in detail
    assert diff is None  # traces cannot see this fault


@pytest.mark.parametrize("accumulation", [True, False])
def test_without_wavelets_every_vector_is_bit_identical_to_the_oracle(accumulation):
    """``IdentityTransform``: projecting is a copy, so nothing may move a bit."""

    size = 97
    config = replace(TopKSharingScheme(0, size, seed=1).config, use_accumulation=accumulation)
    fast = [JwinsScheme(node, size, seed=1, config=config) for node in range(NODES)]
    oracle = [
        ThreeForwardJwins(node, size, seed=1, config=fast[0].config) for node in range(NODES)
    ]
    data = np.random.default_rng(8)
    models = data.normal(size=(NODES, size))
    for round_index in range(4):
        trained = models + 0.1 * data.normal(size=models.shape)
        contexts_oracle = contexts_for(round_index, models, trained)
        messages_oracle = [s.prepare(c) for s, c in zip(oracle, contexts_oracle)]
        messages, new_models = rows_round(fast, contexts_for(round_index, models, trained))
        for node in range(NODES):
            for key in ("indices", "values"):
                assert messages[node].payload[key].tobytes() == (
                    messages_oracle[node].payload[key].tobytes()
                )
            expected = oracle[node].aggregate(
                contexts_oracle[node], [messages_oracle[peer] for peer in RING[node]]
            )
            assert new_models[node].tobytes() == expected.tobytes()
            assert fast[node].start_coefficients.tobytes() == expected.tobytes()
            assert fast[node].ranker._accumulator.scores.tobytes() == oracle[node].ranker._accumulator.scores.tobytes()
        models = new_models
