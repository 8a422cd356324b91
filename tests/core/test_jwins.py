"""Tests for the JWINS sharing scheme (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveJwinsScheme
from repro.core.config import JwinsConfig
from repro.core.cutoff import CutoffDistribution
from repro.core import jwins as jwins_module
from repro.core.interface import Message, RoundContext
from repro.core.jwins import JwinsScheme, jwins_factory
from repro.exceptions import SimulationError
from repro.wavelets.transform import IdentityTransform, WaveletTransform

MODEL_SIZE = 120


def _context(round_index=0, start=None, trained=None, neighbors=(1, 2), rng_seed=0):
    start = np.zeros(MODEL_SIZE) if start is None else start
    trained = np.ones(MODEL_SIZE) if trained is None else trained
    weight = 1.0 / (len(neighbors) + 1)
    return RoundContext(
        round_index=round_index,
        params_start=start,
        params_trained=trained,
        self_weight=weight,
        neighbor_weights={n: weight for n in neighbors},
        rng=np.random.default_rng(rng_seed),
    )


def _scheme(config=None, node_id=0):
    return JwinsScheme(node_id, MODEL_SIZE, seed=1, config=config)


def test_prepare_produces_sparse_wavelet_message():
    config = JwinsConfig(cutoff=CutoffDistribution.fixed(0.25), use_random_cutoff=False)
    scheme = _scheme(config)
    message = scheme.prepare(_context())
    indices = message.payload["indices"]
    values = message.payload["values"]
    assert message.kind == "jwins-partial-wavelets"
    assert indices.size == values.size
    assert indices.size == pytest.approx(0.25 * scheme.ranker.coefficient_size, abs=1)
    assert message.size.values_bytes > 0
    assert message.size.metadata_bytes > 0


def test_shared_values_are_wavelet_coefficients_of_trained_model():
    config = JwinsConfig(cutoff=CutoffDistribution.fixed(0.5), use_random_cutoff=False)
    scheme = _scheme(config)
    trained = np.random.default_rng(3).normal(size=MODEL_SIZE)
    context = _context(trained=trained)
    message = scheme.prepare(context)
    coefficients = scheme.transform.forward(trained)
    assert np.allclose(message.payload["values"], coefficients[message.payload["indices"]])


def test_alpha_sampled_from_cutoff_distribution():
    scheme = _scheme(JwinsConfig.paper_default())
    alphas = set()
    for round_index in range(30):
        context = _context(round_index=round_index, rng_seed=round_index)
        message = scheme.prepare(context)
        alphas.add(message.payload["alpha"])
    assert alphas.issubset({0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 1.00})
    assert len(alphas) >= 3


def test_without_random_cutoff_uses_expected_fraction_every_round():
    config = JwinsConfig.paper_default().without_random_cutoff()
    scheme = _scheme(config)
    sizes = set()
    for round_index in range(5):
        message = scheme.prepare(_context(round_index=round_index, rng_seed=round_index))
        sizes.add(message.payload["indices"].size)
    assert len(sizes) == 1


def test_without_wavelet_uses_identity_transform():
    scheme = _scheme(JwinsConfig.paper_default().without_wavelet())
    assert isinstance(scheme.transform, IdentityTransform)
    assert isinstance(_scheme().transform, WaveletTransform)


def test_aggregate_without_neighbors_recovers_trained_model():
    """With no neighbors the round is a no-op up to transform round-trip error."""

    scheme = _scheme(JwinsConfig(cutoff=CutoffDistribution.fixed(0.3), use_random_cutoff=False))
    trained = np.random.default_rng(1).normal(size=MODEL_SIZE)
    context = RoundContext(
        round_index=0,
        params_start=np.zeros(MODEL_SIZE),
        params_trained=trained,
        self_weight=1.0,
        neighbor_weights={},
        rng=np.random.default_rng(0),
    )
    scheme.prepare(context)
    new_params = scheme.aggregate(context, [])
    assert np.allclose(new_params, trained, atol=1e-8)


def test_two_identical_nodes_stay_identical():
    """If both nodes hold the same model, averaging must not change it."""

    config = JwinsConfig(cutoff=CutoffDistribution.fixed(0.4), use_random_cutoff=False)
    scheme_a = JwinsScheme(0, MODEL_SIZE, seed=1, config=config)
    scheme_b = JwinsScheme(1, MODEL_SIZE, seed=2, config=config)
    trained = np.random.default_rng(5).normal(size=MODEL_SIZE)
    context_a = RoundContext(0, np.zeros(MODEL_SIZE), trained, 0.5, {1: 0.5}, np.random.default_rng(0))
    context_b = RoundContext(0, np.zeros(MODEL_SIZE), trained, 0.5, {0: 0.5}, np.random.default_rng(1))
    message_a = scheme_a.prepare(context_a)
    message_b = scheme_b.prepare(context_b)
    new_a = scheme_a.aggregate(context_a, [message_b])
    new_b = scheme_b.aggregate(context_b, [message_a])
    assert np.allclose(new_a, trained, atol=1e-8)
    assert np.allclose(new_b, trained, atol=1e-8)


def test_full_alpha_exchange_matches_dense_average():
    """With alpha = 100% on both nodes JWINS reduces to full-sharing averaging."""

    config = JwinsConfig(cutoff=CutoffDistribution.fixed(1.0), use_random_cutoff=False)
    scheme_a = JwinsScheme(0, MODEL_SIZE, seed=1, config=config)
    scheme_b = JwinsScheme(1, MODEL_SIZE, seed=2, config=config)
    rng = np.random.default_rng(7)
    trained_a = rng.normal(size=MODEL_SIZE)
    trained_b = rng.normal(size=MODEL_SIZE)
    context_a = RoundContext(0, np.zeros(MODEL_SIZE), trained_a, 0.5, {1: 0.5}, np.random.default_rng(0))
    context_b = RoundContext(0, np.zeros(MODEL_SIZE), trained_b, 0.5, {0: 0.5}, np.random.default_rng(1))
    message_a = scheme_a.prepare(context_a)
    message_b = scheme_b.prepare(context_b)
    new_a = scheme_a.aggregate(context_a, [message_b])
    expected = 0.5 * (trained_a + trained_b)
    assert np.allclose(new_a, expected, atol=1e-8)


def test_accumulator_reset_for_shared_coefficients():
    config = JwinsConfig(
        cutoff=CutoffDistribution.fixed(0.25), use_random_cutoff=False, use_wavelet=False
    )
    scheme = _scheme(config)
    trained = np.zeros(MODEL_SIZE)
    trained[:10] = 5.0  # large change in the first ten coordinates
    context = _context(trained=trained, neighbors=())
    context.neighbor_weights = {}
    context.self_weight = 1.0
    message = scheme.prepare(context)
    shared = message.payload["indices"]
    assert set(range(10)).issubset(set(shared.tolist()))
    new_params = scheme.aggregate(context, [])
    # Shared coordinates were reset before the end-of-round update, so their
    # score equals only the whole-round change; they did not double-count.
    assert np.allclose(scheme.ranker._accumulator.scores[:10], trained[:10], atol=1e-9)


def test_aggregate_before_prepare_raises():
    scheme = _scheme()
    with pytest.raises(SimulationError):
        scheme.aggregate(_context(), [])


def test_incompatible_message_kind_raises():
    scheme = _scheme()
    context = _context(neighbors=(1,))
    scheme.prepare(context)
    alien = Message(sender=1, kind="full-model", payload={"values": np.ones(MODEL_SIZE)})
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [alien])


def test_message_from_non_neighbor_raises():
    scheme = _scheme()
    context = _context(neighbors=(1,))
    scheme.prepare(context)
    other = JwinsScheme(9, MODEL_SIZE, seed=3)
    other_context = _context(neighbors=(0,))
    foreign = other.prepare(other_context)
    foreign = Message(sender=9, kind=foreign.kind, payload=foreign.payload, size=foreign.size)
    with pytest.raises(SimulationError):
        scheme.aggregate(context, [foreign])


def test_factory_builds_independent_schemes():
    factory = jwins_factory(JwinsConfig.paper_default())
    scheme_a = factory(0, MODEL_SIZE, 1)
    scheme_b = factory(1, MODEL_SIZE, 2)
    assert scheme_a is not scheme_b
    assert scheme_a.node_id == 0 and scheme_b.node_id == 1


def test_metadata_smaller_than_values_with_elias_gamma():
    config = JwinsConfig(cutoff=CutoffDistribution.fixed(0.3), use_random_cutoff=False)
    scheme = _scheme(config)
    message = scheme.prepare(_context(trained=np.random.default_rng(0).normal(size=MODEL_SIZE)))
    assert message.size.metadata_bytes < message.size.values_bytes


# -- the rows form: N schemes at once equal N one-row calls -------------------------
ROWS_CONFIGS = {
    "paper-default": JwinsConfig.paper_default(),
    "budgeted": JwinsConfig.low_budget(0.2),
    "fixed-cutoff": JwinsConfig.paper_default().without_random_cutoff(),
    "no-accumulation": JwinsConfig.paper_default().without_accumulation(),
}


def _assert_same_message(actual: Message, expected: Message) -> None:
    assert (actual.sender, actual.kind, actual.size, actual.shared_fraction) == (
        expected.sender, expected.kind, expected.size, expected.shared_fraction
    )
    assert actual.payload.keys() == expected.payload.keys()
    for key in ("alpha", "coefficient_size"):
        assert actual.payload[key] == expected.payload[key]
    for key in ("indices", "values"):
        assert actual.payload[key].dtype == expected.payload[key].dtype
        assert actual.payload[key].tobytes() == expected.payload[key].tobytes()


@pytest.mark.parametrize("scheme_type", [JwinsScheme, AdaptiveJwinsScheme])
@pytest.mark.parametrize("config_name", sorted(ROWS_CONFIGS))
def test_rows_form_equals_one_row_calls(scheme_type, config_name):
    """Messages, ``last_alpha``, accumulators, kept rows and every context RNG."""

    config, nodes = ROWS_CONFIGS[config_name], 40
    stacked, single = (
        [scheme_type(node_id, MODEL_SIZE, seed=1, config=config) for node_id in range(nodes)]
        for _ in range(2)
    )
    width = stacked[0].ranker.coefficient_size
    data = np.random.default_rng(9)
    for round_index in range(3):  # later rounds rank on what earlier ones zeroed
        change_matrix = data.normal(size=(nodes, width))
        change_matrix[:, ::5] = 0.0  # ties at the selection threshold
        own_matrix = data.normal(size=(nodes, width))
        contexts_a, contexts_b = (
            [_context(round_index, rng_seed=100 * round_index + node) for node in range(nodes)]
            for _ in range(2)
        )
        # The rows form consumes its change matrix (the rows become scores).
        messages = JwinsScheme.prepare_from_coefficients(
            stacked, contexts_a, change_matrix.copy(), own_matrix
        )
        counts = set()
        for row in range(nodes):
            (expected,) = single[row].prepare_from_coefficients(
                [single[row]],
                [contexts_b[row]],
                change_matrix[row][None].copy(),
                own_matrix[row][None],
            )
            _assert_same_message(messages[row], expected)
            counts.add(expected.payload["indices"].size)
            assert stacked[row].last_alpha == single[row].last_alpha
            assert stacked[row].ranker._accumulator.scores.tobytes() == single[row].ranker._accumulator.scores.tobytes()
            assert (
                stacked[row]._own_coefficients.tobytes() == own_matrix[row].tobytes()
                and single[row]._own_coefficients.tobytes() == own_matrix[row].tobytes()
            )
            assert (
                contexts_a[row].rng.bit_generator.state == contexts_b[row].rng.bit_generator.state
            )
        if config.use_random_cutoff:
            assert len(counts) == len(config.cutoff.alphas)  # multi-row groups of every count
        for scheme_a, scheme_b in zip(stacked, single):
            round_change = data.normal(size=width)
            scheme_a.ranker.end_of_round_from_change(round_change)
            scheme_b.ranker.end_of_round_from_change(round_change)


def test_prepare_is_the_rows_form_with_one_row():
    """A first round: the change is ``forward(trained) - forward(start)``."""

    config = JwinsConfig.paper_default()
    via_prepare, via_rows = _scheme(config), _scheme(config)
    start, trained = np.random.default_rng(4).normal(size=(2, MODEL_SIZE))
    message = via_prepare.prepare(_context(start=start, trained=trained, rng_seed=6))
    context = _context(start=start, trained=trained, rng_seed=6)
    own = via_rows.transform.forward(trained)
    (expected,) = via_rows.prepare_from_coefficients(
        [via_rows], [context], (own - via_rows.transform.forward(start))[None], own[None]
    )
    _assert_same_message(message, expected)
    assert via_prepare._start_coefficients.tobytes() == via_rows.transform.forward(start).tobytes()


def test_rows_form_rejects_schemes_with_different_configs():
    schemes = [_scheme(JwinsConfig.paper_default()), _scheme(JwinsConfig.low_budget(0.2), 1)]
    width = schemes[0].ranker.coefficient_size
    with pytest.raises(SimulationError, match="share one JwinsConfig"):
        JwinsScheme.prepare_from_coefficients(
            schemes, [_context(), _context()], np.ones((2, width)), np.ones((2, width))
        )


# -- row passes: a lock-step stage over N schemes equals N per-node rounds -----------
@pytest.mark.parametrize("rows_per_pass", [1, 3, 7])
@pytest.mark.parametrize("scheme_type", [JwinsScheme, AdaptiveJwinsScheme])
@pytest.mark.parametrize("config_name", sorted(ROWS_CONFIGS))
def test_rows_hooks_equal_per_node_rounds_at_every_pass_size(
    monkeypatch, rows_per_pass, scheme_type, config_name
):
    """``prepare_rows``/``aggregate_rows`` vs ``prepare``/``aggregate``.

    Whatever the pass size cuts the seven rows into, messages, accumulators,
    every ``context.rng`` and the new parameters equal — byte for byte — what
    seven nodes produce one call at a time (the event loop's road).
    """

    monkeypatch.setattr(jwins_module, "_PASS_ELEMENTS", rows_per_pass * MODEL_SIZE)
    config, nodes = ROWS_CONFIGS[config_name], 7
    together, alone = (
        [scheme_type(node_id, MODEL_SIZE, seed=1, config=config) for node_id in range(nodes)]
        for _ in range(2)
    )
    data = np.random.default_rng(11)
    models = data.normal(size=(nodes, MODEL_SIZE))
    ring = [((node - 1) % nodes, (node + 1) % nodes) for node in range(nodes)]
    for round_index in range(3):  # later rounds rank on what earlier ones accumulated
        trained = models + 0.1 * data.normal(size=models.shape)
        contexts_a, contexts_b = (
            [
                _context(
                    round_index,
                    start=models[node].copy(),
                    trained=trained[node].copy(),
                    neighbors=ring[node],
                    rng_seed=100 * round_index + node,
                )
                for node in range(nodes)
            ]
            for _ in range(2)
        )
        messages_a = scheme_type.prepare_rows(together, contexts_a)
        messages_b = [scheme.prepare(context) for scheme, context in zip(alone, contexts_b)]
        for node in range(nodes):
            _assert_same_message(messages_a[node], messages_b[node])
            assert (
                contexts_a[node].rng.bit_generator.state
                == contexts_b[node].rng.bit_generator.state
            )
        blocks = list(
            scheme_type.aggregate_rows(
                together, contexts_a, [[messages_a[peer] for peer in ring[node]] for node in range(nodes)]
            )
        )
        assert [(rows.start, rows.stop) for rows, _ in blocks] == [
            (start, min(start + rows_per_pass, nodes)) for start in range(0, nodes, rows_per_pass)
        ]
        new_models = np.concatenate([block for _, block in blocks])
        assert new_models.shape == models.shape
        for node in range(nodes):
            inbox = [messages_b[peer] for peer in ring[node]]
            expected = alone[node].aggregate(contexts_b[node], inbox)
            assert new_models[node].tobytes() == expected.tobytes()
            assert together[node].ranker._accumulator.scores.tobytes() == alone[node].ranker._accumulator.scores.tobytes()
            assert together[node]._own_coefficients is None
        models = new_models


def test_the_default_pass_takes_whole_rows_and_at_least_one():
    def sizes(model_size, nodes):
        schemes = [JwinsScheme(node, model_size, seed=1) for node in range(2)] * (nodes // 2)
        return [rows.stop - rows.start for rows in jwins_module._passes(schemes)]

    budget = jwins_module._PASS_ELEMENTS
    assert sizes(budget // 4, 8) == [4, 4]
    assert sizes(budget // 4 + 1, 8) == [3, 3, 2]
    assert sizes(budget + 2, 4) == [1, 1, 1, 1]  # a row larger than the budget
