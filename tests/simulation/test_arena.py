"""The arena engine's determinism contract: byte-identity with the per-node engine.

Every test here runs the same configuration through both engines —
``engine="pernode"`` (private per-node models) and ``engine="arena"`` (state in
the ``(N, d)`` arenas of :mod:`repro.simulation.arena`, step-major training),
driven by the same loop and the same share path — and requires the serialized
:class:`~repro.simulation.metrics.ExperimentResult` payloads to be
byte-for-byte equal.  The matrix covers the paper's schemes and scenario
machinery plus the awkward edge shapes: a single-row arena, a round where every
node is offline, a node churning out mid-run, and odd parameter-tensor lengths
flowing through the stacked DWT.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import choco_factory, full_sharing_factory, topk_sharing_factory
from repro.core import JwinsConfig, jwins_factory
from repro.core import jwins as jwins_module
from repro.core.adaptive import adaptive_jwins_factory
from repro.core.cutoff import CutoffDistribution
from repro.exceptions import ConfigurationError, ExperimentPaused, SimulationError
from repro.nn.module import Parameter
from repro.nn.optim import SGD
from repro.scenarios import get_scenario
from repro.scenarios.schedule import NodeOutage, ScenarioSchedule, ScenarioState
from repro.simulation import (
    ENGINES,
    ExperimentConfig,
    NodeArenas,
    run_experiment,
)
from repro.core.jwins import JwinsScheme, _share_passes
from repro.simulation import arena as arena_module
from repro.simulation.arena import build_arena_nodes
from repro.simulation.engine import Simulator, SynchronousMode
from repro.simulation.node import SimulationNode
from tests.conftest import make_toy_task, through_file

ROUNDS = 5


def build_config(**overrides) -> ExperimentConfig:
    base = dict(
        num_nodes=6,
        degree=2,
        rounds=ROUNDS,
        local_steps=2,
        batch_size=8,
        learning_rate=0.1,
        eval_every=2,
        eval_test_samples=48,
        seed=3,
        partition="shards",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def dumps(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_engines_agree(factory_builder, config, task_kwargs=None):
    """Run ``config`` under both engines and require byte-equal results."""

    kwargs = task_kwargs or {}
    pernode = run_experiment(make_toy_task(**kwargs), factory_builder(), config)
    arena = run_experiment(
        make_toy_task(**kwargs), factory_builder(), replace(config, engine="arena")
    )
    assert dumps(arena) == dumps(pernode)
    return arena


# -- the pinned equivalence matrix -------------------------------------------------


EQUIVALENCE_CASES = {
    "jwins-sync": {},
    "drops": {"message_drop_probability": 0.3},
    "dynamic-topology": {"dynamic_topology": True},
    "churn-partition": {
        "scenario": get_scenario("churn-partition", num_nodes=6, rounds=ROUNDS)
    },
    "byzantine": {
        "scenario": get_scenario("byzantine", num_nodes=6, rounds=ROUNDS)
    },
    # Three stacked steps a round.
    "local-steps": {"local_steps": 3},
    "async": {"execution": "async", "compute_speed_range": (1.0, 3.0)},
    # The event loop's one-node calls into the shared train/present/encode/
    # aggregate stages, with attackers, NODE_RESUME sleeps and in-flight drops live.
    "async-byzantine-churn": {
        "execution": "async",
        "compute_speed_range": (1.0, 3.0),
        "message_drop_probability": 0.3,
        "scenario": replace(
            get_scenario("byzantine", num_nodes=6, rounds=ROUNDS),
            outages=get_scenario("churn", num_nodes=6, rounds=ROUNDS).outages,
        ),
    },
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_arena_matches_pernode(case):
    assert_engines_agree(jwins_factory, build_config(**EQUIVALENCE_CASES[case]))


def count_train_calls(monkeypatch) -> dict[str, int]:
    """Count stacked steps and per-node backpropagations from here on."""

    calls = {"stacked": 0, "per-node": 0}
    stacked_step, backpropagate = arena_module._stacked_step, SimulationNode.backpropagate

    def counting_step(*args):
        calls["stacked"] += 1
        return stacked_step(*args)

    def counting_backpropagate(self, inputs, targets):
        calls["per-node"] += 1
        return backpropagate(self, inputs, targets)

    monkeypatch.setattr(arena_module, "_stacked_step", counting_step)
    monkeypatch.setattr(SimulationNode, "backpropagate", counting_backpropagate)
    return calls


def test_the_toy_mlp_trains_through_the_stacked_step(monkeypatch):
    """The matrix's MLP is the stacked step's oracle: under the arena every
    local step of a lock-step round is one stacked call, no node backpropagates
    alone; the per-node engine never stacks."""

    config = build_config(local_steps=3)
    calls = count_train_calls(monkeypatch)
    run_experiment(make_toy_task(), jwins_factory(), replace(config, engine="arena"))
    assert calls == {"stacked": ROUNDS * 3, "per-node": 0}
    calls.update({"stacked": 0, "per-node": 0})
    run_experiment(make_toy_task(), jwins_factory(), config)
    assert calls == {"stacked": 0, "per-node": ROUNDS * 3 * config.num_nodes}


def test_unequal_batches_fall_back_per_node_and_still_match(monkeypatch):
    """31 samples over 6 iid nodes: node 0 holds 6, the others 5, all under the
    batch size, so the batches differ in shape and the step runs per node —
    except while churn has node 0 offline, when the other five stack."""

    scenario = ScenarioSchedule(
        name="node-0-away", outages=(NodeOutage(node=0, start_round=1, end_round=3),)
    )
    config = build_config(partition="iid", scenario=scenario)
    task_kwargs = {"train_samples": 31}
    nodes, _ = build_arena_nodes(make_toy_task(**task_kwargs), jwins_factory(), config)
    sizes = [len(node.dataset) for node in nodes]
    assert sizes == [6, 5, 5, 5, 5, 5] and max(sizes) < config.batch_size
    calls = count_train_calls(monkeypatch)
    assert_engines_agree(jwins_factory, config, task_kwargs=task_kwargs)
    steps, away = config.local_steps, 2  # node 0 misses rounds 1 and 2
    assert calls["stacked"] == away * steps
    assert calls["per-node"] == (
        (ROUNDS - away) * steps * 6  # the arena's fallback, node 0 present
        + (ROUNDS * 6 - away) * steps  # the per-node engine, every node-round
    )


def test_the_fig10_mlp_cell_runs_both_train_paths_and_matches(monkeypatch):
    """673 samples over 96 iid nodes: node 0 holds 8 (the batch size), every
    other node 7, so the batches differ in shape and the step falls back per
    node -- except while churn has node 0 offline, when the rest stack."""

    config = build_config(
        num_nodes=96,
        degree=6,
        rounds=6,
        learning_rate=0.05,
        eval_nodes=8,
        eval_test_samples=64,
        seed=5,
        partition="iid",
        scenario=get_scenario("churn-partition", num_nodes=96, rounds=6),
    )
    task_kwargs = {"seed": 5, "train_samples": 673}
    calls = count_train_calls(monkeypatch)
    arena = run_experiment(
        make_toy_task(**task_kwargs), jwins_factory(), replace(config, engine="arena")
    )
    assert calls["stacked"] and calls["per-node"]
    pernode = run_experiment(make_toy_task(**task_kwargs), jwins_factory(), config)
    assert dumps(arena) == dumps(pernode)


def test_arena_matches_pernode_at_twenty_nodes():
    """The acceptance pin: arena sync-mode is byte-identical at N <= 20."""

    config = build_config(num_nodes=20, degree=4, rounds=3)
    assert_engines_agree(jwins_factory, config)


def test_arena_matches_pernode_adaptive():
    """AdaptiveJwinsScheme only overrides the score hook, so it batches too."""

    assert_engines_agree(adaptive_jwins_factory, build_config())


def test_arena_matches_pernode_no_accumulation():
    config = JwinsConfig(use_accumulation=False)
    assert_engines_agree(lambda: jwins_factory(config), build_config())


def test_arena_matches_pernode_identity_transform():
    config = JwinsConfig(use_wavelet=False)
    assert_engines_agree(lambda: jwins_factory(config), build_config())


# What a count-group shares besides the transform: one cut-off.
JWINS_CONFIG_CASES = {
    "fixed-cutoff": JwinsConfig(use_random_cutoff=False),  # one group of all rows
    "budgeted": JwinsConfig.low_budget(0.2),  # a large group and a ``count == c`` one
}


@pytest.mark.parametrize("case", sorted(JWINS_CONFIG_CASES))
def test_arena_matches_pernode_for_jwins_config(case):
    config = JWINS_CONFIG_CASES[case]
    assert_engines_agree(lambda: jwins_factory(config), build_config())


def test_arena_matches_pernode_at_sixty_four_nodes():
    """Multi-row count-groups (about nine rows each) in every round."""

    config = build_config(num_nodes=64, degree=4, rounds=3, message_drop_probability=0.1)
    assert_engines_agree(jwins_factory, config)


@pytest.mark.parametrize(
    "odd_config",
    [JwinsConfig(use_accumulation=False), JwinsConfig.low_budget(0.2)],
    ids=["accumulation", "cutoff"],
)
def test_arena_matches_pernode_when_one_node_is_configured_differently(odd_config):
    """No shared pass across unequal configs: every row takes its own calls."""

    def factory_builder():
        def factory(node_id, model_size, seed):
            config = odd_config if node_id == 2 else JwinsConfig()
            return jwins_factory(config)(node_id, model_size, seed)

        return factory

    nodes, _ = build_arena_nodes(make_toy_task(), factory_builder(), build_config())
    assert not _share_passes([node.scheme for node in nodes])
    assert_engines_agree(factory_builder, build_config())


# -- pass size: how many rows share a kernel call never reaches the result ------------

PASS_SIZE_SCHEMES = {
    "jwins": jwins_factory,
    "jwins-budget": lambda: jwins_factory(JwinsConfig.low_budget(0.2)),
    "topk": topk_sharing_factory,
    "full-sharing": full_sharing_factory,
}


@pytest.mark.parametrize("scheme", sorted(PASS_SIZE_SCHEMES))
def test_result_is_independent_of_pass_size_and_engine(scheme, monkeypatch):
    """{1 row, 3 rows, default, unbounded} x {pernode, arena}: one payload, under drops and churn."""

    config = build_config(
        num_nodes=8,
        rounds=4,
        message_drop_probability=0.2,
        scenario=get_scenario("churn-partition", num_nodes=8, rounds=4),
    )
    model_size = Simulator(make_toy_task(), full_sharing_factory(), config).model_size
    payloads = set()
    for pass_elements in (1, 3 * model_size, jwins_module._PASS_ELEMENTS, 1 << 62):
        monkeypatch.setattr(jwins_module, "_PASS_ELEMENTS", pass_elements)
        for engine in ENGINES:
            result = run_experiment(
                make_toy_task(), PASS_SIZE_SCHEMES[scheme](), replace(config, engine=engine)
            )
            payloads.add(dumps(result))
    assert len(payloads) == 1


class _OverridingPrepare(JwinsScheme):
    """A user subclass hooking ``prepare``; the rows hooks must not bypass it."""

    prepared: list[tuple[int, int]] = []

    def prepare(self, context):
        self.prepared.append((context.round_index, self.node_id))
        return super().prepare(context)


def test_a_subclass_overriding_prepare_is_honoured_by_both_engines():
    """Per-row calls through the override (which reaches the pass via ``super()``
    without recursing), and the same bytes as plain JWINS."""

    assert not _share_passes([_OverridingPrepare(node, 64, seed=1) for node in range(3)])
    plain = run_experiment(make_toy_task(), jwins_factory(), build_config())
    for engine in ENGINES:
        _OverridingPrepare.prepared.clear()
        result = run_experiment(
            make_toy_task(),
            lambda node_id, model_size, seed: _OverridingPrepare(node_id, model_size, seed),
            replace(build_config(), engine=engine),
            scheme_name="jwins",
        )
        assert _OverridingPrepare.prepared == [
            (round_index, node_id) for round_index in range(ROUNDS) for node_id in range(6)
        ]
        assert dumps(result) == dumps(plain)


@pytest.mark.parametrize("factory_builder", [full_sharing_factory, choco_factory])
def test_arena_fallback_schemes_match_pernode(factory_builder):
    """Non-JWINS schemes take the default per-row hooks on arena-backed state."""

    assert_engines_agree(factory_builder, build_config())


def test_both_engines_run_the_one_loop_and_deliver_before_aggregating():
    """One loop, one observable schedule: deliveries, then model writes, then the barrier.

    Observed through what both engines share — the observer hooks and
    ``get_parameters()`` — because the arena writes a round's averaged models
    back in one arena-wide assignment, not through ``node.set_parameters``.
    """

    logs = {}
    for engine in ENGINES:
        config = replace(build_config(message_drop_probability=0.3), engine=engine)
        simulator = Simulator(make_toy_task(), jwins_factory(), config)
        assert type(simulator.mode) is SynchronousMode

        def models(simulator=simulator) -> tuple[bytes, ...]:
            return tuple(node.get_parameters().tobytes() for node in simulator.nodes)

        log: list[tuple] = [("round_end", 0.0, models())]
        simulator.on_message(
            lambda message, receiver, now, log=log, models=models: log.append(
                ("message", message.sender, receiver, now, models())
            )
        )
        simulator.on_round_end(
            lambda round_index, node_id, now, log=log, models=models: log.append(
                ("round_end", now, models())
            )
        )
        simulator.run()
        logs[engine] = log
        if simulator.arenas is not None:
            # The arena-wide write-back leaves every node's views bound.
            for node in simulator.nodes:
                for parameter in node.model.parameters():
                    assert np.shares_memory(parameter.value, simulator.arenas.params)
                np.testing.assert_array_equal(
                    node.get_parameters(), simulator.arenas.params[node.node_id]
                )

    assert logs["arena"] == logs["pernode"]
    log = logs["pernode"]
    barriers = [index for index, entry in enumerate(log) if entry[0] == "round_end"]
    assert len(barriers) == ROUNDS + 1
    for opened, closed in zip(barriers, barriers[1:]):
        before, after = log[opened][-1], log[closed][-1]
        delivered = {entry[-1] for entry in log[opened + 1 : closed]}
        # Every delivery of the round saw the same models: no aggregation ran
        # between two deliveries ...
        assert len(delivered) == 1, "a delivery followed an aggregation of its round"
        (trained,) = delivered
        # ... each of them the node's trained model, rewritten before the barrier.
        for node_id in range(6):
            assert trained[node_id] != before[node_id]
            assert after[node_id] != trained[node_id]


# -- edge shapes -------------------------------------------------------------------


def test_arena_matches_pernode_odd_tensor_lengths():
    """Odd per-tensor lengths (240/15/30/2, d=287) through the batched DWT."""

    kwargs = dict(hidden=15, num_classes=2)
    task = make_toy_task(**kwargs)
    model = task.model_factory(np.random.default_rng(0))
    sizes = [parameter.size for parameter in model.parameters()]
    assert sum(sizes) % 2 == 1, "the fixture should exercise an odd model size"
    assert_engines_agree(jwins_factory, build_config(), task_kwargs=kwargs)


class _AllOfflineRound(ScenarioSchedule):
    """A schedule whose round 1 has no active nodes at all.

    The stock :meth:`ScenarioSchedule.state_at` refuses empty rounds (they are
    almost always a configuration mistake), so the test builds the state
    directly to pin down that both engines survive a fully idle round.
    """

    def state_at(self, round_index: int, num_nodes: int) -> ScenarioState:
        if round_index == 1:
            return ScenarioState(
                round_index=1,
                active=(),
                partition_ids=(None,) * num_nodes,
                slowdowns=(1.0,) * num_nodes,
            )
        return super().state_at(round_index, num_nodes)


def test_arena_matches_pernode_all_nodes_offline_round():
    config = build_config(scenario=_AllOfflineRound(name="all-offline-round-1"))
    result = assert_engines_agree(jwins_factory, config)
    assert result.rounds_completed == ROUNDS


def test_arena_matches_pernode_node_churns_out_mid_run(monkeypatch):
    """Node 2 away for two rounds: the stacked step gathers rows 0, 1, 3, 4, 5
    (no longer consecutive, so not bound in place) and writes them back."""

    scenario = ScenarioSchedule(
        name="mid-run-churn",
        outages=(NodeOutage(node=2, start_round=1, end_round=3),),
    )
    config = build_config(scenario=scenario)
    calls = count_train_calls(monkeypatch)
    assert_engines_agree(jwins_factory, config)
    assert calls["stacked"] == ROUNDS * config.local_steps


def test_single_row_arena_step_matches_sgd():
    """N=1: one batched step over a (1, d) arena equals per-tensor SGD exactly."""

    shapes = [(15, 16), (15,), (2, 15), (2,)]
    arenas = NodeArenas(1, shapes)
    rng = np.random.default_rng(11)
    arenas.params[0] = rng.normal(size=arenas.model_size)
    arenas.grads[0] = rng.normal(size=arenas.model_size)

    parameters = []
    for column_range, shape in zip(arenas.slices, arenas.shapes):
        parameter = Parameter(arenas.params[0, column_range].reshape(shape).copy())
        parameter.grad = arenas.grads[0, column_range].reshape(shape).copy()
        parameters.append(parameter)
    reference = SGD(parameters, lr=0.1)

    for _ in range(3):
        reference.step()
        arenas.step_rows(np.array([0]), lr=0.1)

    flat_reference = np.concatenate(
        [parameter.value.ravel() for parameter in parameters]
    )
    np.testing.assert_array_equal(arenas.params[0], flat_reference)


# -- interrupt + resume ------------------------------------------------------------


def pause_at(config: ExperimentConfig, rounds: int):
    simulator = Simulator(make_toy_task(), jwins_factory(), config)
    simulator.on_round_end(
        lambda r, n, now: (
            simulator.request_checkpoint_stop()
            if simulator.result.rounds_completed >= rounds
            else None
        )
    )
    with pytest.raises(ExperimentPaused) as info:
        simulator.run()
    return info.value.snapshot


def test_arena_interrupt_resume_is_byte_identical():
    config = replace(build_config(), engine="arena")
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)
    snapshot = pause_at(config, 3)
    assert snapshot.rounds_completed == 3
    resumed = run_experiment(
        make_toy_task(), jwins_factory(), config, resume_from=through_file(snapshot)
    )
    assert dumps(resumed) == dumps(uninterrupted)


@pytest.mark.parametrize(
    "pause_engine,resume_engine",
    [("pernode", "arena"), ("arena", "pernode")],
)
def test_snapshots_cross_engines(pause_engine, resume_engine):
    """Checkpoints are engine-agnostic: pause under one engine, resume under the other."""

    config = build_config()
    uninterrupted = run_experiment(make_toy_task(), jwins_factory(), config)
    snapshot = pause_at(replace(config, engine=pause_engine), 3)
    resumed = run_experiment(
        make_toy_task(),
        jwins_factory(),
        replace(config, engine=resume_engine),
        resume_from=through_file(snapshot),
    )
    assert dumps(resumed) == dumps(uninterrupted)


# -- arena plumbing ----------------------------------------------------------------


def test_build_arena_nodes_rebinds_views():
    """Node parameters and gradients alias the shared arenas."""

    config = build_config()
    nodes, arenas = build_arena_nodes(make_toy_task(), jwins_factory(), config)
    assert len(nodes) == config.num_nodes
    assert arenas.params.shape == (config.num_nodes, arenas.model_size)
    for node in nodes:
        for parameter in node.model.parameters():
            assert np.shares_memory(parameter.value, arenas.params)
            assert np.shares_memory(parameter.grad, arenas.grads)
        assert node.optimizer.parameters == node.parameters
        np.testing.assert_array_equal(
            node.get_parameters(), arenas.params[node.node_id]
        )


def test_node_parameter_list_stays_bound_to_the_arena():
    """The list a node captured at construction is what the arena rebinds.

    ``build_arena_nodes`` swaps ``.value``/``.grad`` on the same ``Parameter``
    objects, so everything the node routes through its list — flatten, write
    back, ``zero_grad`` — reads and writes arena rows.
    """

    config = build_config()
    nodes, arenas = build_arena_nodes(make_toy_task(), jwins_factory(), config)
    node = nodes[3]
    for kept, found in zip(node.parameters, node.model.parameters(), strict=True):
        assert kept is found
        assert np.shares_memory(kept.value, arenas.params[3])
        assert np.shares_memory(kept.grad, arenas.grads[3])
    vector = np.arange(arenas.model_size, dtype=np.float64)
    node.set_parameters(vector)
    np.testing.assert_array_equal(arenas.params[3], vector)
    np.testing.assert_array_equal(node.get_parameters(), vector)
    arenas.grads[3] = 1.0
    node.optimizer.zero_grad()
    assert not arenas.grads[3].any()


def test_node_arenas_validates_construction():
    with pytest.raises(SimulationError):
        NodeArenas(0, [(4,)])
    with pytest.raises(SimulationError):
        NodeArenas(3, [])


def test_step_rows_with_no_active_rows_is_a_no_op():
    arenas = NodeArenas(2, [(3,)])
    arenas.params[:] = 1.0
    arenas.grads[:] = 5.0
    arenas.step_rows(np.array([], dtype=np.int64), lr=0.1)
    np.testing.assert_array_equal(arenas.params, np.ones((2, 3)))


def test_jwins_batch_plan_rejects_heterogeneous_schemes():
    config = build_config()
    jwins_nodes, _ = build_arena_nodes(make_toy_task(), jwins_factory(), config)
    baseline_nodes, _ = build_arena_nodes(
        make_toy_task(), full_sharing_factory(), config
    )
    def share(nodes):
        return _share_passes([node.scheme for node in nodes])

    assert not share([])
    assert not share(baseline_nodes)
    # The engine never hands JWINS another class's rows; asked anyway, it declines.
    assert not share(jwins_nodes[:1] + baseline_nodes[1:])
    assert share(jwins_nodes)
    # Equal-but-distinct config objects share passes; any differing field does not.
    assert jwins_nodes[0].scheme.config is not jwins_nodes[1].scheme.config
    for field, value in (
        ("use_random_cutoff", False),
        ("use_accumulation", False),
        ("cutoff", CutoffDistribution.budgeted(0.2)),
    ):
        odd_nodes, _ = build_arena_nodes(make_toy_task(), jwins_factory(), config)
        odd_nodes[3].scheme.config = replace(odd_nodes[3].scheme.config, **{field: value})
        assert not share(odd_nodes), field


def test_engine_knob_is_validated():
    assert ENGINES == ("pernode", "arena")
    with pytest.raises(ConfigurationError):
        build_config(engine="vectorized")
    config = build_config()
    assert config.engine == "pernode"
    assert replace(config, engine="arena").engine == "arena"
    assert replace(config, engine="arena").to_dict()["engine"] == "arena"
