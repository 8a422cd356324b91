"""Tests for the Simulator engine: sync-mode equivalence and observer hooks.

The equivalence tests pin the redesign's central promise: running the
synchronous mode through the :func:`run_experiment` facade produces the
*identical* :class:`ExperimentResult` (history, bytes, simulated time) as the
seed repository's monolithic runner.  ``reference_run_experiment`` below is a
literal port of that seed loop — including its payload-sniffing
shared-fraction heuristic — kept here as the frozen reference.
"""

from __future__ import annotations

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.simulation
from repro.baselines import FullSharingScheme, choco_factory, full_sharing_factory
from repro.core import JwinsConfig, jwins_factory
from repro.core.interface import Message, RoundContext
from repro.exceptions import ExperimentPaused, SimulationError
from repro.scenarios import get_scenario
from repro.simulation import (
    ENGINES,
    AsynchronousMode,
    ExperimentConfig,
    SimulationObserver,
    Simulator,
    SynchronousMode,
    run_experiment,
)
from repro.simulation.engine import OBSERVER_HOOKS, build_nodes
from repro.simulation.metrics import ExperimentResult, RoundRecord
from repro.simulation.network import ByteMeter
from repro.topology.graphs import random_regular_topology
from repro.utils.rng import SeedSequenceFactory
from tests.conftest import make_toy_task
from tests.oracles.graphs import neighbors
from tests.oracles.weights import metropolis_hastings_weights


# -- the frozen seed-runner reference ---------------------------------------------


def _seed_shared_fraction(message: Message, model_size: int) -> float:
    """The seed runner's payload-sniffing heuristic, preserved verbatim."""

    values = message.payload.get("values")
    if values is None:
        return 1.0
    return min(1.0, np.asarray(values).size / max(1, model_size))


def _seed_evaluate(nodes, task, config, eval_rng):
    test = task.test
    sample_size = min(config.eval_test_samples, len(test))
    indices = eval_rng.choice(len(test), size=sample_size, replace=False)
    inputs, targets = test.batch(indices)
    if config.eval_nodes is None or config.eval_nodes >= len(nodes):
        evaluated = nodes
    else:
        chosen = eval_rng.choice(len(nodes), size=config.eval_nodes, replace=False)
        evaluated = [nodes[i] for i in chosen]
    losses, accuracies = [], []
    for node in evaluated:
        loss, accuracy = node.evaluate(inputs, targets, task.accuracy_fn)
        losses.append(loss)
        accuracies.append(accuracy)
    return float(np.mean(losses)), float(np.mean(accuracies))


def reference_run_experiment(task, scheme_factory, config, scheme_name=None):
    """Literal port of the seed repository's monolithic ``run_experiment``."""

    seeds = SeedSequenceFactory(config.seed)
    nodes = build_nodes(task, scheme_factory, config)
    model_size = nodes[0].get_parameters().size

    topology_rng = seeds.rng("topology")
    topology = random_regular_topology(config.num_nodes, config.degree, topology_rng)
    weights = metropolis_hastings_weights(topology)

    meter = ByteMeter(config.num_nodes)
    eval_rng = seeds.rng("evaluation")
    drop_rng = seeds.rng("message-drops")
    clock = 0.0

    result = ExperimentResult(
        scheme=scheme_name or nodes[0].scheme.name,
        task=task.name,
        num_nodes=config.num_nodes,
        rounds_completed=0,
        target_accuracy=config.target_accuracy,
    )

    def record_point(round_index, shared_fraction):
        test_loss, test_accuracy = _seed_evaluate(nodes, task, config, eval_rng)
        train_loss = float(np.mean([node.last_train_loss for node in nodes]))
        result.history.append(
            RoundRecord(
                round_index=round_index,
                test_accuracy=test_accuracy,
                test_loss=test_loss,
                train_loss=train_loss,
                cumulative_bytes_per_node=meter.average_bytes_per_node,
                cumulative_metadata_bytes_per_node=float(meter.metadata_bytes_per_node.mean()),
                simulated_time_seconds=clock,
                average_shared_fraction=shared_fraction,
            )
        )
        if (
            config.target_accuracy is not None
            and result.reached_target_at_round is None
            and result.history[-1].test_accuracy >= config.target_accuracy
        ):
            result.reached_target_at_round = round_index

    for round_index in range(config.rounds):
        if config.dynamic_topology and round_index > 0:
            topology = random_regular_topology(config.num_nodes, config.degree, topology_rng)
            weights = metropolis_hastings_weights(topology)

        contexts, messages = [], []
        for node in nodes:
            params_start, params_trained = node.local_training()
            neighbor_weights = {
                neighbor: float(weights[node.node_id, neighbor])
                for neighbor in neighbors(topology, node.node_id)
            }
            context = RoundContext(
                round_index=round_index,
                params_start=params_start,
                params_trained=params_trained,
                self_weight=float(weights[node.node_id, node.node_id]),
                neighbor_weights=neighbor_weights,
                rng=seeds.node_rng(node.node_id, "round", round_index),
            )
            message = node.scheme.prepare(context)
            meter.record_send(node.node_id, message.size, copies=len(neighbor_weights))
            contexts.append(context)
            messages.append(message)

        round_fractions = [_seed_shared_fraction(m, model_size) for m in messages]
        for node, context in zip(nodes, contexts):
            inbox = [messages[neighbor] for neighbor in neighbors(topology, node.node_id)]
            if config.message_drop_probability > 0.0:
                inbox = [
                    m for m in inbox if drop_rng.random() >= config.message_drop_probability
                ]
            new_params = node.scheme.aggregate(context, inbox)
            node.set_parameters(new_params)

        max_bytes = max(
            m.size.total_bytes * len(neighbors(topology, m.sender)) for m in messages
        )
        clock += config.resolved_time_model().round_duration(config.local_steps, max_bytes)
        meter.end_round()
        result.rounds_completed = round_index + 1

        is_last = round_index == config.rounds - 1
        if (round_index + 1) % config.eval_every == 0 or is_last:
            record_point(round_index + 1, float(np.mean(round_fractions)))
            if config.target_accuracy is not None and result.reached_target_at_round is not None:
                break

    result.total_bytes = meter.total_bytes
    result.total_metadata_bytes = meter.total_metadata_bytes
    result.total_values_bytes = meter.total_values_bytes
    result.simulated_time_seconds = clock
    return result


REGRESSION_CONFIG = ExperimentConfig(
    num_nodes=6,
    degree=2,
    rounds=6,
    local_steps=1,
    batch_size=8,
    learning_rate=0.1,
    eval_every=2,
    eval_test_samples=48,
    seed=3,
    partition="shards",
)


@pytest.mark.parametrize(
    "scheme_name, factory_builder",
    [
        ("jwins", lambda: jwins_factory(JwinsConfig.paper_default())),
        ("choco", lambda: choco_factory(fraction=0.2)),
    ],
)
def test_sync_mode_reproduces_the_seed_runner_exactly(scheme_name, factory_builder):
    reference = reference_run_experiment(
        make_toy_task(), factory_builder(), REGRESSION_CONFIG, scheme_name=scheme_name
    )
    current = run_experiment(
        make_toy_task(), factory_builder(), REGRESSION_CONFIG, scheme_name=scheme_name
    )
    assert current.history == reference.history
    assert current.total_bytes == reference.total_bytes
    assert current.total_metadata_bytes == reference.total_metadata_bytes
    assert current.total_values_bytes == reference.total_values_bytes
    assert current.simulated_time_seconds == reference.simulated_time_seconds
    assert current.rounds_completed == reference.rounds_completed
    assert current.reached_target_at_round == reference.reached_target_at_round


def test_sync_mode_equivalence_holds_under_message_drops():
    from dataclasses import replace

    config = replace(REGRESSION_CONFIG, message_drop_probability=0.2)
    reference = reference_run_experiment(make_toy_task(), full_sharing_factory(), config)
    current = run_experiment(make_toy_task(), full_sharing_factory(), config)
    assert current.history == reference.history
    assert current.total_bytes == reference.total_bytes
    assert current.simulated_time_seconds == reference.simulated_time_seconds


# -- engine surface ---------------------------------------------------------------


def test_simulator_mode_follows_config(toy_task, small_config):
    sync = Simulator(toy_task, full_sharing_factory(), small_config)
    assert isinstance(sync.mode, SynchronousMode)
    async_sim = Simulator(
        toy_task, full_sharing_factory(), replace(small_config, execution="async")
    )
    assert isinstance(async_sim.mode, AsynchronousMode)


def test_simulator_is_single_shot(toy_task, small_config):
    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    simulator.run()
    with pytest.raises(SimulationError):
        simulator.run()


def test_sync_result_reports_execution_and_zero_skew(toy_task, small_config):
    result = run_experiment(toy_task, full_sharing_factory(), small_config)
    assert result.execution == "sync"
    assert len(result.per_node_time_seconds) == small_config.num_nodes
    assert result.clock_skew_seconds == 0.0
    assert all(t == result.simulated_time_seconds for t in result.per_node_time_seconds)


def test_callback_hooks_fire(toy_task, small_config):
    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    rounds, deliveries, evaluations = [], [], []
    simulator.on_round_end(lambda round_index, node_id, now: rounds.append((round_index, node_id)))
    simulator.on_message(lambda message, receiver, now: deliveries.append((message.sender, receiver)))
    simulator.on_evaluate(lambda record: evaluations.append(record))
    result = simulator.run()

    assert [r for r, _ in rounds] == list(range(small_config.rounds))
    assert all(node_id is None for _, node_id in rounds)  # global barrier rounds
    # Every node receives one message per neighbor per round (no drops configured).
    expected = small_config.rounds * sum(
        len(neighbors(simulator.topology, n)) for n in range(small_config.num_nodes)
    )
    assert len(deliveries) == expected
    assert evaluations == result.history


def test_observer_object_receives_all_hooks(toy_task, small_config):
    class Recorder(SimulationObserver):
        def __init__(self):
            self.rounds = 0
            self.messages = 0
            self.records = 0

        def on_round_end(self, round_index, node_id, now):
            self.rounds += 1

        def on_message(self, message, receiver, now):
            self.messages += 1

        def on_evaluate(self, record):
            self.records += 1

    recorder = Recorder()
    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    simulator.add_observer(recorder)
    result = simulator.run()
    assert recorder.rounds == small_config.rounds
    assert recorder.records == len(result.history)
    assert recorder.messages > 0


def test_observers_do_not_perturb_the_run(toy_task, small_config):
    plain = run_experiment(make_toy_task(), full_sharing_factory(), small_config)
    observed_sim = Simulator(make_toy_task(), full_sharing_factory(), small_config)
    observed_sim.add_observer(SimulationObserver())
    observed = observed_sim.run()
    assert observed.history == plain.history
    assert observed.total_bytes == plain.total_bytes


class _HookLog(SimulationObserver):
    """Every hook but ``on_message``, in call order, with the settled progress."""

    def __init__(self):
        self.simulator = None
        self.events = []

    def on_run_start(self, simulator):
        self.simulator = simulator
        self.events.append(("run_start",))

    def on_round_end(self, round_index, node_id, now):
        self.events.append(("round_end", self.simulator.result.rounds_completed))

    def on_evaluate(self, record):
        self.events.append(("evaluate", record.round_index))

    def on_checkpoint(self, rounds_completed, reason):
        self.events.append(("checkpoint", rounds_completed, reason))

    def on_run_end(self, result):
        self.events.append(("run_end", result.rounds_completed))


def _check_hook_order(events, config, completed):
    assert events[0] == ("run_start",)
    assert events.count(("run_start",)) == 1
    ends = [index for index, event in enumerate(events) if event[0] == "run_end"]
    assert ends == ([len(events) - 1] if completed else [])
    for index, event in enumerate(events):
        if event[0] == "evaluate":
            # Right after the round end that settled its round.
            assert events[index - 1] == ("round_end", event[1])
        elif event[0] == "checkpoint":
            rounds = event[1]
            assert events[index - 1] in {("round_end", rounds), ("evaluate", rounds)}
            if rounds % config.eval_every == 0 or rounds == config.rounds:
                assert ("evaluate", rounds) in events[:index]


@pytest.mark.parametrize("execution", ["sync", "async"])
def test_observer_hooks_fire_in_contract_order_across_a_pause(execution, pause_after_round):
    """Run start first; round end, then its evaluation, then its checkpoint;
    run end last, and only when the run completes."""

    config = ExperimentConfig(
        num_nodes=6, degree=2, rounds=6, local_steps=1, batch_size=8, eval_every=2,
        eval_test_samples=32, seed=3, execution=execution,
        scenario=get_scenario("churn-partition", num_nodes=6, rounds=6),
    )
    snapshots = []
    paused_log = _HookLog()
    simulator = Simulator(
        make_toy_task(), full_sharing_factory(), config,
        checkpoint_every=2, checkpoint_sink=snapshots.append,
    ).add_observer(paused_log)
    pause_after_round(3)
    with pytest.raises(ExperimentPaused):
        simulator.run()
    pause_after_round(None)
    _check_hook_order(paused_log.events, config, completed=False)
    assert [event for event in paused_log.events if event[0] == "checkpoint"] == [
        ("checkpoint", 2, "cadence"),
        ("checkpoint", 3, "stop"),
    ]

    resumed_log = _HookLog()
    resumed = Simulator(
        make_toy_task(), full_sharing_factory(), config,
        checkpoint_every=2, checkpoint_sink=snapshots.append, resume_from=snapshots[-1],
    ).add_observer(resumed_log)
    result = resumed.run()
    _check_hook_order(resumed_log.events, config, completed=True)
    assert [event for event in resumed_log.events if event[0] == "checkpoint"] == [
        ("checkpoint", 4, "cadence"),
        ("checkpoint", 6, "cadence"),
    ]
    assert resumed_log.events[-1] == ("run_end", result.rounds_completed)


def test_an_observer_gets_only_the_hooks_it_defines(toy_task, small_config, monkeypatch):
    inherited = []
    for name in OBSERVER_HOOKS:
        monkeypatch.setattr(
            SimulationObserver, name, lambda self, *args, name=name: inherited.append(name)
        )

    class OnlyEvaluations(SimulationObserver):
        def __init__(self):
            self.records = []

        def on_evaluate(self, record):
            self.records.append(record)

    class RunEnd:  # hooks by name alone, no base class
        def __init__(self):
            self.results = []

        def on_run_end(self, result):
            self.results.append(result)

    evaluations, run_end = OnlyEvaluations(), RunEnd()
    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    result = simulator.add_observer(evaluations).add_observer(run_end).run()
    assert evaluations.records == result.history
    assert run_end.results == [result]
    assert inherited == []


def test_a_simulator_without_observers_has_every_hook_list_empty(toy_task, small_config):
    """Telemetry is observers only: a bare run attaches nothing to any hook."""

    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    assert set(simulator._hooks) == set(OBSERVER_HOOKS)
    assert {"on_send", "on_refuse"} <= set(OBSERVER_HOOKS)
    assert all(callbacks == [] for callbacks in simulator._hooks.values())
    leftovers = [name for name in vars(simulator) if name.startswith("_m_")]
    assert leftovers == []
    assert not hasattr(simulator, "metrics") and not hasattr(simulator, "_latency_marks")


# -- explicit shared_fraction (replaces the payload sniffing) ---------------------


def test_message_shared_fraction_defaults_to_full_model():
    message = Message(sender=0, kind="anything", payload={})
    assert message.shared_fraction == 1.0


def test_schemes_fill_shared_fraction(toy_task, small_config):
    nodes = build_nodes(toy_task, jwins_factory(JwinsConfig.paper_default()), small_config)
    node = nodes[0]
    params_start, params_trained = node.local_training()
    context = RoundContext(
        round_index=0,
        params_start=params_start,
        params_trained=params_trained,
        self_weight=0.5,
        neighbor_weights={1: 0.5},
        rng=np.random.default_rng(0),
    )
    message = node.scheme.prepare(context)
    assert 0.0 < message.shared_fraction <= 1.0
    # JWINS reports the values it actually packed, relative to the model size.
    expected = min(1.0, message.payload["values"].size / context.model_size)
    assert message.shared_fraction == expected


def test_full_sharing_reports_fraction_one(toy_task, small_config):
    nodes = build_nodes(toy_task, full_sharing_factory(), small_config)
    node = nodes[0]
    params_start, params_trained = node.local_training()
    context = RoundContext(
        round_index=0,
        params_start=params_start,
        params_trained=params_trained,
        self_weight=0.5,
        neighbor_weights={1: 0.5},
        rng=np.random.default_rng(0),
    )
    assert node.scheme.prepare(context).shared_fraction == 1.0


def test_round_context_carries_now_and_node_id(toy_task, small_config):
    seen = []

    class Spy(SimulationObserver):
        pass

    simulator = Simulator(toy_task, full_sharing_factory(), small_config)
    original = simulator.make_context

    def capture(node, round_index, params_start, params_trained, now):
        context = original(node, round_index, params_start, params_trained, now)
        seen.append((context.node_id, context.now))
        return context

    simulator.make_context = capture
    simulator.run()
    assert all(node_id >= 0 for node_id, _ in seen)
    assert seen[0][1] == 0.0  # the first round happens at t=0


# -- the stage functions' own checks, on both state layouts ---------------------------


class _WrongSender(FullSharingScheme):
    def prepare(self, context):
        message = super().prepare(context)
        return replace(message, sender=message.sender + 1)


class _WrongShape(FullSharingScheme):
    def aggregate(self, context, messages):
        return super().aggregate(context, messages)[:-1]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "scheme_type,error",
    [(_WrongSender, "wrong sender id"), (_WrongShape, "aggregation produced a")],
)
def test_stages_reject_a_wrong_sender_and_a_wrong_shape(
    engine, scheme_type, error, toy_task, small_config
):
    simulator = Simulator(toy_task, scheme_type, replace(small_config, engine=engine))
    with pytest.raises(SimulationError, match=error):
        simulator.run()


def test_simulation_reaches_schemes_through_the_interface_only():
    """By AST: nothing under ``repro/simulation/`` imports a scheme's internals.

    The simulator drives every scheme through :mod:`repro.core.interface`; what
    a scheme transforms, ranks or selects with is not the simulator's business.
    """

    offenders = []
    for path in sorted(Path(repro.simulation.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{path.name}: relative import hides its target"
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.startswith(("repro.wavelets", "repro.sparsification"))
                or (name.startswith("repro.core") and not name.startswith("repro.core.interface."))
            ]
    assert not offenders, offenders
