"""The round stages both schedules share, and the gossip loop's handler table.

``admit`` owns the send-time filters and reports each refusal to the
observers (here a metrics registry); the two draw rules
(lock-step draws only when drops are configured, gossip always) are pinned
through the state of the ``message-drops`` stream.  The event-loop handlers
are driven directly on a bound 4-node simulator, one event at a time.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import jwins_factory
from repro.core.interface import Message
from repro.exceptions import ExperimentPaused
from repro.observability.metrics import MetricsRegistry
from repro.scenarios import get_scenario
from repro.scenarios.schedule import NodeOutage, ScenarioSchedule, ScenarioState
from repro.simulation import ExperimentConfig, Simulator, engine
from repro.simulation.events import (
    AGGREGATE,
    DELIVER_MESSAGE,
    FINISH_TRAIN,
    NODE_RESUME,
    START_ROUND,
    Event,
)
from tests.conftest import from_stored_form, make_toy_task, stored_form

CONFIG = ExperimentConfig(
    num_nodes=4,
    degree=2,
    rounds=4,
    local_steps=1,
    batch_size=8,
    learning_rate=0.1,
    eval_every=2,
    eval_test_samples=48,
    seed=3,
    partition="shards",
)
GOSSIP = replace(
    CONFIG,
    execution="async",
    compute_speed_range=(1.0, 2.0),
    link_latency_jitter_seconds=0.01,
)


def build(config, **kwargs):
    return Simulator(make_toy_task(), jwins_factory(), config, **kwargs)


def lossy():
    """A lock-step simulator with a fair drop coin, and its registry."""

    registry = MetricsRegistry()
    simulator = build(replace(CONFIG, message_drop_probability=0.5), metrics=registry)
    registry.on_run_start(simulator)
    return simulator, registry


def refused(registry):
    """``(suppressed, dropped)`` copies the registry counted."""

    return tuple(
        registry.counter(f"engine_messages_{reason}").value
        for reason in ("suppressed", "dropped")
    )


def drop_stream_state(simulator):
    return simulator._drop_rng.bit_generator.state


# -- admit ------------------------------------------------------------------------------
# Nodes 0-2 are up, node 3 is offline; node 2 sits across an open partition.
STATE = ScenarioState(
    round_index=0, active=(0, 1, 2), partition_ids=(0, 0, 1, 0), slowdowns=(1.0,) * 4
)
FROM_0 = Message(sender=0, kind="test", payload={})


@pytest.mark.parametrize("receiver", [2, 3], ids=["partitioned", "offline-receiver"])
def test_admit_suppresses_what_the_scenario_forbids_without_a_draw(receiver):
    simulator, registry = lossy()
    untouched = drop_stream_state(simulator)
    assert not engine.admit(simulator, STATE, FROM_0, receiver, 0.0, True)
    assert refused(registry) == (1, 0)
    assert drop_stream_state(simulator) == untouched


def test_admit_draws_once_per_allowed_copy_and_counts_each_drop():
    simulator, registry = lossy()
    twin = simulator.seeds.rng("message-drops")
    expected = [bool(twin.random() >= 0.5) for _ in range(16)]
    assert [engine.admit(simulator, STATE, FROM_0, 1, 0.0, True) for _ in expected] == expected
    assert 0 < expected.count(False) < len(expected)
    assert refused(registry)[1] == expected.count(False)
    assert refused(registry)[0] == 0
    assert drop_stream_state(simulator) == twin.bit_generator.state


def test_admit_without_draw_passes_the_copy_and_leaves_the_stream_alone():
    simulator, registry = lossy()
    untouched = drop_stream_state(simulator)
    assert all(engine.admit(simulator, STATE, FROM_0, 1, 0.0, False) for _ in range(8))
    assert refused(registry) == (0, 0)
    assert drop_stream_state(simulator) == untouched


# -- the two draw rules -----------------------------------------------------------------
def test_lock_step_without_drops_never_touches_the_drop_stream():
    scenario = get_scenario("churn-partition", num_nodes=4, rounds=CONFIG.rounds)
    simulator = build(replace(CONFIG, scenario=scenario))
    simulator.run()
    assert drop_stream_state(simulator) == (
        simulator.seeds.rng("message-drops").bit_generator.state
    )


@pytest.mark.parametrize("probability", [0.0, 0.3])
def test_gossip_draws_once_per_copy_that_passed_the_scenario_filter(
    probability, monkeypatch
):
    scenario = get_scenario("churn-partition", num_nodes=4, rounds=GOSSIP.rounds)
    registry = MetricsRegistry()
    simulator = build(
        replace(GOSSIP, scenario=scenario, message_drop_probability=probability),
        metrics=registry,
    )
    filtered = []
    real_admit = engine.admit

    def spy(sim, state, message, receiver, now, draw):
        assert draw is True
        filtered.append(state.allows(message.sender, receiver))
        return real_admit(sim, state, message, receiver, now, draw)

    monkeypatch.setattr(engine, "admit", spy)
    simulator.run()
    assert filtered.count(False) > 0, "the preset should suppress some copies"
    twin = simulator.seeds.rng("message-drops")
    draws = twin.random(filtered.count(True))
    assert drop_stream_state(simulator) == twin.bit_generator.state
    assert refused(registry)[1] == int(np.sum(draws < probability))


# -- state() / load_state() -------------------------------------------------------------
MODE_STATE_KEYS = {
    "kind",
    "loop",
    "inboxes",
    "contexts",
    "node_round",
    "node_clock",
    "last_fraction",
    "evaluated_through",
    "latency_rng",
}


def test_load_state_reproduces_state_byte_for_byte_mid_flight():
    config = replace(GOSSIP, message_drop_probability=0.1)
    simulator = build(config)
    simulator.on_round_end(
        lambda r, n, now: (
            simulator.request_checkpoint_stop()
            if simulator.result.rounds_completed >= 2
            else None
        )
    )
    with pytest.raises(ExperimentPaused) as info:
        simulator.run()
    mode_state = info.value.snapshot.mode_state
    assert set(mode_state) == MODE_STATE_KEYS
    assert mode_state["loop"]["events"], "paused mid-flight: the queue is not empty"
    assert any(mode_state["inboxes"]) or any(
        context is not None for context in mode_state["contexts"]
    )
    form = stored_form(mode_state)
    assert stored_form(simulator.mode.state()) == form

    fresh = build(config)
    fresh.mode.bind(fresh)
    fresh.mode.load_state(from_stored_form(form))
    assert stored_form(fresh.mode.state()) == form


# -- the handlers, one event at a time --------------------------------------------------
def bound(config=GOSSIP, senders=(), **kwargs):
    """A bound simulator and the round-0 messages of ``senders`` (trained, encoded)."""

    simulator = build(config, **kwargs)
    simulator._notify("on_run_start", simulator)  # as ``run`` does before binding
    mode = simulator.mode
    mode.bind(simulator)
    messages = {}
    for sender in senders:
        mode.finish_train(Event(0.0, FINISH_TRAIN, sender))
        messages[sender] = next(
            event.data["message"]
            for event in mode.loop.pending()
            if event.kind == DELIVER_MESSAGE and event.data["message"].sender == sender
        )
    return simulator, mode, messages


def delivery(message, receiver, round_sent, time=1.0):
    return Event(time, DELIVER_MESSAGE, receiver, data={"message": message, "round": round_sent})


def test_the_handler_table_covers_the_five_event_kinds():
    _, mode, _ = bound()
    assert set(mode.handlers) == {START_ROUND, FINISH_TRAIN, DELIVER_MESSAGE, AGGREGATE, NODE_RESUME}


def test_start_round_schedules_training_or_the_end_of_an_outage():
    outage = ScenarioSchedule(name="out", outages=(NodeOutage(1, 0, 1),))
    _, mode, _ = bound(replace(GOSSIP, scenario=outage))
    mode.start_round(Event(0.0, START_ROUND, 0))
    mode.start_round(Event(0.0, START_ROUND, 1))
    scheduled = {(event.kind, event.node_id) for event in mode.loop.pending()}
    assert scheduled == {(FINISH_TRAIN, 0), (NODE_RESUME, 1)}
    assert all(event.time > 0.0 for event in mode.loop.pending())


def test_finish_train_sends_one_copy_per_neighbor_then_aggregates():
    simulator, mode, messages = bound(senders=(0,))
    neighbors = list(simulator.mixing[0].neighbors)
    events = mode.loop.pending()
    assert sorted(e.node_id for e in events if e.kind == DELIVER_MESSAGE) == sorted(neighbors)
    assert [(e.kind, e.node_id) for e in events if e.kind != DELIVER_MESSAGE] == [(AGGREGATE, 0)]
    assert mode.contexts[0] is not None
    assert mode.last_fraction[0] == messages[0].shared_fraction
    assert simulator.meter.total_bytes == messages[0].size.total_bytes * len(neighbors)


def test_a_delivery_to_a_receiver_offline_in_its_own_round_is_lost():
    outage = ScenarioSchedule(name="out", outages=(NodeOutage(1, 0, 1),))
    registry = MetricsRegistry()
    simulator, mode, messages = bound(
        replace(GOSSIP, scenario=outage), senders=(0,), metrics=registry
    )
    seen = []
    simulator.on_message(lambda message, receiver, now: seen.append(receiver))
    suppressed = refused(registry)[0]  # node 0's round-0 copy to node 1

    # Sent in the sender's round 1 (node 1 is back), landing in node 1's round 0.
    mode.deliver(delivery(messages[0], 1, round_sent=1))
    assert mode.inboxes[1] == {} and seen == []
    assert refused(registry)[0] == suppressed + 1

    mode.node_round[1] = 1
    mode.deliver(delivery(messages[0], 1, round_sent=1))
    assert mode.inboxes[1] == {0: (1, messages[0])} and seen == [1]
    assert refused(registry)[0] == suppressed + 1


def test_the_inbox_keeps_the_freshest_message_per_sender_under_reordering():
    simulator, mode, messages = bound(senders=(0,))
    seen = []
    simulator.on_message(lambda message, receiver, now: seen.append(message))
    older, newer, newest = (replace(messages[0]) for _ in range(3))
    mode.deliver(delivery(newer, 1, round_sent=2, time=1.0))
    mode.deliver(delivery(older, 1, round_sent=1, time=2.0))  # overtaken in flight
    assert mode.inboxes[1][0] == (2, newer) and mode.inboxes[1][0][1] is newer
    mode.deliver(delivery(newest, 1, round_sent=2, time=3.0))  # a tie goes to the later arrival
    assert mode.inboxes[1][0][1] is newest
    assert [id(message) for message in seen] == [id(newer), id(older), id(newest)]
    assert mode.node_clock[1] == 0.0  # deliveries never advance the receiver's clock


def test_aggregate_ignores_a_sender_that_a_rewire_retired():
    def close_round(hold_stranger):
        simulator, mode, messages = bound(senders=(0, 1, 2, 3))
        neighbor, _ = simulator.mixing[0].neighbors
        (stranger,) = set(range(1, 4)) - set(mode.contexts[0].neighbor_weights)
        mode.deliver(delivery(messages[neighbor], 0, round_sent=0))
        if hold_stranger:  # its edge to node 0 was retired while the copy was in flight
            mode.deliver(delivery(messages[stranger], 0, round_sent=0))
        mode.aggregate(Event(2.0, AGGREGATE, 0))
        return simulator, mode

    simulator, mode = close_round(hold_stranger=True)
    reference, _ = close_round(hold_stranger=False)
    np.testing.assert_array_equal(
        simulator.nodes[0].get_parameters(), reference.nodes[0].get_parameters()
    )
    assert mode.inboxes[0] == {} and mode.contexts[0] is None
    assert mode.node_round == [1, 0, 0, 0]
    restart = mode.loop.pending()[-1]
    assert (restart.kind, restart.node_id, restart.time) == (START_ROUND, 0, 2.0)


def test_resume_node_closes_a_silent_round():
    simulator, mode, _ = bound()
    ended = []
    simulator.on_round_end(lambda round_index, node_id, now: ended.append((round_index, node_id)))
    mode.resume_node(Event(1.5, NODE_RESUME, 3))
    assert mode.last_fraction[3] == 0.0 and mode.node_round[3] == 1
    assert ended == [(0, 3)]
    assert [(e.kind, e.node_id, e.time) for e in mode.loop.pending()] == [(START_ROUND, 3, 1.5)]
