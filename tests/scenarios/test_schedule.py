"""Tests for ScenarioSchedule: validation, state computation, round trips."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios import (
    BYZANTINE_MODES,
    ByzantineWindow,
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    StragglerWindow,
)
from repro.topology.policy import GeneratorPolicy


def _rich_schedule() -> ScenarioSchedule:
    return ScenarioSchedule(
        name="everything",
        topology=GeneratorPolicy(
            generator="small-world", rewire_every=2, params=(("beta", 0.25),)
        ),
        outages=(
            NodeOutage(node=1, start_round=2, end_round=4),
            NodeOutage(node=3, start_round=5),  # never returns
        ),
        partitions=(
            PartitionWindow(start_round=3, end_round=6, groups=((0, 1), (2, 3))),
        ),
        stragglers=(
            StragglerWindow(start_round=1, end_round=8, nodes=(0,), slowdown=3.0),
            StragglerWindow(start_round=4, end_round=6, nodes=(0, 2), slowdown=2.0),
        ),
        byzantine=(
            ByzantineWindow(start_round=2, end_round=5, nodes=(2,), mode="sign-flip"),
            ByzantineWindow(
                start_round=3, end_round=7, nodes=(1, 2), mode="stale-replay"
            ),
        ),
    )


class TestValidation:
    def test_default_has_no_events(self):
        assert not ScenarioSchedule().has_events

    def test_an_outage_is_an_event(self):
        schedule = ScenarioSchedule(outages=(NodeOutage(node=0, start_round=1, end_round=2),))
        assert schedule.has_events

    def test_rewiring_alone_is_event_free(self):
        schedule = ScenarioSchedule(topology=GeneratorPolicy(rewire_every=1))
        assert not schedule.has_events

    def test_rejects_bad_windows(self):
        with pytest.raises(ConfigurationError):
            NodeOutage(node=0, start_round=3, end_round=3)
        with pytest.raises(ConfigurationError):
            NodeOutage(node=-1, start_round=0, end_round=1)
        with pytest.raises(ConfigurationError):
            PartitionWindow(start_round=0, end_round=2, groups=((0, 1),))
        with pytest.raises(ConfigurationError):
            PartitionWindow(start_round=0, end_round=2, groups=((0, 1), (1, 2)))
        with pytest.raises(ConfigurationError):
            StragglerWindow(start_round=0, end_round=2, nodes=(0,), slowdown=0.5)
        with pytest.raises(ConfigurationError):
            StragglerWindow(start_round=0, end_round=2, nodes=(), slowdown=2.0)

    def test_validate_for_checks_node_ids(self):
        schedule = ScenarioSchedule(outages=(NodeOutage(node=9, start_round=0, end_round=1),))
        with pytest.raises(ConfigurationError, match="node 9"):
            schedule.validate_for(4)
        schedule.validate_for(10)  # fits a larger deployment

    def test_all_nodes_offline_rejected(self):
        schedule = ScenarioSchedule(
            outages=tuple(NodeOutage(node=n, start_round=1, end_round=2) for n in range(3))
        )
        with pytest.raises(ConfigurationError, match="no active nodes"):
            schedule.state_at(1, 3)


class TestStateAt:
    def test_trivial_state(self):
        state = ScenarioSchedule().state_at(0, 4)
        assert state.active == (0, 1, 2, 3)
        assert state.partition_ids == (None, None, None, None)
        assert state.slowdowns == (1.0, 1.0, 1.0, 1.0)
        assert state.max_slowdown() == 1.0
        assert state.allows(0, 3)

    def test_outage_windows(self):
        schedule = _rich_schedule()
        assert schedule.state_at(1, 4).active == (0, 1, 2, 3)
        assert schedule.state_at(2, 4).active == (0, 2, 3)  # node 1 down
        assert schedule.state_at(4, 4).active == (0, 1, 2, 3)  # node 1 back
        assert schedule.state_at(7, 4).active == (0, 1, 2)  # node 3 gone forever
        assert not schedule.state_at(2, 4).is_active(1)
        assert not schedule.state_at(2, 4).allows(0, 1)  # offline receiver
        assert not schedule.state_at(2, 4).allows(1, 0)  # offline sender

    def test_partition_window(self):
        schedule = _rich_schedule()
        inside = schedule.state_at(4, 4)
        assert inside.partition_ids == (0, 0, 1, 1)
        assert inside.allows(0, 1)
        assert not inside.allows(1, 2)
        outside = schedule.state_at(6, 4)
        assert outside.partition_ids == (None,) * 4
        assert outside.allows(1, 2)

    def test_unlisted_nodes_form_the_remainder_group(self):
        schedule = ScenarioSchedule(
            partitions=(PartitionWindow(start_round=0, end_round=2, groups=((0,), (1,))),)
        )
        state = schedule.state_at(0, 4)
        assert state.allows(2, 3)  # both unlisted: they keep talking
        assert not state.allows(0, 2)

    def test_overlapping_stragglers_multiply(self):
        schedule = _rich_schedule()
        assert schedule.state_at(2, 4).slowdowns[0] == 3.0
        assert schedule.state_at(4, 4).slowdowns[0] == 6.0
        assert schedule.state_at(4, 4).slowdowns[2] == 2.0
        assert schedule.state_at(4, 4).max_slowdown() == 6.0

    def test_allows_and_is_active_agree_with_the_definition_every_round(self):
        # Table test over churn + partition states: membership in the ordered
        # `active` tuple and equal partition ids are the definition.
        schedule = _rich_schedule()
        for round_index in range(9):
            state = schedule.state_at(round_index, 4)
            assert isinstance(state.active, tuple) and list(state.active) == sorted(state.active)
            for sender in range(-1, 5):
                assert state.is_active(sender) == (sender in state.active)
                for receiver in range(4):
                    expected = (
                        sender in state.active
                        and receiver in state.active
                        and state.partition_ids[sender] == state.partition_ids[receiver]
                    )
                    assert state.allows(sender, receiver) == expected

    def test_max_slowdown_ignores_offline_nodes(self):
        schedule = ScenarioSchedule(
            outages=(NodeOutage(node=0, start_round=0, end_round=2),),
            stragglers=(StragglerWindow(start_round=0, end_round=2, nodes=(0,), slowdown=9.0),),
        )
        assert schedule.state_at(0, 4).max_slowdown() == 1.0


class TestRoundTrips:
    def test_trivial_round_trip_is_exact(self):
        schedule = ScenarioSchedule()
        rebuilt = ScenarioSchedule.from_dict(json.loads(json.dumps(schedule.to_dict())))
        assert rebuilt == schedule

    def test_rich_round_trip_is_exact(self):
        schedule = _rich_schedule()
        rebuilt = ScenarioSchedule.from_dict(json.loads(json.dumps(schedule.to_dict())))
        assert rebuilt == schedule
        assert rebuilt.to_dict() == schedule.to_dict()

    def test_unknown_fields_rejected(self):
        data = ScenarioSchedule().to_dict()
        data["weather"] = "rainy"
        with pytest.raises(ConfigurationError, match="weather"):
            ScenarioSchedule.from_dict(data)

    def test_constructor_refuses_mappings(self):
        """Mappings are read by ``from_dict``; the constructor takes objects."""

        data = _rich_schedule().to_dict()
        with pytest.raises(ConfigurationError, match="GeneratorPolicy"):
            ScenarioSchedule(topology=data["topology"])
        for name, cls in (
            ("outages", "NodeOutage"),
            ("partitions", "PartitionWindow"),
            ("stragglers", "StragglerWindow"),
            ("byzantine", "ByzantineWindow"),
        ):
            with pytest.raises(ConfigurationError, match=f"expected {cls} entries, got dict"):
                ScenarioSchedule(**{name: tuple(data[name])})


class TestByzantine:
    def test_rejects_bad_windows(self):
        with pytest.raises(ConfigurationError):
            ByzantineWindow(start_round=3, end_round=3, nodes=(0,), mode="sign-flip")
        with pytest.raises(ConfigurationError):
            ByzantineWindow(start_round=0, end_round=2, nodes=(), mode="sign-flip")
        with pytest.raises(ConfigurationError):
            ByzantineWindow(start_round=0, end_round=2, nodes=(1, 1), mode="sign-flip")
        with pytest.raises(ConfigurationError, match="unknown byzantine mode"):
            ByzantineWindow(start_round=0, end_round=2, nodes=(0,), mode="gaslight")

    def test_nodes_are_sorted_and_modes_enumerated(self):
        window = ByzantineWindow(start_round=0, end_round=2, nodes=(3, 1), mode="sign-flip")
        assert window.nodes == (1, 3)
        for mode in BYZANTINE_MODES:
            ByzantineWindow(start_round=0, end_round=1, nodes=(0,), mode=mode)

    def test_state_resolution_is_earliest_declared_wins(self):
        schedule = _rich_schedule()
        # Round 2: only the first window ([2, 5) sign-flip on node 2) is open.
        state = schedule.state_at(2, 4)
        assert state.byzantine == (None, None, "sign-flip", None)
        assert state.byzantine_mode(2) == "sign-flip"
        assert state.byzantine_mode(0) is None
        # Round 4: both windows open; node 2 keeps the earliest-declared mode,
        # node 1 only appears in the second window.
        state = schedule.state_at(4, 4)
        assert state.byzantine == (None, "stale-replay", "sign-flip", None)
        # Round 6: only the second window is still open.
        state = schedule.state_at(6, 4)
        assert state.byzantine == (None, "stale-replay", "stale-replay", None)

    def test_trivial_schedule_reports_everyone_honest(self):
        state = ScenarioSchedule().state_at(0, 4)
        assert state.byzantine_mode(3) is None

    def test_byzantine_alone_is_an_event(self):
        schedule = ScenarioSchedule(
            byzantine=(ByzantineWindow(start_round=0, end_round=1, nodes=(0,), mode="sign-flip"),)
        )
        assert schedule.has_events

    def test_validate_for_checks_byzantine_node_ids(self):
        schedule = ScenarioSchedule(
            byzantine=(ByzantineWindow(start_round=0, end_round=1, nodes=(7,), mode="sign-flip"),)
        )
        with pytest.raises(ConfigurationError, match="node 7"):
            schedule.validate_for(4)
        schedule.validate_for(8)


class TestValidateForRounds:
    def test_window_opening_past_the_run_is_named_in_the_error(self):
        schedule = ScenarioSchedule(
            name="late",
            outages=(NodeOutage(node=1, start_round=9, end_round=11),),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            schedule.validate_for(4, rounds=5)
        message = str(excinfo.value)
        assert "'late'" in message
        assert "outage" in message
        assert '"start_round": 9' in message  # the offending window, as JSON
        assert "5 round(s)" in message

    def test_every_window_kind_is_checked(self):
        late = dict(start_round=6, end_round=8)
        for schedule in (
            ScenarioSchedule(outages=(NodeOutage(node=0, **late),)),
            ScenarioSchedule(
                partitions=(PartitionWindow(groups=((0,), (1,)), **late),)
            ),
            ScenarioSchedule(
                stragglers=(StragglerWindow(nodes=(0,), slowdown=2.0, **late),)
            ),
            ScenarioSchedule(
                byzantine=(ByzantineWindow(nodes=(0,), mode="sign-flip", **late),)
            ),
        ):
            with pytest.raises(ConfigurationError, match="starts at round 6"):
                schedule.validate_for(4, rounds=5)

    def test_windows_merely_ending_past_the_run_are_legal(self):
        schedule = ScenarioSchedule(
            outages=(NodeOutage(node=1, start_round=2, end_round=50),),
            byzantine=(
                ByzantineWindow(start_round=0, end_round=99, nodes=(0,), mode="sign-flip"),
            ),
        )
        schedule.validate_for(4, rounds=5)  # truncated by the run, not an error

    def test_rich_schedule_passes_when_rounds_suffice(self):
        _rich_schedule().validate_for(4, rounds=8)

    def test_without_rounds_only_node_ids_are_checked(self):
        schedule = ScenarioSchedule(
            outages=(NodeOutage(node=0, start_round=100, end_round=101),)
        )
        schedule.validate_for(4)  # rounds unknown: nothing to flag
