"""Scenario subsystem: declarative environment schedules for experiments.

The JWINS paper only varies one environmental knob (a per-round re-randomized
topology, Section IV-D); real decentralized deployments also see node churn,
network partitions, stragglers and adversarial senders.  This package
expresses all of those as one serializable
:class:`~repro.scenarios.schedule.ScenarioSchedule` consumed by both execution
modes of the simulation engine::

    from repro.scenarios import get_scenario
    from repro.simulation import ExperimentConfig, run_experiment

    config = ExperimentConfig(num_nodes=8, rounds=20,
                              scenario=get_scenario("churn", num_nodes=8, rounds=20))
    result = run_experiment(task, scheme_factory, config)
    print(result.scenario_rounds[2]["active_nodes"])  # who was up in round 2

See :mod:`repro.scenarios.presets` for the named presets behind the CLI's
``--scenario`` flag, :mod:`repro.topology.policy` for the topology
generation/rewiring policies a schedule embeds, and
:mod:`repro.scenarios.fuzz` for the seeded schedule fuzzer that property-tests
the determinism contract over random hostile schedules.
"""

from repro.scenarios.presets import (
    SCENARIO_PRESETS,
    describe_scenarios,
    get_scenario,
)
from repro.scenarios.schedule import (
    BYZANTINE_MODES,
    ByzantineWindow,
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    ScenarioState,
    StragglerWindow,
)

__all__ = [
    "BYZANTINE_MODES",
    "ByzantineWindow",
    "NodeOutage",
    "PartitionWindow",
    "SCENARIO_PRESETS",
    "ScenarioSchedule",
    "ScenarioState",
    "StragglerWindow",
    "describe_scenarios",
    "get_scenario",
]
