"""Named scenario presets for the CLI and the benchmark harness.

A preset is a builder ``(num_nodes, rounds) -> ScenarioSchedule``: the event
windows scale with the run length and the affected node sets scale with the
deployment size, so ``--scenario churn`` works unchanged for a 4-node smoke
run and a 96-node paper-scale run.  :func:`get_scenario` resolves a name and
validates the result against the deployment size.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ConfigurationError
from repro.scenarios.schedule import (
    ByzantineWindow,
    NodeOutage,
    PartitionWindow,
    ScenarioSchedule,
    StragglerWindow,
)
from repro.topology.policy import GeneratorPolicy

__all__ = [
    "SCENARIO_PRESETS",
    "describe_scenarios",
    "get_scenario",
]


def _static(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule()


def _dynamic(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        name="dynamic",
        topology=GeneratorPolicy(generator="random-regular", rewire_every=1),
    )


def _small_world(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        name="small-world",
        topology=GeneratorPolicy(generator="small-world", params=(("beta", 0.2),)),
    )


def _churn_outages(num_nodes: int, rounds: int) -> tuple[NodeOutage, ...]:
    """Rotating two-round outages from round 2 on, one node at a time.

    A run of two rounds or fewer ends before the first outage would start.
    """

    outages = []
    for position, start in enumerate(range(2, rounds, 3)):
        outages.append(
            NodeOutage(
                node=position % num_nodes, start_round=start, end_round=start + 2
            )
        )
    return tuple(outages)


def _churn(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(name="churn", outages=_churn_outages(num_nodes, rounds))


def _partition_window(num_nodes: int, rounds: int) -> PartitionWindow:
    """The deployment splits into halves for the middle third of the run."""

    half = max(1, num_nodes // 2)
    start = max(1, rounds // 3)
    end = max(start + 1, (2 * rounds) // 3)
    return PartitionWindow(
        start_round=start,
        end_round=end,
        groups=(tuple(range(half)), tuple(range(half, num_nodes))),
    )


def _partition(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        name="partition", partitions=(_partition_window(num_nodes, rounds),)
    )


def _stragglers(num_nodes: int, rounds: int) -> ScenarioSchedule:
    slow_nodes = tuple(range(max(1, num_nodes // 4)))
    start = max(1, rounds // 4)
    end = max(start + 1, (3 * rounds) // 4)
    return ScenarioSchedule(
        name="stragglers",
        stragglers=(
            StragglerWindow(
                start_round=start, end_round=end, nodes=slow_nodes, slowdown=4.0
            ),
        ),
    )


def _churn_partition(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        name="churn-partition",
        outages=_churn_outages(num_nodes, rounds),
        partitions=(_partition_window(num_nodes, rounds),),
    )


def _byzantine(num_nodes: int, rounds: int) -> ScenarioSchedule:
    """The last quarter of the nodes sign-flip for the middle third of the run."""

    attackers = tuple(range(num_nodes - max(1, num_nodes // 4), num_nodes))
    start = max(1, rounds // 3)
    end = max(start + 1, (2 * rounds) // 3)
    return ScenarioSchedule(
        name="byzantine",
        byzantine=(
            ByzantineWindow(
                start_round=start, end_round=end, nodes=attackers, mode="sign-flip"
            ),
        ),
    )


#: Preset name -> (description, builder(num_nodes, rounds)).
SCENARIO_PRESETS: dict[
    str, tuple[str, Callable[[int, int], ScenarioSchedule]]
] = {
    "static": ("static random-regular topology, no events (the default)", _static),
    "dynamic": ("re-sample the random-regular topology every round (Fig. 7)", _dynamic),
    "small-world": ("static Watts-Strogatz small-world topology (beta=0.2)", _small_world),
    "churn": ("rotating two-round node outages from round 2 on", _churn),
    "partition": ("network splits into halves for the middle third of the run", _partition),
    "stragglers": ("a quarter of the nodes compute 4x slower mid-run", _stragglers),
    "churn-partition": ("churn outages plus the mid-run half/half partition", _churn_partition),
    "byzantine": ("a quarter of the nodes sign-flip their updates mid-run", _byzantine),
}


def get_scenario(name: str, num_nodes: int, rounds: int) -> ScenarioSchedule:
    """Build the named preset for a deployment of ``num_nodes`` x ``rounds``."""

    key = name.lower()
    if key not in SCENARIO_PRESETS:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIO_PRESETS)}"
        )
    schedule = SCENARIO_PRESETS[key][1](num_nodes, rounds)
    schedule.validate_for(num_nodes, rounds=rounds)
    return schedule


def describe_scenarios() -> str:
    """One line per preset, for ``--list-scenarios``."""

    width = max(len(name) for name in SCENARIO_PRESETS)
    return "\n".join(
        f"{name:{width}s}  {description}"
        for name, (description, _) in SCENARIO_PRESETS.items()
    )
