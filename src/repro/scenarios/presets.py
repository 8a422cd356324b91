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


def _middle_window(rounds: int, parts: int) -> tuple[int, int] | None:
    """``(start, end)`` of all but the first and last of ``parts`` equal slices.

    The window opens at round 1 at the earliest and lasts a round at least.
    ``None`` for a run of fewer than 2 rounds, where no such window can open.
    """

    if rounds < 2:
        return None
    start = max(1, rounds // parts)
    return start, max(start + 1, ((parts - 1) * rounds) // parts)


def _partition_windows(num_nodes: int, rounds: int) -> tuple[PartitionWindow, ...]:
    """The deployment splits into halves for the middle third of the run."""

    window = _middle_window(rounds, 3)
    if window is None:
        return ()
    half = max(1, num_nodes // 2)
    return (
        PartitionWindow(
            start_round=window[0],
            end_round=window[1],
            groups=(tuple(range(half)), tuple(range(half, num_nodes))),
        ),
    )


def _partition(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(name="partition", partitions=_partition_windows(num_nodes, rounds))


def _stragglers(num_nodes: int, rounds: int) -> ScenarioSchedule:
    window = _middle_window(rounds, 4)
    if window is None:
        return ScenarioSchedule(name="stragglers")
    slow_nodes = tuple(range(max(1, num_nodes // 4)))
    return ScenarioSchedule(
        name="stragglers",
        stragglers=(
            StragglerWindow(
                start_round=window[0], end_round=window[1], nodes=slow_nodes, slowdown=4.0
            ),
        ),
    )


def _churn_partition(num_nodes: int, rounds: int) -> ScenarioSchedule:
    return ScenarioSchedule(
        name="churn-partition",
        outages=_churn_outages(num_nodes, rounds),
        partitions=_partition_windows(num_nodes, rounds),
    )


def _byzantine(num_nodes: int, rounds: int) -> ScenarioSchedule:
    """The last quarter of the nodes sign-flip for the middle third of the run."""

    window = _middle_window(rounds, 3)
    if window is None:
        return ScenarioSchedule(name="byzantine")
    attackers = tuple(range(num_nodes - max(1, num_nodes // 4), num_nodes))
    return ScenarioSchedule(
        name="byzantine",
        byzantine=(
            ByzantineWindow(
                start_round=window[0], end_round=window[1], nodes=attackers, mode="sign-flip"
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
