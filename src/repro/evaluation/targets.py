"""Run-until-target-accuracy comparisons (Figures 5 and 6).

The paper's "fair" comparison with random sampling works in two phases: run
the weaker baseline for a long budget, take the best accuracy it reaches as
the *target accuracy*, then run every algorithm until it first reaches that
target and compare communication rounds, bytes on the wire and wall-clock
time.  :func:`compare_to_target` implements that protocol on top of the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.interface import SchemeFactory
from repro.datasets.base import LearningTask
from repro.simulation.experiment import ExperimentConfig
from repro.simulation.metrics import ExperimentResult
from repro.simulation.runner import run_experiment

__all__ = ["TargetComparison", "TargetRun", "compare_to_target"]


@dataclass(frozen=True)
class TargetRun:
    """How one algorithm fared against the target accuracy."""

    scheme: str
    reached: bool
    rounds_to_target: int | None
    bytes_per_node_to_target: float | None
    simulated_seconds_to_target: float | None
    final_accuracy: float
    result: ExperimentResult

    def speedup_over(self, other: "TargetRun") -> float | None:
        """Wall-clock speedup of this run over ``other`` (both must have reached)."""

        if (
            self.simulated_seconds_to_target is None
            or other.simulated_seconds_to_target is None
            or self.simulated_seconds_to_target == 0
        ):
            return None
        return other.simulated_seconds_to_target / self.simulated_seconds_to_target


@dataclass(frozen=True)
class TargetComparison:
    """The full Figure 5 / Figure 6 style comparison."""

    task: str
    target_accuracy: float
    runs: dict[str, TargetRun]

    def run(self, scheme: str) -> TargetRun:
        return self.runs[scheme]


def _to_target_run(result: ExperimentResult, target: float) -> TargetRun:
    rounds = result.rounds_to_accuracy(target)
    return TargetRun(
        scheme=result.scheme,
        reached=rounds is not None,
        rounds_to_target=rounds,
        bytes_per_node_to_target=result.bytes_to_accuracy(target),
        simulated_seconds_to_target=result.time_to_accuracy(target),
        final_accuracy=result.final_accuracy,
        result=result,
    )


def compare_to_target(
    task: LearningTask,
    reference_factory: SchemeFactory,
    reference_name: str,
    challenger_factories: dict[str, SchemeFactory],
    config: ExperimentConfig,
    reference_rounds: int | None = None,
    target_fraction_of_best: float = 1.0,
) -> TargetComparison:
    """Run the reference long, derive the target, then race the challengers.

    Parameters
    ----------
    reference_factory, reference_name:
        The algorithm whose best accuracy defines the target (random sampling
        in Figure 5, CHOCO in Figure 6).
    challenger_factories:
        The algorithms raced against the target (JWINS, full sharing, ...).
    reference_rounds:
        Round budget of the long reference run (defaults to ``config.rounds``).
    target_fraction_of_best:
        Fraction of the reference's best accuracy used as the target (1.0
        reproduces the paper's protocol; smaller values make quick runs more
        robust).
    """

    reference_config = replace(config, rounds=reference_rounds or config.rounds)
    reference_result = run_experiment(task, reference_factory, reference_config, reference_name)
    target = reference_result.best_accuracy * target_fraction_of_best

    runs = {reference_name: _to_target_run(reference_result, target)}
    challenger_config = replace(config, target_accuracy=target)
    for name, factory in challenger_factories.items():
        result = run_experiment(task, factory, challenger_config, name)
        runs[name] = _to_target_run(result, target)

    return TargetComparison(task=task.name, target_accuracy=target, runs=runs)
