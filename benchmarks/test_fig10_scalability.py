"""Figure 10: scalability of JWINS vs random sampling with growing node counts.

Paper result: from 96 to 384 nodes (with the less-strict 4-shards-per-node
partitioning) JWINS keeps converging faster and to a higher accuracy than
random sampling, and its gross network savings grow with the node count.

Two sweeps cover two scales.  The accuracy sweep keeps the paper's CIFAR-like
workload at 8-20 nodes, where the per-node reference engine is comfortable and
the accuracy/traffic *shape* is what matters.  The arena sweep
(:func:`test_fig10_arena_scaling`) then pushes node counts to 1,000 in one
process — 10,000 with ``FIG10_MAX_NODES=10000`` — under ``engine="arena"``,
recording wall-clock seconds and peak RSS per N into
``benchmarks/output/BENCH_engine.json`` (the measured scaling story quoted by
``docs/SCALING.md``).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from benchmarks.conftest import merge_json_metrics, save_report, scale_down
from repro.baselines import random_sampling_factory
from repro.core import JwinsConfig, jwins_factory
from repro.datasets.base import Dataset, LearningTask, classification_accuracy
from repro.datasets.synthetic import make_class_images
from repro.evaluation import format_table, get_workload
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLPClassifier
from repro.observability import peak_rss_bytes
from repro.simulation import ExperimentConfig, run_experiment

NODE_COUNTS = (8, 12, 16, 20)

#: Node counts for the arena-engine scaling sweep; FIG10_MAX_NODES (default
#: 1000) caps the ladder, so CI completes the 1,000-node cell while a manual
#: ``FIG10_MAX_NODES=10000`` run extends the table to the full 10k story.
ARENA_NODE_COUNTS = (100, 300, 1000, 3000, 10000)
MAX_ARENA_NODES = int(os.environ.get("FIG10_MAX_NODES", "1000"))


def _run():
    workload = get_workload("cifar10")
    task = workload.make_task(seed=5)
    base = scale_down(workload.config, num_nodes=8, rounds=12, eval_every=4)
    base = replace(base, shards_per_node=4)
    sweep = {}
    for num_nodes in NODE_COUNTS:
        config = replace(base, num_nodes=num_nodes)
        sweep[num_nodes] = {
            "jwins": run_experiment(
                task, jwins_factory(JwinsConfig.paper_default()), config, scheme_name="jwins"
            ),
            "random-sampling": run_experiment(
                task, random_sampling_factory(0.37), config, scheme_name="random-sampling"
            ),
        }
    return sweep


def test_fig10_scalability(benchmark):
    sweep = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    for num_nodes, results in sweep.items():
        rows.append(
            [
                num_nodes,
                f"{100 * results['jwins'].final_accuracy:.1f}%",
                f"{100 * results['random-sampling'].final_accuracy:.1f}%",
                f"{results['jwins'].total_bytes / 2**20:.1f} MiB",
                f"{results['random-sampling'].total_bytes / 2**20:.1f} MiB",
            ]
        )
    report = format_table(
        ["nodes", "jwins acc", "random acc", "jwins sent (all nodes)", "random sent"], rows
    )
    report += "\npaper: JWINS stays ahead of random sampling at every scale; total traffic grows with nodes"
    save_report("fig10_scalability", report)

    for num_nodes, results in sweep.items():
        jwins = results["jwins"]
        sampling = results["random-sampling"]
        # JWINS never falls meaningfully behind random sampling at any scale.
        assert jwins.final_accuracy >= sampling.final_accuracy - 0.05, num_nodes
        # Comparable byte budgets (random sampling was tuned to JWINS' average).
        assert 0.5 < jwins.total_bytes / sampling.total_bytes < 1.6, num_nodes

    # Total network traffic grows as nodes are added (row 2, left to right).
    jwins_bytes = [sweep[n]["jwins"].total_bytes for n in NODE_COUNTS]
    assert jwins_bytes == sorted(jwins_bytes)


# -- the arena-engine scaling sweep ------------------------------------------------


def _scaling_task(seed: int, train_samples: int) -> LearningTask:
    """A synthetic MLP workload sized so every node owns at least two samples.

    The arena sweep measures *engine* scaling (wall-clock and memory per
    node), not learning quality, so it uses the cheap 4x4 MLP task rather
    than the convolutional CIFAR-like model.
    """

    generator = np.random.default_rng(seed)
    test_samples = 64
    inputs, labels = make_class_images(
        generator, train_samples + test_samples, 4, image_size=4, channels=1, noise=0.5
    )
    train = Dataset(inputs[:train_samples], labels[:train_samples])
    test = Dataset(inputs[train_samples:], labels[train_samples:])
    return LearningTask(
        name="toy",
        train=train,
        test=test,
        model_factory=lambda rng: MLPClassifier(16, 16, 4, rng),
        loss_factory=CrossEntropyLoss,
        accuracy_fn=classification_accuracy,
    )


def _scaling_config(num_nodes: int, engine: str) -> ExperimentConfig:
    return ExperimentConfig(
        num_nodes=num_nodes,
        degree=6,
        rounds=3,
        local_steps=1,
        batch_size=8,
        learning_rate=0.05,
        eval_every=3,
        eval_nodes=8,
        eval_test_samples=64,
        seed=5,
        partition="iid",
        engine=engine,
    )


def _run_scaling_cell(num_nodes: int, engine: str) -> dict:
    task = _scaling_task(5, train_samples=max(2 * num_nodes, 2000))
    started = time.perf_counter()
    result = run_experiment(
        task,
        jwins_factory(JwinsConfig.paper_default()),
        _scaling_config(num_nodes, engine),
        scheme_name="jwins",
    )
    total_seconds = time.perf_counter() - started
    assert result.rounds_completed == 3, (num_nodes, engine)
    return {
        "engine": engine,
        "num_nodes": num_nodes,
        "rounds_completed": result.rounds_completed,
        "total_seconds": total_seconds,
        "seconds_per_round": total_seconds / result.rounds_completed,
        "peak_rss_bytes": peak_rss_bytes(),
        "total_bytes": result.total_bytes,
    }


def test_fig10_arena_scaling():
    counts = tuple(n for n in ARENA_NODE_COUNTS if n <= MAX_ARENA_NODES)
    assert 1000 in counts, "the acceptance cell: 1,000 nodes in one process"

    # One per-node cell at the smallest count, for the "vs pernode" column.
    # Information, not an assertion: both engines run the same share path and
    # differ in the SGD step alone, so which one wins a 3-round cell is
    # run-to-run noise (docs/SCALING.md).
    reference = _run_scaling_cell(counts[0], "pernode")
    merge_json_metrics("engine", f"fig10_pernode_n{counts[0]}", reference)

    cells = []
    for num_nodes in counts:
        metrics = _run_scaling_cell(num_nodes, "arena")
        merge_json_metrics("engine", f"fig10_arena_n{num_nodes}", metrics)
        cells.append(metrics)

    rows = []
    for metrics in cells:
        speedup = (
            f"{reference['seconds_per_round'] / metrics['seconds_per_round']:.1f}x"
            if metrics["num_nodes"] == reference["num_nodes"]
            else "-"
        )
        rows.append(
            [
                metrics["num_nodes"],
                f"{metrics['seconds_per_round'] * 1e3:.0f} ms",
                f"{metrics['peak_rss_bytes'] / 2**20:.0f} MiB",
                f"{metrics['total_bytes'] / 2**20:.1f} MiB",
                speedup,
            ]
        )
    report = format_table(
        ["nodes", "wall-clock/round", "peak RSS", "traffic", "vs pernode"], rows
    )
    report += (
        f"\narena engine, jwins, 3 rounds each; pernode reference at "
        f"{reference['num_nodes']} nodes: "
        f"{reference['seconds_per_round'] * 1e3:.0f} ms/round"
    )
    save_report("fig10_arena_scaling", report)

    # The cost per node must not blow up as the deployment grows: the
    # measured drift from 100 to 10,000 nodes is ~7x (amortized per-node
    # setup plus cache pressure), so a 10x ceiling rules out a quadratic
    # delivery loop or an O(N) scan sneaking into a per-node code path.
    per_node = [m["seconds_per_round"] / m["num_nodes"] for m in cells]
    assert per_node[-1] < per_node[0] * 10, per_node
