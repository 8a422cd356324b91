"""Asynchronous gossip: heterogeneous nodes learning without a barrier.

Run with::

    python examples/async_gossip.py            # full demo
    python examples/async_gossip.py --smoke    # tiny CI smoke setting

The script runs the same JWINS workload twice: once under the synchronous
lock-step schedule the paper uses, and once under the event-driven
asynchronous mode where per-node compute speeds are drawn from a 1-4x
slowdown range and uplink bandwidths from a 0.5-1x scale, with per-link
latency jitter and lossy deliveries.  Without a barrier, fast nodes keep
gossiping while stragglers lag — the per-node clock report at the end shows
exactly how far they drift apart, while learning still converges.

It also demonstrates the engine's observer hooks: a callback counts message
deliveries without touching the simulation loop.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.core import JwinsConfig, jwins_factory
from repro.datasets import make_cifar10_task
from repro.simulation import ExperimentConfig, Simulator


def build_config(smoke: bool) -> ExperimentConfig:
    return ExperimentConfig(
        num_nodes=4 if smoke else 8,
        degree=2 if smoke else 4,
        partition="shards",
        shards_per_node=2,
        rounds=4 if smoke else 20,
        local_steps=1 if smoke else 2,
        batch_size=8,
        learning_rate=0.05,
        eval_every=2 if smoke else 4,
        eval_test_samples=64 if smoke else 192,
        seed=1,
        # Heterogeneity knobs, used by the async mode only: the slowest node
        # computes 4x slower than the fastest, the weakest uplink has half
        # the bandwidth, and every delivery jitters by up to 50 ms.
        compute_speed_range=(1.0, 4.0),
        bandwidth_scale_range=(0.5, 1.0),
        link_latency_jitter_seconds=0.05,
        message_drop_probability=0.05,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny setting for CI")
    args = parser.parse_args()

    config = build_config(args.smoke)
    samples = 256 if args.smoke else 768
    factory = jwins_factory(JwinsConfig.paper_default())

    results = {}
    deliveries = {"sync": 0, "async": 0}
    for execution in ("sync", "async"):
        task = make_cifar10_task(
            seed=1, train_samples=samples, test_samples=samples // 4, noise=1.0
        )
        simulator = Simulator(task, factory, replace(config, execution=execution))

        def count_delivery(message, receiver, now, execution=execution):
            deliveries[execution] += 1

        simulator.on_message(count_delivery)
        print(f"running JWINS under the {execution} schedule ...")
        results[execution] = simulator.run()

    print()
    for execution, result in results.items():
        print(
            f"{execution:>5}: accuracy={result.final_accuracy:.3f} "
            f"bytes/node={result.average_mib_per_node:.2f} MiB "
            f"simulated={result.simulated_time_seconds:.1f}s "
            f"deliveries={deliveries[execution]}"
        )

    async_result = results["async"]
    print("\nper-node local clocks under async gossip (seconds):")
    for node_id, clock in enumerate(async_result.per_node_time_seconds):
        bar = "#" * max(1, round(40 * clock / async_result.simulated_time_seconds))
        print(f"  node {node_id:2d}  {clock:8.1f}  {bar}")
    print(
        f"\nclock skew (fastest vs slowest node): "
        f"{async_result.clock_skew_seconds:.1f}s — the barrier the sync mode "
        f"pays for on every single round, and async gossip does not"
    )


if __name__ == "__main__":
    main()
