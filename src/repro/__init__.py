"""JWINS reproduction: communication-efficient decentralized learning.

This library reproduces "Get More for Less in Decentralized Learning Systems"
(ICDCS 2023).  The public API is organized in subpackages:

* :mod:`repro.core` — the JWINS sharing scheme and the sharing-scheme interface;
* :mod:`repro.baselines` — full sharing, random sampling, TopK and CHOCO-SGD;
* :mod:`repro.simulation` — the event-driven :class:`~repro.simulation.Simulator`
  engine with pluggable execution modes (synchronous lock-step rounds and
  asynchronous gossip over heterogeneous nodes) plus the
  :func:`~repro.simulation.run_experiment` one-call facade;
* :mod:`repro.orchestration` — declarative experiment sweeps executed on a
  ``multiprocessing`` worker pool against a resumable, content-addressed JSONL
  result store, plus regeneration of the paper's artifacts from such a store;
* :mod:`repro.scenarios` — declarative environment schedules (node churn,
  network partitions, straggler windows, topology rewiring policies) consumed
  by both execution modes;
* :mod:`repro.checkpoint` — bit-identical mid-run snapshots
  (:class:`~repro.checkpoint.SimulationSnapshot` with save/load/verify),
  preemptible execution and scenario forking: interrupt at round *k* + resume
  is byte-identical to never having stopped;
* :mod:`repro.datasets` — the five synthetic workloads and non-IID partitioners;
* :mod:`repro.nn` — the numpy neural-network substrate;
* :mod:`repro.wavelets`, :mod:`repro.compression`, :mod:`repro.topology`,
  :mod:`repro.sparsification` — the remaining substrates;
* :mod:`repro.evaluation` — the harness regenerating the paper's tables/figures.

Quickstart — one call, the paper's synchronous schedule::

    from repro.core import JwinsConfig, jwins_factory
    from repro.datasets import make_cifar10_task
    from repro.simulation import ExperimentConfig, run_experiment

    task = make_cifar10_task(seed=1, train_samples=512, test_samples=128)
    result = run_experiment(task, jwins_factory(JwinsConfig.paper_default()),
                            ExperimentConfig(num_nodes=8, rounds=20, seed=1))
    print(result.final_accuracy, result.total_bytes)

The engine behind the facade is a first-class object.  Build it directly to
pick an execution mode and attach observers without editing any loop::

    from repro.simulation import ExperimentConfig, Simulator

    config = ExperimentConfig(num_nodes=8, rounds=20, seed=1,
                              execution="async",            # event-driven gossip
                              compute_speed_range=(1.0, 4.0))  # 4x stragglers
    simulator = Simulator(task, jwins_factory(JwinsConfig.paper_default()), config)
    simulator.on_evaluate(lambda record: print(record.round_index, record.test_accuracy))
    simulator.on_message(lambda message, receiver, now: None)  # delivery hook
    result = simulator.run()
    print(result.clock_skew_seconds)   # how far stragglers fell behind

See ``examples/async_gossip.py`` for a runnable side-by-side comparison.

Grids of experiments (the paper's tables and figures) run as declarative
sweeps on a worker pool, with every completed cell persisted and resumable::

    from repro.orchestration import ResultStore, run_sweep, table1_sweep, regenerate

    store = ResultStore("results/table1.jsonl")
    run_sweep(table1_sweep(), store, workers=4)   # interrupt and re-run freely
    regenerate(store, "benchmarks/output", names=["table1"])

See ``examples/parallel_sweep.py`` and the README's EXPERIMENTS section.
"""

from repro.version import __version__

__all__ = ["__version__"]
