"""The library ships only code that runs: no test oracle and no dead name.

Reference twins of the hot kernels live in ``tests/oracles``; ``src/`` keeps
one path per kernel.  Library code that only tests called was deleted.  Each
name below must stay gone from every ``repro`` module, so it cannot creep back
as a shipped code path or a public alias.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: (owner, name): a module-level name is looked up in every ``repro`` module,
#: a method on its class ("module:Class").
REMOVED = [
    ("repro.wavelets.dwt", "dwt_single_reference"),
    ("repro.wavelets.dwt", "idwt_single_reference"),
    ("repro.wavelets.dwt", "_analysis_reference"),
    ("repro.wavelets.dwt", "_synthesis_accumulate_reference"),
    ("repro.wavelets.dwt", "_phase_kernels_apply"),
    ("repro.compression.elias", "elias_gamma_encode_reference"),
    ("repro.compression.elias", "elias_gamma_decode_reference"),
    ("repro.compression.elias", "_encode_single"),
    ("repro.compression.elias", "elias_gamma_decode"),
    ("repro.compression.elias", "gamma_code_length"),
    ("repro.compression.elias", "_require_positive"),
    ("repro.compression.elias", "_FLOAT64_EXACT_BITS"),
    ("repro.compression.bitstream", "BitWriter"),
    ("repro.compression.bitstream", "BitReader"),
    ("repro.compression.quantization", "pack_quantized_reference"),
    ("repro.compression.quantization", "unpack_quantized_reference"),
    ("repro.compression.float_codec", "float_compress_reference"),
    ("repro.compression.float_codec", "Float16Codec"),
    ("repro.topology.weights", "metropolis_hastings_weights"),
    ("repro.topology.weights", "uniform_neighbor_weights"),
    ("repro.topology.graphs:Topology", "adjacency_matrix"),
    ("repro.topology.graphs", "DynamicTopology"),
    ("repro.topology.policy", "topology_policy_from_dict"),
    ("repro.utils.vectors", "unflatten_vector"),
    ("repro.utils.rng", "spawn_seeds"),
    ("repro.utils", "ConfidenceInterval"),
    ("repro.utils", "RunningMean"),
    ("repro.utils", "mean_confidence_interval"),
    ("repro.nn.layers", "Dropout"),
    ("repro.nn.activations", "Tanh"),
    ("repro.nn.activations", "Sigmoid"),
    ("repro.nn.activations", "relu"),
    ("repro.nn.module", "Sequential"),
    ("repro.nn.init", "xavier_uniform"),
    ("repro.checkpoint.preemption", "active_simulators"),
    ("repro.simulation.events:EventLoop", "peek"),
    ("repro.sparsification.base", "select_fraction"),
    ("repro.sparsification.accumulation:ResidualAccumulator", "reset_all"),
    # Unreached by every non-test entry point (scripts/reach.py).
    ("repro.scenarios.schedule:ScenarioSchedule", "from_trace"),
    ("repro.scenarios.schedule:ScenarioSchedule", "is_trivial"),
    ("repro.scenarios.presets", "BUNDLED_TRACES"),
    ("repro.scenarios.presets", "bundled_trace_path"),
    ("repro.scenarios.presets", "_trace_preset"),
    ("repro.topology.graphs", "clustered_topology"),
    ("repro.topology.graphs", "star_topology"),
    ("repro.topology.graphs:Topology", "neighbors"),
    ("repro.topology.graphs:Topology", "degree"),
    ("repro.topology.graphs:Topology", "is_connected"),
    ("repro.sparsification.base", "Sparsifier"),
    ("repro.sparsification.topk", "TopKSparsifier"),
    ("repro.sparsification.random_sampling", "RandomSamplingSparsifier"),
    ("repro.compression.indices", "SeedIndexCodec"),
    ("repro.compression.sizing:PayloadSize", "__add__"),
    ("repro.observability.metrics:MetricsRegistry", "value"),
    ("repro.observability.metrics:MetricsRegistry", "__len__"),
    ("repro.observability.metrics:MetricsRegistry", "__contains__"),
    ("repro.observability.status:CellStatusWriter", "finish"),
    ("repro.simulation.metrics:ExperimentResult", "total_gib"),
    ("repro.simulation.metrics:ExperimentResult", "loss_curve"),
    ("repro.simulation.metrics:ExperimentResult", "bytes_curve"),
    ("repro.simulation.events:EventLoop", "__len__"),
    ("repro.simulation.network:ByteMeter", "values_bytes_per_node"),
    ("repro.simulation.network:ByteMeter", "per_round_bytes"),
    ("repro.simulation.experiment:ExperimentConfig", "from_dict"),
    ("repro.simulation.experiment:ExperimentConfig", "with_seed"),
    ("repro.checkpoint.manager:CheckpointManager", "keys"),
    ("repro.checkpoint.manager:CheckpointManager", "lineage"),
    ("repro.checkpoint.snapshot:SimulationSnapshot", "verify"),
    ("repro.orchestration.store:ResultStore", "__contains__"),
    ("repro.orchestration.store:ResultStore", "keys"),
    ("repro.orchestration.store:ResultStore", "get_spec"),
    ("repro.orchestration.store:ResultStore", "items"),
    ("repro.orchestration.sweep:Sweep", "to_dict"),
    ("repro.orchestration.sweep:Sweep", "from_dict"),
    ("repro.core.config:JwinsConfig", "expected_sharing_fraction"),
    ("repro.core.cutoff:CutoffDistribution", "max_fraction"),
    ("repro.core.ranking:WaveletRanker", "scores"),
    ("repro.wavelets.filters", "available_wavelets"),
    ("repro.wavelets.dwt:MultiLevelCoefficients", "levels"),
    ("repro.wavelets.dwt:MultiLevelCoefficients", "total_size"),
    ("repro.wavelets.transform:ModelTransform", "forward_batch"),
    ("repro.wavelets.transform:ModelTransform", "inverse_batch"),
    ("repro.datasets.base:Dataset", "__getitem__"),
    ("repro.nn.losses:CrossEntropyLoss", "predictions"),
    ("repro.nn.module:Module", "parameter_shapes"),
    ("repro.analysis.engine", "analyze_source"),
    # The analysis gate's escape hatches and second report format.
    ("repro.analysis.baseline", "Baseline"),
    ("repro.analysis.suppressions", "extract_suppressions"),
    ("repro.analysis.core", "Severity"),
    ("repro.analysis.reporters", "render_json"),
    ("repro.analysis.core:Finding", "fingerprint"),
    # Options no caller set, and the code only their other values reached.
    ("repro.simulation.arena", "ArenaSGD"),
    ("repro.nn.optim:SGD", "state_dict"),
    ("repro.nn.optim:SGD", "load_state_dict"),
    ("repro.simulation.timing", "HeterogeneousTimeModel"),
    ("repro.simulation.timing", "time_model_from_dict"),
    ("repro.simulation.timing:TimeModel", "to_dict"),
    ("repro.checkpoint.preemption", "register"),
    ("repro.checkpoint.preemption", "unregister"),
    ("repro.checkpoint.preemption", "_active"),
    ("repro.checkpoint.preemption", "_lock"),
    # Registry wrappers that only renamed a baseline factory, and the
    # constructor-side mapping coercion the record codec made redundant.
    ("repro.orchestration.schemes", "_build_full_sharing"),
    ("repro.orchestration.schemes", "_build_random_sampling"),
    ("repro.orchestration.schemes", "_build_topk"),
    ("repro.orchestration.schemes", "_build_choco"),
    ("repro.orchestration.schemes", "_build_quantized"),
    ("repro.scenarios.schedule:ScenarioSchedule", "_coerce"),
    # The CLI's second cell lifecycle (`run` and `fork` go through run_sweep),
    # and the tuple-field list the record codec reads in its place.
    ("repro.cli", "_run_cells"),
    ("repro.simulation.experiment:ExperimentConfig", "_TUPLE_FIELDS"),
    # The fuzzer's forensic re-execution (every oracle diffs the traces of the
    # runs that failed) and its `trace` oracle (folded into `rerun`).
    ("repro.scenarios.fuzz", "forensics_for_case"),
    ("repro.scenarios.fuzz", "_oracle_trace"),
    # Copy wrappers around `dataclasses.replace`.
    ("repro.simulation.experiment:ExperimentConfig", "with_rounds"),
    ("repro.simulation.experiment:ExperimentConfig", "with_target"),
    ("repro.simulation.experiment:ExperimentConfig", "with_execution"),
    # The metrics registry's second channel: it is an engine observer now, so
    # no code path records into a no-op stand-in.
    ("repro.observability.metrics", "NULL_METRICS"),
    ("repro.observability.metrics", "NullMetricsRegistry"),
    ("repro.observability.metrics", "_NullInstrument"),
    ("repro.observability.metrics", "_NULL_INSTRUMENT"),
    ("repro.observability.metrics:MetricsRegistry", "enabled"),
    ("repro.simulation.engine:Simulator", "emit_round_end"),
    ("repro.simulation.experiment:ExperimentConfig", "with_engine"),
    # The snapshot's second stored form (JSON, arrays as base64): the file
    # is the only one, and every round trip goes through it.
    ("repro.checkpoint.serialization", "to_json"),
    ("repro.checkpoint.serialization", "from_json"),
    ("repro.checkpoint.snapshot:SimulationSnapshot", "to_dict"),
    ("repro.checkpoint.snapshot:SimulationSnapshot", "from_dict"),
    # The test-only round threshold (tests patch ``checkpoint_stop_pending``).
    ("repro.checkpoint.preemption", "preempt_after_round"),
    ("repro.checkpoint.preemption", "_preempt_after_round"),
    ("repro.checkpoint.preemption", "should_stop"),
]

#: (callable, parameter): the parameter (or dataclass field) is gone from the
#: callable's signature.
REMOVED_PARAMETERS = [
    ("repro.simulation.experiment:ExperimentConfig", "momentum"),
    ("repro.simulation.experiment:ExperimentConfig", "time_model"),
    ("repro.simulation.experiment:ExperimentConfig", "stop_at_target"),
    ("repro.nn.optim:SGD", "momentum"),
    ("repro.nn.optim:SGD", "weight_decay"),
    ("repro.simulation.node:SimulationNode", "momentum"),
    ("repro.simulation.arena:NodeArenas.step_rows", "momentum"),
    ("repro.simulation.timing:TimeModel", "compute_seconds_per_step"),
    ("repro.simulation.timing:TimeModel", "bandwidth_bytes_per_second"),
    ("repro.simulation.timing:TimeModel", "latency_seconds"),
    ("repro.core.config:JwinsConfig", "float_codec"),
    ("repro.core.config:JwinsConfig", "index_codec"),
    ("repro.baselines.full_sharing:FullSharingScheme", "compress"),
    ("repro.baselines.full_sharing:full_sharing_factory", "compress"),
    ("repro.baselines.random_sampling:RandomSamplingScheme", "compress"),
    ("repro.baselines.random_sampling:random_sampling_factory", "compress"),
    ("repro.baselines.choco:ChocoScheme", "compress"),
    ("repro.baselines.choco:choco_factory", "compress"),
    ("repro.baselines.quantized:QuantizedSharingScheme", "bucket_size"),
    ("repro.baselines.quantized:quantized_sharing_factory", "bucket_size"),
    ("repro.baselines.topk_sharing:TopKSharingScheme", "use_accumulation"),
    ("repro.baselines.topk_sharing:topk_sharing_factory", "use_accumulation"),
    ("repro.orchestration.fork:run_fork", "checkpoint_dir"),
    ("repro.orchestration.fork:run_fork", "checkpoint_every"),
    ("repro.orchestration.fork:run_fork", "observers"),
    ("repro.orchestration.fork:run_fork", "trace_dir"),
    ("repro.orchestration.spec:ExperimentSpec.run", "verify_spec"),
    ("repro.orchestration.spec:ExperimentSpec.run", "metrics"),
    ("repro.simulation.runner:run_experiment", "metrics"),
    ("repro.simulation.network:ByteMeter", "metrics"),
    ("repro.simulation.network:ByteMeter", "scheme"),
    ("repro.checkpoint.manager:CheckpointManager", "metrics"),
    ("repro.orchestration.schemes:_RegisteredScheme", "params"),
    ("repro.simulation.engine:Simulator.consume_resume_state", "kind"),
]


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


@pytest.mark.parametrize("owner, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_name_is_not_importable_from_repro(owner, name):
    module_name, _, class_name = owner.partition(":")
    if class_name:
        owner_class = getattr(importlib.import_module(module_name), class_name)
        assert not hasattr(owner_class, name)
        return
    holders = [module.__name__ for module in _modules() if name in vars(module)]
    assert holders == []
    with pytest.raises(ImportError):
        exec(f"from {module_name} import {name}", {})


@pytest.mark.parametrize(
    "owner, name",
    REMOVED_PARAMETERS,
    ids=[f"{owner.rpartition(':')[2]}-{name}" for owner, name in REMOVED_PARAMETERS],
)
def test_removed_parameter_is_not_accepted(owner, name):
    module_name, _, path = owner.partition(":")
    target = importlib.import_module(module_name)
    for attribute in path.split("."):
        target = getattr(target, attribute)
    assert name not in inspect.signature(target).parameters


def test_the_arenas_hold_no_momentum_buffers():
    from repro.simulation.arena import NodeArenas

    assert not hasattr(NodeArenas(1, [(2,)]), "velocity")


def test_the_statistics_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.utils.statistics")


def test_no_public_reference_twin():
    exported = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if name.endswith("_reference")
    ]
    assert exported == []


def test_no_library_module_imports_the_tests():
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.partition(".")[0] == "tests" for module in modules):
                importers.append(str(path.relative_to(SRC)))
    assert importers == []
