"""The library ships only code that runs: no test oracle and no dead name.

Reference twins of the hot kernels live in ``tests/oracles``; ``src/`` keeps
one path per kernel.  Library code that only tests called was deleted.  Each
name below must stay gone from every ``repro`` module, so it cannot creep back
as a shipped code path or a public alias.
"""

import ast
import importlib
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
    ("repro.sparsification.base:Sparsifier", "select_fraction"),
    ("repro.sparsification.accumulation:ResidualAccumulator", "reset_all"),
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
