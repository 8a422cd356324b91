"""Tests for Sweep expansion."""

import pytest

from repro.exceptions import ConfigurationError
from repro.orchestration.schemes import SchemeSpec
from repro.orchestration.sweep import Sweep

TINY = {"num_nodes": 4, "degree": 2, "rounds": 2, "eval_every": 1, "eval_test_samples": 32}


def _sweep(**kwargs):
    defaults = dict(
        name="test",
        workloads=("movielens",),
        schemes=(SchemeSpec("jwins"), SchemeSpec("full-sharing")),
        base_overrides=TINY,
    )
    defaults.update(kwargs)
    return Sweep(**defaults)


def test_expansion_is_the_full_product():
    sweep = _sweep(
        workloads=("movielens", "cifar10"),
        axes={"seed": (1, 2, 3)},
    )
    specs = sweep.expand()
    assert len(sweep) == 2 * 2 * 3
    assert len(specs) == len(sweep)
    assert len({spec.content_hash() for spec in specs}) == len(specs)


def test_expansion_order_is_deterministic():
    assert [c.label for c in _sweep(axes={"seed": (1, 2)}).cells()] == [
        "movielens/jwins/seed=1",
        "movielens/full-sharing/seed=1",
        "movielens/jwins/seed=2",
        "movielens/full-sharing/seed=2",
    ]


def test_axis_values_override_base_overrides():
    sweep = _sweep(axes={"rounds": (3,)})
    spec = sweep.expand()[0]
    assert spec.overrides["rounds"] == 3
    assert spec.overrides["num_nodes"] == 4


def test_bare_scheme_names_are_coerced():
    sweep = _sweep(schemes=("jwins", "topk"))
    assert all(isinstance(scheme, SchemeSpec) for scheme in sweep.schemes)


def test_task_seed_propagates_to_every_cell():
    sweep = _sweep(task_seed=7)
    assert all(spec.task_seed == 7 for spec in sweep.expand())


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(name=""), "non-empty name"),
        (dict(workloads=()), "at least one workload"),
        (dict(schemes=()), "at least one workload"),
        (dict(axes={"seed": ()}), "no values"),
        (dict(schemes=("jwins", "jwins")), "labels must be unique"),
    ],
)
def test_invalid_sweeps_rejected(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        _sweep(**kwargs)


def test_duplicate_schemes_allowed_with_distinct_labels():
    sweep = _sweep(
        schemes=(
            SchemeSpec("jwins", {"budget": 0.2}, label="jwins@20%"),
            SchemeSpec("jwins", {"budget": 0.1}, label="jwins@10%"),
        )
    )
    assert len(sweep.expand()) == 2
