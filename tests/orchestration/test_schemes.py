"""Tests for the declarative scheme registry."""

import pytest

from repro.exceptions import ConfigurationError
from repro.orchestration.schemes import (
    SCHEME_REGISTRY,
    SchemeSpec,
    available_schemes,
    build_scheme_factory,
    describe_schemes,
)


@pytest.mark.parametrize("name", available_schemes())
def test_every_registered_scheme_builds(name):
    factory = build_scheme_factory(name)
    scheme = factory(0, 200, 1)
    assert hasattr(scheme, "prepare")
    assert hasattr(scheme, "aggregate")


def test_registry_covers_cli_choices():
    assert set(available_schemes()) == {
        "jwins",
        "jwins-adaptive",
        "full-sharing",
        "random-sampling",
        "topk",
        "choco",
        "quantized",
    }


def test_params_configure_the_scheme():
    scheme = build_scheme_factory("jwins", {"budget": 0.2})(0, 200, 1)
    assert scheme.config.cutoff.expected_fraction() == pytest.approx(0.2)


def test_unknown_scheme_raises():
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        build_scheme_factory("magic")


def test_unknown_param_raises_and_names_allowed():
    with pytest.raises(ConfigurationError, match="allowed: fraction, gamma"):
        build_scheme_factory("choco", {"momentum": 0.9})


def test_param_on_parameterless_scheme_raises():
    with pytest.raises(ConfigurationError, match="allowed: none"):
        build_scheme_factory("full-sharing", {"fraction": 0.5})


def test_describe_schemes_lists_everything():
    text = describe_schemes()
    for name in SCHEME_REGISTRY:
        assert name in text


class TestSchemeSpec:
    def test_default_label_is_name(self):
        assert SchemeSpec("jwins").label == "jwins"

    def test_label_includes_sorted_params(self):
        spec = SchemeSpec("choco", {"gamma": 0.6, "fraction": 0.2})
        assert spec.label == "choco[fraction=0.2,gamma=0.6]"

    def test_explicit_label_wins(self):
        assert SchemeSpec("choco", {"fraction": 0.2}, label="choco@20%").label == "choco@20%"

    def test_invalid_spec_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            SchemeSpec("jwins", {"fraction": 0.5})

    def test_round_trip(self):
        spec = SchemeSpec("choco", {"fraction": 0.2, "gamma": 0.6}, label="choco@20%")
        assert SchemeSpec.from_dict(spec.to_dict()) == spec

    def test_coerce_accepts_strings_and_mappings(self):
        assert SchemeSpec.coerce("jwins") == SchemeSpec("jwins")
        assert SchemeSpec.coerce({"name": "jwins"}) == SchemeSpec("jwins")
        spec = SchemeSpec("topk", {"fraction": 0.1})
        assert SchemeSpec.coerce(spec) is spec
