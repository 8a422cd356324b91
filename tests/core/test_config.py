"""Tests for the JWINS configuration."""

import pytest

from repro.compression.float_codec import FloatCodec
from repro.compression.indices import EliasGammaIndexCodec
from repro.core.config import JwinsConfig
from repro.core.cutoff import CutoffDistribution
from repro.core.jwins import JwinsScheme
from repro.exceptions import ConfigurationError


def test_paper_default_uses_wavelet_accumulation_and_random_cutoff():
    config = JwinsConfig.paper_default()
    assert config.wavelet == "sym2"
    assert config.levels == 4
    assert config.use_wavelet and config.use_accumulation and config.use_random_cutoff
    scheme = JwinsScheme(0, 64, 1, config)
    assert isinstance(scheme._index_codec, EliasGammaIndexCodec)
    assert isinstance(scheme._float_codec, FloatCodec)


def test_low_budget_distribution():
    config = JwinsConfig.low_budget(0.2)
    assert config.cutoff.expected_fraction() == pytest.approx(0.2)


def test_ablation_constructors_flip_one_switch_each():
    base = JwinsConfig.paper_default()
    assert not base.without_wavelet().use_wavelet
    assert not base.without_accumulation().use_accumulation
    assert not base.without_random_cutoff().use_random_cutoff
    # The original configuration is unchanged (frozen dataclass).
    assert base.use_wavelet and base.use_accumulation and base.use_random_cutoff


def test_negative_levels_raise():
    with pytest.raises(ConfigurationError):
        JwinsConfig(levels=-1)


def test_custom_cutoff_is_used():
    config = JwinsConfig(cutoff=CutoffDistribution.fixed(0.5))
    assert config.cutoff.expected_fraction() == 0.5
