"""Tests for TommyConfig validation."""

import pytest

from repro.core.config import TommyConfig


def test_defaults_match_paper():
    config = TommyConfig()
    assert config.threshold == 0.75
    assert config.p_safe == 0.999
    assert config.probability_method == "auto"
    assert config.cycle_policy == "greedy"


def test_invalid_threshold_rejected():
    with pytest.raises(ValueError):
        TommyConfig(threshold=0.4)
    with pytest.raises(ValueError):
        TommyConfig(threshold=1.0)


def test_invalid_p_safe_rejected():
    with pytest.raises(ValueError):
        TommyConfig(p_safe=0.5)
    with pytest.raises(ValueError):
        TommyConfig(p_safe=1.0)


def test_invalid_enumerations_rejected():
    with pytest.raises(ValueError):
        TommyConfig(probability_method="nope")
    with pytest.raises(ValueError):
        TommyConfig(cycle_policy="nope")
    with pytest.raises(ValueError):
        TommyConfig(completeness_mode="nope")


def test_invalid_numeric_parameters_rejected():
    with pytest.raises(ValueError):
        TommyConfig(convolution_points=4)
    with pytest.raises(ValueError):
        TommyConfig(max_network_delay=-1.0)
    with pytest.raises(ValueError):
        TommyConfig(tie_epsilon=0.5)


def test_nan_network_delay_rejected():
    """``nan < 0`` is False, so a NaN bound used to pass the check and then
    schedule the bounded-delay emission check at NaN, where the online
    sequencer's loop never returned."""
    with pytest.raises(ValueError, match="max_network_delay"):
        TommyConfig(completeness_mode="bounded_delay", max_network_delay=float("nan"))


def test_with_threshold_and_with_p_safe_copy_other_fields():
    config = TommyConfig(threshold=0.8, p_safe=0.99, cycle_policy="eades", seed=5)
    changed_threshold = config.with_threshold(0.6)
    assert changed_threshold.threshold == 0.6
    assert changed_threshold.cycle_policy == "eades"
    assert changed_threshold.seed == 5
    changed_psafe = config.with_p_safe(0.995)
    assert changed_psafe.p_safe == 0.995
    assert changed_psafe.threshold == 0.8
