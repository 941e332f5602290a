"""Tests for direct and FFT convolution of offset densities."""

import numpy as np
import pytest

from repro.distributions.base import DistributionError
from repro.distributions.convolution import convolve_direct, convolve_fft, cross_correlation_grid
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import (
    GaussianDistribution,
    ShiftedLogNormalDistribution,
    UniformDistribution,
)

#: a skewed bimodal client against a wide Gaussian one: no closed form exists
SKEWED = MixtureDistribution(
    [GaussianDistribution(-20.0, 10.0), ShiftedLogNormalDistribution(0.0, 3.0, 0.5)], [0.6, 0.4]
)
WIDE = GaussianDistribution(5.0, 25.0)


def test_fft_and_direct_agree_for_gaussians():
    a = GaussianDistribution(1.0, 2.0)
    b = GaussianDistribution(-0.5, 1.0)
    deltas_fft, density_fft = convolve_fft(a, b, num_points=1024)
    deltas_direct, density_direct = convolve_direct(a, b, num_points=1024)
    assert np.allclose(deltas_fft, deltas_direct)
    assert np.allclose(density_fft, density_direct, atol=1e-6)


def test_fft_and_direct_agree_for_a_skewed_mixture():
    deltas_fft, density_fft = convolve_fft(SKEWED, WIDE, num_points=1024)
    deltas_direct, density_direct = convolve_direct(SKEWED, WIDE, num_points=1024)
    assert np.allclose(deltas_fft, deltas_direct)
    assert np.allclose(density_fft, density_direct, atol=1e-9)
    # the difference of independent errors has the moments of the difference
    mean = np.trapezoid(deltas_fft * density_fft, deltas_fft)
    var = np.trapezoid((deltas_fft - mean) ** 2 * density_fft, deltas_fft)
    assert mean == pytest.approx(WIDE.mean - SKEWED.mean, abs=1e-3)
    assert var == pytest.approx(SKEWED.variance + WIDE.variance, rel=1e-3)


def test_gaussian_difference_matches_closed_form():
    a = GaussianDistribution(2.0, 1.5)
    b = GaussianDistribution(-1.0, 2.0)
    deltas, density = convolve_fft(a, b, num_points=4096)
    expected_mean = b.mean - a.mean
    expected_std = np.sqrt(a.variance + b.variance)
    mean = np.trapezoid(deltas * density, deltas)
    var = np.trapezoid((deltas - mean) ** 2 * density, deltas)
    assert mean == pytest.approx(expected_mean, abs=0.02)
    assert np.sqrt(var) == pytest.approx(expected_std, rel=0.02)


def test_uniform_difference_is_triangular():
    a = UniformDistribution(0.0, 1.0)
    b = UniformDistribution(0.0, 1.0)
    deltas, density = convolve_fft(a, b, num_points=2048)
    # difference of independent U(0,1) is triangular on [-1, 1] with peak 1 at 0
    peak_index = int(np.argmax(density))
    assert deltas[peak_index] == pytest.approx(0.0, abs=0.01)
    assert density[peak_index] == pytest.approx(1.0, rel=0.05)
    # density decays to (numerically) nothing at the edges of the [-1, 1] support
    assert float(np.interp(-0.99, deltas, density)) < 0.05


def test_density_is_normalised_and_non_negative():
    a = GaussianDistribution(0.0, 3.0)
    b = UniformDistribution(-2.0, 2.0)
    deltas, density = convolve_fft(a, b)
    assert np.all(density >= 0)
    assert np.trapezoid(density, deltas) == pytest.approx(1.0, abs=1e-6)


def test_cross_correlation_grid_spans_both_supports():
    a = GaussianDistribution(-10.0, 1.0)
    b = GaussianDistribution(10.0, 1.0)
    xs, pdf_a, pdf_b, step = cross_correlation_grid(a, b, num_points=256)
    assert xs[0] < -10.0
    assert xs[-1] > 10.0
    assert step == pytest.approx(xs[1] - xs[0])
    assert pdf_a.shape == xs.shape
    assert pdf_b.shape == xs.shape


def test_too_few_grid_points_rejected():
    a = GaussianDistribution(0.0, 1.0)
    with pytest.raises(DistributionError):
        cross_correlation_grid(a, a, num_points=4)
