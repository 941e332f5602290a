"""Tests for parametric clock-error distribution families."""

import numpy as np
import pytest

from repro.distributions.base import DistributionError
from repro.distributions.parametric import (
    GaussianDistribution,
    LaplaceDistribution,
    ShiftedLogNormalDistribution,
    StudentTDistribution,
    UniformDistribution,
)

ALL_DISTRIBUTIONS = [
    GaussianDistribution(0.5, 2.0),
    UniformDistribution(-3.0, 5.0),
    LaplaceDistribution(1.0, 2.0),
    StudentTDistribution(0.0, 1.0, dof=5.0),
    ShiftedLogNormalDistribution(-1.0, 0.0, 0.5),
]


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
def test_pdf_integrates_to_one_over_support(dist):
    lo, hi = dist.support(1 - 1e-9)
    xs = np.linspace(lo, hi, 20001)
    mass = np.trapezoid(dist.pdf(xs), xs)
    assert mass == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
def test_cdf_is_monotone_and_bounded(dist):
    lo, hi = dist.support(1 - 1e-9)
    xs = np.linspace(lo, hi, 512)
    cdf = dist.cdf(xs)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] <= 1e-3
    assert cdf[-1] >= 1 - 1e-3


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
def test_sample_statistics_match_moments(dist, rng):
    samples = np.asarray(dist.sample(rng, size=60000), dtype=float)
    assert samples.mean() == pytest.approx(dist.mean, abs=5 * dist.std / np.sqrt(60000) + 0.05)
    assert samples.std() == pytest.approx(dist.std, rel=0.15)


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
def test_quantile_inverts_cdf(dist):
    for q in (0.05, 0.25, 0.5, 0.75, 0.95):
        x = dist.quantile(q)
        assert float(dist.cdf(np.asarray(x))) == pytest.approx(q, abs=5e-3)


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=lambda d: d.family)
def test_scalar_sample_is_float_like(dist, rng):
    value = dist.sample(rng)
    assert np.ndim(value) == 0


def test_gaussian_moments():
    dist = GaussianDistribution(2.0, 3.0)
    assert dist.mean == 2.0
    assert dist.std == 3.0
    assert dist.variance == 9.0


def test_gaussian_zero_std_is_degenerate_point_mass():
    dist = GaussianDistribution(1.0, 0.0)
    assert dist.quantile(0.3) == 1.0
    assert float(dist.cdf(np.asarray(0.9))) == 0.0
    assert float(dist.cdf(np.asarray(1.1))) == 1.0


def test_gaussian_negative_std_rejected():
    with pytest.raises(DistributionError):
        GaussianDistribution(0.0, -1.0)


def test_uniform_moments_and_support():
    dist = UniformDistribution(-2.0, 6.0)
    assert dist.mean == 2.0
    assert dist.variance == pytest.approx(64.0 / 12.0)
    assert dist.support() == (-2.0, 6.0)


def test_uniform_invalid_bounds_rejected():
    with pytest.raises(DistributionError):
        UniformDistribution(1.0, 1.0)


def test_laplace_variance():
    dist = LaplaceDistribution(0.0, 2.0)
    assert dist.variance == pytest.approx(8.0)


def test_laplace_invalid_scale_rejected():
    with pytest.raises(DistributionError):
        LaplaceDistribution(0.0, 0.0)


def test_student_t_requires_dof_above_two():
    with pytest.raises(DistributionError):
        StudentTDistribution(0.0, 1.0, dof=2.0)


def test_student_t_variance_inflated_by_dof():
    dist = StudentTDistribution(0.0, 1.0, dof=4.0)
    assert dist.variance == pytest.approx(2.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "family,args",
    [
        (GaussianDistribution, (NAN, 1.0)),
        (GaussianDistribution, (0.0, NAN)),
        (GaussianDistribution, (INF, 1.0)),
        (UniformDistribution, (NAN, 1.0)),
        (UniformDistribution, (0.0, NAN)),
        (UniformDistribution, (-INF, 1.0)),
        (UniformDistribution, (0.0, INF)),
        (LaplaceDistribution, (NAN, 1.0)),
        (LaplaceDistribution, (0.0, NAN)),
        (LaplaceDistribution, (0.0, INF)),
        (StudentTDistribution, (NAN, 1.0, 5.0)),
        (StudentTDistribution, (0.0, NAN, 5.0)),
        (StudentTDistribution, (0.0, 1.0, NAN)),
        (StudentTDistribution, (0.0, 1.0, INF)),
        (ShiftedLogNormalDistribution, (NAN, 0.0, 1.0)),
        (ShiftedLogNormalDistribution, (0.0, NAN, 1.0)),
        (ShiftedLogNormalDistribution, (0.0, 0.0, NAN)),
        (ShiftedLogNormalDistribution, (0.0, INF, 1.0)),
    ],
)
def test_non_finite_parameters_rejected(family, args):
    # ``nan <= 0`` is false, so the sign checks alone let NaN through
    with pytest.raises(DistributionError):
        family(*args)


def test_lognormal_is_skewed_right():
    dist = ShiftedLogNormalDistribution(0.0, 0.0, 0.8)
    median = dist.quantile(0.5)
    assert dist.mean > median  # right skew: mean above median


def test_lognormal_support_starts_at_shift():
    dist = ShiftedLogNormalDistribution(-5.0, 0.0, 0.5)
    lo, _hi = dist.support()
    assert lo == pytest.approx(-5.0)
    assert float(dist.pdf(np.asarray(-6.0))) == 0.0


def test_quantile_rejects_out_of_range_levels():
    dist = GaussianDistribution(0.0, 1.0)
    with pytest.raises(DistributionError):
        dist.quantile(1.5)


def test_negated_distribution_mirrors_moments():
    dist = ShiftedLogNormalDistribution(0.0, 0.0, 0.5)
    negated = dist.negated()
    assert negated.mean == pytest.approx(-dist.mean, rel=1e-2)
    assert negated.std == pytest.approx(dist.std, rel=5e-2)
