"""Bit-for-bit oracle for the closed forms in ``repro.distributions.parametric``.

``src/`` evaluates the five offset families on ``scipy.special`` and numpy;
``scipy.stats`` is imported here, by the test only, as the reference.  Every
``pdf``, ``cdf``, ``quantile`` and ``support`` must return the same floats, of
the same type and shape, as the ``stats`` call the module made before, so that
a scipy bump is checked against this file instead of trusted.
"""

import warnings
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
import pytest
from scipy import stats

from repro.distributions.base import OffsetDistribution
from repro.distributions.parametric import (
    GaussianDistribution,
    LaplaceDistribution,
    ShiftedLogNormalDistribution,
    StudentTDistribution,
    UniformDistribution,
)

PARAMETER_SETS = 60
QUANTILE_EDGES = (0.0, 1e-300, 0.5, 1.0 - 1e-9, 1.0)
COVERAGES = (1.0 - 1e-9, 1.0, 0.999, 0.5, 1e-3)
INF, NAN = float("inf"), float("nan")


class Case(NamedTuple):
    dist: OffsetDistribution
    #: the frozen ``scipy.stats`` distribution the parent commit evaluated
    frozen: object
    #: subtracted from ``x`` / added to the quantile (the log-normal's shift)
    shift: Optional[float]
    points: np.ndarray
    support: Callable[[float], Tuple[float, float]]


def location(rng) -> float:
    return float(rng.standard_normal() * 10.0 ** rng.uniform(-6, 3))


def spread(rng, low=-9, high=3) -> float:
    return float(10.0 ** rng.uniform(low, high))


def around(rng, centre, width, *extra) -> np.ndarray:
    body = centre + width * 3.0 * rng.standard_normal(32)
    tails = centre + width * np.array([-1e3, -40.0, -12.0, -1e-12, 0.0, 1e-12, 12.0, 40.0, 1e3])
    return np.concatenate([body, tails, [INF, -INF, NAN, centre, *extra]])


def gaussian_case(rng) -> Case:
    mean, std = location(rng), spread(rng)

    def support(coverage):
        half = -float(stats.norm.ppf(max((1.0 - coverage) / 2.0, 1e-300))) * std
        return (mean - half, mean + half)

    return Case(
        GaussianDistribution(mean, std),
        stats.norm(loc=mean, scale=std),
        None,
        around(rng, mean, std),
        support,
    )


def uniform_case(rng) -> Case:
    low = location(rng)
    high = low + max(spread(rng), abs(low) * 1e-12)
    width = high - low
    inside = low + width * rng.uniform(size=32)
    outside = [low - width, low - 1e-9 * width, high + 1e-9 * width, high + width]
    points = np.concatenate([inside, outside, [low, high, INF, -INF, NAN]])
    return Case(
        UniformDistribution(low, high),
        stats.uniform(loc=low, scale=width),
        None,
        points,
        lambda coverage: (low, high),
    )


def laplace_case(rng) -> Case:
    mean, scale = location(rng), spread(rng)

    def support(coverage):
        tail = (1.0 - coverage) / 2.0
        half = float(-stats.laplace.ppf(max(tail, 1e-300), loc=0.0, scale=scale))
        return (mean - half, mean + half)

    return Case(
        LaplaceDistribution(mean, scale),
        stats.laplace(loc=mean, scale=scale),
        None,
        around(rng, mean, scale),
        support,
    )


def student_t_case(rng) -> Case:
    mean, scale = location(rng), spread(rng)
    dof = 2.0 + spread(rng, -2, 3) if rng.random() < 0.7 else float(rng.integers(3, 40))

    def support(coverage):
        tail = (1.0 - coverage) / 2.0
        lo = float(stats.t.ppf(max(tail, 1e-300), df=dof, loc=mean, scale=scale))
        hi = float(stats.t.ppf(min(1.0 - tail, 1.0), df=dof, loc=mean, scale=scale))
        if not np.isfinite(lo) or not np.isfinite(hi):
            lo, hi = mean - 50 * scale, mean + 50 * scale
        return (lo, hi)

    return Case(
        StudentTDistribution(mean, scale, dof),
        stats.t(df=dof, loc=mean, scale=scale),
        None,
        around(rng, mean, scale),
        support,
    )


def lognormal_case(rng) -> Case:
    shift, mu, sigma = location(rng), float(rng.uniform(-12, 3)), spread(rng, -2, 0.7)
    scale = np.exp(mu)
    inside = shift + scale * np.exp(sigma * 3.0 * rng.standard_normal(32))
    outside = [shift - scale, shift - 1e-9 * scale, shift, shift + 1e-300, -INF]
    points = np.concatenate([inside, outside, [shift + 1e6 * scale, INF, NAN]])

    def support(coverage):
        tail = 1.0 - coverage
        return (shift, shift + float(stats.lognorm.ppf(1.0 - tail, s=sigma, scale=scale)))

    return Case(
        ShiftedLogNormalDistribution(shift, mu, sigma),
        stats.lognorm(s=sigma, scale=scale),
        shift,
        points,
        support,
    )


FAMILIES = {
    "gaussian": gaussian_case,
    "uniform": uniform_case,
    "laplace": laplace_case,
    "student-t": student_t_case,
    "shifted-lognormal": lognormal_case,
}


def cases(family):
    rng = np.random.default_rng([21, sorted(FAMILIES).index(family)])
    for _ in range(PARAMETER_SETS):
        yield FAMILIES[family](rng)


def assert_same_bits(actual, expected):
    assert type(actual) is type(expected)
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    finite = ~np.isnan(expected)
    assert np.array_equal(np.signbit(actual[finite]), np.signbit(expected[finite]))


def quietly(function, *args):
    """``function(*args)``, any warning an error: callers get none today."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return function(*args)


@pytest.mark.parametrize("function", ["pdf", "cdf"])
@pytest.mark.parametrize("family", FAMILIES)
def test_density_and_cdf_match_scipy_stats_bit_for_bit(family, function):
    for case in cases(family):
        ours, reference = getattr(case.dist, function), getattr(case.frozen, function)
        shift = 0.0 if case.shift is None else case.shift
        flat = case.points
        square = flat[:36].reshape(6, 6)
        for x in (flat, square, flat[::3], square.T, flat[:0], list(flat[:5])):
            x = np.asarray(x, dtype=float)
            assert_same_bits(quietly(ours, x), reference(x - shift))
        for x in flat:
            # a Python float and a 0-d array both come back as a numpy scalar
            assert_same_bits(quietly(ours, float(x)), reference(float(x) - shift))
            assert_same_bits(quietly(ours, np.asarray(x)), reference(np.asarray(x - shift)))


@pytest.mark.parametrize("family", FAMILIES)
def test_quantile_matches_scipy_stats_bit_for_bit(family):
    levels = np.random.default_rng(5).uniform(size=24)
    for case in cases(family):
        for q in (*QUANTILE_EDGES, *map(float, levels)):
            expected = float(case.frozen.ppf(q))
            if case.shift is not None:
                expected = case.shift + expected
            assert_same_bits(quietly(case.dist.quantile, q), expected)


@pytest.mark.parametrize("family", FAMILIES)
def test_support_matches_the_scipy_stats_expression_bit_for_bit(family):
    for case in cases(family):
        assert_same_bits(quietly(case.dist.support), case.support(1.0 - 1e-9))
        for coverage in COVERAGES:
            actual = quietly(case.dist.support, coverage)
            assert all(type(edge) is float for edge in actual)
            assert_same_bits(actual, case.support(coverage))


def test_zero_std_gaussian_keeps_its_point_mass_answers():
    # std == 0 never reached scipy: the degenerate branch is the class's own
    dist = GaussianDistribution(1.5, 0.0)
    x = np.array([-INF, 1.0, 1.5, 1.5 + 1e-12, 2.0, INF, NAN])
    assert_same_bits(dist.pdf(x), np.array([0.0, 0.0, INF, INF, 0.0, 0.0, 0.0]))
    assert_same_bits(dist.cdf(x), np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    assert_same_bits(dist.pdf(1.5), np.asarray(INF))
    assert_same_bits(dist.cdf(1.0), np.asarray(0.0))
    for q in QUANTILE_EDGES:
        assert_same_bits(dist.quantile(q), 1.5)
    assert dist.support() == (1.5 - 1e-9, 1.5 + 1e-9)
