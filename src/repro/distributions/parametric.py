"""Parametric clock-offset distribution families.

The paper's evaluation seeds each client with a Gaussian offset distribution
(§4), but §3.3 explicitly calls for arbitrary distributions because measured
clock offsets are "Gaussian-like" yet skewed and long-tailed.  The families
here cover both regimes: Gaussian/uniform/Laplace for light tails and
Student-t / shifted log-normal for heavy or skewed tails.

Every density, CDF and quantile is the closed form scipy's ``stats`` package
evaluates for that family, written on ``scipy.special`` and numpy so that a
process which serves, merges or runs an experiment never imports that package
(+46 MiB resident, +0.65 s of import).  The values are the same floats:
``tests/distributions/test_parametric_bits.py`` compares each function with
the ``stats`` one bit for bit, support edges and NaN included.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.special import ndtr, ndtri, poch, stdtr, stdtrit

from repro.distributions.base import DistributionError, OffsetDistribution

_SQRT_2PI = np.sqrt(2 * np.pi)


def _require_finite(**parameters: float) -> None:
    # NaN passes every ordered comparison: left in, it poisons the vectorised
    # kernels (the scalar closed form returns NaN where they return 0 / 0.5 / 1)
    for name, value in parameters.items():
        if not math.isfinite(value):
            raise DistributionError(f"{name} must be finite, got {value!r}")


# One helper per family function, named after the ``stats`` method it equals.
# ``[()]`` turns a 0-d result into the numpy scalar that method returns for a
# scalar argument and leaves an n-d array as it is.


def _norm_pdf(x, loc, scale):
    y = (x - loc) / scale
    return (np.exp(-(y * y) / 2.0) / _SQRT_2PI / scale)[()]


def _norm_cdf(x, loc, scale):
    return ndtr((x - loc) / scale)[()]


def _norm_ppf(q, loc, scale):
    return ndtri(q) * scale + loc


def _uniform_pdf(x, loc, scale):
    y = (x - loc) / scale
    return np.where(np.isnan(y), np.nan, ((y >= 0.0) & (y <= 1.0)) / scale)[()]


def _uniform_cdf(x, loc, scale):
    y = (x - loc) / scale
    inside = np.where(y >= 1.0, 1.0, np.where(y > 0.0, y, 0.0))
    return np.where(np.isnan(y), np.nan, inside)[()]


def _laplace_pdf(x, loc, scale):
    y = (x - loc) / scale
    return (0.5 * np.exp(-abs(y)) / scale)[()]


def _laplace_cdf(x, loc, scale):
    y = (x - loc) / scale
    with np.errstate(over="ignore"):
        return np.where(y > 0, 1.0 - 0.5 * np.exp(-y), 0.5 * np.exp(y))[()]


def _laplace_ppf(q, loc, scale):
    if q == 0.0 or q == 1.0:  # log(0) warns; the edges are the support's
        return -math.inf if q == 0.0 else math.inf
    return (-np.log(2 * (1 - q)) if q > 0.5 else np.log(2 * q)) * scale + loc


def _t_pdf(x, df, loc, scale):
    y = (x - loc) / scale
    log_pdf = (
        np.log(poch(0.5 * df, 0.5))
        - 0.5 * (np.log(df) + np.log(np.pi))
        - (df + 1) / 2 * np.log1p(y * y / df)
    )
    return (np.exp(log_pdf) / scale)[()]


def _t_cdf(x, df, loc, scale):
    return stdtr(df, (x - loc) / scale)[()]


def _t_ppf(q, df, loc, scale):
    if q == 0.0:  # stdtrit(df, 0.0) is +inf
        return -math.inf
    return stdtrit(df, q) * scale + loc


def _lognorm_pdf(x, s, scale):
    z = x / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(z)
        log_pdf = -(log_z * log_z) / (2 * (s * s)) - np.log(s * z * _SQRT_2PI)
        return np.where(z <= 0.0, 0.0, np.exp(log_pdf) / scale)[()]


def _lognorm_cdf(x, s, scale):
    z = x / scale
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z <= 0.0, 0.0, ndtr(np.log(z) / s))[()]


def _lognorm_ppf(q, s, scale):
    return np.exp(s * ndtri(q)) * scale


class GaussianDistribution(OffsetDistribution):
    """Normal offset distribution ``N(mu, sigma^2)``."""

    family = "gaussian"

    def __init__(self, mean: float, std: float) -> None:
        # ``not >=`` so that NaN fails too; an infinite std stays legal:
        # "nothing is known about this clock", priced 0.5 against everyone
        if not std >= 0:
            raise DistributionError(f"std must be non-negative, got {std!r}")
        _require_finite(mean=mean)
        self._mean = float(mean)
        self._std = float(std)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._std ** 2

    @property
    def std(self) -> float:
        return self._std

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._std == 0:
            return np.where(np.isclose(x, self._mean), np.inf, 0.0)
        return _norm_pdf(x, self._mean, self._std)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._std == 0:
            return np.where(x >= self._mean, 1.0, 0.0)
        return _norm_cdf(x, self._mean, self._std)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        if self._std == 0:
            return self._mean
        return float(_norm_ppf(q, self._mean, self._std))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.normal(self._mean, self._std, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        if self._std == 0:
            return (self._mean - 1e-9, self._mean + 1e-9)
        tail = (1.0 - coverage) / 2.0
        half = -float(ndtri(max(tail, 1e-300))) * self._std
        return (self._mean - half, self._mean + half)


class UniformDistribution(OffsetDistribution):
    """Uniform offset on ``[low, high]`` — the worst-case bounded error model."""

    family = "uniform"

    def __init__(self, low: float, high: float) -> None:
        if high <= low:
            raise DistributionError(f"require high > low, got [{low!r}, {high!r}]")
        _require_finite(low=low, high=high)
        self._low = float(low)
        self._high = float(high)

    @property
    def low(self) -> float:
        """Lower edge of the support."""
        return self._low

    @property
    def high(self) -> float:
        """Upper edge of the support."""
        return self._high

    @property
    def mean(self) -> float:
        return 0.5 * (self._low + self._high)

    @property
    def variance(self) -> float:
        return (self._high - self._low) ** 2 / 12.0

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _uniform_pdf(x, self._low, self._high - self._low)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _uniform_cdf(x, self._low, self._high - self._low)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return self._low + q * (self._high - self._low)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.uniform(self._low, self._high, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        return (self._low, self._high)


class LaplaceDistribution(OffsetDistribution):
    """Laplace (double-exponential) offsets — heavier tails than Gaussian."""

    family = "laplace"

    def __init__(self, mean: float, scale: float) -> None:
        if scale <= 0:
            raise DistributionError(f"scale must be positive, got {scale!r}")
        _require_finite(mean=mean, scale=scale)
        self._mean = float(mean)
        self._scale = float(scale)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return 2.0 * self._scale ** 2

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _laplace_pdf(np.asarray(x, dtype=float), self._mean, self._scale)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _laplace_cdf(np.asarray(x, dtype=float), self._mean, self._scale)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return float(_laplace_ppf(q, self._mean, self._scale))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.laplace(self._mean, self._scale, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        tail = (1.0 - coverage) / 2.0
        half = float(-_laplace_ppf(max(tail, 1e-300), 0.0, self._scale))
        return (self._mean - half, self._mean + half)


class StudentTDistribution(OffsetDistribution):
    """Student-t offsets — models occasional large synchronization excursions."""

    family = "student-t"

    def __init__(self, mean: float, scale: float, dof: float) -> None:
        if scale <= 0:
            raise DistributionError(f"scale must be positive, got {scale!r}")
        if dof <= 2:
            raise DistributionError(f"dof must exceed 2 for finite variance, got {dof!r}")
        _require_finite(mean=mean, scale=scale, dof=dof)
        self._mean = float(mean)
        self._scale = float(scale)
        self._dof = float(dof)

    @property
    def dof(self) -> float:
        """Degrees of freedom."""
        return self._dof

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return self._scale ** 2 * self._dof / (self._dof - 2.0)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return _t_pdf(np.asarray(x, dtype=float), self._dof, self._mean, self._scale)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return _t_cdf(np.asarray(x, dtype=float), self._dof, self._mean, self._scale)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return float(_t_ppf(q, self._dof, self._mean, self._scale))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return self._mean + self._scale * rng.standard_t(self._dof, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        tail = (1.0 - coverage) / 2.0
        lo = float(_t_ppf(max(tail, 1e-300), self._dof, self._mean, self._scale))
        hi = float(_t_ppf(min(1.0 - tail, 1.0), self._dof, self._mean, self._scale))
        if not np.isfinite(lo) or not np.isfinite(hi):
            lo, hi = self._mean - 50 * self._scale, self._mean + 50 * self._scale
        return (lo, hi)


class ShiftedLogNormalDistribution(OffsetDistribution):
    """Skewed offsets: ``shift + LogNormal(mu, sigma)``.

    Captures the asymmetric, long-right-tail behaviour reported for measured
    clock offsets (paper §3.3, reference [27]).
    """

    family = "shifted-lognormal"

    def __init__(self, shift: float, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise DistributionError(f"sigma must be positive, got {sigma!r}")
        _require_finite(shift=shift, mu=mu, sigma=sigma)
        self._shift = float(shift)
        self._mu = float(mu)
        self._sigma = float(sigma)

    @property
    def shift(self) -> float:
        """Additive shift applied to the log-normal variate."""
        return self._shift

    @property
    def mean(self) -> float:
        return self._shift + float(np.exp(self._mu + self._sigma ** 2 / 2.0))

    @property
    def variance(self) -> float:
        s2 = self._sigma ** 2
        return float((np.exp(s2) - 1.0) * np.exp(2.0 * self._mu + s2))

    def pdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _lognorm_pdf(x - self._shift, self._sigma, np.exp(self._mu))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _lognorm_cdf(x - self._shift, self._sigma, np.exp(self._mu))

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return self._shift + float(_lognorm_ppf(q, self._sigma, np.exp(self._mu)))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return self._shift + rng.lognormal(self._mu, self._sigma, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        tail = 1.0 - coverage
        hi = self._shift + float(_lognorm_ppf(1.0 - tail, self._sigma, np.exp(self._mu)))
        return (self._shift, hi)
