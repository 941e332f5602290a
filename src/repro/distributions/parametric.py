"""Parametric clock-offset distribution families.

The paper's evaluation seeds each client with a Gaussian offset distribution
(§4), but §3.3 explicitly calls for arbitrary distributions because measured
clock offsets are "Gaussian-like" yet skewed and long-tailed.  The families
here cover both regimes: Gaussian/uniform/Laplace for light tails and
Student-t / shifted log-normal for heavy or skewed tails.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy import stats
from scipy.special import ndtri

from repro.distributions.base import DistributionError, OffsetDistribution


class GaussianDistribution(OffsetDistribution):
    """Normal offset distribution ``N(mu, sigma^2)``."""

    family = "gaussian"

    def __init__(self, mean: float, std: float) -> None:
        if std < 0:
            raise DistributionError(f"std must be non-negative, got {std!r}")
        # NaN passes every ordered comparison: left in, the scalar closed form
        # returns NaN where the vectorised kernels return 0 / 0.5 / 1
        if math.isnan(mean) or math.isnan(std):
            raise DistributionError(f"mean and std must not be NaN, got {mean!r}, {std!r}")
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
        return stats.norm.pdf(x, loc=self._mean, scale=self._std)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._std == 0:
            return np.where(x >= self._mean, 1.0, 0.0)
        return stats.norm.cdf(x, loc=self._mean, scale=self._std)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        if self._std == 0:
            return self._mean
        return float(stats.norm.ppf(q, loc=self._mean, scale=self._std))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.normal(self._mean, self._std, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        if self._std == 0:
            return (self._mean - 1e-9, self._mean + 1e-9)
        tail = (1.0 - coverage) / 2.0
        # ndtri == stats.norm.ppf for loc=0/scale=1 (same bits) without the
        # generic distribution machinery — support() sits on the certainty-
        # window hot path, priced once per client per merge
        half = -float(ndtri(max(tail, 1e-300))) * self._std
        return (self._mean - half, self._mean + half)


class UniformDistribution(OffsetDistribution):
    """Uniform offset on ``[low, high]`` — the worst-case bounded error model."""

    family = "uniform"

    def __init__(self, low: float, high: float) -> None:
        if high <= low:
            raise DistributionError(f"require high > low, got [{low!r}, {high!r}]")
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
        return stats.uniform.pdf(x, loc=self._low, scale=self._high - self._low)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return stats.uniform.cdf(x, loc=self._low, scale=self._high - self._low)

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
        self._mean = float(mean)
        self._scale = float(scale)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        return 2.0 * self._scale ** 2

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return stats.laplace.pdf(np.asarray(x, dtype=float), loc=self._mean, scale=self._scale)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return stats.laplace.cdf(np.asarray(x, dtype=float), loc=self._mean, scale=self._scale)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return float(stats.laplace.ppf(q, loc=self._mean, scale=self._scale))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return rng.laplace(self._mean, self._scale, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        tail = (1.0 - coverage) / 2.0
        half = float(-stats.laplace.ppf(max(tail, 1e-300), loc=0.0, scale=self._scale))
        return (self._mean - half, self._mean + half)


class StudentTDistribution(OffsetDistribution):
    """Student-t offsets — models occasional large synchronization excursions."""

    family = "student-t"

    def __init__(self, mean: float, scale: float, dof: float) -> None:
        if scale <= 0:
            raise DistributionError(f"scale must be positive, got {scale!r}")
        if dof <= 2:
            raise DistributionError(f"dof must exceed 2 for finite variance, got {dof!r}")
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
        return stats.t.pdf(
            np.asarray(x, dtype=float), df=self._dof, loc=self._mean, scale=self._scale
        )

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return stats.t.cdf(
            np.asarray(x, dtype=float), df=self._dof, loc=self._mean, scale=self._scale
        )

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return float(stats.t.ppf(q, df=self._dof, loc=self._mean, scale=self._scale))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return self._mean + self._scale * rng.standard_t(self._dof, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        tail = (1.0 - coverage) / 2.0
        lo = float(stats.t.ppf(max(tail, 1e-300), df=self._dof, loc=self._mean, scale=self._scale))
        hi = float(
            stats.t.ppf(min(1.0 - tail, 1.0), df=self._dof, loc=self._mean, scale=self._scale)
        )
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
        return stats.lognorm.pdf(x - self._shift, s=self._sigma, scale=np.exp(self._mu))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return stats.lognorm.cdf(x - self._shift, s=self._sigma, scale=np.exp(self._mu))

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise DistributionError(f"quantile level must be in [0, 1], got {q!r}")
        return self._shift + float(stats.lognorm.ppf(q, s=self._sigma, scale=np.exp(self._mu)))

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        return self._shift + rng.lognormal(self._mu, self._sigma, size=size)

    def support(self, coverage: float = 1.0 - 1e-9) -> Tuple[float, float]:
        tail = 1.0 - coverage
        hi = self._shift + float(
            stats.lognorm.ppf(1.0 - tail, s=self._sigma, scale=np.exp(self._mu))
        )
        return (self._shift, hi)
