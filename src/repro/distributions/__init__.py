"""Clock-offset distribution models.

Every client in the Tommy system is characterised by the distribution of its
clock offset relative to the sequencer's clock (paper §3.1).  This package
provides:

* parametric models (:class:`GaussianDistribution`, :class:`UniformDistribution`,
  :class:`LaplaceDistribution`, :class:`StudentTDistribution`,
  :class:`ShiftedLogNormalDistribution`) and :class:`MixtureDistribution`
  for the skewed / long-tailed behaviour reported for real clock offsets,
* empirical models built from observed probe samples
  (:class:`EmpiricalDistribution`, histogram-backed, optionally KDE-smoothed),
* the distribution of the *difference* of two offsets, computed either in
  closed form (Gaussian) or numerically via direct or FFT convolution
  (:func:`difference_distribution`, paper §3.3), and
* estimators that learn a distribution from synchronization-probe samples
  (:mod:`repro.distributions.estimation`, paper §5).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.distributions.base": (
            "DistributionError",
            "OffsetDistribution",
            "SampledDistribution",
        ),
        "repro.distributions.parametric": (
            "GaussianDistribution",
            "LaplaceDistribution",
            "ShiftedLogNormalDistribution",
            "StudentTDistribution",
            "UniformDistribution",
        ),
        "repro.distributions.mixtures": ("MixtureDistribution",),
        "repro.distributions.empirical": ("EmpiricalDistribution",),
        "repro.distributions.difference": (
            "DifferenceDistribution",
            "difference_distribution",
            "gaussian_difference",
        ),
        "repro.distributions.convolution": (
            "convolve_direct",
            "convolve_fft",
            "cross_correlation_grid",
        ),
        "repro.distributions.estimation": (
            "DistributionEstimate",
            "estimate_empirical",
            "estimate_gaussian",
            "fit_best_distribution",
        ),
    },
)

__all__ = [
    "DistributionError",
    "OffsetDistribution",
    "SampledDistribution",
    "GaussianDistribution",
    "UniformDistribution",
    "LaplaceDistribution",
    "StudentTDistribution",
    "ShiftedLogNormalDistribution",
    "MixtureDistribution",
    "EmpiricalDistribution",
    "DifferenceDistribution",
    "difference_distribution",
    "gaussian_difference",
    "convolve_direct",
    "convolve_fft",
    "cross_correlation_grid",
    "DistributionEstimate",
    "estimate_empirical",
    "estimate_gaussian",
    "fit_best_distribution",
]
