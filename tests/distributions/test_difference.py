"""Tests for the difference-distribution wrapper used by the precedence model."""

import numpy as np
import pytest
from scipy import stats

from repro.distributions.base import DistributionError
from repro.distributions.difference import (
    difference_distribution,
    gaussian_difference,
)
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import (
    GaussianDistribution,
    ShiftedLogNormalDistribution,
    UniformDistribution,
)


def test_gaussian_difference_closed_form_moments():
    a = GaussianDistribution(1.0, 3.0)
    b = GaussianDistribution(4.0, 4.0)
    diff = gaussian_difference(a, b)
    assert diff.exact
    assert diff.mean == pytest.approx(3.0)
    assert diff.std == pytest.approx(5.0)


def test_auto_method_uses_closed_form_for_gaussians():
    a = GaussianDistribution(0.0, 1.0)
    b = GaussianDistribution(0.0, 1.0)
    diff = difference_distribution(a, b, method="auto")
    assert diff.exact


def test_auto_method_falls_back_to_fft_for_non_gaussian():
    a = UniformDistribution(-1.0, 1.0)
    b = GaussianDistribution(0.0, 1.0)
    diff = difference_distribution(a, b, method="auto")
    assert not diff.exact


def test_tail_probability_matches_normal_sf():
    a = GaussianDistribution(0.0, 1.0)
    b = GaussianDistribution(0.0, 1.0)
    diff = difference_distribution(a, b)
    for threshold in (-2.0, 0.0, 1.5):
        expected = stats.norm.sf(threshold, loc=0.0, scale=np.sqrt(2.0))
        assert diff.tail_probability(threshold) == pytest.approx(expected, abs=1e-9)


def test_fft_path_matches_closed_form_probabilities():
    a = GaussianDistribution(0.5, 2.0)
    b = GaussianDistribution(-0.5, 1.0)
    exact = difference_distribution(a, b, method="gaussian")
    numeric = difference_distribution(a, b, method="fft", num_points=4096)
    for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
        assert numeric.cdf(x) == pytest.approx(exact.cdf(x), abs=5e-3)


def test_direct_method_also_available():
    a = GaussianDistribution(0.0, 1.0)
    b = UniformDistribution(-1.0, 1.0)
    numeric = difference_distribution(a, b, method="direct", num_points=512)
    assert 0.4 < numeric.cdf(0.0) < 0.6


def test_fft_and_direct_methods_agree_on_a_skewed_mixture():
    # the log-linear FFT path and the quadratic direct path, on grids of
    # different resolution, give the same preceding probabilities
    a = MixtureDistribution(
        [GaussianDistribution(-20.0, 10.0), ShiftedLogNormalDistribution(0.0, 3.0, 0.5)],
        [0.6, 0.4],
    )
    b = GaussianDistribution(5.0, 25.0)
    fft = difference_distribution(a, b, method="fft", num_points=2048)
    direct = difference_distribution(a, b, method="direct", num_points=1024)
    assert not fft.exact and not direct.exact
    for x in (-60.0, -20.0, 0.0, 20.0, 60.0):
        assert fft.cdf(x) == pytest.approx(direct.cdf(x), abs=1e-4)
    assert 0.0 < fft.cdf(0.0) < 0.5  # the skewed client's error sits further left


def test_quantile_and_cdf_are_consistent():
    a = MixtureDistribution(
        [GaussianDistribution(-1.0, 0.5), GaussianDistribution(2.0, 0.5)], [0.5, 0.5]
    )
    b = GaussianDistribution(0.0, 1.0)
    diff = difference_distribution(a, b, method="fft")
    for q in (0.1, 0.5, 0.9):
        assert diff.cdf(diff.quantile(q)) == pytest.approx(q, abs=0.02)


def test_gaussian_method_requires_gaussian_inputs():
    with pytest.raises(DistributionError):
        difference_distribution(UniformDistribution(0, 1), GaussianDistribution(0, 1), method="gaussian")


def test_unknown_method_rejected():
    with pytest.raises(DistributionError):
        difference_distribution(GaussianDistribution(0, 1), GaussianDistribution(0, 1), method="magic")


def test_cdf_clipped_to_unit_interval():
    a = GaussianDistribution(0.0, 1.0)
    diff = difference_distribution(a, a)
    assert diff.cdf(1e9) == 1.0
    assert diff.cdf(-1e9) == 0.0
    assert diff.tail_probability(1e9) == 0.0


# --------------------------------------------------------------------------
# Regression: sign/convention reconciliation for asymmetric distributions.
#
# The module used to document the paper's theta-convention formula
# ``P(i precedes j) = P(delta > T_i - T_j)`` on top of the epsilon-convention
# density it actually computes (``delta = eps_j - eps_i``).  For asymmetric
# error distributions the two readings disagree; the precedence model's
# ``cdf(T_j - T_i)`` (now exposed as ``preceding_probability``) is the
# correct one.  Verified against Monte-Carlo ground truth on both numerical
# paths.
# --------------------------------------------------------------------------


_ASYMMETRIC_PAIR_CACHE = {}


def _asymmetric_pair():
    """Two strongly skewed empirical error distributions plus raw samples."""
    from repro.distributions.empirical import EmpiricalDistribution

    if not _ASYMMETRIC_PAIR_CACHE:
        rng = np.random.default_rng(42)
        samples_i = rng.standard_exponential(30_000) / 2.0 - 0.2
        samples_j = 0.1 - rng.standard_exponential(30_000) / 0.9
        dist_i = EmpiricalDistribution.from_kde(samples_i, num_points=256)
        dist_j = EmpiricalDistribution.from_kde(samples_j, num_points=256)
        _ASYMMETRIC_PAIR_CACHE["pair"] = (dist_i, dist_j, samples_i, samples_j)
    return _ASYMMETRIC_PAIR_CACHE["pair"]


@pytest.mark.parametrize("method", ["fft", "direct"])
def test_asymmetric_preceding_probability_matches_monte_carlo(method):
    from repro.core.probability import PrecedenceModel
    from repro.network.message import TimestampedMessage

    dist_i, dist_j, samples_i, samples_j = _asymmetric_pair()
    t_i, t_j = 0.05, 0.3
    ground_truth = float(np.mean((samples_j - samples_i) < (t_j - t_i)))

    model = PrecedenceModel(method=method)
    model.register_client("i", dist_i)
    model.register_client("j", dist_j)
    message_i = TimestampedMessage(client_id="i", timestamp=t_i)
    message_j = TimestampedMessage(client_id="j", timestamp=t_j)
    forward = model.preceding_probability(message_i, message_j)
    backward = model.preceding_probability(message_j, message_i)

    assert forward + backward == pytest.approx(1.0, abs=1e-6)
    assert forward == pytest.approx(ground_truth, abs=0.02)
    # the convention-checked wrapper agrees with the model path
    difference = model.pair_difference("i", "j")
    assert difference.preceding_probability(t_i, t_j) == forward


@pytest.mark.parametrize("method", ["fft", "direct"])
def test_theta_convention_tail_formula_is_not_the_preceding_probability(method):
    """The previously documented ``tail_probability(T_i - T_j)`` reading is
    measurably wrong for skewed errors — pin the distinction."""
    dist_i, dist_j, samples_i, samples_j = _asymmetric_pair()
    t_i, t_j = 0.05, 0.3
    ground_truth = float(np.mean((samples_j - samples_i) < (t_j - t_i)))
    difference = difference_distribution(dist_i, dist_j, method=method)
    correct = difference.preceding_probability(t_i, t_j)
    theta_reading = difference.tail_probability(t_i - t_j)
    assert correct == pytest.approx(ground_truth, abs=0.02)
    assert abs(theta_reading - ground_truth) > 0.1


def test_table_interpolation_matches_scalar_cdf_bitwise():
    """The engine's pair-table kernel interpolates the exact arrays
    ``cdf_table`` exposes: element-wise bit-identical to the scalar
    ``preceding_probability`` path (the fast path's parity contract)."""
    import numpy as np

    from repro.core.engine import _interp_table
    from repro.distributions.difference import difference_distribution
    from repro.distributions.empirical import EmpiricalDistribution
    from repro.distributions.parametric import GaussianDistribution

    rng = np.random.default_rng(4)
    empirical = EmpiricalDistribution.from_samples(rng.normal(0.0, 0.5, 300), bins=64)
    gaussian = GaussianDistribution(0.1, 0.3)
    difference = difference_distribution(empirical, gaussian, method="fft", num_points=512)
    timestamps_i = rng.normal(0.0, 2.0, 50)
    timestamp_j = 0.25
    batch = _interp_table(timestamp_j - timestamps_i, difference.cdf_table())
    for value, timestamp_i in zip(batch, timestamps_i):
        assert value == difference.preceding_probability(float(timestamp_i), timestamp_j)


def test_cdf_table_exposed_only_for_grid_backed_differences():
    import numpy as np

    from repro.distributions.difference import difference_distribution
    from repro.distributions.empirical import EmpiricalDistribution
    from repro.distributions.parametric import GaussianDistribution

    rng = np.random.default_rng(5)
    empirical = EmpiricalDistribution.from_samples(rng.normal(0.0, 0.5, 300), bins=64)
    gaussian = GaussianDistribution(0.0, 0.3)
    grid_backed = difference_distribution(empirical, gaussian, method="fft", num_points=512)
    assert grid_backed.cdf_table() is not None
    closed_form = difference_distribution(gaussian, gaussian, method="auto")
    assert closed_form.cdf_table() is None
