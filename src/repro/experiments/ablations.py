"""Ablation sweeps called out in DESIGN.md.

Each function returns a list of flat row dictionaries ready for
:func:`repro.experiments.reporting.format_table`, so the benchmark harness
and EXPERIMENTS.md generation share one code path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import TommyConfig
from repro.core.sequencer import TommySequencer
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import (
    GaussianDistribution,
    LaplaceDistribution,
    ShiftedLogNormalDistribution,
)
from repro.experiments.online_runner import OnlineExperimentSettings, run_online_experiment
from repro.experiments.runner import evaluate_result
from repro.sequencers.fifo import FifoSequencer
from repro.sequencers.truetime import TrueTimeSequencer
from repro.sequencers.wfo import WaitsForOneSequencer
from repro.sync.learner import OffsetDistributionLearner
from repro.workloads.arrivals import BurstArrivals, UniformGapArrivals
from repro.workloads.scenario import Scenario, ScenarioConfig, build_scenario


def _default_scenario(
    num_clients: int = 60,
    gap: float = 10.0,
    clock_std: float = 40.0,
    seed: int = 3,
) -> Scenario:
    """One message per client at uniform gaps, heterogeneous Gaussian clocks."""

    def factory(client_index: int, rng: np.random.Generator) -> GaussianDistribution:
        sigma = float(rng.uniform(0.5 * clock_std, 1.5 * clock_std)) if clock_std > 0 else 1e-9
        return GaussianDistribution(float(rng.normal(0.0, clock_std * 0.1)), max(sigma, 1e-9))

    return build_scenario(
        ScenarioConfig(
            num_clients=num_clients,
            arrivals=UniformGapArrivals(messages_per_client=1, gap=gap, jitter_fraction=0.2),
            distribution_factory=factory,
            seed=seed,
        )
    )


# --------------------------------------------------------------------- ABL-THRESH
def run_threshold_sweep(
    thresholds: Sequence[float] = (0.55, 0.65, 0.75, 0.85, 0.95),
    num_clients: int = 60,
    gap: float = 10.0,
    clock_std: float = 40.0,
    seed: int = 3,
) -> List[Dict[str, object]]:
    """§3.4 trade-off: batching threshold vs RAS and batch granularity."""
    scenario = _default_scenario(num_clients=num_clients, gap=gap, clock_std=clock_std, seed=seed)
    messages = list(scenario.messages)
    rows: List[Dict[str, object]] = []
    for threshold in thresholds:
        sequencer = TommySequencer(
            client_distributions=scenario.client_distributions,
            config=TommyConfig(threshold=threshold),
        )
        comparison = evaluate_result(f"tommy@{threshold}", sequencer.sequence(messages), messages)
        row = comparison.as_row()
        row["threshold"] = threshold
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- ABL-PSAFE
def run_psafe_sweep(
    p_safe_values: Sequence[float] = (0.9, 0.99, 0.999, 0.9999),
    num_clients: int = 8,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """§3.5 trade-off: p_safe vs emission latency and fairness confidence."""
    rows: List[Dict[str, object]] = []
    for p_safe in p_safe_values:
        settings = OnlineExperimentSettings(
            num_clients=num_clients,
            config=TommyConfig(p_safe=p_safe, completeness_mode="heartbeat"),
            seed=seed,
        )
        outcome = run_online_experiment(settings)
        row = outcome.as_row()
        row["p_safe"] = p_safe
        rows.append(row)
    return rows


# ----------------------------------------------------------------------- ABL-DIST
def run_distribution_ablation(num_clients: int = 40) -> List[Dict[str, object]]:
    """§3.3: Gaussian closed form vs FFT convolution on non-Gaussian offsets.

    One message per client at gap 10 under clock spreads around 40 (seed 5).
    """
    clock_std = 40.0

    def gaussian_factory(index: int, rng: np.random.Generator) -> GaussianDistribution:
        return GaussianDistribution(0.0, max(float(rng.uniform(0.5, 1.5)) * clock_std, 1e-9))

    def skewed_factory(index: int, rng: np.random.Generator):
        sigma = max(float(rng.uniform(0.5, 1.5)) * clock_std, 1e-9)
        return ShiftedLogNormalDistribution(shift=-sigma, mu=float(np.log(sigma)), sigma=0.6)

    def mixture_factory(index: int, rng: np.random.Generator):
        sigma = max(float(rng.uniform(0.5, 1.5)) * clock_std, 1e-9)
        return MixtureDistribution(
            [
                GaussianDistribution(-0.5 * sigma, 0.4 * sigma),
                LaplaceDistribution(0.8 * sigma, 0.3 * sigma),
            ],
            [0.7, 0.3],
        )

    families = {
        "gaussian/closed-form": (gaussian_factory, "auto"),
        "gaussian/fft": (gaussian_factory, "fft"),
        "lognormal/fft": (skewed_factory, "fft"),
        "mixture/fft": (mixture_factory, "fft"),
    }
    rows: List[Dict[str, object]] = []
    for label, (factory, method) in families.items():
        scenario = build_scenario(
            ScenarioConfig(
                num_clients=num_clients,
                arrivals=UniformGapArrivals(messages_per_client=1, gap=10.0, jitter_fraction=0.2),
                distribution_factory=factory,
                seed=5,
            )
        )
        messages = list(scenario.messages)
        sequencer = TommySequencer(
            client_distributions=scenario.client_distributions,
            config=TommyConfig(probability_method=method, convolution_points=1024),
        )
        start = time.perf_counter()
        result = sequencer.sequence(messages)
        elapsed = time.perf_counter() - start
        comparison = evaluate_result(label, result, messages)
        row = comparison.as_row()
        row["family"] = label
        row["method"] = method
        row["sequencing_seconds"] = round(elapsed, 4)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- ABL-LEARN
def run_learning_ablation(
    probe_counts: Sequence[int] = (16, 64, 256),
    num_clients: int = 40,
    seed: int = 9,
) -> List[Dict[str, object]]:
    """§5: seeded (ground truth) vs probe-learned offset distributions.

    For each probe budget, every client's Gaussian error distribution is
    re-estimated from that many noisy offset observations and Tommy is run
    with the estimates; the row for ``probes = 0`` is the seeded upper bound
    the paper reports.  Messages come at gap 15 under clock spreads around 10.
    """
    scenario = _default_scenario(num_clients=num_clients, gap=15.0, clock_std=10.0, seed=seed)
    messages = list(scenario.messages)
    truth = scenario.client_distributions
    rng = np.random.default_rng(seed)

    rows: List[Dict[str, object]] = []
    seeded = TommySequencer(client_distributions=truth, config=TommyConfig())
    row = evaluate_result("seeded", seeded.sequence(messages), messages).as_row()
    row["probes"] = 0
    rows.append(row)

    for probes in probe_counts:
        learned = {}
        for client_id, distribution in truth.items():
            learner = OffsetDistributionLearner(window=max(probes, 2), method="gaussian")
            samples = distribution.sample(rng, size=probes)
            for sample in np.atleast_1d(samples):
                learner.observe_offset(float(sample))
            learned[client_id] = learner.estimate().distribution
        sequencer = TommySequencer(client_distributions=learned, config=TommyConfig())
        row = evaluate_result(f"learned@{probes}", sequencer.sequence(messages), messages).as_row()
        row["probes"] = probes
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- ABL-SCALE
def run_scaling_sweep(
    client_counts: Sequence[int] = (10, 25, 50, 100),
    seed: int = 13,
) -> List[Dict[str, object]]:
    """Sequencer cost and fairness as the number of clients grows."""
    rows: List[Dict[str, object]] = []
    for num_clients in client_counts:
        scenario = _default_scenario(num_clients=num_clients, seed=seed)
        messages = list(scenario.messages)
        sequencer = TommySequencer(
            client_distributions=scenario.client_distributions, config=TommyConfig()
        )
        start = time.perf_counter()
        result = sequencer.sequence(messages)
        elapsed = time.perf_counter() - start
        row = evaluate_result(f"tommy@{num_clients}", result, messages).as_row()
        row["clients"] = num_clients
        row["sequencing_seconds"] = round(elapsed, 4)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------- ABL-BASE
def run_baseline_comparison(
    num_clients: int = 50,
    clock_std: float = 0.0001,
    network_jitter: float = 0.0015,
    seed: int = 17,
) -> List[Dict[str, object]]:
    """Burst workload comparison: FIFO vs WFO vs TrueTime vs Tommy (Figures 2–4).

    The burst workload (all clients reacting to one broadcast) is where FIFO
    arrival order diverges most from generation order on a jittery network;
    WFO degrades with clock error; Tommy uses the error distributions.
    """

    def factory(index: int, rng: np.random.Generator) -> GaussianDistribution:
        return GaussianDistribution(0.0, max(float(rng.uniform(0.5, 1.5)) * clock_std, 1e-12))

    scenario = build_scenario(
        ScenarioConfig(
            num_clients=num_clients,
            arrivals=BurstArrivals(event_time=0.0, reaction_median=200e-6, reaction_sigma=0.4),
            distribution_factory=factory,
            seed=seed,
        )
    )
    messages = list(scenario.messages)
    rng = np.random.default_rng(seed + 1)

    # emulate network arrival order for FIFO: true time + jittery one-way delay
    arrival_order = sorted(
        messages, key=lambda message: message.true_time + float(rng.uniform(0.0, network_jitter))
    )
    fifo_result = FifoSequencer().sequence(messages, arrival_order=arrival_order)
    rows = [evaluate_result("fifo", fifo_result, messages).as_row()]

    wfo = WaitsForOneSequencer()
    rows.append(evaluate_result("wfo", wfo.sequence(messages), messages).as_row())

    truetime = TrueTimeSequencer(client_distributions=scenario.client_distributions)
    rows.append(evaluate_result("truetime", truetime.sequence(messages), messages).as_row())

    tommy = TommySequencer(client_distributions=scenario.client_distributions, config=TommyConfig())
    rows.append(evaluate_result("tommy", tommy.sequence(messages), messages).as_row())
    return rows
