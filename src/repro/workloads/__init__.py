"""Workload generators for auction-app scenarios.

The paper's motivating workloads are *auction-apps*: many clients reacting to
a shared sensitive event within a very small window of time (financial
exchanges responding to market volatility, ad exchanges, sneaker drops).
Arrival processes (:mod:`repro.workloads.arrivals`) model *when* events are
generated in true time; scenarios (:mod:`repro.workloads.scenario`) combine
arrivals with per-client clock-error distributions to produce the
timestamped message sets that sequencers consume and the evaluation harness
scores.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.workloads.arrivals": (
            "ArrivalProcess",
            "BurstArrivals",
            "PoissonArrivals",
            "UniformGapArrivals",
        ),
        "repro.workloads.scenario": ("ClientSpec", "Scenario", "ScenarioConfig", "build_scenario"),
        "repro.workloads.multiregion": (
            "DEFAULT_REGIONS",
            "MultiRegionScenario",
            "RegionProfile",
            "build_multiregion_scenario",
        ),
        "repro.workloads.cluster": (
            "build_cluster_scenario",
            "cluster_region_profiles",
            "region_affine_policy",
        ),
        "repro.workloads.learned": (
            "LearnedWorkload",
            "build_learned_workload",
            "synthesize_probe",
        ),
        "repro.workloads.chaos": (
            "FAULT_NAMES",
            "ChaosReport",
            "ChaosSettings",
            "run_chaos_scenario",
            "standard_fault_schedule",
        ),
    },
)

__all__ = [
    "FAULT_NAMES",
    "ChaosReport",
    "ChaosSettings",
    "run_chaos_scenario",
    "standard_fault_schedule",
    "ArrivalProcess",
    "UniformGapArrivals",
    "PoissonArrivals",
    "BurstArrivals",
    "ClientSpec",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "RegionProfile",
    "DEFAULT_REGIONS",
    "MultiRegionScenario",
    "build_multiregion_scenario",
    "build_cluster_scenario",
    "cluster_region_profiles",
    "region_affine_policy",
    "LearnedWorkload",
    "build_learned_workload",
    "synthesize_probe",
]
