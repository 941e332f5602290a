"""Cluster-deployment scenarios: multi-region placement at shard scale.

Extends the multi-region model (:mod:`repro.workloads.multiregion`) to the
sharded-cluster setting: a configurable number of regions with progressively
worse clock synchronization and longer sequencer paths, plus helpers that
derive the region-affine sharding policy a cluster should use for the
generated placement.
"""

from __future__ import annotations

from typing import Tuple

from repro.cluster.router import RegionAffineSharding
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.multiregion import (
    MultiRegionScenario,
    RegionProfile,
    build_multiregion_scenario,
)


#: Clock-offset spread (seconds) of region 0, the best-synchronized region.
BASE_CLOCK_STD = 10e-3
#: Median one-way delay (seconds) of region 0, the shortest sequencer path.
BASE_DELAY = 2e-3


def cluster_region_profiles(num_regions: int = 4) -> Tuple[RegionProfile, ...]:
    """Region profiles for a cluster deployment.

    Region 0 is the sequencer's home region (:data:`BASE_CLOCK_STD`,
    :data:`BASE_DELAY`); each further region doubles clock error and
    one-way delay, and picks up a small synchronization bias — the
    asymmetric-path effect the multi-region module models.
    """
    if num_regions < 1:
        raise ValueError("num_regions must be at least 1")
    profiles = []
    for index in range(num_regions):
        scale = float(2**index)
        profiles.append(
            RegionProfile(
                name=f"region-{index}",
                clock_std=BASE_CLOCK_STD * scale,
                clock_bias=0.2 * BASE_CLOCK_STD * index,
                delay_median=BASE_DELAY * scale,
                delay_sigma=0.3,
                weight=1.0,
            )
        )
    return tuple(profiles)


def build_cluster_scenario(
    num_clients: int,
    gap: float = 25e-3,
    messages_per_client: int = 2,
    seed: int = 0,
) -> MultiRegionScenario:
    """A shard-scale multi-region scenario over four regions.

    Arrivals are a uniform-gap stream whose gap is of the same order as the
    regional clock errors, so cross-client orderings are genuinely uncertain
    and both the per-shard batching and the cross-shard merge have real work
    to do.
    """
    arrivals = UniformGapArrivals(
        messages_per_client=messages_per_client, gap=gap, jitter_fraction=0.3
    )
    return build_multiregion_scenario(
        num_clients,
        regions=cluster_region_profiles(),
        arrivals=arrivals,
        seed=seed,
    )


def region_affine_policy(placement: MultiRegionScenario) -> RegionAffineSharding:
    """The sharding policy matching a generated multi-region placement."""
    return RegionAffineSharding(placement.region_of)
