"""Client-to-shard assignment: sharding policies and the routing table.

A production deployment of the fair sequencer cannot funnel every client
through one process; clients are partitioned across shards, each running its
own :class:`~repro.core.online.OnlineTommySequencer`.  Three assignment
policies are provided:

* :class:`HashSharding` — stable content hash of the client id (uniform,
  stateless, survives restarts).
* :class:`RegionAffineSharding` — clients of the same region land on the
  same shard, so the intra-shard clock-error spread (and therefore batch
  granularity) stays small; regions are dealt round-robin over shards.
* :class:`LoadAwareSharding` — each new client joins the currently
  least-loaded shard (balanced even under skewed id spaces).

The :class:`ShardRouter` owns the live assignment table and supports the
reassignment primitives shard failover needs.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


def stable_shard_hash(token: str) -> int:
    """Deterministic, process-independent hash of ``token``.

    Python's builtin ``hash`` is salted per process; routing must be
    reproducible across runs, so a truncated SHA-256 is used instead (the
    same construction as :class:`repro.simulation.RandomSource`).
    """
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class ShardingPolicy(abc.ABC):
    """Decides which shard a newly seen client is assigned to."""

    #: short identifier used in experiment reports
    name: str = "abstract"

    @abc.abstractmethod
    def assign(self, client_id: str, num_shards: int, loads: Sequence[int]) -> int:
        """Return the shard index in ``[0, num_shards)`` for ``client_id``.

        ``loads`` is the current number of clients per shard (load-aware
        policies read it; stateless policies ignore it).
        """


class HashSharding(ShardingPolicy):
    """Uniform stateless assignment by stable hash of the client id."""

    name = "hash"

    def assign(self, client_id: str, num_shards: int, loads: Sequence[int]) -> int:
        return stable_shard_hash(client_id) % num_shards


class RegionAffineSharding(ShardingPolicy):
    """Keep each region's clients together; deal regions over shards.

    Distinct regions (sorted by name for determinism) are assigned
    round-robin to shards, so co-located clients — whose clock errors are
    similar and whose pairwise orderings are the hardest — are sequenced by
    the same shard and never need a cross-shard merge.  Clients without a
    known region fall back to hash assignment.
    """

    name = "region"

    def __init__(self, region_of: Mapping[str, str]) -> None:
        self._region_of = dict(region_of)
        self._region_rank = {
            region: rank for rank, region in enumerate(sorted(set(self._region_of.values())))
        }

    def assign(self, client_id: str, num_shards: int, loads: Sequence[int]) -> int:
        region = self._region_of.get(client_id)
        if region is None:
            return stable_shard_hash(client_id) % num_shards
        return self._region_rank[region] % num_shards

    def region_map(self, num_shards: int) -> Dict[int, Tuple[str, ...]]:
        """The *actual* shard → regions assignment under round-robin dealing.

        With more regions than shards several regions share a shard — a
        consumer (e.g. the region-affine merge-tree builder) must not assume
        region-pure shards.  Regions are listed per shard in rank order.
        """
        assignment: Dict[int, List[str]] = {}
        for region in sorted(self._region_rank, key=self._region_rank.__getitem__):
            assignment.setdefault(self._region_rank[region] % num_shards, []).append(region)
        return {shard: tuple(regions) for shard, regions in assignment.items()}


class LoadAwareSharding(ShardingPolicy):
    """Assign each new client to the least-loaded shard (ties: lowest index)."""

    name = "load"

    def assign(self, client_id: str, num_shards: int, loads: Sequence[int]) -> int:
        return min(range(num_shards), key=lambda shard: (loads[shard], shard))


class ShardRouter:
    """The cluster's live client-to-shard routing table.

    Assignment is sticky: once a client is routed, subsequent lookups return
    the same shard until :meth:`reassign` or :meth:`drain` moves it (the
    failover path).
    """

    def __init__(self, num_shards: int, policy: Optional[ShardingPolicy] = None) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be at least 1, got {num_shards!r}")
        self._num_shards = int(num_shards)
        self._policy = policy if policy is not None else HashSharding()
        self._shard_of: Dict[str, int] = {}
        self._loads = [0] * self._num_shards
        self._reassignments = 0

    # ------------------------------------------------------------- properties
    @property
    def num_shards(self) -> int:
        """Number of shards routed over."""
        return self._num_shards

    @property
    def policy(self) -> ShardingPolicy:
        """The assignment policy for newly seen clients."""
        return self._policy

    @property
    def loads(self) -> List[int]:
        """Current number of clients assigned to each shard."""
        return list(self._loads)

    @property
    def reassignments(self) -> int:
        """Number of clients moved since construction (failover churn)."""
        return self._reassignments

    @property
    def client_ids(self) -> List[str]:
        """All routed client ids (sorted)."""
        return sorted(self._shard_of)

    def region_map(self) -> Dict[int, Tuple[str, ...]]:
        """Shard → regions served, as the policy actually deals them.

        Delegates to the policy's ``region_map`` when it has one
        (:class:`RegionAffineSharding`); policies without a region notion
        yield every shard mapped to an empty tuple — consumers (the
        region-affine merge-tree builder) then fall back to index order.
        """
        policy_map = getattr(self._policy, "region_map", None)
        regions: Dict[int, Tuple[str, ...]] = dict.fromkeys(range(self._num_shards), ())
        if callable(policy_map):
            regions.update(policy_map(self._num_shards))
        return regions

    # ----------------------------------------------------------------- routing
    def assign(self, client_id: str) -> int:
        """Route ``client_id`` (idempotent) and return its shard index."""
        if client_id in self._shard_of:
            return self._shard_of[client_id]
        shard = self._policy.assign(client_id, self._num_shards, self._loads)
        if not 0 <= shard < self._num_shards:
            raise ValueError(
                f"policy {self._policy.name!r} returned shard {shard} "
                f"outside [0, {self._num_shards})"
            )
        self._shard_of[client_id] = shard
        self._loads[shard] += 1
        return shard

    def shard_of(self, client_id: str) -> int:
        """The shard currently owning ``client_id`` (assigning if unseen)."""
        return self.assign(client_id)

    def clients_of(self, shard: int) -> List[str]:
        """Client ids currently owned by ``shard`` (sorted)."""
        self._check_shard(shard)
        return sorted(client for client, owner in self._shard_of.items() if owner == shard)

    def reassign(self, client_id: str, shard: int) -> None:
        """Move an already-routed client to ``shard``."""
        self._check_shard(shard)
        if client_id not in self._shard_of:
            raise KeyError(f"client {client_id!r} is not routed")
        previous = self._shard_of[client_id]
        if previous == shard:
            return
        self._loads[previous] -= 1
        self._loads[shard] += 1
        self._shard_of[client_id] = shard
        self._reassignments += 1

    def drain(self, shard: int, survivors: Optional[Sequence[int]] = None) -> Dict[str, int]:
        """Move every client off ``shard`` onto the least-loaded survivors.

        Returns the mapping ``client_id -> new shard``.  ``survivors``
        defaults to every other shard.  This is the failover primitive: the
        dead shard's clients are spread to keep the surviving shards
        balanced.
        """
        self._check_shard(shard)
        if survivors is None:
            survivors = [index for index in range(self._num_shards) if index != shard]
        survivors = [int(index) for index in survivors]
        if not survivors or shard in survivors:
            raise ValueError("drain needs at least one survivor distinct from the drained shard")
        moved: Dict[str, int] = {}
        for client_id in self.clients_of(shard):
            target = min(survivors, key=lambda index: (self._loads[index], index))
            self.reassign(client_id, target)
            moved[client_id] = target
        return moved

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self._num_shards:
            raise ValueError(f"shard {shard} outside [0, {self._num_shards})")
