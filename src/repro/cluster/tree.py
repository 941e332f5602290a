"""Merge-tree topology: which aggregator a cross-shard pair belongs to.

:class:`MergeTopology` arranges the shards as the leaves of a bounded-fanout
tree (shards → regional aggregators → root).  Every cross-shard batch pair
has exactly one *lowest common ancestor* in that tree, so the interior
nodes partition the pairs — and that is all the tree does.  It does not
change how a pair is priced: the one window rule and the one pair-list
kernel in :mod:`repro.cluster.merge` resolve the same pairs to the same
floats whatever the topology (a flat cluster is the depth-1 tree).

What the tree gives is an *attribution*: :meth:`MergeTopology.attribute`
maps shard-pair arrays to per-node pair counts through the LCA table, and
the streaming merger's ``node_report()``, its ``merge_tree`` telemetry
events and the ``merge.tree.level{L}.*`` counters are those counts — which
aggregator of a deployed hierarchy would have carried how much pruned and
how much kernel work, read off the counters the merge already keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Topology kinds understood by :meth:`MergeTopology.build`.
TOPOLOGY_KINDS = ("flat", "binary", "region")


@dataclass(frozen=True)
class TreeNode:
    """One node of a merge topology (leaf = shard, interior = aggregator)."""

    node_id: int
    level: int
    shards: Tuple[int, ...]
    children: Tuple[int, ...]
    label: str

    @property
    def is_leaf(self) -> bool:
        """True for shard leaves (no children)."""
        return not self.children


class MergeTopology:
    """The shape of a hierarchical merge: shards as leaves of a fanout tree.

    Nodes are stored children-before-parents (leaves first), so a single
    forward pass over :attr:`nodes` visits every child before its parent.
    The builder never assumes region-pure leaves: :meth:`region_affine`
    consumes the *actual* shard→regions assignment
    (:meth:`ShardRouter.region_map
    <repro.cluster.router.ShardRouter.region_map>`), which under round-robin
    region dealing may put several regions on one shard.
    """

    def __init__(self, nodes: Sequence[TreeNode], kind: str, fanout: int) -> None:
        self.nodes: List[TreeNode] = list(nodes)
        self.kind = kind
        self.fanout = int(fanout)
        self.root = self.nodes[-1]
        self._leaf_of: Dict[int, TreeNode] = {
            node.shards[0]: node for node in self.nodes if node.is_leaf
        }
        parent: Dict[int, int] = {}
        for node in self.nodes:
            for child in node.children:
                parent[child] = node.node_id
        self._paths: Dict[int, Tuple[int, ...]] = {}
        for shard, leaf in self._leaf_of.items():
            path = [leaf.node_id]
            while path[-1] in parent:
                path.append(parent[path[-1]])
            self._paths[shard] = tuple(path)
        num_shards = len(self._leaf_of)
        self._lca = np.full((num_shards, num_shards), -1, dtype=np.int64)
        for shard_a in range(num_shards):
            ancestors_a = set(self._paths[shard_a])
            for shard_b in range(num_shards):
                if shard_a == shard_b:
                    continue
                for node_id in self._paths[shard_b]:
                    if node_id in ancestors_a:
                        self._lca[shard_a, shard_b] = node_id
                        break

    # ------------------------------------------------------------- properties
    @property
    def num_shards(self) -> int:
        """Number of shard leaves."""
        return len(self._leaf_of)

    @property
    def depth(self) -> int:
        """Tree depth (root level; a single-leaf topology has depth 0)."""
        return self.root.level

    @property
    def interior_nodes(self) -> List[TreeNode]:
        """Aggregator nodes, children-before-parents (root last)."""
        return [node for node in self.nodes if not node.is_leaf]

    def leaf(self, shard: int) -> TreeNode:
        """The leaf node of ``shard``."""
        return self._leaf_of[shard]

    def path(self, shard: int) -> Tuple[int, ...]:
        """Node ids from ``shard``'s leaf up to (and including) the root."""
        return self._paths[shard]

    def lca(self, shard_a: int, shard_b: int) -> int:
        """Node id of the lowest common ancestor of two distinct shards."""
        return int(self._lca[shard_a, shard_b])

    def attribute(
        self,
        shards_a: np.ndarray,
        shards_b: np.ndarray,
        row: Optional[np.ndarray] = None,
        num_rows: int = 1,
        weights: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-node counts of the cross-shard pairs ``(shards_a[k], shards_b[k])``.

        Entry ``n`` is how many of the pairs have node ``n`` as their lowest
        common ancestor (leaves always count zero) — the whole contribution
        of the tree to the merge: a partition of the pairs, not a pricing.
        With ``row`` (pair ``k`` belongs to merge row ``row[k] < num_rows``)
        a whole block is attributed at once, as ``(num_rows, nodes)`` counts.
        ``weights[k]`` (integers) counts entry ``k`` as that many pairs.
        """
        lca = self._lca[shards_a, shards_b]
        width = len(self.nodes)
        if row is not None:
            lca = row * width + lca
            width *= num_rows
        counts = np.bincount(lca, weights=weights, minlength=width)
        if weights is not None:
            counts = counts.astype(np.int64)  # integer sums, exact below 2**53
        return counts if row is None else counts.reshape(num_rows, -1)

    def describe(self) -> List[Dict[str, object]]:
        """One row per node (report tables and the topology tests)."""
        return [
            {
                "node": node.node_id,
                "label": node.label,
                "level": node.level,
                "shards": len(node.shards),
                "children": len(node.children),
            }
            for node in self.nodes
        ]

    # ------------------------------------------------------------------ build
    @classmethod
    def flat(cls, num_shards: int) -> "MergeTopology":
        """Every shard directly under one root (the flat merge as a tree)."""
        return cls._from_leaf_order(range(num_shards), max(num_shards, 1), "flat")

    @classmethod
    def balanced(cls, num_shards: int, fanout: int = 2) -> "MergeTopology":
        """Log-depth tree grouping consecutive shard indices ``fanout`` at a time."""
        return cls._from_leaf_order(range(num_shards), fanout, "binary")

    @classmethod
    def region_affine(
        cls,
        region_map: Mapping[int, Sequence[str]],
        num_shards: int,
        fanout: int = 2,
    ) -> "MergeTopology":
        """Group shards serving lexicographically adjacent regions.

        ``region_map`` is the *actual* shard→regions assignment (round-robin
        dealing can place several regions on one shard); shards serving no
        region sort last by index.  An empty map degrades to the balanced
        index-order tree.
        """
        def sort_key(shard: int) -> Tuple[int, Tuple[str, ...], int]:
            regions = tuple(region_map.get(shard, ()))
            return (0 if regions else 1, regions, shard)

        order = sorted(range(num_shards), key=sort_key)
        return cls._from_leaf_order(order, fanout, "region")

    @classmethod
    def build(
        cls,
        kind: str,
        num_shards: int,
        fanout: int = 2,
        region_map: Optional[Mapping[int, Sequence[str]]] = None,
    ) -> "MergeTopology":
        """Dispatch on a topology name (the CLI / cluster-config entry point)."""
        if kind == "flat":
            return cls.flat(num_shards)
        if kind == "binary":
            return cls.balanced(num_shards, fanout=fanout)
        if kind == "region":
            return cls.region_affine(region_map or {}, num_shards, fanout=fanout)
        raise ValueError(f"unknown merge topology {kind!r}; expected one of {TOPOLOGY_KINDS}")

    @classmethod
    def _from_leaf_order(cls, shard_order, fanout: int, kind: str) -> "MergeTopology":
        shard_order = list(shard_order)
        if not shard_order:
            raise ValueError("a merge topology needs at least one shard")
        if fanout < 2 and len(shard_order) > 1:
            raise ValueError(f"fanout must be at least 2, got {fanout!r}")
        nodes: List[TreeNode] = [
            TreeNode(
                node_id=index,
                level=0,
                shards=(shard,),
                children=(),
                label=f"shard-{shard}",
            )
            for index, shard in enumerate(shard_order)
        ]
        current = [node.node_id for node in nodes]
        while len(current) > 1:
            grouped: List[int] = []
            for start in range(0, len(current), fanout):
                chunk = current[start : start + fanout]
                if len(chunk) == 1:
                    # a lone trailing subtree needs no aggregator of its own
                    grouped.append(chunk[0])
                    continue
                level = max(nodes[child].level for child in chunk) + 1
                node = TreeNode(
                    node_id=len(nodes),
                    level=level,
                    shards=tuple(
                        shard for child in chunk for shard in nodes[child].shards
                    ),
                    children=tuple(chunk),
                    label=f"L{level}.{len(grouped)}",
                )
                nodes.append(node)
                grouped.append(node.node_id)
            current = grouped
        return cls(nodes, kind, fanout)
