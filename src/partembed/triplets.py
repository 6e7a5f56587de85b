"""Triplet construction over sampled point clouds.

A triplet is (anchor, positive, negative): two points from one leaf part and
one point from another. The hierarchy strategy picks the leaf pair with
probability proportional to 1/delta, where delta is the tree distance
between the leaves, so nearby parts in the hierarchy are contrasted more
often than distant ones. The leaf strategy ignores the tree and picks the
pair uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SamplingError
from .geometry import PointCloud
from .hierarchy import PartHierarchy, leaves

STRATEGIES = ("hierarchy", "leaf")


@dataclass
class TripletBatch:
    """Parallel index arrays into one shape's point cloud."""

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=np.int64).reshape(-1)
        self.positive = np.asarray(self.positive, dtype=np.int64).reshape(-1)
        self.negative = np.asarray(self.negative, dtype=np.int64).reshape(-1)
        if not (len(self.anchor) == len(self.positive) == len(self.negative)):
            raise InputError("triplet index arrays must parallel each other")
        if (self.anchor == self.positive).any():
            raise InputError("anchor and positive must be distinct points")

    def __len__(self) -> int:
        return len(self.anchor)


@dataclass
class LeafIndex:
    """Point lookup by leaf: order is the cloud permutation sorted by leaf id,
    first/count give each node id's slice of it."""

    order: np.ndarray
    first: np.ndarray
    count: np.ndarray

    @staticmethod
    def build(cloud: PointCloud, n_nodes: int) -> "LeafIndex":
        order = np.argsort(cloud.leaf_id, kind="stable")
        sorted_leaf = cloud.leaf_id[order]
        ids = np.arange(n_nodes)
        first = np.searchsorted(sorted_leaf, ids, side="left")
        last = np.searchsorted(sorted_leaf, ids, side="right")
        return LeafIndex(order=order, first=first, count=last - first)


def _ancestor_table(tree: PartHierarchy, node_ids: np.ndarray) -> np.ndarray:
    """(len(node_ids), height+1) ancestors by depth, -1 past each node's depth."""
    h = tree.height
    table = np.full((len(node_ids), h + 1), -1, dtype=np.int64)
    for row, a in enumerate(node_ids):
        chain = []
        x: int | None = int(a)
        while x is not None:
            chain.append(x)
            x = tree.parent_of(x)
        chain.reverse()
        table[row, :len(chain)] = chain
    return table


def leaf_tree_distances(tree: PartHierarchy, leaf_ids: np.ndarray) -> np.ndarray:
    """Dense (L, L) matrix of tree distances between the given leaves."""
    leaf_ids = np.asarray(leaf_ids, dtype=np.int64)
    anc = _ancestor_table(tree, leaf_ids)
    depth = np.array([tree.depth(int(a)) for a in leaf_ids])
    # root-down paths agree on a prefix, so the LCA depth is the prefix length - 1
    eq = (anc[:, None, :] == anc[None, :, :]) & (anc[:, None, :] != -1)
    lca_depth = eq.sum(axis=2) - 1
    return depth[:, None] + depth[None, :] - 2 * lca_depth


@dataclass
class PairDistribution:
    """Unordered leaf pairs and their sampling probabilities for one shape.

    Only pairs where at least one side has two or more points are kept
    (that side can act as the anchor leaf).
    """

    pairs: np.ndarray      # (P, 2) leaf node ids, first < second
    weights: np.ndarray    # (P,) probabilities, sum 1

    def __post_init__(self):
        if len(self.pairs) != len(self.weights):
            raise InputError("weights must parallel pairs")
        s = self.weights.sum()
        if not np.isclose(s, 1.0):
            raise InputError(f"pair weights sum to {s}, expected 1")


def build_pair_distribution(tree: PartHierarchy, leaf_counts: np.ndarray,
                            strategy: str = "hierarchy",
                            dist_matrix: np.ndarray | None = None) -> PairDistribution:
    """Leaf-pair distribution for triplet sampling.

    ``leaf_counts`` gives the number of sampled points per node id. The
    hierarchy strategy weights each admissible unordered pair by 1/delta;
    the leaf strategy weights them uniformly. ``dist_matrix`` is
    ``leaf_tree_distances`` over all leaves of the tree in leaf-list order;
    it is computed when not given, and callers pass it to reuse one
    computation across resamplings.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    leaf_counts = np.asarray(leaf_counts)
    all_leaves = np.array(leaves(tree), dtype=np.int64)
    pop_mask = leaf_counts[all_leaves] > 0
    populated = all_leaves[pop_mask]
    if len(populated) < 2:
        raise SamplingError(f"need at least 2 populated leaves, have {len(populated)}")
    if dist_matrix is None:
        dist_matrix = leaf_tree_distances(tree, all_leaves)
    sel = np.flatnonzero(pop_mask)
    dist = dist_matrix[np.ix_(sel, sel)]
    iu, ju = np.triu_indices(len(populated), k=1)
    u, v = populated[iu], populated[ju]
    ok = (leaf_counts[u] >= 2) | (leaf_counts[v] >= 2)
    if not ok.any():
        raise SamplingError("no leaf has 2 points; cannot form anchor/positive pairs")
    u, v = u[ok], v[ok]
    d = dist[iu[ok], ju[ok]].astype(np.float64)
    w = 1.0 / d if strategy == "hierarchy" else np.ones_like(d)
    w = w / w.sum()
    return PairDistribution(pairs=np.stack([u, v], axis=1), weights=w)


def sample_triplets(dist: PairDistribution, index: LeafIndex, k: int,
                    rng: np.random.Generator) -> TripletBatch:
    """Draw ``k`` triplets. Pair first, then the anchor side (a fair coin when
    both sides have two points, else the side that does), then points: a
    distinct anchor/positive pair from the anchor leaf and one negative from
    the other leaf. All draws are vectorized and consume the generator in a
    fixed order."""
    if k <= 0:
        raise InputError("k must be positive")
    pick = rng.choice(len(dist.pairs), size=k, p=dist.weights)
    u = dist.pairs[pick, 0]
    v = dist.pairs[pick, 1]
    elig_u = index.count[u] >= 2
    elig_v = index.count[v] >= 2
    coin = rng.random(k) < 0.5
    use_u = np.where(elig_u & elig_v, coin, elig_u)
    anchor_leaf = np.where(use_u, u, v)
    other_leaf = np.where(use_u, v, u)

    m = index.count[anchor_leaf]
    a_slot = rng.integers(0, m)
    b_slot = rng.integers(0, m - 1)
    b_slot = b_slot + (b_slot >= a_slot)
    c_slot = rng.integers(0, index.count[other_leaf])
    return TripletBatch(
        anchor=index.order[index.first[anchor_leaf] + a_slot],
        positive=index.order[index.first[anchor_leaf] + b_slot],
        negative=index.order[index.first[other_leaf] + c_slot],
    )


def sample_shape_triplets(tree: PartHierarchy, cloud: PointCloud, k: int,
                          rng: np.random.Generator, strategy: str = "hierarchy",
                          dist_matrix: np.ndarray | None = None) -> TripletBatch:
    """``k`` triplets of one shape's cloud: pair distribution, leaf index,
    draw. ``dist_matrix`` is as for ``build_pair_distribution``."""
    counts = np.bincount(cloud.leaf_id, minlength=len(tree))
    dist = build_pair_distribution(tree, counts, strategy=strategy, dist_matrix=dist_matrix)
    index = LeafIndex.build(cloud, len(tree))
    return sample_triplets(dist, index, k, rng)
