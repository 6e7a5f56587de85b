"""Triplet construction over sampled point clouds.

A triplet is (anchor, positive, negative): two points from one leaf part and
one point from another. The hierarchy strategy picks the leaf pair with
probability proportional to 1/delta, where delta is the tree distance
between the leaves, so nearby parts in the hierarchy are contrasted more
often than distant ones. The leaf strategy ignores the tree and picks the
pair uniformly. A draw of ``k`` triplets is a (3, k) int64 array of anchor,
positive and negative point indices.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, SamplingError
from .hierarchy import PartHierarchy

STRATEGIES = ("hierarchy", "leaf")


def build_pair_distribution(tree: PartHierarchy, leaf_counts: np.ndarray,
                            strategy: str = "hierarchy") -> tuple[np.ndarray, np.ndarray]:
    """Leaf-pair distribution for triplet sampling: ``(pairs, weights)``,
    the (P, 2) unordered leaf node ids (first < second) and their (P,)
    probabilities.

    ``leaf_counts`` gives the number of sampled points per node id. Only
    pairs where at least one side has two or more points are kept (that
    side can act as the anchor leaf). The hierarchy strategy weights each
    kept pair by 1/delta, read from the tree's ``leaf_distances``; the leaf
    strategy weights them uniformly.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    leaf_counts = np.asarray(leaf_counts)
    all_leaves = np.array(tree.leaves, dtype=np.int64)
    pop_mask = leaf_counts[all_leaves] > 0
    populated = all_leaves[pop_mask]
    if len(populated) < 2:
        raise SamplingError(f"need at least 2 populated leaves, have {len(populated)}")
    sel = np.flatnonzero(pop_mask)
    dist = tree.leaf_distances[np.ix_(sel, sel)]
    iu, ju = np.triu_indices(len(populated), k=1)
    u, v = populated[iu], populated[ju]
    ok = (leaf_counts[u] >= 2) | (leaf_counts[v] >= 2)
    if not ok.any():
        raise SamplingError("no leaf has 2 points; cannot form anchor/positive pairs")
    u, v = u[ok], v[ok]
    d = dist[iu[ok], ju[ok]].astype(np.float64)
    w = 1.0 / d if strategy == "hierarchy" else np.ones_like(d)
    return np.stack([u, v], axis=1), w / w.sum()


def sample_triplets(tree: PartHierarchy, leaf_id: np.ndarray, k: int,
                    rng: np.random.Generator, strategy: str = "hierarchy") -> np.ndarray:
    """Draw ``k`` triplets over the points whose leaf node ids are
    ``leaf_id``, as a (3, k) array of anchor, positive and negative indices
    into it. Pair first, then the anchor side (a fair coin when both sides
    have two points, else the side that does), then points: a distinct
    anchor/positive pair from the anchor leaf and one negative from the
    other leaf. All draws are vectorized and consume the generator in a
    fixed order."""
    if k <= 0:
        raise InputError("k must be positive")
    # the points grouped by leaf: leaf i's are order[first[i]:first[i] + count[i]]
    order = np.argsort(leaf_id, kind="stable")
    count = np.bincount(leaf_id, minlength=len(tree))
    first = np.cumsum(count) - count
    pairs, weights = build_pair_distribution(tree, count, strategy)

    pick = rng.choice(len(pairs), size=k, p=weights)
    u, v = pairs[pick, 0], pairs[pick, 1]
    elig_u = count[u] >= 2
    elig_v = count[v] >= 2
    coin = rng.random(k) < 0.5
    use_u = np.where(elig_u & elig_v, coin, elig_u)
    anchor_leaf = np.where(use_u, u, v)
    other_leaf = np.where(use_u, v, u)

    m = count[anchor_leaf]
    a_slot = rng.integers(0, m)
    b_slot = rng.integers(0, m - 1)
    b_slot = b_slot + (b_slot >= a_slot)
    c_slot = rng.integers(0, count[other_leaf])
    return order[np.stack([first[anchor_leaf] + a_slot, first[anchor_leaf] + b_slot,
                           first[other_leaf] + c_slot])]
