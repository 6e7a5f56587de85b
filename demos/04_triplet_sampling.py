"""Two ways to pick triplet negatives: uniform leaves vs the hierarchy.

On a chair, the hierarchy strategy contrasts nearby parts (two legs,
seat vs back) far more often than distant ones, weighting each leaf pair
by the inverse of its tree distance. The leaf strategy treats every pair
the same. This demo samples 50k triplets under both and prints the pair
frequencies next to the exact 1/distance law.
"""

import numpy as np

from partembed.geometry import PointCloud
from partembed.hierarchy import PartHierarchy
from partembed.triplets import build_pair_distribution, sample_triplets

# same toy chair as demo 01: four legs under a frame, seat+back under
# a seat assembly
parents = [None, 0, 0, 1, 1, 1, 1, 2, 2]
names = ["chair", "frame", "seat_asm", "leg_fl", "leg_fr", "leg_bl", "leg_br",
         "seat", "back"]
tree = PartHierarchy(parents, names)
leaf_ids = tree.leaves

rng = np.random.default_rng(0)
pts = rng.standard_normal((len(leaf_ids) * 40, 3))
cloud = PointCloud(points=pts, leaf_id=np.repeat(leaf_ids, 40))

dist = tree.leaf_distances

n = 50_000
freqs = {}
for strategy in ("hierarchy", "leaf"):
    # a (3, n) array of anchor, positive and negative point indices
    anchor, _, negative = sample_triplets(tree, cloud.leaf_id, n, rng, strategy)
    a = cloud.leaf_id[anchor]
    c = cloud.leaf_id[negative]
    key = np.minimum(a, c) * 100 + np.maximum(a, c)
    freqs[strategy] = {int(k): int((key == k).sum()) / n for k in np.unique(key)}

counts = np.bincount(cloud.leaf_id, minlength=len(tree))
pairs, weights = build_pair_distribution(tree, counts, strategy="hierarchy")
print(f"{'pair':>16} {'delta':>6} {'1/d law':>8} {'hierarchy':>10} {'leaf':>8}")
for (u, v), w in sorted(zip(map(tuple, pairs), weights),
                        key=lambda t: -t[1]):
    name = f"{tree.names[u]}-{tree.names[v]}"
    delta = int(dist[leaf_ids.index(int(u)), leaf_ids.index(int(v))])
    k = int(u) * 100 + int(v)
    print(f"{name:>16} {delta:>6} {w:>8.3f} "
          f"{freqs['hierarchy'].get(k, 0.0):>10.3f} {freqs['leaf'].get(k, 0.0):>8.3f}")

print()
print("leg-leg and seat-back pairs (distance 2) dominate under the hierarchy")
print("strategy; the leaf strategy spreads mass evenly over all 15 pairs.")
