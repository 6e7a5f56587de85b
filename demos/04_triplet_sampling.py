"""Two ways to pick triplet negatives: uniform leaves vs the hierarchy.

On a chair, the hierarchy strategy contrasts nearby parts (two legs,
seat vs back) far more often than distant ones, weighting each leaf pair
by the inverse of its tree distance. The leaf strategy treats every pair
the same. This demo samples 50k triplets under both and prints the pair
frequencies next to the exact 1/distance law.
"""

import numpy as np

from partembed.geometry import PointCloud
from partembed.hierarchy import build_tree
from partembed.triplets import LeafIndex, build_pair_distribution, sample_triplets

# same toy chair as demo 01: four legs under a frame, seat+back under
# a seat assembly
parents = [None, 0, 0, 1, 1, 1, 1, 2, 2]
names = ["chair", "frame", "seat_asm", "leg_fl", "leg_fr", "leg_bl", "leg_br",
         "seat", "back"]
tree = build_tree(parents, names=names)
leaf_ids = tree.leaves

rng = np.random.default_rng(0)
pts = rng.standard_normal((len(leaf_ids) * 40, 3))
cloud = PointCloud(points=pts, leaf_id=np.repeat(leaf_ids, 40))

counts = np.bincount(cloud.leaf_id, minlength=len(tree))
index = LeafIndex.build(cloud, len(tree))
dist = tree.leaf_distances

n = 50_000
freqs = {}
for strategy in ("hierarchy", "leaf"):
    pd = build_pair_distribution(tree, counts, strategy=strategy)
    batch = sample_triplets(pd, index, n, rng)
    a = cloud.leaf_id[batch.anchor]
    c = cloud.leaf_id[batch.negative]
    key = np.minimum(a, c) * 100 + np.maximum(a, c)
    freqs[strategy] = {int(k): int((key == k).sum()) / n for k in np.unique(key)}

pd_h = build_pair_distribution(tree, counts, strategy="hierarchy")
print(f"{'pair':>16} {'delta':>6} {'1/d law':>8} {'hierarchy':>10} {'leaf':>8}")
for (u, v), w in sorted(zip(map(tuple, pd_h.pairs), pd_h.weights),
                        key=lambda t: -t[1]):
    name = f"{tree.names[u]}-{tree.names[v]}"
    delta = int(dist[leaf_ids.index(int(u)), leaf_ids.index(int(v))])
    k = int(u) * 100 + int(v)
    print(f"{name:>16} {delta:>6} {w:>8.3f} "
          f"{freqs['hierarchy'].get(k, 0.0):>10.3f} {freqs['leaf'].get(k, 0.0):>8.3f}")

print()
print("leg-leg and seat-back pairs (distance 2) dominate under the hierarchy")
print("strategy; the leaf strategy spreads mass evenly over all 15 pairs.")
