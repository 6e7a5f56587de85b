"""Part hierarchies and the tree distance between parts.

Builds the hierarchy of a toy chair by hand, prints the pairwise tree
distances between its leaf parts, and cross-checks the tree's leaf distance
matrix against a brute-force BFS on a few hundred random trees.
"""

from collections import deque

import numpy as np

from partembed.hierarchy import PartHierarchy

# A chair: the root groups a frame and a seat assembly; the frame holds
# four legs, the seat assembly holds the seat plate and the backrest.
#
#            chair(0)
#           /        \
#      frame(1)    seat_asm(2)
#      / | | \       /    \
#    legs 3-6     seat(7) back(8)
parents = [None, 0, 0, 1, 1, 1, 1, 2, 2]
names = ["chair", "frame", "seat_asm", "leg_fl", "leg_fr", "leg_bl", "leg_br",
         "seat", "back"]
tree = PartHierarchy(parents, names)

print("leaves:", [tree.names[l] for l in tree.leaves])
print()

leaf_ids = tree.leaves
dist = tree.leaf_distances
header = "".join(f"{tree.names[l]:>8}" for l in leaf_ids)
print("pairwise tree distances (edges via the lowest common ancestor):")
print(" " * 8 + header)
for i, l in enumerate(leaf_ids):
    row = "".join(f"{dist[i, j]:>8}" for j in range(len(leaf_ids)))
    print(f"{tree.names[l]:>8}{row}")
print()
print("two legs are 2 edges apart (via the frame); a leg and the seat are 4")
print("(leg -> frame -> chair -> seat_asm -> seat).")
print()


def bfs(parents, a, b):
    adj = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if p is not None:
            adj[i].append(p)
            adj[p].append(i)
    seen, q = {a: 0}, deque([a])
    while q:
        x = q.popleft()
        if x == b:
            return seen[x]
        for y in adj[x]:
            if y not in seen:
                seen[y] = seen[x] + 1
                q.append(y)


rng = np.random.default_rng(7)
checked = 0
for _ in range(300):
    n = int(rng.integers(2, 200))
    rparents = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
    rtree = PartHierarchy(rparents, [f"part{i}" for i in range(n)])
    leaves = rtree.leaves
    for i, j in rng.integers(0, len(leaves), size=(5, 2)):
        assert rtree.leaf_distances[i, j] == bfs(rparents, leaves[i], leaves[j])
        checked += 1
print(f"cross-checked {checked} random leaf pairs against plain BFS: all equal")
