"""Part hierarchies: rooted trees of named groups over geometry-carrying leaves.

Trees come from designer metadata in scene-graph files (or from the synthetic
generator) and stay small (at most a few hundred leaves). A tree caches its
children, leaves and node depths and, on first use, its leaf distance
matrix, the only tree distances the pipeline reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InputError

NodeId = int


@dataclass(frozen=True)
class PartHierarchy:
    """A validated rooted tree, stored as one parent pointer and one name per
    node: ``names`` parallels ``parents``. This is the only tree constructor.
    Immutable after construction, safe to share.

    Node ids are dense indices 0..len(parents)-1. Exactly one node, the root,
    has no parent, and every node is reachable from it. ``children`` (a tuple
    of child-id tuples) and ``leaves`` (the childless ids, in index order) are
    derived from the parent pointers once, at construction.
    """

    parents: tuple[Optional[NodeId], ...]
    names: tuple[str, ...]
    children: tuple[tuple[NodeId, ...], ...] = field(init=False, repr=False, compare=False)
    leaves: tuple[NodeId, ...] = field(init=False, repr=False, compare=False)
    _depth: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "names", tuple(self.names))
        n = len(self.parents)
        if len(self.names) != n:
            raise InputError(f"{len(self.names)} names for {n} nodes")
        children: list[list[int]] = [[] for _ in range(n)]
        root = None
        for i, p in enumerate(self.parents):
            if p is None:
                if root is not None:
                    raise InputError("more than one root")
                root = i
            elif not (0 <= p < n):
                raise InputError(f"parent {p} of node {i} out of range")
            else:
                children[p].append(i)
        if root is None:
            raise InputError("no root")
        # Every node has one parent, so a walk from the root meets each node
        # at most once; a node it never meets sits on a cycle.
        depth = [-1] * n
        depth[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            for c in children[a]:
                depth[c] = depth[a] + 1
                stack.append(c)
        if -1 in depth:
            raise InputError(f"node {depth.index(-1)} unreachable from root")
        object.__setattr__(self, "children", tuple(map(tuple, children)))
        object.__setattr__(self, "leaves", tuple(i for i, c in enumerate(children) if not c))
        object.__setattr__(self, "_depth", tuple(depth))

    def __len__(self) -> int:
        return len(self.parents)

    @property
    def height(self) -> int:
        return max(self._depth)

    @cached_property
    def leaf_distances(self) -> np.ndarray:
        """Read-only (L, L) tree distances between leaves, rows and columns
        in ``leaves`` order. Computed on first access: a tree too large to
        train on is rejected before anything asks for it."""
        leaf_ids = np.array(self.leaves, dtype=np.int64)
        parent = np.array([-1 if p is None else p for p in self.parents], dtype=np.int64)
        depth = np.array(self._depth, dtype=np.int64)[leaf_ids]
        # row i holds leaf i's ancestors indexed by depth, -1 below the leaf
        anc = np.full((len(leaf_ids), self.height + 1), -1, dtype=np.int64)
        rows, cur, d = np.arange(len(leaf_ids)), leaf_ids, depth
        while len(cur):
            anc[rows, d] = cur
            up = parent[cur] >= 0
            rows, cur, d = rows[up], parent[cur[up]], d[up] - 1
        # root-down paths agree on a prefix, so the LCA depth is the prefix length - 1
        eq = (anc[:, None, :] == anc[None, :, :]) & (anc[:, None, :] != -1)
        dist = depth[:, None] + depth[None, :] - 2 * (eq.sum(axis=2) - 1)
        dist.flags.writeable = False
        return dist

