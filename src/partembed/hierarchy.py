"""Part hierarchies: rooted trees of named groups over geometry-carrying leaves.

Trees come from designer metadata in scene-graph files (or from the synthetic
generator) and stay small (at most a few hundred leaves), so every query here
is a plain walk; there is no preprocessing beyond caching node depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import InputError

NodeId = int


@dataclass(frozen=True)
class Node:
    """One tree node. Leaves carry a geometry reference, groups never do."""

    id: NodeId
    parent: Optional[NodeId]
    children: tuple[NodeId, ...]
    name: str
    geom: Optional[str] = None

    @property
    def is_leaf(self) -> bool:
        return self.geom is not None


@dataclass(frozen=True)
class PartHierarchy:
    """A validated rooted tree. Immutable after construction, safe to share.

    Node ids are dense indices 0..len(nodes)-1. Exactly one root exists,
    every leaf carries a geometry reference and no group does.
    """

    nodes: tuple[Node, ...]
    root: NodeId
    _depth: tuple[int, ...] = field(repr=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "_depth", _validate(self.nodes, self.root))

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, a: NodeId) -> Node:
        self._check(a)
        return self.nodes[a]

    def depth(self, a: NodeId) -> int:
        self._check(a)
        return self._depth[a]

    @property
    def height(self) -> int:
        return max(self._depth)

    def _check(self, a: NodeId) -> None:
        if not isinstance(a, (int,)) or isinstance(a, bool) or not (0 <= a < len(self.nodes)):
            raise InputError(f"node id {a!r} not in tree of {len(self.nodes)} nodes")

    def parent_of(self, a: NodeId) -> Optional[NodeId]:
        self._check(a)
        return self.nodes[a].parent


def _validate(nodes: Sequence[Node], root: NodeId) -> tuple[int, ...]:
    n = len(nodes)
    if n == 0:
        raise InputError("hierarchy has no nodes")
    if not (0 <= root < n):
        raise InputError(f"root id {root} out of range")
    for i, node in enumerate(nodes):
        if node.id != i:
            raise InputError(f"node ids must be dense 0..{n - 1}; found {node.id} at index {i}")
        if node.is_leaf != (len(node.children) == 0):
            raise InputError(f"node {i}: leaves have no children and groups carry no geometry")
        for c in node.children:
            if not (0 <= c < n):
                raise InputError(f"node {i}: child {c} out of range")
            if nodes[c].parent != i:
                raise InputError(f"node {c}: parent pointer disagrees with child list of {i}")
    if nodes[root].parent is not None:
        raise InputError("root must have no parent")
    for i, node in enumerate(nodes):
        if i != root and node.parent is None:
            raise InputError(f"non-root node {i} has no parent")

    # Depths via walk from the root; anything unreached means a second
    # component or a cycle.
    depth = [-1] * n
    depth[root] = 0
    stack = [root]
    while stack:
        a = stack.pop()
        for c in nodes[a].children:
            if depth[c] != -1:
                raise InputError(f"node {c} reached twice; tree has a cycle or shared child")
            depth[c] = depth[a] + 1
            stack.append(c)
    if any(d < 0 for d in depth):
        orphan = depth.index(-1)
        raise InputError(f"node {orphan} unreachable from root")
    return tuple(depth)


def lca(tree: PartHierarchy, a: NodeId, b: NodeId) -> NodeId:
    """Lowest common ancestor: the deepest node that is an ancestor-or-self
    of both ``a`` and ``b``. Naive two-pointer walk (trees are small)."""
    tree._check(a)
    tree._check(b)
    da, db = tree._depth[a], tree._depth[b]
    while da > db:
        a = tree.nodes[a].parent
        da -= 1
    while db > da:
        b = tree.nodes[b].parent
        db -= 1
    while a != b:
        a = tree.nodes[a].parent
        b = tree.nodes[b].parent
    return a


def tree_distance(tree: PartHierarchy, a: NodeId, b: NodeId) -> int:
    """Number of tree edges from ``a`` to the lowest common ancestor plus the
    edges from ``b`` to it; equals the unweighted path distance in the tree.
    Siblings are at distance 2."""
    anc = lca(tree, a, b)
    return (tree._depth[a] - tree._depth[anc]) + (tree._depth[b] - tree._depth[anc])


def leaves(tree: PartHierarchy) -> list[NodeId]:
    """All leaf node ids, in index order."""
    return [n.id for n in tree.nodes if n.is_leaf]


def build_tree(parents: Sequence[Optional[int]], names: Sequence[str] | None = None,
               geoms: Sequence[Optional[str]] | None = None) -> PartHierarchy:
    """Assemble a PartHierarchy from parallel parent/name/geom arrays.

    ``geoms`` defaults to marking every childless node as a leaf with a
    placeholder geometry reference.
    """
    n = len(parents)
    children: list[list[int]] = [[] for _ in range(n)]
    root = None
    for i, p in enumerate(parents):
        if p is None:
            if root is not None:
                raise InputError("more than one root")
            root = i
        else:
            if not (0 <= p < n):
                raise InputError(f"parent {p} of node {i} out of range")
            children[p].append(i)
    if root is None:
        raise InputError("no root")
    if names is None:
        names = [f"n{i}" for i in range(n)]
    if geoms is None:
        geoms = [f"geom{i}" if not children[i] else None for i in range(n)]
    nodes = tuple(
        Node(id=i, parent=parents[i], children=tuple(children[i]), name=names[i], geom=geoms[i])
        for i in range(n)
    )
    return PartHierarchy(nodes=nodes, root=root)
