import numpy as np
import pytest

from partembed.errors import InputError
from partembed.hierarchy import PartHierarchy

from helpers import bfs_distance, lca, random_parents, tree_distance, unnamed_tree


def chair_tree():
    # root(0) -> back(1), seat(2), base(3); base -> leg1(4), leg2(5)
    return PartHierarchy([None, 0, 0, 0, 3, 3],
                         ["chair", "back", "seat", "base", "leg1", "leg2"])


def test_siblings_are_distance_two():
    t = chair_tree()
    assert tree_distance(t, 1, 2) == 2
    assert tree_distance(t, 4, 5) == 2


def test_distance_and_lca_basics():
    t = chair_tree()
    assert lca(t, 4, 5) == 3
    assert lca(t, 4, 1) == 0
    assert tree_distance(t, 4, 1) == 3  # leg -> base -> root -> back
    assert tree_distance(t, 0, 4) == 2
    assert tree_distance(t, 2, 2) == 0


def test_leaves_in_index_order():
    t = chair_tree()
    assert t.leaves == (1, 2, 4, 5)


def test_height_and_depth():
    t = chair_tree()
    assert t.height == 2


def test_leaf_distances_are_lazy_and_read_only():
    t = chair_tree()
    assert "leaf_distances" not in vars(t)
    d = t.leaf_distances
    assert t.leaf_distances is d
    assert d.tolist() == [[0, 2, 3, 3], [2, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]
    with pytest.raises(ValueError):
        d[0, 1] = 7


def test_validation_rejects_bad_trees():
    with pytest.raises(InputError):
        unnamed_tree([None, None])  # two roots
    with pytest.raises(InputError):
        unnamed_tree([])  # empty
    with pytest.raises(InputError):
        unnamed_tree([0])  # no root (self-parent out of the None slot)
    with pytest.raises(InputError, match="unreachable"):
        unnamed_tree([None, 2, 1])  # cycle off the root
    with pytest.raises(InputError, match="out of range"):
        unnamed_tree([None, 5])  # parent out of range


def test_names_must_parallel_parents():
    # a tree with fewer names than nodes would be written out with fewer nodes
    with pytest.raises(InputError, match="1 names for 3 nodes"):
        PartHierarchy([None, 0, 0], ["root"])
    with pytest.raises(InputError, match="3 names for 2 nodes"):
        PartHierarchy([None, 0], ["root", "a", "b"])
    assert PartHierarchy([None, 0, 0], ["root", "a", "b"]).names == ("root", "a", "b")


def test_distance_matches_bfs_on_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(50):
        parents = random_parents(rng, max_nodes=60)
        t = unnamed_tree(parents)
        n = len(parents)
        pairs = rng.integers(0, n, size=(20, 2))
        for a, b in pairs:
            assert tree_distance(t, int(a), int(b)) == bfs_distance(parents, int(a), int(b))
        for p in range(n):
            assert all((i in t.children[p]) == (parents[i] == p) for i in range(n))
        assert t.leaves == tuple(i for i in range(n) if i not in parents)


def test_metric_axioms_on_random_tree():
    rng = np.random.default_rng(11)
    t = unnamed_tree(random_parents(rng, max_nodes=40))
    n = len(t)
    ids = rng.integers(0, n, size=(30, 3))
    for a, b, c in ids:
        a, b, c = int(a), int(b), int(c)
        dab = tree_distance(t, a, b)
        assert dab == tree_distance(t, b, a)
        assert dab >= 0 and (dab == 0) == (a == b)
        assert dab <= tree_distance(t, a, c) + tree_distance(t, c, b)
