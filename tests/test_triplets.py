import numpy as np
import pytest

from partembed.errors import InputError, SamplingError
from partembed.hierarchy import build_tree
from partembed.triplets import build_pair_distribution, sample_triplets

from helpers import bfs_distance, cloud_on_tree, random_parents, tree_distance


def nested_tree():
    # root(0) -> A(1), B(2); B -> B1(3), B2(4)
    return build_tree([None, 0, 0, 2, 2], names=["r", "A", "B", "B1", "B2"])


def test_leaf_tree_distances_match_pairwise_queries():
    rng = np.random.default_rng(0)
    for _ in range(20):
        parents = random_parents(rng, max_nodes=50)
        t = build_tree(parents)
        leaf_ids = np.array(t.leaves)
        mat = t.leaf_distances
        assert mat.shape == (len(leaf_ids), len(leaf_ids))
        for i in range(len(leaf_ids)):
            for j in range(len(leaf_ids)):
                want = tree_distance(t, int(leaf_ids[i]), int(leaf_ids[j]))
                assert mat[i, j] == want == bfs_distance(parents, int(leaf_ids[i]), int(leaf_ids[j]))


def test_hierarchy_weights_exact_small_case():
    # delta(A,B1) = delta(A,B2) = 3, delta(B1,B2) = 2
    # hierarchy weights 1/3, 1/3, 1/2 normalize to 2/7, 2/7, 3/7
    t = nested_tree()
    counts = np.array([0, 5, 0, 5, 5])
    pairs, weights = build_pair_distribution(t, counts, strategy="hierarchy")
    got = {tuple(p): w for p, w in zip(pairs.tolist(), weights)}
    assert got.keys() == {(1, 3), (1, 4), (3, 4)}
    assert np.isclose(got[(1, 3)], 2 / 7)
    assert np.isclose(got[(1, 4)], 2 / 7)
    assert np.isclose(got[(3, 4)], 3 / 7)


def test_leaf_strategy_is_uniform():
    t = nested_tree()
    _, weights = build_pair_distribution(t, np.array([0, 5, 0, 5, 5]), strategy="leaf")
    np.testing.assert_allclose(weights, 1 / 3)


def test_unpopulated_leaves_are_excluded():
    t = nested_tree()
    pairs, weights = build_pair_distribution(t, np.array([0, 5, 0, 0, 5]), strategy="hierarchy")
    assert pairs.tolist() == [[1, 4]]
    assert np.isclose(weights[0], 1.0)


def test_single_point_leaf_pairs_need_an_anchor_side():
    t = nested_tree()
    # B1 and B2 have one point each: (B1, B2) has no eligible anchor, the
    # pairs with A (5 points) survive
    pairs, _ = build_pair_distribution(t, np.array([0, 5, 0, 1, 1]), strategy="hierarchy")
    assert sorted(map(tuple, pairs.tolist())) == [(1, 3), (1, 4)]


def test_no_admissible_pairs_raises():
    t = nested_tree()
    with pytest.raises(SamplingError):
        build_pair_distribution(t, np.array([0, 5, 0, 0, 0]))
    with pytest.raises(SamplingError):
        build_pair_distribution(t, np.array([0, 1, 0, 1, 1]))


def test_unknown_strategy():
    with pytest.raises(InputError):
        build_pair_distribution(nested_tree(), np.array([0, 5, 0, 5, 5]), strategy="magic")


def test_sampled_triplets_are_valid():
    t = nested_tree()
    rng = np.random.default_rng(0)
    cloud = cloud_on_tree(t, {1: 6, 3: 4, 4: 3}, rng)
    a, p, n = sample_triplets(t, cloud.leaf_id, 500, rng)
    a_leaf = cloud.leaf_id[a]
    b_leaf = cloud.leaf_id[p]
    c_leaf = cloud.leaf_id[n]
    assert (a_leaf == b_leaf).all()
    assert (a_leaf != c_leaf).all()
    assert (a != p).all()


def test_anchor_side_must_have_two_points():
    t = nested_tree()
    rng = np.random.default_rng(1)
    # B1 has a single point: it can never be the anchor side
    cloud = cloud_on_tree(t, {1: 6, 3: 1, 4: 5}, rng)
    a, p, n = sample_triplets(t, cloud.leaf_id, 400, rng)
    single = np.flatnonzero(cloud.leaf_id == 3)
    assert not np.isin(a, single).any()
    assert not np.isin(p, single).any()
    assert np.isin(n, single).any()  # it still serves as negative


def test_pair_frequencies_follow_inverse_distance():
    t = nested_tree()
    rng = np.random.default_rng(2)
    cloud = cloud_on_tree(t, {1: 5, 3: 5, 4: 5}, rng)
    a, _, n = sample_triplets(t, cloud.leaf_id, 100_000, rng, strategy="hierarchy")
    a_leaf = cloud.leaf_id[a]
    c_leaf = cloud.leaf_id[n]
    freq = {}
    for u, v in [(1, 3), (1, 4), (3, 4)]:
        hit = ((a_leaf == u) & (c_leaf == v)) | ((a_leaf == v) & (c_leaf == u))
        freq[(u, v)] = hit.mean()
    assert abs(freq[(1, 3)] - 2 / 7) < 0.01
    assert abs(freq[(1, 4)] - 2 / 7) < 0.01
    assert abs(freq[(3, 4)] - 3 / 7) < 0.01


def test_sampling_is_deterministic():
    t = nested_tree()
    cloud = cloud_on_tree(t, 4, np.random.default_rng(0))
    t1 = sample_triplets(t, cloud.leaf_id, 64, np.random.default_rng(9))
    t2 = sample_triplets(t, cloud.leaf_id, 64, np.random.default_rng(9))
    assert t1.shape == (3, 64)
    np.testing.assert_array_equal(t1, t2)


def test_flat_tree_strategies_agree():
    # on a flat tree every pair has delta 2, so hierarchy == uniform
    t = build_tree([None, 0, 0, 0, 0])
    counts = np.array([0, 3, 3, 3, 3])
    h_pairs, h_weights = build_pair_distribution(t, counts, strategy="hierarchy")
    l_pairs, l_weights = build_pair_distribution(t, counts, strategy="leaf")
    np.testing.assert_array_equal(h_pairs, l_pairs)
    np.testing.assert_allclose(h_weights, l_weights)


def test_k_must_be_positive():
    t = nested_tree()
    cloud = cloud_on_tree(t, 4, np.random.default_rng(0))
    with pytest.raises(InputError):
        sample_triplets(t, cloud.leaf_id, 0, np.random.default_rng(0))
