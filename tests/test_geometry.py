import numpy as np
import pytest

from partembed.errors import InputError, ParseError
from partembed.geometry import (PointCloud, RigidTransform, TriangleMesh,
                                chamfer_with_grad, icp_align, normalize_cloud,
                                read_ply, sample_surface, write_ply)

from helpers import brute_chamfer_with_grad


def two_triangle_mesh():
    # right triangles with areas 0.5 and 4.5 (ratio 1:9)
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [0, 1, 0],
        [2, 0, 0], [5, 0, 0], [2, 3, 0],
    ], dtype=float)
    tris = np.array([[0, 1, 2], [3, 4, 5]])
    return TriangleMesh(vertices=verts, triangles=tris,
                        tri_leaf=np.array([4, 7]), tri_semantic=np.array([0, 1]))


def test_sampling_is_area_weighted():
    mesh = two_triangle_mesh()
    cloud = sample_surface(mesh, n=20000, rng=np.random.default_rng(0))
    frac_small = np.mean(cloud.leaf_id == 4)
    # binomial with p = 0.1: five sigma is ~0.0106 at n = 20000
    assert abs(frac_small - 0.1) < 0.011
    assert set(np.unique(cloud.leaf_id)) == {4, 7}
    assert set(np.unique(cloud.semantic_label)) == {0, 1}
    # every point lies in the z = 0 plane of its triangle
    assert np.abs(cloud.points[:, 2]).max() == 0.0


def test_sampling_is_deterministic():
    mesh = two_triangle_mesh()
    a = sample_surface(mesh, n=64, rng=np.random.default_rng(3))
    b = sample_surface(mesh, n=64, rng=np.random.default_rng(3))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.leaf_id, b.leaf_id)


def test_points_fall_inside_triangles():
    mesh = two_triangle_mesh()
    cloud = sample_surface(mesh, n=500, rng=np.random.default_rng(1))
    small = cloud.points[cloud.leaf_id == 4]
    # first triangle: x, y >= 0 and x + y <= 1
    assert (small[:, 0] >= 0).all() and (small[:, 1] >= 0).all()
    assert (small[:, 0] + small[:, 1] <= 1 + 1e-12).all()


def test_normalize_cloud_centers_and_scales():
    rng = np.random.default_rng(0)
    cloud = PointCloud(points=rng.normal(3.0, 2.0, (100, 3)), leaf_id=np.zeros(100, dtype=int))
    out = normalize_cloud(cloud)
    np.testing.assert_allclose(out.points.mean(axis=0), 0.0, atol=1e-12)
    assert np.isclose(np.linalg.norm(out.points, axis=1).max(), 1.0)


def test_rigid_transform_validation():
    with pytest.raises(InputError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(InputError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


def _rotation(axis, angle, translation=(0, 0, 0)):
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    return RigidTransform(rot, np.asarray(translation, dtype=float))


def test_icp_recovers_small_rigid_motion():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((800, 3))
    target = PointCloud(points=pts, leaf_id=np.zeros(800, dtype=int))
    truth = _rotation(rng.standard_normal(3), 0.25, translation=[0.05, -0.02, 0.01])
    source = PointCloud(points=truth.apply(pts), leaf_id=np.zeros(800, dtype=int))
    result = icp_align(source, target)
    # recovered transform must invert the applied one: est(truth(x)) = x
    est = result.transform
    angle = np.arccos(np.clip((np.trace(est.rotation @ truth.rotation) - 1) / 2, -1, 1))
    assert angle < 1e-3
    assert np.linalg.norm(est.apply(truth.translation)) < 1e-4
    assert result.residual < 1e-8


def test_icp_residual_history_is_monotone_enough():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((300, 3))
    target = PointCloud(points=pts, leaf_id=np.zeros(300, dtype=int))
    src = PointCloud(points=_rotation([0, 0, 1], 0.4).apply(pts), leaf_id=np.zeros(300, dtype=int))
    result = icp_align(src, target)
    h = result.residual_history
    assert len(h) >= 1
    assert h[-1] <= h[0] + 1e-12


def test_icp_empty_cloud_errors():
    empty = PointCloud(points=np.zeros((0, 3)), leaf_id=np.zeros(0, dtype=int))
    full = PointCloud(points=np.zeros((5, 3)), leaf_id=np.zeros(5, dtype=int))
    with pytest.raises(InputError):
        icp_align(empty, full)


def test_chamfer_single_point_pair():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, 0.0]])
    # both directions contribute the same squared distance
    assert abs(chamfer_with_grad(a, b)[0] - 2.0) < 1e-12


def test_chamfer_identical_clouds_is_zero():
    pts = np.random.default_rng(0).standard_normal((50, 3))
    assert chamfer_with_grad(pts, pts)[0] == 0.0


def test_chamfer_gradient_matches_numeric():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((15, 3))
    _, grad = chamfer_with_grad(a, b)
    h = 1e-6
    for idx in [(0, 0), (3, 1), (11, 2)]:
        orig = a[idx]
        a[idx] = orig + h
        up = chamfer_with_grad(a, b)[0]
        a[idx] = orig - h
        down = chamfer_with_grad(a, b)[0]
        a[idx] = orig
        num = (up - down) / (2 * h)
        assert abs(grad[idx] - num) < 1e-5


@pytest.mark.parametrize("n_a, n_b", [(64, 512), (1200, 900)])
def test_chamfer_matches_brute_force(n_a, n_b):
    # the few-shot autoencoder's size, and over a million point pairs
    rng = np.random.default_rng(n_a)
    a, b = rng.standard_normal((n_a, 3)), rng.standard_normal((n_b, 3))
    loss, grad = chamfer_with_grad(a, b)
    want_loss, want_grad = brute_chamfer_with_grad(a, b)
    assert abs(loss - want_loss) < 1e-12
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-15)


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    cloud = PointCloud(points=rng.standard_normal((20, 3)),
                       leaf_id=rng.integers(0, 5, 20),
                       tag_id=rng.integers(-1, 3, 20),
                       semantic_label=rng.integers(0, 2, 20))
    emb = rng.standard_normal((20, 6))
    rgb = rng.integers(0, 256, (20, 3))
    path = tmp_path / "c.ply"
    write_ply(path, cloud, embeddings=emb, rgb=rgb)
    back, extra = read_ply(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.leaf_id, cloud.leaf_id)
    np.testing.assert_array_equal(back.tag_id, cloud.tag_id)
    np.testing.assert_array_equal(back.semantic_label, cloud.semantic_label)
    got = np.stack([extra[f"e{i}"] for i in range(6)], axis=1)
    np.testing.assert_array_equal(got, emb)
    np.testing.assert_array_equal(extra["red"].astype(int), rgb[:, 0])


def test_read_ply_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("not a ply\n")
    with pytest.raises(ParseError):
        read_ply(path)


def test_mesh_validation():
    with pytest.raises(InputError):
        TriangleMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 5]]),
                     tri_leaf=np.array([0]))
    with pytest.raises(InputError):
        TriangleMesh(vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 2]]),
                     tri_leaf=np.array([0, 1]))  # tri_leaf not parallel
