"""Surface sampling and rigid alignment.

Samples a point cloud from a synthetic chair mesh (area-weighted, uniform
over the surface), normalizes it, knocks it out of place with a random
rotation and translation, and recovers the transform with point-to-point
ICP. Writes both clouds as PLY files you can open in any viewer.
"""

import tempfile
from pathlib import Path

import numpy as np

from partembed.geometry import (PointCloud, RigidTransform, icp_align,
                                normalize_cloud, sample_surface, write_ply)
from partembed.synth import generate_shape

rng = np.random.default_rng(3)
rec = generate_shape("chair", "demo_chair", rng)
print(f"chair mesh: {len(rec.mesh.vertices)} vertices, "
      f"{len(rec.mesh.triangles)} triangles, {len(rec.hierarchy)} tree nodes")

cloud = normalize_cloud(sample_surface(rec.mesh, n=3000, rng=rng))
counts = {int(l): int((cloud.leaf_id == l).sum()) for l in np.unique(cloud.leaf_id)}
print(f"sampled {len(cloud)} points across {len(counts)} leaf parts")
print("   points per part:", counts)
print()

# knock the cloud out of place: 25 degrees about a random axis plus a shift
axis = rng.standard_normal(3)
axis /= np.linalg.norm(axis)
angle = np.deg2rad(25)
k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
true = RigidTransform(rot, rng.uniform(-0.15, 0.15, size=3))

moved = PointCloud(points=true.apply(cloud.points), leaf_id=cloud.leaf_id.copy())
result = icp_align(cloud, moved)

cos_angle = np.clip((np.trace(result.transform.rotation.T @ rot) - 1) / 2, -1, 1)
print(f"ICP converged in {len(result.residual_history)} iterations, "
      f"residual {result.residual:.2e}")
print(f"   rotation error    {np.arccos(cos_angle):.2e} rad")
print(f"   translation error {np.linalg.norm(result.transform.translation - true.translation):.2e}")
print()

with tempfile.TemporaryDirectory(prefix="partembed_icp_") as tmp:
    out = Path(tmp)
    write_ply(out / "original.ply", cloud)
    write_ply(out / "moved.ply", moved)
    print(f"wrote original.ply and moved.ply to {out}")
