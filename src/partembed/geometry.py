"""Meshes, point clouds, surface sampling, rigid alignment and Chamfer distance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import AlignmentError, GeometryError, InputError, ParseError

ORTHO_TOL = 1e-9
ICP_MAX_ITERS = 100
ICP_TOL = 1e-8   # relative improvement of the mean-squared residual


@dataclass
class TriangleMesh:
    """Triangle soup with a leaf-node id per triangle.

    vertices: (V, 3) float64, triangles: (T, 3) int indices,
    tri_leaf: (T,) leaf NodeId owning each triangle,
    tri_semantic: optional (T,) ground-truth label per triangle.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    tri_leaf: np.ndarray
    tri_semantic: Optional[np.ndarray] = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        self.tri_leaf = np.asarray(self.tri_leaf, dtype=np.int64).reshape(-1)
        if len(self.tri_leaf) != len(self.triangles):
            raise InputError("tri_leaf must parallel triangles")
        if len(self.triangles) and (self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)):
            raise InputError("triangle vertex index out of range")
        if self.tri_semantic is not None:
            self.tri_semantic = np.asarray(self.tri_semantic, dtype=np.int64).reshape(-1)
            if len(self.tri_semantic) != len(self.triangles):
                raise InputError("tri_semantic must parallel triangles")

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)


@dataclass
class PointCloud:
    """Parallel arrays of sampled surface points.

    tag_id and semantic_label use -1 where absent.
    """

    points: np.ndarray
    leaf_id: np.ndarray
    tag_id: Optional[np.ndarray] = None
    semantic_label: Optional[np.ndarray] = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        n = len(self.points)
        self.leaf_id = np.asarray(self.leaf_id, dtype=np.int64).reshape(-1)
        if len(self.leaf_id) != n:
            raise InputError("leaf_id must parallel points")
        for name in ("tag_id", "semantic_label"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=np.int64).reshape(-1)
                if len(v) != n:
                    raise InputError(f"{name} must parallel points")
                setattr(self, name, v)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class RigidTransform:
    """Rotation (proper orthonormal) plus translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > ORTHO_TOL:
            raise InputError(f"rotation is not orthonormal (max deviation {err:.3g})")
        if np.linalg.det(self.rotation) <= 0:
            raise InputError("rotation must have positive determinant")

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.translation


def sample_surface(mesh: TriangleMesh, n: int, rng: np.random.Generator) -> PointCloud:
    """Uniform area-weighted surface sampling.

    Triangles are chosen with probability proportional to area; the position
    within each triangle is uniform (square-root barycentric trick). Points
    inherit the triangle's leaf id and, when the mesh carries them, its
    per-triangle semantic label (see attribute ``tri_semantic``).
    """
    if n <= 0:
        raise InputError("sample count must be positive")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if not total > 0:
        raise GeometryError("mesh has zero total surface area")
    cum = np.cumsum(areas)
    tri = np.searchsorted(cum, rng.random(n) * total)
    tri = np.minimum(tri, len(areas) - 1)

    p = mesh.vertices[mesh.triangles[tri]]
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    pts = (1.0 - r1) * p[:, 0] + r1 * (1.0 - r2) * p[:, 1] + r1 * r2 * p[:, 2]

    sem = mesh.tri_semantic
    return PointCloud(
        points=pts,
        leaf_id=mesh.tri_leaf[tri],
        semantic_label=None if sem is None else sem[tri],
    )


def normalize_cloud(cloud: PointCloud) -> PointCloud:
    """Center at the centroid and scale so the farthest point sits at radius 1."""
    if len(cloud) == 0:
        raise InputError("empty cloud")
    centered = cloud.points - cloud.points.mean(axis=0)
    radius = np.linalg.norm(centered, axis=1).max()
    if not radius > 0:
        raise GeometryError("all points identical; cannot normalize")
    return PointCloud(
        points=centered / radius,
        leaf_id=cloud.leaf_id.copy(),
        tag_id=None if cloud.tag_id is None else cloud.tag_id.copy(),
        semantic_label=None if cloud.semantic_label is None else cloud.semantic_label.copy(),
    )


def _best_rigid_fit(src: np.ndarray, dst: np.ndarray) -> RigidTransform:
    """Least-squares rotation+translation mapping src onto dst (Kabsch/Arun)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    cov = (src - mu_s).T @ (dst - mu_d)
    rank = np.linalg.matrix_rank(cov, tol=1e-12 * max(1.0, np.abs(cov).max()))
    if rank < 2:
        raise AlignmentError("correspondence covariance is rank-deficient; alignment failed")
    u, _, vt = np.linalg.svd(cov)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, mu_d - rot @ mu_s)


@dataclass
class IcpResult:
    transform: RigidTransform
    residual: float
    iterations: int
    residual_history: list[float] = field(default_factory=list)


def icp_align(source: PointCloud, target: PointCloud) -> IcpResult:
    """Point-to-point ICP: nearest-neighbor correspondences (k-d tree) and an
    SVD rigid fit per iteration, until the mean-squared residual stops
    improving by more than ``ICP_TOL`` (relative) or ``ICP_MAX_ITERS``.

    Each iteration fits the source cloud itself to its current
    correspondences, so the transform is one least-squares fit, never a
    product of steps. Returns the transform mapping source toward target
    plus the final residual. No outlier rejection; the intended use is
    coarse canonical alignment of same-shape clouds.
    """
    if len(source) == 0 or len(target) == 0:
        raise InputError("ICP requires nonempty clouds")
    tree = cKDTree(target.points)
    moved = source.points
    prev = None
    history: list[float] = []
    for iters in range(1, ICP_MAX_ITERS + 1):
        _, idx = tree.query(moved)
        current = _best_rigid_fit(source.points, target.points[idx])
        moved = current.apply(source.points)
        residual = float(np.mean(np.sum((moved - target.points[idx]) ** 2, axis=1)))
        history.append(residual)
        if prev is not None and prev - residual <= ICP_TOL * max(prev, 1e-30):
            break
        prev = residual
    return IcpResult(transform=current, residual=history[-1], iterations=iters,
                     residual_history=history)


def _nearest(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index into b of the nearest neighbor of each row of a (k-d tree), plus
    the squared distances, summed from the coordinates."""
    idx = cKDTree(b).query(a)[1]
    return idx, np.sum((a - b[idx]) ** 2, axis=1)


def chamfer_with_grad(pa: np.ndarray, pb: np.ndarray) -> tuple[float, np.ndarray]:
    """Symmetric Chamfer distance between point arrays ``pa`` and ``pb``,
    and its gradient with respect to the points of ``pa``. The distance is
    the mean squared nearest distance from pa to pb plus the same from pb
    to pa; means (not sums) keep it independent of point counts.

    The gradient holds almost everywhere (away from nearest-neighbor ties).
    """
    if len(pa) == 0 or len(pb) == 0:
        raise InputError("chamfer requires nonempty clouds")
    idx_ab, d2_ab = _nearest(pa, pb)
    idx_ba, d2_ba = _nearest(pb, pa)
    loss = float(d2_ab.mean() + d2_ba.mean())

    grad = 2.0 * (pa - pb[idx_ab]) / len(pa)
    pull = 2.0 * (pa[idx_ba] - pb) / len(pb)
    np.add.at(grad, idx_ba, pull)
    return loss, grad


# ---------------------------------------------------------------------------
# PLY persistence (ascii). Integer properties use -1 where a field is absent.
# ---------------------------------------------------------------------------

def write_ply(path, cloud: PointCloud, embeddings: np.ndarray | None = None,
              rgb: np.ndarray | None = None) -> None:
    n = len(cloud)
    tag = cloud.tag_id if cloud.tag_id is not None else np.full(n, -1, dtype=np.int64)
    lab = cloud.semantic_label if cloud.semantic_label is not None else np.full(n, -1, dtype=np.int64)
    cols = [cloud.points, cloud.leaf_id[:, None], tag[:, None], lab[:, None]]
    props = ["property double x", "property double y", "property double z",
             "property int leaf_id", "property int tag_id", "property int label"]
    fmts = ["%.17g", "%.17g", "%.17g", "%d", "%d", "%d"]
    if embeddings is not None:
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if len(embeddings) != n:
            raise InputError("embeddings must parallel points")
        cols.append(embeddings)
        props += [f"property double e{i}" for i in range(embeddings.shape[1])]
        fmts += ["%.17g"] * embeddings.shape[1]
    if rgb is not None:
        rgb = np.asarray(rgb, dtype=np.int64)
        cols.append(rgb)
        props += ["property uchar red", "property uchar green", "property uchar blue"]
        fmts += ["%d", "%d", "%d"]
    body = np.hstack([np.asarray(c, dtype=np.float64) for c in cols])
    header = "\n".join(
        ["ply", "format ascii 1.0", f"element vertex {n}", *props, "end_header"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, body, fmt=" ".join(fmts))


def read_ply(path) -> tuple[PointCloud, dict[str, np.ndarray]]:
    """Read an ascii PLY written by write_ply. Returns the cloud plus any
    extra columns (embeddings, rgb) keyed by property name. A file that is
    not such a PLY raises ParseError naming it."""
    with open(path) as fh:
        line = fh.readline().strip()
        if line != "ply":
            raise ParseError(f"{path}: not a PLY file")
        names: list[str] = []
        n = None
        while True:
            line = fh.readline()
            if not line:
                raise ParseError(f"{path}: truncated header")
            line = line.strip()
            if line == "end_header":
                break
            parts = line.split()
            try:
                if parts[0] == "element" and parts[1] == "vertex":
                    n = int(parts[2])
                elif parts[0] == "property":
                    names.append(parts[2])
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path}: bad header line {line!r}") from exc
        try:
            data = np.loadtxt(fh, ndmin=2)
        except ValueError as exc:
            raise ParseError(f"{path}: vertex data is not numeric ({exc})") from exc
    if n is None or data.shape != (n, len(names)):
        raise ParseError(f"{path}: vertex data does not match header")
    col = {name: data[:, i] for i, name in enumerate(names)}

    def int_col(name):
        v = col[name].astype(np.int64)
        return None if (v == -1).all() else v

    try:
        cloud = PointCloud(
            points=np.stack([col["x"], col["y"], col["z"]], axis=1),
            leaf_id=col["leaf_id"].astype(np.int64),
            tag_id=int_col("tag_id"),
            semantic_label=int_col("label"),
        )
    except KeyError as exc:
        raise ParseError(f"{path}: no {exc} vertex property") from exc
    extra = {k: v for k, v in col.items()
             if k not in ("x", "y", "z", "leaf_id", "tag_id", "label")}
    return cloud, extra
