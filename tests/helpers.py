"""Shared test utilities: unnamed and random trees, the scalar LCA walk and an
independent BFS distance oracle, a brute-force Chamfer oracle, a per-shape
triplet loss, finite-difference gradient checking with kink guards from a
plain forward, hand-made PLY files, and paired bootstrap margins of a
benchmark table."""

from collections import deque

import numpy as np

from partembed.geometry import PointCloud
from partembed.hierarchy import PartHierarchy
from partembed.network import NORM_FLOOR, all_layers


def random_parents(rng: np.random.Generator, max_nodes: int = 500) -> list:
    """Random rooted tree as a parent array: node 0 is the root, every later
    node attaches to an earlier one."""
    n = int(rng.integers(2, max_nodes + 1))
    return [None] + [int(rng.integers(0, i)) for i in range(1, n)]


def unnamed_tree(parents) -> PartHierarchy:
    """A PartHierarchy over ``parents`` whose nodes are named n0, n1, ..."""
    return PartHierarchy(parents, [f"n{i}" for i in range(len(parents))])


def random_tree(rng: np.random.Generator, max_nodes: int = 500) -> PartHierarchy:
    return unnamed_tree(random_parents(rng, max_nodes))


def _ancestors(tree: PartHierarchy, a: int) -> list:
    """``a``, its parent, ... up to the root."""
    path = [a]
    while tree.parents[path[-1]] is not None:
        path.append(tree.parents[path[-1]])
    return path


def lca(tree: PartHierarchy, a: int, b: int) -> int:
    """Lowest common ancestor: the first of ``a``'s ancestors-or-self that is
    also one of ``b``'s."""
    of_b = set(_ancestors(tree, b))
    return next(x for x in _ancestors(tree, a) if x in of_b)


def tree_distance(tree: PartHierarchy, a: int, b: int) -> int:
    """Edges from ``a`` up to the lowest common ancestor plus those from
    ``b``: the path distance in the tree, one query at a time."""
    anc = lca(tree, a, b)
    return _ancestors(tree, a).index(anc) + _ancestors(tree, b).index(anc)


def bfs_distance(parents, a: int, b: int) -> int:
    """Unweighted path distance over the undirected parent/child edges,
    computed without any tree machinery."""
    adj = {i: [] for i in range(len(parents))}
    for i, p in enumerate(parents):
        if p is not None:
            adj[i].append(p)
            adj[p].append(i)
    seen = {a: 0}
    q = deque([a])
    while q:
        x = q.popleft()
        if x == b:
            return seen[x]
        for y in adj[x]:
            if y not in seen:
                seen[y] = seen[x] + 1
                q.append(y)
    raise AssertionError("disconnected tree")


def brute_chamfer_with_grad(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Chamfer loss and its gradient for the points of ``a`` from the full
    pairwise distance matrix, with no search structure."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    near_b, near_a = d2.argmin(axis=1), d2.argmin(axis=0)
    loss = d2[np.arange(len(a)), near_b].mean() + d2[near_a, np.arange(len(b))].mean()
    # owner[k, l]: point k of a is the nearest to point l of b
    owner = (near_a[None, :] == np.arange(len(a))[:, None]).astype(np.float64)
    pull = (owner.sum(axis=1)[:, None] * a - owner @ b) / len(b)
    return float(loss), 2.0 * (a - b[near_b]) / len(a) + 2.0 * pull


def triplet_loss_loop(embed: np.ndarray, triplets, margin: float) -> tuple[float, np.ndarray]:
    """The hinge triplet loss one shape at a time: each shape's mean summed
    in shape order, its gradient scattered by three ``np.add.at`` calls, at
    the anchors, positives and negatives in turn."""
    g = np.zeros_like(embed)
    total = 0.0
    for s, (a, p, n) in enumerate(triplets):
        ea, eb, ec = embed[s][a], embed[s][p], embed[s][n]
        viol = np.maximum(np.sum((ea - eb) ** 2, axis=1) - np.sum((ea - ec) ** 2, axis=1)
                          + margin, 0.0)
        total += float(viol.mean())
        scale = (viol > 0).astype(np.float64)[:, None] / len(a)
        np.add.at(g[s], a, 2.0 * (ec - eb) * scale)
        np.add.at(g[s], p, 2.0 * (eb - ea) * scale)
        np.add.at(g[s], n, 2.0 * (ea - ec) * scale)
    return total, g


def rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def check_grads(f, params: dict, grads: dict, h: float = 1e-5, tol: float = 1e-4,
                rng: np.random.Generator | None = None, per_tensor: int = 3) -> float:
    """Compare analytic grads against central differences at a few random
    coordinates of every tensor. Returns the worst relative error seen."""
    rng = rng or np.random.default_rng(0)
    worst = 0.0
    for name, g in grads.items():
        t = params[name]
        flat_t = t.reshape(-1)
        flat_g = g.reshape(-1)
        for idx in rng.choice(flat_t.size, size=min(per_tensor, flat_t.size), replace=False):
            old = flat_t[idx]
            flat_t[idx] = old + h
            up = f()
            flat_t[idx] = old - h
            down = f()
            flat_t[idx] = old
            num = (up - down) / (2 * h)
            err = rel_err(float(flat_g[idx]), num)
            worst = max(worst, err)
            assert err < tol, f"{name}[{idx}]: analytic {flat_g[idx]:.8g} vs numeric {num:.8g}"
    return worst


# finite differences use h=1e-5; keep every kink at least this far away
KINK_MARGIN = 1e-3


def plain_preactivations(params: dict, cfg, pts: np.ndarray) -> dict:
    """Every layer's preactivation, by name, in a plain forward of the points
    (B, N, 3) through the whole network: the trunk on every point, the pool,
    the decoder on ``[point ‖ global]``, the floored normalization, the
    heads on the embeddings and the reconstruction decoder on the pooled
    feature. A trace keeps only some trunk rows, so the kink guards read
    this instead."""
    layers = all_layers(cfg)
    pre = {}

    def run(prefixes, x):
        for name, _, _, relu in layers:
            if name.startswith(prefixes):
                x = pre[name] = x @ params[f"{name}.W"] + params[f"{name}.b"]
                x = np.maximum(x, 0.0) if relu else x
        return x

    feat = run("enc", pts)
    pooled = run("lift", feat).max(axis=1)
    x = run(("dec", "embed"), np.concatenate(
        [feat, np.broadcast_to(pooled[:, None, :], (*feat.shape[:2], pooled.shape[1]))], axis=2))
    embed = x / np.maximum(np.linalg.norm(x, axis=2, keepdims=True), NORM_FLOOR)
    run("tag", embed)
    run("seg", embed)
    run("ae", pooled)
    return pre


def relu_margin(params: dict, cfg, layers, pts: np.ndarray) -> float:
    """Smallest |preactivation| over the ReLU layers among ``layers`` in a
    plain forward of the points."""
    pre = plain_preactivations(params, cfg, pts)
    return min((float(np.abs(pre[name]).min()) for name, _, _, relu in layers if relu),
               default=np.inf)


def pool_gap(params: dict, cfg, pts: np.ndarray) -> float:
    """Margin between the max-pool winner and runner-up, worst case, in a
    plain forward of the points."""
    last = [name for name, *_ in all_layers(cfg) if name.startswith("lift")][-1]
    top2 = np.sort(plain_preactivations(params, cfg, pts)[last], axis=1)[:, -2:, :]
    return float((top2[:, 1, :] - top2[:, 0, :]).min())


def prenorm_floor(trace) -> float:
    """Smallest row norm before normalization, as the trace keeps it: raised
    to NORM_FLOOR, which lies far below KINK_MARGIN. Its max() against the
    floor is one more kink to stay away from."""
    return float(trace.norm.min())


def cloud_on_tree(tree: PartHierarchy, points_per_leaf, rng: np.random.Generator) -> PointCloud:
    """Random cloud whose points are assigned to the tree's leaves.
    ``points_per_leaf`` maps leaf id to a count (dict) or is a single count."""
    leaf_ids = tree.leaves
    counts = points_per_leaf if isinstance(points_per_leaf, dict) else \
        {l: points_per_leaf for l in leaf_ids}
    ids = np.concatenate([np.full(counts.get(l, 0), l, dtype=np.int64) for l in leaf_ids])
    pts = rng.standard_normal((len(ids), 3))
    return PointCloud(points=pts, leaf_id=ids)


# the properties write_ply gives every cloud, and one binary row of them
CORE_PROPERTIES = ["property double x", "property double y", "property double z",
                   "property int leaf_id", "property int tag_id", "property int label"]
CORE_ROW = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                     ("leaf_id", "<i4"), ("tag_id", "<i4"), ("label", "<i4")])


def ply_bytes(header_lines, body: bytes = b"") -> bytes:
    """A hand-made PLY file: the ``ply`` line, ``header_lines`` (format,
    element and property lines, as given), ``end_header``, then ``body``."""
    return "".join(f"{line}\n" for line in ["ply", *header_lines, "end_header"]).encode() + body


def core_ply(rows, n: int | None = None) -> bytes:
    """A binary PLY of the core properties holding ``rows`` of (x, y, z,
    leaf_id, tag_id, label), whose header declares ``n`` vertices (default:
    as many as there are rows)."""
    header = ["format binary_little_endian 1.0",
              f"element vertex {len(rows) if n is None else n}", *CORE_PROPERTIES]
    return ply_bytes(header, np.array(rows, dtype=CORE_ROW).tobytes())


def paired_margin(rows, variant: str, baseline: str, category=None,
                  resamples: int = 10_000, seed: int = 0) -> tuple[float, float, float]:
    """Mean mIoU margin of ``variant`` over ``baseline`` in a benchmark
    table's rows (of ``category`` only, when given), with its 95% paired
    bootstrap CI: the rows pair up on (category, value, repeat), and the
    pairs' differences are resampled with replacement. Returns (margin,
    lo, hi). A row without a partner, or two rows on one key, raises
    ValueError."""
    def keyed(name):
        out = {}
        for r in rows:
            if r["variant"] == name and category in (None, r["category"]):
                key = (r["category"], r["value"], r["repeat"])
                if key in out:
                    raise ValueError(f"two {name} rows at {key}")
                out[key] = r["miou"]
        return out

    a, b = keyed(variant), keyed(baseline)
    if not a or a.keys() != b.keys():
        raise ValueError(f"{variant} and {baseline} rows do not pair up")
    d = np.array([a[k] - b[k] for k in sorted(a)])
    draws = np.random.default_rng(seed).integers(0, len(d), size=(resamples, len(d)))
    lo, hi = np.percentile(d[draws].mean(axis=1), [2.5, 97.5])
    return float(d.mean()), float(lo), float(hi)
