"""Shared test utilities: random trees, an independent BFS distance oracle,
a brute-force Chamfer oracle, and finite-difference gradient checking."""

from collections import deque

import numpy as np

from partembed.geometry import PointCloud
from partembed.hierarchy import PartHierarchy, build_tree


def random_parents(rng: np.random.Generator, max_nodes: int = 500) -> list:
    """Random rooted tree as a parent array: node 0 is the root, every later
    node attaches to an earlier one."""
    n = int(rng.integers(2, max_nodes + 1))
    return [None] + [int(rng.integers(0, i)) for i in range(1, n)]


def random_tree(rng: np.random.Generator, max_nodes: int = 500) -> PartHierarchy:
    return build_tree(random_parents(rng, max_nodes))


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


def relu_margin(params: dict, layers, trace) -> float:
    """Smallest |preactivation| over the ReLU layers of one trace."""
    worst = np.inf
    for name, _, _, relu in layers:
        if not relu:
            continue
        pre = trace.ins[name] @ params[f"{name}.W"] + params[f"{name}.b"]
        worst = min(worst, float(np.abs(pre).min()))
    return worst


def pool_gap(trace) -> float:
    """Margin between the max-pool winner and runner-up, worst case."""
    top2 = np.sort(trace.pre_pool, axis=1)[:, -2:, :]
    return float((top2[:, 1, :] - top2[:, 0, :]).min())


def prenorm_floor(trace) -> float:
    """Smallest row norm before normalization, as the trace keeps it: raised
    to NORM_FLOOR, which lies far below KINK_MARGIN. Its max() against the
    floor is one more kink to stay away from."""
    return float(trace.norm.min())


def cloud_on_tree(tree: PartHierarchy, points_per_leaf, rng: np.random.Generator) -> PointCloud:
    """Random cloud whose points are assigned to the tree's leaves.
    ``points_per_leaf`` maps leaf id to a count (dict) or is a single count."""
    from partembed.hierarchy import leaves
    leaf_ids = leaves(tree)
    counts = points_per_leaf if isinstance(points_per_leaf, dict) else \
        {l: points_per_leaf for l in leaf_ids}
    ids = np.concatenate([np.full(counts.get(l, 0), l, dtype=np.int64) for l in leaf_ids])
    pts = rng.standard_normal((len(ids), 3))
    return PointCloud(points=pts, leaf_id=ids)
