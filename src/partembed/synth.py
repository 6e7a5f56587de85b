"""Synthetic shape corpus: boxy furniture and aircraft with part hierarchies.

Three archetypes (chair, table, airplane) are assembled from jittered boxes.
Every box belongs to a semantic part, so each shape carries ground-truth
per-triangle labels. With noise off, hierarchy leaves coincide with the
semantic parts. Noise randomly splits parts into sub-leaves, nests them
under one to three intermediate grouping levels, and names each leaf from a
part-concept synonym pool with probability ``tag_prob`` (junk otherwise),
emulating the variability of crowd-modeled scene graphs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError
from .geometry import TriangleMesh
from .hierarchy import build_tree
from .ingest import ShapeRecord, write_corpus
from .network import _is_int

# Surface-name pools per part concept. The first entry is the canonical tag;
# the rest are raw synonyms mapped onto it by SYNTH_SYNONYMS.
_POOLS = {
    "back": ("back", "backrest"),
    "seat": ("seat", "cushion"),
    "leg": ("leg", "legs"),
    "arm": ("arm", "armrest"),
    "top": ("top", "tabletop"),
    "body": ("body", "fuselage"),
    "wing": ("wing", "wings"),
    "tail": ("tail", "stabilizer"),
    "engine": ("engine", "turbine"),
}

SYNTH_SYNONYMS = {raw: canon for canon, pool in _POOLS.items() for raw in pool[1:]}

_JUNK_WORDS = ("geometry", "mesh", "node", "object", "group", "model", "solid")

CATEGORIES = ("chair", "table", "airplane")

CATEGORY_LABELS = {
    "chair": ("seat", "back", "leg", "arm"),
    "table": ("top", "leg"),
    "airplane": ("body", "wing", "tail", "engine"),
}

DEFAULT_TAG_PROB = {"chair": 0.35, "table": 0.0, "airplane": 0.0}


@dataclass
class NoiseConfig:
    """Hierarchy randomization. Everything off reduces each shape to one
    leaf per semantic part hanging straight off the root."""

    split_parts: bool = True
    max_sub_leaves: int = 4
    group_leaves: bool = True
    max_group_levels: int = 3
    tag_prob: float = 0.0

    def __post_init__(self):
        if not (1 <= self.max_sub_leaves):
            raise InputError("max_sub_leaves must be at least 1")
        if not (1 <= self.max_group_levels <= 3):
            raise InputError("max_group_levels must be in [1, 3]")
        if not (0.0 <= self.tag_prob <= 1.0):
            raise InputError("tag_prob must be a probability")


@dataclass
class _Box:
    center: np.ndarray
    size: np.ndarray

    @property
    def volume(self) -> float:
        return float(np.prod(self.size))


def _box_mesh(box: _Box) -> tuple[np.ndarray, np.ndarray]:
    c, s = box.center, box.size / 2.0
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=np.float64)
    verts = c + corners * s
    faces = np.array([
        [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5],
        [0, 4, 5], [0, 5, 1], [2, 3, 7], [2, 7, 6],
        [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
    ], dtype=np.int64)
    return verts, faces


def _jitter_box(center, size, rng) -> _Box:
    c = np.asarray(center, dtype=np.float64) + rng.uniform(-0.04, 0.04, 3)
    s = np.asarray(size, dtype=np.float64) * rng.uniform(0.85, 1.2, 3)
    return _Box(center=c, size=s)


def _halve_box(box: _Box, rng) -> list[_Box]:
    axis = int(np.argmax(box.size))
    cut = rng.uniform(0.35, 0.65)
    out = []
    lo = box.center[axis] - box.size[axis] / 2.0
    for a, b in ((0.0, cut), (cut, 1.0)):
        c = box.center.copy()
        s = box.size.copy()
        c[axis] = lo + (a + b) / 2.0 * box.size[axis]
        s[axis] = (b - a) * box.size[axis]
        out.append(_Box(center=c, size=s))
    return out


def _chair_parts(rng) -> list[tuple[str, int, list[_Box]]]:
    parts = [
        ("seat", 0, [_jitter_box((0, 0, 0.45), (0.9, 0.9, 0.1), rng)]),
        ("back", 1, [_jitter_box((0, -0.42, 0.95), (0.9, 0.1, 0.9), rng)]),
        ("leg", 2, [_jitter_box((sx * 0.38, sy * 0.38, 0.2), (0.09, 0.09, 0.4), rng)
                    for sx in (-1, 1) for sy in (-1, 1)]),
    ]
    if rng.random() < 0.5:
        parts.append(("arm", 3, [_jitter_box((sx * 0.5, 0.05, 0.62), (0.08, 0.6, 0.07), rng)
                                 for sx in (-1, 1)]))
    return parts


def _table_parts(rng) -> list[tuple[str, int, list[_Box]]]:
    return [
        ("top", 0, [_jitter_box((0, 0, 0.72), (1.2, 0.8, 0.08), rng)]),
        ("leg", 1, [_jitter_box((sx * 0.52, sy * 0.32, 0.36), (0.08, 0.08, 0.7), rng)
                    for sx in (-1, 1) for sy in (-1, 1)]),
    ]


def _airplane_parts(rng) -> list[tuple[str, int, list[_Box]]]:
    parts = [
        ("body", 0, [_jitter_box((0, 0, 0), (1.7, 0.28, 0.28), rng)]),
        ("wing", 1, [_jitter_box((0.1, sy * 0.72, 0.02), (0.45, 1.15, 0.06), rng)
                     for sy in (-1, 1)]),
        ("tail", 2, [_jitter_box((-0.78, 0, 0.24), (0.24, 0.06, 0.4), rng)]
         + [_jitter_box((-0.74, sy * 0.26, 0.1), (0.2, 0.42, 0.05), rng) for sy in (-1, 1)]),
    ]
    if rng.random() < 0.6:
        parts.append(("engine", 3, [_jitter_box((0.18, sy * 0.42, -0.2), (0.36, 0.12, 0.12), rng)
                                    for sy in (-1, 1)]))
    return parts


_PART_BUILDERS = {"chair": _chair_parts, "table": _table_parts, "airplane": _airplane_parts}


def _junk_name(rng) -> str:
    return f"{_JUNK_WORDS[rng.integers(len(_JUNK_WORDS))]}{rng.integers(1000)}"


def _leaf_name(concept: str, tagged: bool, rng) -> str:
    if not tagged:
        return _junk_name(rng)
    pool = _POOLS[concept]
    name = pool[int(rng.integers(len(pool)))]
    if rng.random() < 0.5:
        name = f"{name}{rng.integers(10)}"
    return name


def _split_into_leaves(boxes: list[_Box], n_sub: int, rng) -> list[list[_Box]]:
    """Distribute a part's boxes over n_sub leaves, halving the largest boxes
    when the part has fewer boxes than leaves."""
    pieces = list(boxes)
    while len(pieces) < n_sub:
        pieces.sort(key=lambda b: -b.volume)
        pieces[0:1] = _halve_box(pieces[0], rng)
    if len(pieces) == n_sub:
        return [[p] for p in pieces]
    order = rng.permutation(len(pieces))
    buckets: list[list[_Box]] = [[] for _ in range(n_sub)]
    for j, pi in enumerate(order):
        buckets[j % n_sub].append(pieces[pi])
    return buckets


def generate_shape(category: str, shape_id: str, rng: np.random.Generator,
                   noise: Optional[NoiseConfig] = None) -> ShapeRecord:
    """One synthetic shape. Geometry is always jittered; the hierarchy and
    naming vary per ``noise``."""
    if category not in _PART_BUILDERS:
        raise InputError(f"unknown category {category!r}, expected one of {CATEGORIES}")
    if noise is None:
        noise = NoiseConfig(tag_prob=DEFAULT_TAG_PROB[category])
    parts = _PART_BUILDERS[category](rng)

    parents: list[Optional[int]] = [None]
    names: list[str] = [_junk_name(rng)]
    geoms: list[Optional[str]] = [None]
    leaf_boxes: dict[int, tuple[list[_Box], int]] = {}

    def add(parent: int, name: str, boxes_label=None) -> int:
        i = len(parents)
        parents.append(parent)
        names.append(name)
        geoms.append(f"part{i}" if boxes_label is not None else None)
        if boxes_label is not None:
            leaf_boxes[i] = boxes_label
        return i

    levels = int(rng.integers(1, noise.max_group_levels + 1)) if noise.group_leaves else 0
    # level 2+: one junk wrapper over a suffix of the part list
    wrap_from = int(rng.integers(1, len(parts))) if levels >= 2 else len(parts)
    wrapper = None

    for pi, (concept, label, boxes) in enumerate(parts):
        parent = 0
        if pi >= wrap_from:
            if wrapper is None:
                wrapper = add(0, _junk_name(rng))
            parent = wrapper
        n_sub = int(rng.integers(1, noise.max_sub_leaves + 1)) if noise.split_parts else 1
        buckets = _split_into_leaves(boxes, n_sub, rng)
        # level 1: a group node per part (skipped sometimes when it would
        # hold a single leaf)
        if levels >= 1 and (len(buckets) > 1 or rng.random() < 0.7):
            parent = add(parent, _junk_name(rng))
        # level 3: pair sub-leaves under holders
        if levels >= 3 and len(buckets) >= 4 and rng.random() < 0.6:
            half = len(buckets) // 2
            for group in (buckets[:half], buckets[half:]):
                holder = add(parent, _junk_name(rng))
                for bucket in group:
                    tagged = rng.random() < noise.tag_prob
                    add(holder, _leaf_name(concept, tagged, rng), (bucket, label))
        else:
            for bucket in buckets:
                tagged = rng.random() < noise.tag_prob
                add(parent, _leaf_name(concept, tagged, rng), (bucket, label))

    tree = build_tree(parents, names, geoms)

    verts, tris, tri_leaf, tri_sem = [], [], [], []
    base = 0
    for i in sorted(leaf_boxes):
        boxes, label = leaf_boxes[i]
        for box in boxes:
            v, f = _box_mesh(box)
            verts.append(v)
            tris.append(f + base)
            tri_leaf.append(np.full(len(f), i, dtype=np.int64))
            tri_sem.append(np.full(len(f), label, dtype=np.int64))
            base += len(v)
    mesh = TriangleMesh(
        vertices=np.vstack(verts),
        triangles=np.vstack(tris),
        tri_leaf=np.concatenate(tri_leaf),
        tri_semantic=np.concatenate(tri_sem),
    )
    return ShapeRecord(shape_id=shape_id, category=category, mesh=mesh, hierarchy=tree)


def generate_corpus(counts: dict[str, int], seed: int = 0,
                    tag_prob: Optional[dict[str, float]] = None,
                    noise: Optional[NoiseConfig] = None,
                    out_dir=None) -> list[ShapeRecord]:
    """Deterministic corpus: same arguments and seed give identical shapes
    (and identical bytes on disk when ``out_dir`` is set). ``counts`` maps
    category to the number of shapes; ``tag_prob`` overrides the per-category
    leaf-tagging probability."""
    for cat, n in counts.items():
        if not (_is_int(n) and n >= 3):
            raise InputError(f"category {cat!r}: need at least 3 shapes, asked for {n!r}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A17)))
    records = []
    for category in sorted(counts):
        for i in range(counts[category]):
            p = (tag_prob or {}).get(category, DEFAULT_TAG_PROB.get(category, 0.0))
            # per-category tagging probability always wins; NoiseConfig carries
            # the structural knobs
            cfg = replace(noise, tag_prob=p) if noise is not None else NoiseConfig(tag_prob=p)
            records.append(generate_shape(category, f"{category}_{i:04d}", rng, noise=cfg))

    if out_dir is not None:
        write_corpus(records, out_dir, {
            "seed": seed,
            "counts": dict(sorted(counts.items())),
            "tag_prob": {c: (tag_prob or {}).get(c, DEFAULT_TAG_PROB.get(c, 0.0))
                         for c in sorted(counts)},
            "noise": asdict(noise) if noise is not None else None,
            "categories": sorted(counts),
            "shape_ids": [r.shape_id for r in records],
            "synonyms": SYNTH_SYNONYMS,
        })
    return records
