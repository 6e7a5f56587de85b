"""Corpus ingestion: scene files to shape records, tag mining, dataset splits.

A shape record pairs a triangle mesh with the part hierarchy that owns its
triangles. Records come from COLLADA scene graphs or from the native JSON
format, get filtered on hierarchy size, and are the unit everything
downstream (sampling, triplets, training) consumes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .collada import parse_collada_tree
from .config import check, kind
from .errors import InputError, ParseError
from .geometry import TriangleMesh
from .hierarchy import PartHierarchy

# Scene-graph boilerplate that must never become a tag. Positional words
# (back, top, ...) stay out of this list: they are real part names.
DEFAULT_STOP_PATTERNS = frozenset({
    "geometry", "geom", "mesh", "node", "group", "object", "obj", "model",
    "scene", "shape", "instance", "untitled", "default", "root", "dummy",
    "empty", "transform", "component", "entity", "element", "item", "lod",
    "collision", "visual", "solid", "copy", "new", "null",
})
MIN_TOKEN_LEN = 2         # shortest name token that can become a tag
MAX_TAGS = 10             # tags kept per category vocabulary
MIN_LEAVES = 2            # fewer leaves: a single blob
MAX_LEAVES = 500          # more leaves: an implausibly fine-grained scene
MIN_HEIGHT = 1            # flatter hierarchies hold no part structure
MIN_TAG_COVERAGE = 0.01   # mean tagged fraction a category must clear
VAL_FRAC = 0.15           # shares of a split held out for validation and test
TEST_FRAC = 0.10


@dataclass
class ShapeRecord:
    """One shape: mesh plus hierarchy, with tri_leaf tying them together."""

    shape_id: str
    category: str
    mesh: TriangleMesh
    hierarchy: PartHierarchy

    def __post_init__(self):
        leaf_set = set(self.hierarchy.leaves)
        used = set(np.unique(self.mesh.tri_leaf).tolist())
        if not used <= leaf_set:
            raise ParseError(f"shape {self.shape_id}: tri_leaf references non-leaf nodes {sorted(used - leaf_set)}")


def shape_from_collada(data: bytes, shape_id: str, category: str = "default") -> ShapeRecord:
    """Parse COLLADA bytes into a record. Node transforms are baked into the
    instanced vertices; each instanced geometry becomes one leaf. Node ids
    follow document preorder, root first."""
    parents, names, vertices, triangles, tri_leaf = parse_collada_tree(data)
    tree = PartHierarchy(parents, names)
    mesh = TriangleMesh(vertices=vertices, triangles=triangles, tri_leaf=tri_leaf)
    return ShapeRecord(shape_id=shape_id, category=category, mesh=mesh, hierarchy=tree)


# ---------------------------------------------------------------------------
# Native JSON shape format
# ---------------------------------------------------------------------------

def dumps_shape(rec: ShapeRecord) -> str:
    """Native JSON text of a record. Triangles are reordered so every leaf
    owns one contiguous range; writing then re-reading is a fixpoint."""
    order = np.argsort(rec.mesh.tri_leaf, kind="stable")
    tris = rec.mesh.triangles[order]
    leaf_sorted = rec.mesh.tri_leaf[order]
    sem = None if rec.mesh.tri_semantic is None else rec.mesh.tri_semantic[order]

    tree = rec.hierarchy
    nodes = []
    for i, (parent, name, children) in enumerate(zip(tree.parents, tree.names, tree.children)):
        entry: dict = {"id": i, "parent": parent, "name": name}
        if children:
            entry["children"] = list(children)
        else:
            lo = int(np.searchsorted(leaf_sorted, i, side="left"))
            hi = int(np.searchsorted(leaf_sorted, i, side="right"))
            entry["tri_range"] = [lo, hi]
        nodes.append(entry)

    obj = {
        "shape_id": rec.shape_id,
        "category": rec.category,
        "vertices": [[float(x) for x in row] for row in rec.mesh.vertices],
        "triangles": [[int(x) for x in row] for row in tris],
        "nodes": nodes,
    }
    if sem is not None:
        obj["semantic_labels"] = [int(x) for x in sem]
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_corpus(records: Sequence[ShapeRecord], out_dir, manifest: dict) -> None:
    """The on-disk corpus layout: ``<out_dir>/<category>/<shape_id>.json``
    for every record, plus ``manifest`` as ``<out_dir>/manifest.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        (out_dir / rec.category).mkdir(exist_ok=True)
        (out_dir / rec.category / f"{rec.shape_id}.json").write_text(dumps_shape(rec))
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _expect(cond: bool, msg: str):
    if not cond:
        raise ParseError(msg)


def parse_json_shape(data: bytes) -> ShapeRecord:
    """Parse the native JSON shape format from UTF-8 bytes."""
    try:
        obj = json.loads(data.decode())
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("shape_id", "category", "vertices", "triangles", "nodes"):
        _expect(key in obj, f"missing required field '{key}'")
    _expect(isinstance(obj["shape_id"], str) and obj["shape_id"], "shape_id must be a nonempty string")
    _expect(isinstance(obj["category"], str), "category must be a string")

    try:
        vertices = np.asarray(obj["vertices"], dtype=np.float64)
        triangles = np.asarray(obj["triangles"], dtype=np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"vertices/triangles are not numeric arrays: {exc}") from exc
    _expect(vertices.ndim == 2 and vertices.shape[1] == 3 or vertices.size == 0,
            "vertices must be an array of [x, y, z] rows")
    _expect(triangles.ndim == 2 and triangles.shape[1] == 3 or triangles.size == 0,
            "triangles must be an array of [i, j, k] rows")
    vertices = vertices.reshape(-1, 3)
    triangles = triangles.reshape(-1, 3)
    n_tri = len(triangles)

    raw_nodes = obj["nodes"]
    _expect(isinstance(raw_nodes, list) and raw_nodes, "nodes must be a nonempty list")
    n = len(raw_nodes)
    seen = {}
    for entry in raw_nodes:
        _expect(isinstance(entry, dict), "each node must be an object")
        for key in ("id", "parent", "name"):
            _expect(key in entry, f"node missing field '{key}'")
        i = entry["id"]
        _expect(isinstance(i, int) and 0 <= i < n, f"node id {i!r} not in 0..{n - 1}")
        _expect(i not in seen, f"duplicate node id {i}")
        seen[i] = entry

    parents: list[Optional[int]] = [None] * n
    names: list[str] = [""] * n
    ranges: dict[int, tuple[int, int]] = {}
    for i in range(n):
        entry = seen[i]
        p = entry["parent"]
        _expect(p is None or (isinstance(p, int) and 0 <= p < n), f"node {i}: bad parent {p!r}")
        parents[i] = p
        _expect(isinstance(entry["name"], str), f"node {i}: name must be a string")
        names[i] = entry["name"]
        has_range = "tri_range" in entry
        has_children = "children" in entry
        _expect(has_range != has_children, f"node {i}: needs exactly one of tri_range/children")
        if has_range:
            r = entry["tri_range"]
            _expect(isinstance(r, list) and len(r) == 2 and all(isinstance(x, int) for x in r),
                    f"node {i}: tri_range must be [start, end]")
            lo, hi = r
            _expect(0 <= lo <= hi <= n_tri, f"node {i}: tri_range {r} out of bounds for {n_tri} triangles")
            ranges[i] = (lo, hi)
        else:
            c = entry["children"]
            _expect(isinstance(c, list) and all(isinstance(x, int) for x in c),
                    f"node {i}: children must be a list of ids")

    tri_leaf = np.full(n_tri, -1, dtype=np.int64)
    for i, (lo, hi) in ranges.items():
        _expect((tri_leaf[lo:hi] == -1).all(), f"node {i}: tri_range overlaps another leaf")
        tri_leaf[lo:hi] = i
    _expect((tri_leaf >= 0).all(), "tri_ranges must cover every triangle")

    sem = None
    if "semantic_labels" in obj:
        try:
            sem = np.asarray(obj["semantic_labels"], dtype=np.int64).reshape(-1)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ParseError(f"semantic_labels must be integers: {exc}") from exc
        _expect(len(sem) == n_tri, f"semantic_labels has {len(sem)} entries for {n_tri} triangles")

    try:
        tree = PartHierarchy(parents, names)
    except InputError as exc:
        raise ParseError(f"invalid hierarchy: {exc}") from exc

    # a leaf owns a tri_range; a group declares the children its parent
    # pointers give it, and has at least one
    for i, children in enumerate(tree.children):
        declared = seen[i].get("children")
        if declared is None:
            _expect(not children, f"node {i}: has children but carries a tri_range")
        else:
            _expect(bool(children), f"node {i}: group has no children")
            _expect(sorted(declared) == sorted(children),
                    f"node {i}: children list disagrees with parent pointers")

    try:
        mesh = TriangleMesh(vertices=vertices, triangles=triangles, tri_leaf=tri_leaf,
                            tri_semantic=sem)
    except InputError as exc:
        raise ParseError(f"invalid mesh: {exc}") from exc
    return ShapeRecord(shape_id=obj["shape_id"], category=obj["category"],
                       mesh=mesh, hierarchy=tree)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def filter_shape(rec: ShapeRecord) -> tuple[bool, str]:
    """Keep shapes whose hierarchy is informative, neither a single blob nor
    an implausibly fine-grained scene, and whose surface can be sampled: a
    total area that is not finite and positive has no surface to draw
    points from. Returns (keep, reason)."""
    n = len(rec.hierarchy.leaves)
    if n < MIN_LEAVES:
        return False, f"too_few_leaves:{n}"
    if n > MAX_LEAVES:
        return False, f"too_many_leaves:{n}"
    if rec.hierarchy.height < MIN_HEIGHT:
        return False, f"flat_hierarchy:{rec.hierarchy.height}"
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite vertex gives nan
        area = float(rec.mesh.triangle_areas().sum())
    if not (np.isfinite(area) and area > 0):
        return False, f"degenerate_mesh:area {area:g}"
    return True, "ok"


# ---------------------------------------------------------------------------
# Tag mining
# ---------------------------------------------------------------------------

@dataclass
class TagVocabulary:
    """Canonical tag names for one category, most frequent first.

    ``synonyms`` maps raw surface strings to canonical tags; its values are
    always a subset of ``tags``.
    """

    category: str = kind("string")
    tags: tuple[str, ...] = kind("names_or_empty")
    synonyms: dict[str, str] = kind("string_map", factory=dict)
    counts: dict[str, int] = kind("count_map", factory=dict)

    def __post_init__(self):
        check(self)
        bad = set(self.synonyms.values()) - set(self.tags)
        if bad:
            raise InputError(f"synonyms map onto unknown tags {sorted(bad)}")


def _name_matches(name_lower: str, tag: str, synonyms: dict[str, str]) -> bool:
    if tag in name_lower:
        return True
    return any(raw in name_lower for raw, canon in synonyms.items() if canon == tag)


def extract_tags(records: Sequence[ShapeRecord], category: str,
                 synonyms: dict[str, str] | None = None) -> TagVocabulary:
    """Mine a tag vocabulary from node names of one category's shapes.

    Candidates are lowercase alphabetic tokens of at least ``MIN_TOKEN_LEN``
    letters of node names, routed through the synonym map and stripped of
    stop patterns. Each candidate is scored by the number of shapes whose
    node names contain it (or any raw synonym of it) as a substring; the
    ``MAX_TAGS`` most frequent survive, ties broken lexicographically.
    """
    synonyms = {k.lower(): v.lower() for k, v in (synonyms or {}).items()}
    recs = [r for r in records if r.category == category]

    shape_names: list[list[str]] = []
    candidates: set[str] = set()
    for rec in recs:
        names = [name.lower() for name in rec.hierarchy.names]
        shape_names.append(names)
        for name in names:
            for tok in re.findall(r"[a-z]+", name):
                tok = synonyms.get(tok, tok)
                if len(tok) >= MIN_TOKEN_LEN and tok not in DEFAULT_STOP_PATTERNS:
                    candidates.add(tok)

    # every candidate comes from some shape's names, so it scores at least 1
    counts = {
        tag: sum(1 for names in shape_names
                 if any(_name_matches(nm, tag, synonyms) for nm in names))
        for tag in candidates
    }
    kept = tuple(sorted(counts, key=lambda t: (-counts[t], t))[:MAX_TAGS])
    return TagVocabulary(category, kept, {r: c for r, c in synonyms.items() if c in kept},
                         {t: counts[t] for t in kept})


def label_points_with_tags(leaf_id: np.ndarray, tree: PartHierarchy,
                           vocab: TagVocabulary) -> np.ndarray:
    """Tag id per entry of ``leaf_id`` (-1 untagged): a cloud's points or a
    mesh's triangles. An entry inherits the tag of the deepest ancestor of
    its leaf whose name matches a tag; when several tags match that node,
    the earliest in vocabulary order wins."""
    tag_of_node = np.full(len(tree), -1, dtype=np.int64)
    for leaf in tree.leaves:
        a: Optional[int] = leaf
        chosen = -1
        while a is not None:
            nm = tree.names[a].lower()
            for ti, tag in enumerate(vocab.tags):
                if _name_matches(nm, tag, vocab.synonyms):
                    chosen = ti
                    break
            if chosen >= 0:
                break
            a = tree.parents[a]
        tag_of_node[leaf] = chosen
    return tag_of_node[leaf_id]


def tag_sufficiency(fractions: Sequence[float]) -> tuple[bool, float]:
    """Mean of the per-shape tagged fractions, and whether it strictly
    clears ``MIN_TAG_COVERAGE``. Categories failing this are skipped by tag
    supervision."""
    if not len(fractions):
        return False, 0.0
    coverage = float(np.mean(fractions))
    return coverage > MIN_TAG_COVERAGE, coverage


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@dataclass
class DatasetSplit:
    train: tuple[str, ...] = kind("names_or_empty")
    validation: tuple[str, ...] = kind("names_or_empty")
    test: tuple[str, ...] = kind("names_or_empty")

    def __post_init__(self):
        check(self)
        ids = self.train + self.validation + self.test
        if len(set(ids)) != len(ids):
            raise InputError("split groups overlap")

    def to_json(self) -> dict:
        return {group: list(ids) for group, ids in vars(self).items()}


def split_dataset(shape_ids: Sequence[str], seed: int = 0) -> DatasetSplit:
    """Deterministic shuffle split. Validation and test sizes, ``VAL_FRAC``
    and ``TEST_FRAC`` of the shapes, round to the nearest integer (half
    away from zero); train takes the remainder. Every group is nonempty,
    which needs at least three shapes: for any n >= 3 the two rounded
    shares leave train at least one."""
    ids = sorted(shape_ids)
    if len(set(ids)) != len(ids):
        raise InputError("duplicate shape ids")
    n = len(ids)
    if n < 3:
        raise InputError(f"need at least 3 shapes to split, got {n}")
    n_val = max(1, int(np.floor(n * VAL_FRAC + 0.5)))
    n_test = max(1, int(np.floor(n * TEST_FRAC + 0.5)))
    perm = np.random.default_rng(seed).permutation(n)
    val = [ids[i] for i in perm[:n_val]]
    test = [ids[i] for i in perm[n_val:n_val + n_test]]
    train = [ids[i] for i in perm[n_val + n_test:]]
    return DatasetSplit(train=tuple(train), validation=tuple(val), test=tuple(test))


# ---------------------------------------------------------------------------
# Directory mining
# ---------------------------------------------------------------------------

@dataclass
class MineReport:
    kept: int
    rejected: dict[str, str]  # file path relative to the mined directory -> reason
    vocabularies: dict[str, TagVocabulary]
    sufficiency: dict[str, dict]
    split: DatasetSplit

    @property
    def reject_counts(self) -> dict[str, int]:
        """How many files each reason class (the text before ``:``) rejected."""
        return dict(Counter(reason.split(":", 1)[0] for reason in self.rejected.values()))

    def to_json(self) -> dict:
        return {"kept": self.kept, "rejected": self.rejected,
                "reject_counts": self.reject_counts, "sufficiency": self.sufficiency,
                "vocabularies": {cat: {"tags": list(v.tags), "counts": v.counts,
                                       "synonyms": v.synonyms}
                                 for cat, v in self.vocabularies.items()},
                "split": self.split.to_json()}


def discover_shape_files(in_dir) -> list[tuple[Path, str]]:
    """(path, category) for every .dae/.json under in_dir, sorted by path.
    The category is the immediate parent directory, or 'default' for files
    sitting at the top level."""
    in_dir = Path(in_dir)
    out = []
    for path in sorted(in_dir.rglob("*")):
        if path.suffix not in (".dae", ".json") or not path.is_file():
            continue
        if path.name in ("manifest.json", "run.json"):
            continue
        rel = path.relative_to(in_dir)
        category = rel.parts[-2] if len(rel.parts) > 1 else "default"
        out.append((path, category))
    return out


def mine_directory(in_dir, synonyms: dict[str, str] | None = None,
                   seed: int = 0) -> tuple[list[ShapeRecord], MineReport]:
    """Parse, filter and tag every shape file under ``in_dir``.

    Returns the kept shapes and the report: counts, per-category
    vocabularies, sufficiency verdicts and the split. ``write_corpus`` puts
    both on disk. A category's coverage is the mean, over its shapes, of
    the tagged share of surface area; ``seed`` drives only the split. An
    ``in_dir`` that is not a directory raises InputError.
    """
    if not Path(in_dir).is_dir():
        raise InputError(f"{in_dir}: not a directory")
    records: list[ShapeRecord] = []
    rejected: dict[str, str] = {}
    seen_ids: set[str] = set()

    for path, category in discover_shape_files(in_dir):
        key = path.relative_to(in_dir).as_posix()
        try:
            if path.suffix == ".dae":
                rec = shape_from_collada(path.read_bytes(), shape_id=path.stem, category=category)
            else:
                rec = parse_json_shape(path.read_bytes())
        except ParseError as exc:
            rejected[key] = f"parse_error:{exc}"
            continue
        if rec.shape_id in seen_ids:
            rejected[key] = f"parse_error:duplicate shape_id '{rec.shape_id}'"
            continue
        keep, reason = filter_shape(rec)
        if not keep:
            rejected[key] = reason
            continue
        seen_ids.add(rec.shape_id)
        records.append(rec)

    categories = sorted({r.category for r in records})
    vocabularies: dict[str, TagVocabulary] = {}
    sufficiency: dict[str, dict] = {}
    for cat in categories:
        cat_recs = [r for r in records if r.category == cat]
        vocab = extract_tags(cat_recs, cat, synonyms=synonyms)
        vocabularies[cat] = vocab
        fractions = []
        for rec in cat_recs:
            # filter_shape kept only shapes with a finite, positive total area
            areas = rec.mesh.triangle_areas()
            tagged = label_points_with_tags(rec.mesh.tri_leaf, rec.hierarchy, vocab) >= 0
            fractions.append(areas[tagged].sum() / areas.sum())
        ok, coverage = tag_sufficiency(fractions)
        sufficiency[cat] = {"sufficient": bool(ok), "coverage": round(coverage, 6)}

    split = split_dataset([r.shape_id for r in records], seed=seed) if len(records) >= 3 \
        else DatasetSplit(tuple(r.shape_id for r in records), (), ())
    report = MineReport(kept=len(records), rejected=rejected, vocabularies=vocabularies,
                        sufficiency=sufficiency, split=split)
    return records, report


def read_json_shape(path) -> ShapeRecord:
    """The native JSON shape in the file at ``path``; a ParseError names it."""
    try:
        return parse_json_shape(Path(path).read_bytes())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_corpus(shape_dir) -> list[ShapeRecord]:
    """Read every native JSON shape under a mined directory, sorted by id.
    Two files giving one shape id raise a ParseError naming both."""
    found: dict[str, tuple[ShapeRecord, Path]] = {}
    for path, _ in discover_shape_files(shape_dir):
        if path.suffix == ".json":
            rec = read_json_shape(path)
            if rec.shape_id in found:
                raise ParseError(f"{found[rec.shape_id][1]} and {path}: "
                                 f"duplicate shape_id '{rec.shape_id}'")
            found[rec.shape_id] = rec, path
    return [found[i][0] for i in sorted(found)]
