"""Corpus ingestion: scene files to shape records, tag mining, dataset splits.

A shape record pairs a triangle mesh with the part hierarchy that owns its
triangles. Records come from COLLADA scene graphs or from the native JSON
format, which holds exactly the arrays a record is built from; they get
filtered on hierarchy size, and are the unit everything downstream
(sampling, triplets, training) consumes.
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
from .config import check, is_int, kind
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
            raise ParseError(f"shape {self.shape_id}: tri_leaf names ids that are not leaves "
                             f"{sorted(used - leaf_set)}")


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
    """Native JSON text of a record: exactly the arrays its constructors
    take, the tree as ``parents`` and ``names`` and triangle ownership as
    ``tri_leaf``. Writing then re-reading is a fixpoint."""
    tree, mesh = rec.hierarchy, rec.mesh
    obj = {
        "shape_id": rec.shape_id,
        "category": rec.category,
        "parents": tree.parents,
        "names": tree.names,
        "vertices": mesh.vertices.tolist(),
        "triangles": mesh.triangles.tolist(),
        "tri_leaf": mesh.tri_leaf.tolist(),
    }
    if mesh.tri_semantic is not None:
        obj["semantic_labels"] = mesh.tri_semantic.tolist()
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
    """Parse the native JSON shape format from UTF-8 bytes. The tree and the
    mesh check themselves as they are built, and any rule they refuse is a
    ParseError here. A file in the earlier layout (a ``nodes`` list with
    child lists and triangle ranges) has no ``parents`` and is refused."""
    try:
        obj = json.loads(data.decode())
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    _expect(isinstance(obj, dict), "top level must be an object")
    for key in ("shape_id", "category", "parents", "names", "vertices", "triangles", "tri_leaf"):
        _expect(key in obj, f"missing required field '{key}'")
    _expect(isinstance(obj["shape_id"], str) and obj["shape_id"], "shape_id must be a nonempty string")
    _expect(isinstance(obj["category"], str), "category must be a string")
    parents, names = obj["parents"], obj["names"]
    _expect(isinstance(parents, list) and all(p is None or is_int(p) for p in parents),
            "parents must be a list of node ids or nulls")
    _expect(isinstance(names, list) and all(isinstance(x, str) for x in names),
            "names must be a list of strings")

    arrays = {}
    try:
        for key in ("vertices", "triangles", "tri_leaf", "semantic_labels"):
            if key in obj:
                arrays[key] = np.asarray(obj[key], dtype=np.float64 if key == "vertices" else np.int64)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"{key} is not a numeric array: {exc}") from exc
    vertices, triangles = arrays["vertices"], arrays["triangles"]
    _expect(vertices.ndim == 2 and vertices.shape[1] == 3 or vertices.size == 0,
            "vertices must be an array of [x, y, z] rows")
    _expect(triangles.ndim == 2 and triangles.shape[1] == 3 or triangles.size == 0,
            "triangles must be an array of [i, j, k] rows")

    try:
        mesh = TriangleMesh(vertices=vertices, triangles=triangles, tri_leaf=arrays["tri_leaf"],
                            tri_semantic=arrays.get("semantic_labels"))
        return ShapeRecord(shape_id=obj["shape_id"], category=obj["category"],
                           mesh=mesh, hierarchy=PartHierarchy(parents, names))
    except InputError as exc:
        raise ParseError(f"invalid shape: {exc}") from exc


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


def read_json_shapes(paths) -> list[ShapeRecord]:
    """The native JSON shapes in the files at ``paths``, in that order. A
    ParseError names the file; two files giving one shape id raise one
    naming both."""
    found: dict[str, Path] = {}
    records = []
    for path in paths:
        try:
            rec = parse_json_shape(Path(path).read_bytes())
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        if rec.shape_id in found:
            raise ParseError(f"{found[rec.shape_id]} and {path}: duplicate shape_id '{rec.shape_id}'")
        found[rec.shape_id] = path
        records.append(rec)
    return records


def load_corpus(shape_dir) -> list[ShapeRecord]:
    """Read every native JSON shape under a mined directory, sorted by id."""
    paths = [path for path, _ in discover_shape_files(shape_dir) if path.suffix == ".json"]
    return sorted(read_json_shapes(paths), key=lambda rec: rec.shape_id)
