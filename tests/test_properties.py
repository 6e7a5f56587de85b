"""Property tests of the on-disk formats and of config validation: the native
JSON shape format and PLY clouds read back exactly what was written, a
mutated copy of any file a command reads either parses or raises ParseError,
and an architecture or training config, or a corpus manifest's split or tag
vocabulary, from any JSON value either builds or is refused with
ConfigurationError."""

import io
import json
import math
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partembed.config import from_json
from partembed.errors import ConfigurationError, ParseError
from partembed.geometry import PointCloud, TriangleMesh, read_ply, write_ply
from partembed.hierarchy import PartHierarchy
from partembed.ingest import (DatasetSplit, ShapeRecord, TagVocabulary, dumps_shape,
                              parse_json_shape, shape_from_collada)
from partembed.network import PenConfig, init_params, load_checkpoint, save_checkpoint
from partembed.training import TrainConfig

FEW = settings(max_examples=60, deadline=None)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def shape_records(draw) -> ShapeRecord:
    """A random tree with ids in random order, and a random mesh whose
    triangles each belong to one of its leaves."""
    n = draw(st.integers(1, 12))
    grown = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    ids = draw(st.permutations(range(n)))
    parents = [None] * n
    for i, p in enumerate(grown):
        parents[ids[i]] = None if p is None else ids[p]
    names = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n))
    tree = PartHierarchy(parents, names)
    n_vert = draw(st.integers(1, 8))
    n_tri = draw(st.integers(0, 10))
    vertices = draw(st.lists(finite, min_size=3 * n_vert, max_size=3 * n_vert))
    triangles = draw(st.lists(st.integers(0, n_vert - 1), min_size=3 * n_tri, max_size=3 * n_tri))
    tri_leaf = draw(st.lists(st.sampled_from(tree.leaves), min_size=n_tri, max_size=n_tri))
    semantic = draw(st.none() | st.lists(st.integers(-1, 9), min_size=n_tri, max_size=n_tri))
    mesh = TriangleMesh(vertices=vertices, triangles=triangles, tri_leaf=tri_leaf,
                        tri_semantic=semantic)
    return ShapeRecord(shape_id=draw(st.text(min_size=1, max_size=6)),
                       category=draw(st.text(max_size=6)), mesh=mesh, hierarchy=tree)


def _owned_triangles(rec: ShapeRecord) -> dict:
    return {leaf: sorted(map(tuple, rec.mesh.triangles[rec.mesh.tri_leaf == leaf].tolist()))
            for leaf in rec.hierarchy.leaves}


@FEW
@given(shape_records())
def test_json_shape_round_trip_is_a_fixpoint(rec):
    text = dumps_shape(rec)
    back = parse_json_shape(text.encode())
    assert dumps_shape(back) == text
    assert (back.shape_id, back.category) == (rec.shape_id, rec.category)
    assert (back.hierarchy.parents, back.hierarchy.names) == \
        (rec.hierarchy.parents, rec.hierarchy.names)
    assert back.mesh.vertices.tobytes() == rec.mesh.vertices.tobytes()
    assert _owned_triangles(back) == _owned_triangles(rec)


@st.composite
def clouds(draw) -> tuple[PointCloud, np.ndarray]:
    """A cloud and 0 to 3 embedding columns. Integer columns are PLY int,
    so their values are drawn from the whole int32 range."""
    n = draw(st.integers(1, 20))

    def columns(elements, width):
        return np.array(draw(st.lists(elements, min_size=n * width, max_size=n * width)),
                        dtype=np.float64).reshape(n, width)

    def labels():
        # read_ply reads a column that is -1 throughout as absent
        v = None if draw(st.booleans()) else columns(st.integers(-2**31, 2**31 - 1), 1)[:, 0]
        return None if v is None or (v == -1).all() else v

    cloud = PointCloud(points=columns(finite, 3),
                       leaf_id=columns(st.integers(-2**31, 2**31 - 1), 1)[:, 0],
                       tag_id=labels(), semantic_label=labels())
    return cloud, columns(finite, draw(st.integers(0, 3)))


@FEW
@given(clouds())
def test_ply_round_trip_is_bit_exact(tmp_path_factory, cloud_and_embeddings):
    """Every column comes back bit for bit: coordinates and embeddings as the
    float64 written, integer columns as the int32 written, with no pass of
    the integers through float64."""
    cloud, embeddings = cloud_and_embeddings
    path = tmp_path_factory.mktemp("ply") / "c.ply"
    write_ply(path, cloud, embeddings=embeddings if embeddings.size else None)
    back, extra = read_ply(path)
    assert back.points.tobytes() == cloud.points.tobytes()
    assert np.array_equal(back.leaf_id, cloud.leaf_id)
    for name in ("tag_id", "semantic_label"):
        want, got = getattr(cloud, name), getattr(back, name)
        assert (got is None and want is None) or np.array_equal(got, want)
    got = np.stack([extra[f"e{i}"] for i in range(embeddings.shape[1])], axis=1) \
        if embeddings.size else np.zeros((len(cloud), 0))
    assert got.tobytes() == embeddings.tobytes()


json_scalars = (st.none() | st.booleans() | st.integers(-3, 3000) | st.floats()
                | st.text(max_size=3)
                | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                              max_size=2),
    max_leaves=8)


# ---------------------------------------------------------------------------
# mutated files
# ---------------------------------------------------------------------------

SCENES = Path(__file__).parent / "fixtures" / "scenes"
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
EXTREME_NUMBERS = [b"1e400", b"-1e400", b"-1", b"0", b"-0", b"1.5", b"nan",
                   b"99999999999999999999"]
MUTATED = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def mutated(draw, originals) -> bytes:
    """One of ``originals`` after one to four mutations, each a flipped bit,
    a deleted span, inserted bytes or a numeric token swapped for an
    extreme one."""
    data = bytearray(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "delete", "insert", "number"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 16))]
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "number":
            tokens = list(NUMBER.finditer(data))
            if tokens:
                m = tokens[draw(st.integers(0, len(tokens) - 1))]
                data[m.start():m.end()] = draw(st.sampled_from(EXTREME_NUMBERS))
    return bytes(data)


def _collada_files() -> list[bytes]:
    return [path.read_bytes() for path in sorted(SCENES.rglob("*.dae"))]


def _json_shapes() -> list[bytes]:
    out = []
    for name in ("cars/sedan.dae", "chairs/side_chair.dae"):
        rec = shape_from_collada((SCENES / name).read_bytes(), Path(name).stem)
        out.append(dumps_shape(rec).encode())
    return out


def _ply_files(tmp_path_factory) -> list[bytes]:
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("ply") / "c.ply"
    cloud = PointCloud(points=rng.standard_normal((6, 3)), leaf_id=np.arange(6) % 2,
                       semantic_label=np.arange(6) % 3)
    write_ply(path, cloud, embeddings=rng.standard_normal((6, 2)))
    return [path.read_bytes()]


def _checkpoints() -> list[bytes]:
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), decoder_widths=(), embed_dim=3)
    buf = io.BytesIO()
    save_checkpoint(buf, init_params(cfg, np.random.default_rng(0)), cfg, {"seed": 0})
    return [buf.getvalue()]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    return {"collada": _collada_files(), "json": _json_shapes(),
            "ply": _ply_files(tmp_path_factory), "checkpoint": _checkpoints()}


def _read_file(reader, suffix):
    """``reader`` applied to a file holding the given bytes, as a command
    opens it."""
    def read(tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / f"mutated{suffix}"
        path.write_bytes(data)
        return reader(path)
    return read


READERS = {
    "collada": lambda _, data: shape_from_collada(data, "mutated", "chairs"),
    "json": lambda _, data: parse_json_shape(data),
    "ply": _read_file(read_ply, ".ply"),
    "checkpoint": _read_file(load_checkpoint, ".npz"),
}


@pytest.mark.parametrize("fmt", list(READERS))
def test_a_mutated_file_parses_or_raises_parse_error(fmt, originals, tmp_path_factory):
    @MUTATED
    @given(mutated(originals[fmt]))
    def check(data):
        try:
            READERS[fmt](tmp_path_factory, data)
        except ParseError:
            pass

    check()


def _json_form(cfg):
    return json.loads(json.dumps(asdict(cfg)))


# a valid instance of each class the codec decodes
BASES = {
    PenConfig: PenConfig(), TrainConfig: TrainConfig(),
    DatasetSplit: DatasetSplit(("a", "b"), ("c",), ()),
    TagVocabulary: TagVocabulary("chair", ("seat", "back"), {"seats": "seat"},
                                 {"seat": 3, "back": 1}),
}


@st.composite
def config_dicts(draw, cls) -> dict:
    """An arbitrary JSON value, or the JSON form of the class's base instance
    with some fields replaced and, now and then, some dropped or added."""
    if draw(st.integers(0, 3)) == 3:
        return draw(json_values)
    names = [f.name for f in fields(cls)]
    raw = _json_form(BASES[cls])
    raw.update(draw(st.dictionaries(st.sampled_from(names), json_scalars | json_values,
                                    max_size=2)))
    if draw(st.integers(0, 3)) == 3:
        for key in draw(st.sets(st.sampled_from(names), max_size=2)):
            del raw[key]
        raw.update(draw(st.dictionaries(st.text(max_size=4), json_values, max_size=1)))
    return raw


def _is_count(x, least: int) -> bool:
    return type(x) is int and x >= least


def _is_real(x, above: float, strict: bool) -> bool:
    """A JSON number that a float can hold, at least (or, when ``strict``,
    above) ``above``."""
    if type(x) is int:
        fits = abs(x) <= sys.float_info.max
    else:
        fits = type(x) is float and -math.inf < x < math.inf
    return fits and (x > above if strict else x >= above)


def _pen_config_is_typed(cfg: PenConfig) -> None:
    for name in ("point_widths", "lift_widths", "decoder_widths", "ae_hidden"):
        widths = getattr(cfg, name)
        assert type(widths) is tuple and all(_is_count(w, 1) for w in widths)
    assert cfg.point_widths and cfg.lift_widths
    assert all(_is_count(getattr(cfg, name), 1)
               for name in ("embed_dim", "head_hidden", "ae_points"))
    assert _is_count(cfg.n_tags, 0) and _is_count(cfg.n_classes, 0)
    assert type(cfg.with_ae) is bool


def _train_config_is_typed(tc: TrainConfig) -> None:
    assert all(_is_count(getattr(tc, name), 1) for name in (
        "batch_shapes", "subsample_points", "triplets_per_shape", "max_epochs", "microbatch"))
    assert _is_count(tc.seed, 0) and _is_count(tc.head_epochs, 0)
    assert _is_real(tc.lr, 0, strict=True)
    assert _is_real(tc.trunk_lr_scale, 0, strict=False)


def _strings(x) -> bool:
    """A tuple of distinct strings."""
    return type(x) is tuple and all(type(s) is str for s in x) and len(set(x)) == len(x)


def _split_is_typed(split: DatasetSplit) -> None:
    groups = (split.train, split.validation, split.test)
    assert all(map(_strings, groups)) and _strings(sum(groups, ()))


def _vocabulary_is_typed(vocab: TagVocabulary) -> None:
    assert type(vocab.category) is str and _strings(vocab.tags)
    assert type(vocab.synonyms) is dict and all(
        type(raw) is str and canon in vocab.tags for raw, canon in vocab.synonyms.items())
    assert type(vocab.counts) is dict and all(
        type(tag) is str and _is_count(n, 0) for tag, n in vocab.counts.items())


IS_TYPED = {PenConfig: _pen_config_is_typed, TrainConfig: _train_config_is_typed,
            DatasetSplit: _split_is_typed, TagVocabulary: _vocabulary_is_typed}


@pytest.mark.parametrize("cls", IS_TYPED, ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_config_from_json_builds_or_refuses(cls, data):
    raw = data.draw(config_dicts(cls))
    try:
        cfg = from_json(cls, raw, cls.__name__)
    except ConfigurationError:
        return
    # what builds is a config every field of which has its declared type
    IS_TYPED[cls](cfg)
    assert from_json(cls, _json_form(cfg), cls.__name__) == cfg


# one value of the wrong kind for each field of the manifest's classes
WRONG = {"train": 1, "validation": ["a", 2], "test": "c", "category": 3,
         "tags": ["seat", "seat"], "synonyms": {"seats": 1}, "counts": {"seat": -1}}


@pytest.mark.parametrize("cls", [DatasetSplit, TagVocabulary], ids=lambda cls: cls.__name__)
def test_manifest_classes_round_trip_and_name_the_file_and_a_wrong_field(cls):
    raw = _json_form(BASES[cls])
    assert from_json(cls, raw, "c/manifest.json") == BASES[cls]
    for f in fields(cls):
        with pytest.raises(ConfigurationError, match=rf"^c/manifest\.json: {f.name} must be "):
            from_json(cls, {**raw, f.name: WRONG[f.name]}, "c/manifest.json")
