"""Property tests of the on-disk formats and of config validation: the native
JSON shape format and PLY clouds read back exactly what was written, and an
architecture config from any JSON object either builds or is refused with
ConfigurationError."""

import json
from dataclasses import asdict, fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from partembed.errors import ConfigurationError
from partembed.geometry import PointCloud, TriangleMesh, read_ply, write_ply
from partembed.hierarchy import build_tree, leaves
from partembed.ingest import ShapeRecord, dumps_shape, parse_json_shape
from partembed.network import PenConfig

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
    tree = build_tree(parents, names)
    n_vert = draw(st.integers(1, 8))
    n_tri = draw(st.integers(0, 10))
    vertices = draw(st.lists(finite, min_size=3 * n_vert, max_size=3 * n_vert))
    triangles = draw(st.lists(st.integers(0, n_vert - 1), min_size=3 * n_tri, max_size=3 * n_tri))
    tri_leaf = draw(st.lists(st.sampled_from(leaves(tree)), min_size=n_tri, max_size=n_tri))
    semantic = draw(st.none() | st.lists(st.integers(-1, 9), min_size=n_tri, max_size=n_tri))
    mesh = TriangleMesh(vertices=vertices, triangles=triangles, tri_leaf=tri_leaf,
                        tri_semantic=semantic)
    return ShapeRecord(shape_id=draw(st.text(min_size=1, max_size=6)),
                       category=draw(st.text(max_size=6)), mesh=mesh, hierarchy=tree)


def _owned_triangles(rec: ShapeRecord) -> dict:
    return {leaf: sorted(map(tuple, rec.mesh.triangles[rec.mesh.tri_leaf == leaf].tolist()))
            for leaf in leaves(rec.hierarchy)}


@FEW
@given(shape_records())
def test_json_shape_round_trip_is_a_fixpoint(rec):
    text = dumps_shape(rec)
    back = parse_json_shape(text)
    assert dumps_shape(back) == text
    assert (back.shape_id, back.category) == (rec.shape_id, rec.category)
    assert [(n.parent, n.name) for n in back.hierarchy.nodes] == \
        [(n.parent, n.name) for n in rec.hierarchy.nodes]
    assert back.mesh.vertices.tobytes() == rec.mesh.vertices.tobytes()
    assert _owned_triangles(back) == _owned_triangles(rec)


@st.composite
def clouds(draw) -> tuple[PointCloud, np.ndarray]:
    """A cloud and 0 to 3 embedding columns. Integer columns are written
    through float64, so they stay exact below 2**53."""
    n = draw(st.integers(1, 20))

    def columns(elements, width):
        return np.array(draw(st.lists(elements, min_size=n * width, max_size=n * width)),
                        dtype=np.float64).reshape(n, width)

    def labels():
        # read_ply reads a column that is -1 throughout as absent
        v = None if draw(st.booleans()) else columns(st.integers(-1, 2**31 - 1), 1)[:, 0]
        return None if v is None or (v == -1).all() else v

    cloud = PointCloud(points=columns(finite, 3),
                       leaf_id=columns(st.integers(0, 2**31 - 1), 1)[:, 0],
                       tag_id=labels(), semantic_label=labels())
    return cloud, columns(finite, draw(st.integers(0, 3)))


@FEW
@given(clouds())
def test_ply_round_trip_is_bit_exact(tmp_path_factory, cloud_and_embeddings):
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


FIELDS = [f.name for f in fields(PenConfig)]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3000) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                              max_size=2),
    max_leaves=8)


def _json_form(cfg: PenConfig):
    return json.loads(json.dumps(asdict(cfg)))


@st.composite
def config_dicts(draw) -> dict:
    """The JSON form of the default config with some fields replaced,
    dropped or added, or an arbitrary JSON value."""
    if draw(st.booleans()):
        return draw(json_values)
    raw = _json_form(PenConfig())
    raw.update(draw(st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=3)))
    for key in draw(st.sets(st.sampled_from(FIELDS), max_size=2)):
        del raw[key]
    raw.update(draw(st.dictionaries(st.text(max_size=4), json_values, max_size=1)))
    return raw


def _is_count(x, least: int) -> bool:
    return type(x) is int and x >= least


@settings(max_examples=200, deadline=None)
@given(config_dicts())
def test_pen_config_from_dict_builds_or_refuses(raw):
    try:
        cfg = PenConfig.from_dict(raw)
    except ConfigurationError:
        return
    # what builds is a config every field of which has its declared type
    for name in ("point_widths", "lift_widths", "decoder_widths", "ae_hidden"):
        widths = getattr(cfg, name)
        assert type(widths) is tuple and all(_is_count(w, 1) for w in widths)
    assert cfg.point_widths and cfg.lift_widths
    assert all(_is_count(getattr(cfg, name), 1)
               for name in ("embed_dim", "head_hidden", "ae_points"))
    assert _is_count(cfg.n_tags, 0) and _is_count(cfg.n_classes, 0)
    assert type(cfg.with_ae) is bool
    assert PenConfig.from_dict(_json_form(cfg)) == cfg
