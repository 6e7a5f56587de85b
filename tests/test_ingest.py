import json
from pathlib import Path

import numpy as np
import pytest

from partembed.config import from_json
from partembed.errors import ConfigurationError, InputError, ParseError
from partembed.geometry import sample_surface
from partembed.synth import generate_corpus
from partembed.ingest import (DEFAULT_STOP_PATTERNS, MAX_LEAVES, MAX_TAGS, MIN_LEAVES,
                              DatasetSplit, TagVocabulary, dumps_shape, extract_tags,
                              filter_shape, label_points_with_tags,
                              load_corpus, mine_directory, parse_json_shape,
                              shape_from_collada, split_dataset,
                              tag_sufficiency, write_corpus)

FIXTURES = Path(__file__).parent / "fixtures" / "scenes"


def sedan():
    return shape_from_collada((FIXTURES / "cars" / "sedan.dae").read_bytes(), "sedan", "cars")


def minimal_obj():
    return {
        "shape_id": "s0",
        "category": "cat",
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "triangles": [[0, 1, 2], [0, 1, 3]],
        "parents": [None, 0, 0],
        "names": ["root", "a", "b"],
        "tri_leaf": [1, 2],
    }


def parse(source):
    """``parse_json_shape`` of a decoded object or of text, given as the UTF-8
    bytes a shape file holds."""
    text = source if isinstance(source, str) else json.dumps(source)
    return parse_json_shape(text.encode())


def test_json_round_trip_is_fixpoint():
    rec = sedan()
    text = dumps_shape(rec)
    back = parse(text)
    assert dumps_shape(back) == text
    assert back.shape_id == "sedan" and back.category == "cars"
    assert len(back.hierarchy) == len(rec.hierarchy)
    assert len(back.mesh.triangles) == len(rec.mesh.triangles)


def test_round_trip_preserves_triangle_ownership():
    rec = sedan()
    back = parse(dumps_shape(rec))
    for t in (rec, back):
        counts = {}
        for leaf in np.unique(t.mesh.tri_leaf):
            counts[t.hierarchy.names[leaf]] = int(np.sum(t.mesh.tri_leaf == leaf))
    assert counts["body"] == 2 and counts["wheel_front_left"] == 1


def test_parse_json_reads_semantic_labels():
    obj = minimal_obj()
    obj["semantic_labels"] = [0, 1]
    rec = parse(obj)
    np.testing.assert_array_equal(rec.mesh.tri_semantic, [0, 1])


def test_schema_errors():
    obj = minimal_obj()
    del obj["shape_id"]
    with pytest.raises(ParseError, match="missing required field 'shape_id'"):
        parse(obj)

    obj = minimal_obj()
    obj["parents"][1] = 1  # self-loop
    with pytest.raises(ParseError, match="invalid shape: node 1 unreachable"):
        parse(obj)

    with pytest.raises(ParseError, match=r"invalid JSON at line \d+"):
        parse("{not json")

    with pytest.raises(ParseError, match="not UTF-8 text"):
        parse_json_shape(json.dumps(minimal_obj()).replace("root", "r\u00f6ot").encode("latin-1"))

    obj = minimal_obj()
    obj["triangles"][1] = [0, 1, float("inf")]   # what JSON's 1e400 reads as
    with pytest.raises(ParseError, match="triangles is not a numeric array"):
        parse(obj)

    obj = minimal_obj()
    obj["semantic_labels"] = [0, float("inf")]
    with pytest.raises(ParseError, match="semantic_labels is not a numeric array"):
        parse(obj)

    obj = minimal_obj()
    obj["parents"].append(0)
    obj["names"].append("e")
    rec = parse(obj)  # a node owning no triangles is still a leaf
    assert rec.hierarchy.leaves == (1, 2, 3)


def _with(**fields):
    return {**minimal_obj(), **fields}


@pytest.mark.parametrize("obj, message", [
    (_with(tri_leaf=[0, 2]), r"tri_leaf names ids that are not leaves \[0\]"),  # the root, a group
    (_with(tri_leaf=[1, 3]), r"tri_leaf names ids that are not leaves \[3\]"),
    (_with(tri_leaf=[1, -1]), r"tri_leaf names ids that are not leaves \[-1\]"),
    (_with(tri_leaf=[1]), "invalid shape: tri_leaf must parallel triangles"),
    (_with(tri_leaf=[1, 2, 2]), "invalid shape: tri_leaf must parallel triangles"),
    (_with(tri_leaf=[1, 2**70]), "tri_leaf is not a numeric array"),
    (_with(tri_leaf={"0": 1}), "tri_leaf is not a numeric array"),
    (_with(parents=[None, True, 0]), "parents must be a list of node ids or nulls"),
    (_with(parents=[None, 1.5, 0]), "parents must be a list of node ids or nulls"),
    (_with(parents=[None, "0", 0]), "parents must be a list of node ids or nulls"),
    (_with(parents={"0": None}), "parents must be a list of node ids or nulls"),
    (_with(parents="[null, 0, 0]"), "parents must be a list of node ids or nulls"),
    (_with(parents=None), "parents must be a list of node ids or nulls"),
    (_with(parents=[None, 0, 3]), "invalid shape: parent 3 of node 2 out of range"),
    (_with(parents=[]), "invalid shape: 3 names for 0 nodes"),
    (_with(names=["root", "a"]), "invalid shape: 2 names for 3 nodes"),
    (_with(names=["root", "a", "b", "c"]), "invalid shape: 4 names for 3 nodes"),
    (_with(names=["root", "a", 2]), "names must be a list of strings"),
    (_with(names="root a b"), "names must be a list of strings"),
    ({key: value for key, value in minimal_obj().items() if key != "tri_leaf"},
     "missing required field 'tri_leaf'"),
    # the earlier layout: a node list with child lists and triangle ranges
    ({**{key: minimal_obj()[key] for key in ("shape_id", "category", "vertices", "triangles")},
      "nodes": [{"id": 0, "parent": None, "name": "root", "children": [1, 2]},
                {"id": 1, "parent": 0, "name": "a", "tri_range": [0, 1]},
                {"id": 2, "parent": 0, "name": "b", "tri_range": [1, 2]}]},
     "^missing required field 'parents'$"),
])
def test_a_malformed_tree_or_ownership_is_a_parse_error(obj, message):
    with pytest.raises(ParseError, match=message):
        parse(obj)


def test_filter_leaf_bounds():
    assert (MIN_LEAVES, MAX_LEAVES) == (2, 500)
    assert filter_shape(sedan())[0]
    assert filter_shape(named_parts("two", ["a", "b"]))[0]
    keep, reason = filter_shape(named_parts("one", ["a"]))
    assert not keep and reason == "too_few_leaves:1"


def test_filter_rejects_501_leaves():
    keep, reason = filter_shape(named_parts("wide", [f"p{i}" for i in range(501)]))
    assert not keep and reason == "too_many_leaves:501"
    assert filter_shape(named_parts("widest", [f"p{i}" for i in range(500)]))[0]


def test_extract_tags_with_synonyms_and_stops():
    recs = [sedan()]
    vocab = extract_tags(recs, "cars", synonyms={"wheels": "wheel"})
    assert "wheels" not in vocab.tags
    assert "wheel" in vocab.tags
    assert vocab.synonyms == {"wheels": "wheel"}
    # stop patterns remove candidates entirely
    names = ["leg_geometry", "mesh_arm", "node"]
    assert {"root", "geometry", "mesh", "node"} <= DEFAULT_STOP_PATTERNS
    assert extract_tags([named_parts("s0", names)], "c").tags == ("arm", "leg")


def named_parts(shape_id, names):
    """One triangle per leaf, each leaf a child of a root named 'root'."""
    return parse({
        "shape_id": shape_id, "category": "c",
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "triangles": [[0, 1, 2]] * len(names),
        "parents": [None] + [0] * len(names),
        "names": ["root", *names],
        "tri_leaf": list(range(1, len(names) + 1)),
    })


def test_extract_tags_ranking_and_cap():
    # 12 distinct tokens, none a substring of another; two also name parts
    # of a second shape, so they count 2 and the other ten count 1
    tokens = ["wheel", "shelf", "seat", "leg", "lamp", "knob",
              "hinge", "foot", "door", "base", "back", "arm"]
    recs = [named_parts("s0", tokens), named_parts("s1", ["wheel", "shelf"])]
    vocab = extract_tags(recs, "c")
    assert MAX_TAGS == 10
    # count first, then alphabetical; the cap cuts the last two, leg and seat
    assert vocab.tags == ("shelf", "wheel", "arm", "back", "base", "door",
                          "foot", "hinge", "knob", "lamp")
    assert vocab.counts == {t: 2 if t in ("shelf", "wheel") else 1 for t in vocab.tags}


def test_vocabulary_rejects_unknown_synonym_target():
    with pytest.raises(InputError):
        TagVocabulary(category="c", tags=("a",), synonyms={"raw": "zzz"})


def test_label_points_deepest_match_wins():
    rec = sedan()
    cloud = sample_surface(rec.mesh, n=2000, rng=np.random.default_rng(0))
    vocab = TagVocabulary(category="cars", tags=("wheel", "car"))
    tags = label_points_with_tags(cloud.leaf_id, rec.hierarchy, vocab)
    names = dict(enumerate(rec.hierarchy.names))
    for leaf in np.unique(cloud.leaf_id):
        got = set(tags[cloud.leaf_id == leaf])
        assert len(got) == 1
        tag = got.pop()
        if names[int(leaf)].startswith("wheel"):
            assert tag == 0  # leaf's own name matches, not the distant root
        else:
            assert tag == 1  # body walks up to "car"


def test_label_points_vocab_order_breaks_ties():
    rec = sedan()
    cloud = sample_surface(rec.mesh, n=500, rng=np.random.default_rng(0))
    # both tags match wheel leaves; the earlier one wins
    vocab = TagVocabulary(category="cars", tags=("front", "wheel"))
    tags = label_points_with_tags(cloud.leaf_id, rec.hierarchy, vocab)
    names = dict(enumerate(rec.hierarchy.names))
    fl = [i for i, n in names.items() if n == "wheel_front_left"][0]
    rl = [i for i, n in names.items() if n == "wheel_rear_left"][0]
    assert set(tags[cloud.leaf_id == fl]) == {0}
    assert set(tags[cloud.leaf_id == rl]) == {1}


def test_untagged_leaves_get_minus_one():
    rec = sedan()
    cloud = sample_surface(rec.mesh, n=500, rng=np.random.default_rng(0))
    vocab = TagVocabulary(category="cars", tags=("zebra",))
    tags = label_points_with_tags(cloud.leaf_id, rec.hierarchy, vocab)
    assert (tags == -1).all()


def test_tag_sufficiency_threshold():
    ok, cov = tag_sufficiency([0.25])
    assert ok and cov == 0.25
    ok, cov = tag_sufficiency([0.0, 0.0])
    assert not ok and cov == 0.0
    assert tag_sufficiency([]) == (False, 0.0)


def test_split_dataset_properties():
    ids = [f"s{i}" for i in range(40)]
    split = split_dataset(ids, seed=1)
    assert len(split.validation) == 6 and len(split.test) == 4
    assert len(split.train) == 30
    assert set(split.train) | set(split.validation) | set(split.test) == set(ids)
    assert split == split_dataset(ids, seed=1)
    assert split != split_dataset(ids, seed=2)
    with pytest.raises(InputError):
        split_dataset(["a", "b"])
    with pytest.raises(InputError):
        split_dataset(["a", "a", "b"])
    tiny = split_dataset(["a", "b", "c"], seed=0)
    assert len(tiny.train) == len(tiny.validation) == len(tiny.test) == 1


@pytest.mark.parametrize("n", range(3, 501))
def test_split_sizes_round_the_shares_and_train_keeps_the_rest(n):
    ids = [f"s{i}" for i in range(n)]
    split = split_dataset(ids, seed=n)
    n_val = max(1, int(np.floor(0.15 * n + 0.5)))
    n_test = max(1, int(np.floor(0.10 * n + 0.5)))
    assert len(split.validation) == n_val and len(split.test) == n_test
    assert len(split.train) == n - n_val - n_test >= 1
    groups = [set(split.train), set(split.validation), set(split.test)]
    assert sum(map(len, groups)) == n and set().union(*groups) == set(ids)


def test_dataset_split_rejects_overlapping_groups():
    with pytest.raises(InputError, match="overlap"):
        DatasetSplit(("a", "b"), ("c",), ("b",))
    # decoded from JSON, the broken rule is a refusal of the named input
    with pytest.raises(ConfigurationError, match="^manifest split: split groups overlap"):
        from_json(DatasetSplit, {"train": ["a"], "validation": ["a"], "test": ["b"]},
                  "manifest split")


def test_mine_directory_counts_and_outputs(tmp_path):
    records, report = mine_directory(FIXTURES, seed=0)
    write_corpus(records, tmp_path / "out", report.to_json())
    assert report.kept == 3
    assert report.reject_counts == {"parse_error": 3, "too_few_leaves": 1}
    assert sorted(r.shape_id for r in records) == ["club_chair", "sedan", "side_chair"]
    assert {r.category for r in records} == {"cars", "chairs"}
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["kept"] == 3
    assert (tmp_path / "out" / "cars" / "sedan.json").exists()
    # mined output re-loads identically
    back = load_corpus(tmp_path / "out")
    assert [r.shape_id for r in back] == ["club_chair", "sedan", "side_chair"]
    assert dumps_shape(back[1]) == dumps_shape([r for r in records if r.shape_id == "sedan"][0])


def test_mine_report_keys_rejects_by_path(tmp_path):
    # two malformed files sharing a stem are two entries, counted once each
    for category in ("chairs", "cars"):
        (tmp_path / category).mkdir()
        (tmp_path / category / "x.dae").write_text("<COLLADA")
    _, report = mine_directory(tmp_path, seed=0)
    assert sorted(report.rejected) == ["cars/x.dae", "chairs/x.dae"]
    assert report.reject_counts == {"parse_error": 2}


def test_mine_is_deterministic(tmp_path):
    recs1, r1 = mine_directory(FIXTURES, seed=0)
    recs2, r2 = mine_directory(FIXTURES, seed=0)
    write_corpus(recs1, tmp_path / "a", r1.to_json())
    write_corpus(recs2, tmp_path / "b", r2.to_json())
    assert r1.to_json() == r2.to_json()
    sa = (tmp_path / "a" / "cars" / "sedan.json").read_bytes()
    sb = (tmp_path / "b" / "cars" / "sedan.json").read_bytes()
    assert sa == sb


def sparse_chairs(out_dir):
    # 12 chairs whose leaves rarely carry a part name; their exact tagged
    # share of surface area, 0.00992, sits just under MIN_TAG_COVERAGE
    generate_corpus({"chair": 12}, seed=0, tag_prob={"chair": 0.02}, out_dir=out_dir)


def test_mine_coverage_does_not_depend_on_seed(tmp_path):
    sparse_chairs(tmp_path)
    _, r0 = mine_directory(tmp_path, seed=0)
    _, r3 = mine_directory(tmp_path, seed=3)
    assert r0.sufficiency == r3.sufficiency
    assert r0.to_json()["vocabularies"] == r3.to_json()["vocabularies"]
    assert r0.sufficiency["chair"] == {"sufficient": False, "coverage": 0.009921}


def test_mine_coverage_does_not_depend_on_other_categories(tmp_path):
    sparse_chairs(tmp_path)
    _, alone = mine_directory(tmp_path, seed=0)
    generate_corpus({"airplane": 5}, seed=1, out_dir=tmp_path)
    _, mixed = mine_directory(tmp_path, seed=0)
    assert "airplane" in mixed.sufficiency
    assert mixed.sufficiency["chair"] == alone.sufficiency["chair"]


def test_mine_coverage_is_the_tagged_share_of_area(tmp_path):
    # leaf 1 (triangle area 1) is named by a tag; leaf 2 (area 2) and the
    # root carry stop patterns only, so a third of the surface is tagged
    obj = {
        "shape_id": "s0",
        "category": "cat",
        "vertices": [[0, 0, 0], [2, 0, 0], [0, 1, 0], [0, 2, 0]],
        "triangles": [[0, 1, 2], [0, 1, 3]],
        "parents": [None, 0, 0],
        "names": ["root", "wheel", "geometry"],
        "tri_leaf": [1, 2],
    }
    (tmp_path / "cat").mkdir()
    (tmp_path / "cat" / "s0.json").write_text(json.dumps(obj))
    _, report = mine_directory(tmp_path, seed=0)
    assert report.vocabularies["cat"].tags == ("wheel",)
    assert report.sufficiency["cat"] == {"sufficient": True, "coverage": 0.333333}
