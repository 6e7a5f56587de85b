import json
from pathlib import Path

import numpy as np
import pytest

from partembed.errors import InputError, SchemaError
from partembed.geometry import PointCloud, sample_surface
from partembed.ingest import (DEFAULT_STOP_PATTERNS, MAX_TAGS, DatasetSplit, FilterPolicy,
                              TagVocabulary, dumps_shape, extract_tags,
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
        "nodes": [
            {"id": 0, "parent": None, "name": "root", "children": [1, 2]},
            {"id": 1, "parent": 0, "name": "a", "tri_range": [0, 1]},
            {"id": 2, "parent": 0, "name": "b", "tri_range": [1, 2]},
        ],
    }


def test_json_round_trip_is_fixpoint():
    rec = sedan()
    text = dumps_shape(rec)
    back = parse_json_shape(text)
    assert dumps_shape(back) == text
    assert back.shape_id == "sedan" and back.category == "cars"
    assert len(back.hierarchy) == len(rec.hierarchy)
    assert len(back.mesh.triangles) == len(rec.mesh.triangles)


def test_round_trip_preserves_triangle_ownership():
    rec = sedan()
    back = parse_json_shape(dumps_shape(rec))
    for t in (rec, back):
        counts = {}
        for leaf in np.unique(t.mesh.tri_leaf):
            counts[t.hierarchy.names[leaf]] = int(np.sum(t.mesh.tri_leaf == leaf))
    assert counts["body"] == 2 and counts["wheel_front_left"] == 1


def test_parse_json_accepts_dict_and_semantic_labels():
    obj = minimal_obj()
    obj["semantic_labels"] = [0, 1]
    rec = parse_json_shape(obj)
    np.testing.assert_array_equal(rec.mesh.tri_semantic, [0, 1])


def test_schema_errors():
    obj = minimal_obj()
    del obj["shape_id"]
    with pytest.raises(SchemaError, match="shape_id"):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][1]["tri_range"] = [0, 2]  # overlaps node 2's range
    with pytest.raises(SchemaError, match="overlap"):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][2]["tri_range"] = [1, 1]  # triangle 1 uncovered
    with pytest.raises(SchemaError, match="cover"):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][0]["children"] = [1]  # disagrees with node 2's parent
    with pytest.raises(SchemaError, match="children"):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][1]["parent"] = 1  # self-loop
    with pytest.raises(SchemaError):
        parse_json_shape(obj)

    with pytest.raises(SchemaError, match="line"):
        parse_json_shape("{not json")

    obj = minimal_obj()
    obj["nodes"][1]["tri_range"] = [0, 99]
    with pytest.raises(SchemaError, match="out of bounds"):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][0]["children"] = [1]
    obj["nodes"][2]["parent"] = 1  # a tri_range node named as a parent
    with pytest.raises(SchemaError):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][0]["children"] = [1, 2, 3]
    obj["nodes"].append({"id": 3, "parent": 0, "name": "g", "children": []})
    with pytest.raises(SchemaError):
        parse_json_shape(obj)

    obj = minimal_obj()
    obj["nodes"][0]["children"] = [1, 2, 3]
    obj["nodes"].append({"id": 3, "parent": 0, "name": "e", "tri_range": [2, 2]})
    rec = parse_json_shape(obj)  # an empty range still makes a leaf
    assert rec.hierarchy.leaves == (1, 2, 3)


def test_filter_policy():
    rec = sedan()
    assert filter_shape(rec)[0]
    keep, reason = filter_shape(rec, FilterPolicy(max_leaves=3))
    assert not keep and reason.startswith("too_many_leaves")
    keep, reason = filter_shape(rec, FilterPolicy(min_leaves=10))
    assert not keep and reason.startswith("too_few_leaves")
    for lo, hi in ((5, 2), (-3, 500), (0, -1)):
        with pytest.raises(InputError):
            FilterPolicy(min_leaves=lo, max_leaves=hi)


def test_filter_rejects_501_leaves():
    obj = {
        "shape_id": "wide", "category": "c",
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "triangles": [[0, 1, 2]] * 501,
        "nodes": [{"id": 0, "parent": None, "name": "r", "children": list(range(1, 502))}] + [
            {"id": i, "parent": 0, "name": f"p{i}", "tri_range": [i - 1, i]}
            for i in range(1, 502)
        ],
    }
    rec = parse_json_shape(obj)
    keep, reason = filter_shape(rec)
    assert not keep and reason == "too_many_leaves:501"
    assert filter_shape(rec, FilterPolicy(max_leaves=501))[0]


def test_extract_tags_with_synonyms_and_stops():
    recs = [sedan()]
    vocab = extract_tags(recs, "cars", synonyms={"wheels": "wheel"})
    assert "wheels" not in vocab.tags
    assert "wheel" in vocab.tags
    assert vocab.synonyms == {"wheels": "wheel"}
    # stop patterns remove candidates entirely
    vocab = extract_tags(recs, "cars", stop_patterns=DEFAULT_STOP_PATTERNS + ("wheel", "wheels"))
    assert "wheel" not in vocab.tags and "wheels" not in vocab.tags


def named_parts(shape_id, names):
    """One triangle per leaf, each leaf a child of a root named 'root'."""
    return parse_json_shape({
        "shape_id": shape_id, "category": "c",
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        "triangles": [[0, 1, 2]] * len(names),
        "nodes": [{"id": 0, "parent": None, "name": "root",
                   "children": list(range(1, len(names) + 1))}] + [
            {"id": i, "parent": 0, "name": name, "tri_range": [i - 1, i]}
            for i, name in enumerate(names, start=1)],
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
    tags = label_points_with_tags(cloud, rec, vocab)
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
    tags = label_points_with_tags(cloud, rec, vocab)
    names = dict(enumerate(rec.hierarchy.names))
    fl = [i for i, n in names.items() if n == "wheel_front_left"][0]
    rl = [i for i, n in names.items() if n == "wheel_rear_left"][0]
    assert set(tags[cloud.leaf_id == fl]) == {0}
    assert set(tags[cloud.leaf_id == rl]) == {1}


def test_untagged_leaves_get_minus_one():
    rec = sedan()
    cloud = sample_surface(rec.mesh, n=500, rng=np.random.default_rng(0))
    vocab = TagVocabulary(category="cars", tags=("zebra",))
    tags = label_points_with_tags(cloud, rec, vocab)
    assert (tags == -1).all()


def test_tag_sufficiency_threshold():
    ok, cov = tag_sufficiency([np.array([0, -1, -1, -1])])
    assert ok and cov == 0.25
    ok, cov = tag_sufficiency([np.full(1000, -1), np.full(1000, -1)])
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


def test_dataset_split_rejects_overlapping_groups():
    with pytest.raises(InputError, match="overlap"):
        DatasetSplit(("a", "b"), ("c",), ("b",))
    with pytest.raises(InputError, match="overlap"):
        DatasetSplit.from_json({"train": ["a"], "validation": ["a"], "test": ["b"]})


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


def test_mine_is_deterministic(tmp_path):
    recs1, r1 = mine_directory(FIXTURES, seed=0)
    recs2, r2 = mine_directory(FIXTURES, seed=0)
    write_corpus(recs1, tmp_path / "a", r1.to_json())
    write_corpus(recs2, tmp_path / "b", r2.to_json())
    assert r1.to_json() == r2.to_json()
    sa = (tmp_path / "a" / "cars" / "sedan.json").read_bytes()
    sb = (tmp_path / "b" / "cars" / "sedan.json").read_bytes()
    assert sa == sb
