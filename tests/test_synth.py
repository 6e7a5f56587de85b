"""Synthetic corpus tests: noise-off identity with semantic parts, hierarchy
variability, tag-name coverage, and byte-stable generation."""

import numpy as np
import pytest

from partembed.errors import InputError
from partembed.hierarchy import leaves
from partembed.ingest import filter_shape, load_corpus, parse_json_shape
from partembed.synth import (
    CATEGORIES,
    CATEGORY_LABELS,
    DEFAULT_TAG_PROB,
    SYNTH_SYNONYMS,
    NoiseConfig,
    generate_corpus,
    generate_shape,
)

_ALL_POOL_WORDS = tuple(SYNTH_SYNONYMS) + tuple(
    canon for cat in CATEGORY_LABELS.values() for canon in cat)


def _name_is_tagged(name: str) -> bool:
    return any(w in name.lower() for w in _ALL_POOL_WORDS)


def _leaf_names(rec):
    return [rec.hierarchy.node(l).name for l in leaves(rec.hierarchy)]


def test_noise_off_makes_leaves_the_semantic_parts():
    quiet = NoiseConfig(split_parts=False, group_leaves=False)
    for category in CATEGORIES:
        rec = generate_shape(category, "s", np.random.default_rng(5), noise=quiet)
        leaf_ids = leaves(rec.hierarchy)
        # flat tree: every leaf hangs off the root and owns one semantic part
        assert all(rec.hierarchy.node(l).parent == rec.hierarchy.root for l in leaf_ids)
        labels_by_leaf = {}
        for leaf in leaf_ids:
            sem = np.unique(rec.mesh.tri_semantic[rec.mesh.tri_leaf == leaf])
            assert len(sem) == 1
            labels_by_leaf[leaf] = int(sem[0])
        assert sorted(labels_by_leaf.values()) == list(range(len(leaf_ids)))
        assert rec.hierarchy.height == 1


def test_default_noise_varies_structure():
    rng = np.random.default_rng(0)
    recs = [generate_shape("chair", f"c{i}", rng) for i in range(12)]
    leaf_counts = {len(leaves(r.hierarchy)) for r in recs}
    assert len(leaf_counts) > 1
    heights = {r.hierarchy.height for r in recs}
    assert len(heights) > 1
    assert all(1 <= h <= 4 for h in heights)


def test_semantic_labels_stay_in_category_range():
    rng = np.random.default_rng(1)
    for category in CATEGORIES:
        rec = generate_shape(category, "s", rng)
        top = int(rec.mesh.tri_semantic.max())
        assert 0 <= rec.mesh.tri_semantic.min() and top < len(CATEGORY_LABELS[category])


def test_tag_prob_drives_leaf_naming():
    rng = np.random.default_rng(2)
    tagged = [generate_shape("table", f"t{i}", rng, NoiseConfig(tag_prob=1.0))
              for i in range(4)]
    for rec in tagged:
        assert all(_name_is_tagged(n) for n in _leaf_names(rec))
    untagged = [generate_shape("table", f"u{i}", rng, NoiseConfig(tag_prob=0.0))
                for i in range(4)]
    for rec in untagged:
        assert not any(_name_is_tagged(n) for n in _leaf_names(rec))

    names = []
    for i in range(30):
        names += _leaf_names(generate_shape("chair", f"h{i}", rng, NoiseConfig(tag_prob=0.5)))
    frac = np.mean([_name_is_tagged(n) for n in names])
    assert 0.3 < frac < 0.7


def test_generated_shapes_pass_the_mining_filter():
    recs = generate_corpus({"chair": 4, "table": 3, "airplane": 3}, seed=9)
    assert len(recs) == 10
    for rec in recs:
        keep, reason = filter_shape(rec)
        assert keep, f"{rec.shape_id}: {reason}"


def test_corpus_counts_and_tag_prob_validation():
    with pytest.raises(InputError, match="at least 3"):
        generate_corpus({"chair": 2})
    with pytest.raises(InputError):
        generate_shape("boat", "b", np.random.default_rng(0))
    with pytest.raises(InputError):
        NoiseConfig(tag_prob=1.5)
    with pytest.raises(InputError):
        NoiseConfig(max_group_levels=0)


def test_tag_prob_argument_wins_over_noise_config():
    recs = generate_corpus({"table": 3}, seed=4, tag_prob={"table": 1.0},
                           noise=NoiseConfig(tag_prob=0.0))
    for rec in recs:
        assert all(_name_is_tagged(n) for n in _leaf_names(rec))
    # and the default for an unlisted category is DEFAULT_TAG_PROB
    assert DEFAULT_TAG_PROB["table"] == 0.0
    plain = generate_corpus({"table": 3}, seed=4)
    for rec in plain:
        assert not any(_name_is_tagged(n) for n in _leaf_names(rec))


def test_corpus_is_byte_identical_across_runs(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    generate_corpus({"chair": 3, "airplane": 3}, seed=7, out_dir=a_dir)
    generate_corpus({"chair": 3, "airplane": 3}, seed=7, out_dir=b_dir)
    a_files = sorted(p.relative_to(a_dir) for p in a_dir.rglob("*.json"))
    b_files = sorted(p.relative_to(b_dir) for p in b_dir.rglob("*.json"))
    assert a_files == b_files and len(a_files) == 7  # 6 shapes + manifest
    for rel in a_files:
        assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes()

    different = generate_corpus({"chair": 3, "airplane": 3}, seed=8)
    same = generate_corpus({"chair": 3, "airplane": 3}, seed=7)
    assert not np.array_equal(different[0].mesh.vertices, same[0].mesh.vertices)


def test_written_corpus_parses_back(tmp_path):
    recs = generate_corpus({"airplane": 3}, seed=11, out_dir=tmp_path)
    loaded = load_corpus(tmp_path)
    assert [r.shape_id for r in loaded] == [r.shape_id for r in recs]
    for disk, mem in zip(loaded, recs):
        assert disk.category == "airplane"
        assert np.allclose(disk.mesh.vertices, mem.mesh.vertices)
        assert np.array_equal(disk.mesh.tri_leaf, mem.mesh.tri_leaf)
        assert len(disk.hierarchy) == len(mem.hierarchy)

    one = parse_json_shape((tmp_path / "airplane" / "airplane_0000.json").read_text())
    assert one.shape_id == "airplane_0000"


def test_manifest_records_the_recipe(tmp_path):
    import json
    generate_corpus({"chair": 3}, seed=13, tag_prob={"chair": 0.2}, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 13
    assert manifest["counts"] == {"chair": 3}
    assert manifest["tag_prob"] == {"chair": 0.2}
    assert manifest["synonyms"] == SYNTH_SYNONYMS
    assert manifest["shape_ids"] == ["chair_0000", "chair_0001", "chair_0002"]
