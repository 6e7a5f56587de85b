"""Synthetic corpus tests: leaves within semantic parts, hierarchy
variability, tag-name coverage, and byte-stable generation."""

import hashlib

import numpy as np
import pytest

from partembed.errors import InputError
from partembed.ingest import filter_shape, load_corpus, parse_json_shape
from partembed.synth import (
    CATEGORIES,
    DEFAULT_TAG_PROB,
    SYNTH_SYNONYMS,
    generate_corpus,
    generate_shape,
)

# the semantic parts of each archetype, in label order
CATEGORY_LABELS = {
    "chair": ("seat", "back", "leg", "arm"),
    "table": ("top", "leg"),
    "airplane": ("body", "wing", "tail", "engine"),
}

_ALL_POOL_WORDS = tuple(SYNTH_SYNONYMS) + tuple(
    canon for cat in CATEGORY_LABELS.values() for canon in cat)


def _name_is_tagged(name: str) -> bool:
    return any(w in name.lower() for w in _ALL_POOL_WORDS)


def _leaf_names(rec):
    return [rec.hierarchy.names[l] for l in rec.hierarchy.leaves]


def test_default_noise_varies_structure():
    rng = np.random.default_rng(0)
    recs = [generate_shape("chair", f"c{i}", rng) for i in range(12)]
    leaf_counts = {len(r.hierarchy.leaves) for r in recs}
    assert len(leaf_counts) > 1
    heights = {r.hierarchy.height for r in recs}
    assert len(heights) > 1
    assert all(1 <= h <= 4 for h in heights)


@pytest.mark.parametrize("seed", range(4))
def test_each_leaf_lies_in_one_semantic_part(seed):
    # noise splits and nests parts but never puts two in one leaf, and the
    # leaves cover the archetype's parts, labels 0..k-1
    rng = np.random.default_rng(seed)
    for category in CATEGORIES:
        for _ in range(5):
            rec = generate_shape(category, "s", rng)
            labels = set()
            for leaf in rec.hierarchy.leaves:
                sem = np.unique(rec.mesh.tri_semantic[rec.mesh.tri_leaf == leaf])
                assert len(sem) == 1
                labels.add(int(sem[0]))
            assert labels == set(range(len(labels)))


def test_semantic_labels_stay_in_category_range():
    rng = np.random.default_rng(1)
    for category in CATEGORIES:
        rec = generate_shape(category, "s", rng)
        top = int(rec.mesh.tri_semantic.max())
        assert 0 <= rec.mesh.tri_semantic.min() and top < len(CATEGORY_LABELS[category])


def test_tag_prob_drives_leaf_naming():
    rng = np.random.default_rng(2)
    tagged = [generate_shape("table", f"t{i}", rng, tag_prob=1.0) for i in range(4)]
    for rec in tagged:
        assert all(_name_is_tagged(n) for n in _leaf_names(rec))
    untagged = [generate_shape("table", f"u{i}", rng, tag_prob=0.0) for i in range(4)]
    for rec in untagged:
        assert not any(_name_is_tagged(n) for n in _leaf_names(rec))

    names = []
    for i in range(30):
        names += _leaf_names(generate_shape("chair", f"h{i}", rng, tag_prob=0.5))
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
    with pytest.raises(InputError, match="not in counts: chiar"):
        generate_corpus({"chair": 3}, tag_prob={"chiar": 0.9})
    with pytest.raises(InputError):
        generate_shape("boat", "b", np.random.default_rng(0))
    with pytest.raises(InputError, match="probability"):
        generate_shape("table", "t", np.random.default_rng(0), tag_prob=1.5)


def test_tag_prob_argument_sets_leaf_naming_per_category():
    recs = generate_corpus({"table": 3}, seed=4, tag_prob={"table": 1.0})
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

    one = parse_json_shape((tmp_path / "airplane" / "airplane_0000.json").read_bytes())
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


# sha256 over the shape files of generate_corpus({"chair": 3, "table": 3,
# "airplane": 3}, seed) written to disk, each as its relative path, a NUL and
# its bytes, in path order; the ordering gate and the benchmarks train on
# these shapes, so any change to the recipe or its draws shows here
CORPUS_DIGESTS = {
    0: "795cd1af470bb9267eac67c0f154ec9cc6150012cfb42bc2b523c13761f0fe57",
    3: "70db690c4448ff2bb0847b283bb34f7b7d1ec2e00c6dda723ec5bfc02e11b98b",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_bytes_are_pinned(tmp_path, seed):
    generate_corpus({"chair": 3, "table": 3, "airplane": 3}, seed=seed, out_dir=tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.glob("*/*.json")):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == CORPUS_DIGESTS[seed]
