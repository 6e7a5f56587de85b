"""Command-line tests: exit codes, run manifests, the synth/pretrain/export
flow, benchmarking, and mining against the golden report."""

import argparse
import json
import os
import shutil
from dataclasses import replace
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import partembed
from partembed import cli
from partembed.cli import main
from partembed.errors import ConfigurationError
from partembed.geometry import PointCloud, read_ply, write_ply
from partembed.ingest import extract_tags, load_corpus, mine_directory, split_dataset
from partembed.network import PenConfig, init_params, load_checkpoint, save_checkpoint
from partembed.synth import SYNTH_SYNONYMS
from partembed.training import PRETRAINED

from helpers import CORE_PROPERTIES, core_ply, ply_bytes

FIXTURES = Path(__file__).parent / "fixtures"

ARCH = {"point_widths": [8, 8], "lift_widths": [16], "decoder_widths": [24],
        "embed_dim": 6, "head_hidden": 6}
TRAIN = {"batch_shapes": 4, "subsample_points": 40, "triplets_per_shape": 16,
         "microbatch": 2, "max_epochs": 2, "head_epochs": 1}


@pytest.fixture()
def configs(tmp_path):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(ARCH))
    train = tmp_path / "train.json"
    train.write_text(json.dumps(TRAIN))
    return arch, train


def _synth(tmp_path, name="corpus", spec="table=5", seed="2", extra=()):
    out = tmp_path / name
    rc = main(["synth", "--out", str(out), "--counts", spec, "--seed", seed, *extra])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# exit codes and manifests
# ---------------------------------------------------------------------------

def test_usage_errors_exit_with_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_configuration_error_exits_2(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_runtime_error_exits_1(tmp_path, capsys):
    rc = main(["pretrain", "--data", str(tmp_path / "empty"), "--out",
               str(tmp_path / "ck.npz")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _checkpoint_missing_lift_widths(tmp_path, corpus):
    ck = _tiny_checkpoint(tmp_path)
    with np.load(ck) as z:
        arrays = {k: z[k] for k in z.files}
    manifest = json.loads(bytes(arrays["__manifest__"]).decode())
    del manifest["config"]["lift_widths"]
    arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(ck, **arrays)
    return ["export-embeddings", "--checkpoint", str(ck), "--data", str(corpus),
            "--out", str(tmp_path / "e"), "--points", "60"]


def _zero_width_arch(tmp_path, corpus):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps({"point_widths": [0]}))
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", str(arch)]


def _negative_lr(tmp_path, corpus):
    arch, train = tmp_path / "arch.json", tmp_path / "train.json"
    arch.write_text(json.dumps(ARCH))
    train.write_text(json.dumps({**TRAIN, "lr": -1}))
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", str(arch), "--train", str(train)]


def _corrupt_checkpoint(tmp_path, corpus):
    ck = tmp_path / "ck.npz"
    ck.write_text("junk\n")
    return ["export-embeddings", "--checkpoint", str(ck), "--data", str(corpus),
            "--out", str(tmp_path / "e"), "--points", "60"]


def _checkpoint_unknown_compression(tmp_path, corpus):
    ck = _tiny_checkpoint(tmp_path)
    data = bytearray(ck.read_bytes())
    # the compression method of the zip directory's first entry
    at = data.index(b"PK\x01\x02") + 10
    data[at:at + 2] = (99).to_bytes(2, "little")
    ck.write_bytes(bytes(data))
    return ["export-embeddings", "--checkpoint", str(ck), "--data", str(corpus),
            "--out", str(tmp_path / "e"), "--points", "60"]


def _arch_not_utf8(tmp_path, corpus):
    arch = tmp_path / "arch.json"
    arch.write_bytes(b'{"point_widths": [4], "\xff": 1}')
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", str(arch)]


def _malformed_manifest(tmp_path, corpus):
    (corpus / "manifest.json").write_text("{bad")
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60"]


def _edit_manifest(corpus, edit):
    manifest = json.loads((corpus / "manifest.json").read_text())
    edit(manifest)
    (corpus / "manifest.json").write_text(json.dumps(manifest))
    return ["pretrain", "--data", str(corpus), "--out", str(corpus / "ck.npz"),
            "--points", "60"]


def _split_without_validation(tmp_path, corpus):
    ids = json.loads((corpus / "manifest.json").read_text())["shape_ids"]
    return _edit_manifest(corpus, lambda m: m.update(split={"train": ids[:2], "test": ids[2:]}))


def _vocabulary_without_tags(tmp_path, corpus):
    return _edit_manifest(corpus, lambda m: m.update(vocabularies={"table": {"counts": {}}}))


def _manifest_synonyms_not_a_map(tmp_path, corpus):
    return _edit_manifest(corpus, lambda m: m.update(synonyms=["x"]))


def _split_overlapping(tmp_path, corpus):
    ids = json.loads((corpus / "manifest.json").read_text())["shape_ids"]
    return _edit_manifest(corpus, lambda m: m.update(
        split={"train": ids, "validation": ids[:1], "test": []}))


def _vocabularies_not_an_object(tmp_path, corpus):
    return _edit_manifest(corpus, lambda m: m.update(vocabularies=[{"tags": ["seat"]}]))


def _vocabulary_not_an_object(tmp_path, corpus):
    return _edit_manifest(corpus, lambda m: m.update(vocabularies={"table": ["seat"]}))


def _vocabulary_synonym_onto_unknown_tag(tmp_path, corpus):
    return _edit_manifest(corpus, lambda m: m.update(
        vocabularies={"table": {"tags": ["top"], "synonyms": {"seats": "seat"}}}))


def _vocabulary_tags(corpus, tags):
    argv = _edit_manifest(corpus, lambda m: m.update(vocabularies={"table": {"tags": tags}}))
    return [*argv, "--epochs", "1"]


def _vocabulary_tags_not_strings(tmp_path, corpus):
    return _vocabulary_tags(corpus, [1])


def _vocabulary_tags_a_string(tmp_path, corpus):
    return _vocabulary_tags(corpus, "seat")


def _mine_synonyms_not_strings(tmp_path, corpus):
    synonyms = tmp_path / "synonyms.json"
    synonyms.write_text(json.dumps({"wheels": 1}))
    return ["mine", "--in", str(corpus), "--out", str(tmp_path / "mined"), "--points", "60",
            "--synonyms", str(synonyms)]


def _align_to(tmp_path, corpus, ply):
    target = tmp_path / "target.ply"
    target.write_bytes(ply)
    return ["mine", "--in", str(corpus), "--out", str(tmp_path / "mined"), "--points", "60",
            "--align-to", str(target)]


BINARY = "format binary_little_endian 1.0"
ROWS = [(0, 0, 0, 1, -1, -1), (1, 0, 0, 1, -1, -1), (0, 1, 0, 1, -1, -1)]


def _ply_without_leaf_id(tmp_path, corpus):
    header = [BINARY, "element vertex 2", "property double x", "property double y",
              "property double z"]
    return _align_to(tmp_path, corpus, ply_bytes(header, np.eye(2, 3).tobytes()))


def _ply_non_numeric(tmp_path, corpus):
    # a binary body holds any bytes; what it can lack is length
    return _align_to(tmp_path, corpus, core_ply(ROWS, n=4))


def _ply_body_longer_than_header(tmp_path, corpus):
    return _align_to(tmp_path, corpus, core_ply(ROWS, n=2))


def _ply_without_end_header(tmp_path, corpus):
    return _align_to(tmp_path, corpus, core_ply([]).replace(b"end_header\n", b""))


def _ply_ascii(tmp_path, corpus):
    # a target that mine aligned to when it read ascii: only the format is at fault
    points = np.random.default_rng(0).normal(size=(50, 3))
    rows = "".join(f"{x} {y} {z} 1 -1 -1\n" for x, y, z in points)
    header = ["format ascii 1.0", f"element vertex {len(points)}", *CORE_PROPERTIES]
    return _align_to(tmp_path, corpus, ply_bytes(header, rows.encode()))


def _ply_vertex_count_not_a_number(tmp_path, corpus):
    return _align_to(tmp_path, corpus, ply_bytes([BINARY, "element vertex abc"]))


def _ply_blank_header_line(tmp_path, corpus):
    return _align_to(tmp_path, corpus, ply_bytes([BINARY, "", "element vertex 1"]))


def _ply_property_without_name(tmp_path, corpus):
    return _align_to(tmp_path, corpus, ply_bytes([BINARY, "element vertex 1", "property double"]))


def _synth_non_integer_count(tmp_path, corpus):
    return ["synth", "--out", str(tmp_path / "s"), "--counts", "table=x"]


def _synth_tag_prob(tmp_path, value):
    return ["synth", "--out", str(tmp_path / "s"), "--counts", "table=3",
            "--tag-prob", f"table={value}"]


def _synth_tag_prob_not_a_number(tmp_path, corpus):
    return _synth_tag_prob(tmp_path, "x")


def _synth_tag_prob_above_one(tmp_path, corpus):
    return _synth_tag_prob(tmp_path, "1.5")


def _synth_tag_prob_for_uncounted_category(tmp_path, corpus):
    # a misspelt category would otherwise leave chair at its default
    return ["synth", "--out", str(tmp_path / "s"), "--counts", "chair=3",
            "--tag-prob", "chiar=0.9"]


# synth takes its settings from flags alone and its noise is a fixed recipe,
# so every synth --config case below exits 2 as an unrecognized argument
def _synth_config(tmp_path, **config):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({"counts": {"table": 3}, **config}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(path)]


def _synth_unknown_noise_key(tmp_path, corpus):
    return _synth_config(tmp_path, noise={"wobble": 1})


def _synth_noise_tag_prob(tmp_path, corpus):
    return _synth_config(tmp_path, noise={"tag_prob": 1.0})


def _unlabeled_segmentation(tmp_path, corpus):
    for path in corpus.glob("table/*.json"):
        shape = json.loads(path.read_text())
        del shape["semantic_labels"]
        path.write_text(json.dumps(shape))
    return ["finetune", "--data", str(corpus), "--out", str(tmp_path / "seg.npz"),
            "--objective", "segmentation", "--category", "table", "--points", "60"]


def _synth_string_tag_prob_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, tag_prob={"table": "x"})


def _synth_tag_prob_list_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, tag_prob=[1])


def _synth_string_count_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, counts={"table": "x"})


def _synth_float_count_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, counts={"table": 3.5})


def _synth_counts_list_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, counts=[1, 2])


def _synth_counts_string_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, counts="chair")


def _synth_unknown_top_level_key(tmp_path, corpus):
    return _synth_config(tmp_path, sead=5)


def _benchmark(tmp_path, corpus, *flags):
    return ["benchmark", "--data", str(corpus), "--out", str(tmp_path / "b"),
            "--axes", "shapes", "--x", "1", "--repeats", "1",
            "--points", "60", "--eval-points", "40", "--epochs", "1", *flags]


def _benchmark_x_not_a_number(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--x", "a")


def _benchmark_points_grid_not_a_number(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--axes", "points", "--points-grid", "1,x")


def _benchmark_negative_x(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--x", "-1")


def _benchmark_zero_eval_points(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--eval-points", "0")


def _benchmark_zero_repeats(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--repeats", "0")


def _tiny_checkpoint(tmp_path):
    ck = tmp_path / "ck.npz"
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), decoder_widths=(), embed_dim=3)
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    return ck


def _benchmark_scratch_checkpoint(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--checkpoint", f"scratch={_tiny_checkpoint(tmp_path)}")


# a variant is named once: a second path for it would otherwise replace the
# first in silence, or mix a shared checkpoint with per-category ones
def _benchmark_checkpoints(tmp_path, corpus, *keys):
    ck = _tiny_checkpoint(tmp_path)
    flags = [f for key in keys for f in ("--checkpoint", f"{key}={ck}")]
    return _benchmark(tmp_path, corpus, *flags)


def _benchmark_checkpoint_given_twice(tmp_path, corpus):
    return _benchmark_checkpoints(tmp_path, corpus, "hierarchy", "hierarchy")


def _benchmark_category_checkpoint_given_twice(tmp_path, corpus):
    return _benchmark_checkpoints(tmp_path, corpus, "tags=table", "tags=table")


def _benchmark_checkpoint_shared_and_per_category(tmp_path, corpus):
    return _benchmark_checkpoints(tmp_path, corpus, "hierarchy", "hierarchy=table")


def _finetune_labeled_shapes(tmp_path, corpus, n):
    return ["finetune", "--data", str(corpus), "--out", str(tmp_path / "seg.npz"),
            "--objective", "segmentation", "--category", "table", "--points", "60",
            "--epochs", "1", "--labeled-shapes", n]


def _finetune_negative_labeled_shapes(tmp_path, corpus):
    return _finetune_labeled_shapes(tmp_path, corpus, "-1")


def _finetune_zero_labeled_shapes(tmp_path, corpus):
    return _finetune_labeled_shapes(tmp_path, corpus, "0")


def _finetune_labeled_shapes_above_pool(tmp_path, corpus):
    # refused before training, as benchmark refuses it
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(ARCH))
    return [*_finetune_labeled_shapes(tmp_path, corpus, "50"), "--arch", str(arch)]


# the command sets the heads and the reconstruction decoder, so an --arch
# file naming one would be overwritten in silence
def _arch_file(tmp_path, **fields):
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps({**ARCH, **fields}))
    return str(arch)


def _pretrain_heads_in_arch(tmp_path, corpus):
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", _arch_file(tmp_path, with_ae=True, n_classes=5)]


def _benchmark_tags_in_arch(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--arch", _arch_file(tmp_path, n_tags=2))


# a checkpoint sets the network sizes, so an --arch beside it goes unread
def _finetune_arch_with_checkpoint(tmp_path, corpus):
    return [*_finetune_labeled_shapes(tmp_path, corpus, "2"), "--arch", _arch_file(tmp_path),
            "--checkpoint", str(_tiny_checkpoint(tmp_path))]


def _finetune_tags(tmp_path, corpus, category):
    arch, train = tmp_path / "arch.json", tmp_path / "train.json"
    arch.write_text(json.dumps(ARCH))
    train.write_text(json.dumps(TRAIN))
    return ["finetune", "--data", str(corpus), "--out", str(tmp_path / "tags.npz"),
            "--objective", "tags", "--category", category, "--points", "80", "--epochs", "1",
            "--arch", str(arch), "--train", str(train)]


def _finetune_tags_without_vocabulary(tmp_path, corpus):
    # as mine writes it for a category none of whose part names is a tag
    _edit_manifest(corpus, lambda m: m.update(vocabularies={"table": {"tags": []}}))
    return _finetune_tags(tmp_path, corpus, "table")


def _finetune_tags_without_validation_chair(tmp_path, corpus):
    # the split derived from these 21 shapes puts no chair in validation
    chairs = tmp_path / "chairs"
    assert main(["synth", "--out", str(chairs), "--counts", "chair=8", "table=13",
                 "--tag-prob", "chair=0.9", "--seed", "0"]) == 0
    return _finetune_tags(tmp_path, chairs, "chair")


def _export_without_shapes(tmp_path, corpus):
    return ["export-embeddings", "--checkpoint", str(_tiny_checkpoint(tmp_path)),
            "--out", str(tmp_path / "e"), "--points", "60"]


def _export_shape_given_twice(tmp_path, corpus):
    # a shape and a copy of it would export one embedding over the other
    shape = corpus / "table" / "table_0000.json"
    copy = tmp_path / "copy.json"
    copy.write_bytes(shape.read_bytes())
    return ["export-embeddings", "--checkpoint", str(_tiny_checkpoint(tmp_path)),
            "--out", str(tmp_path / "e"), "--points", "60", "--shape", str(shape), str(copy)]


def _train_file(tmp_path, corpus, **fields):
    train = tmp_path / "train.json"
    train.write_text(json.dumps({**TRAIN, **fields}))
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--train", str(train)]


def _fractional_max_epochs(tmp_path, corpus):
    return _train_file(tmp_path, corpus, max_epochs=1.5)


def _strategy_in_train_config(tmp_path, corpus):
    # the triplet strategy is the --strategy flag, not a training-config field
    arch, train = tmp_path / "arch.json", tmp_path / "train.json"
    arch.write_text(json.dumps(ARCH))
    train.write_text(json.dumps({**TRAIN, "strategy": "leaf"}))
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", str(arch), "--train", str(train)]


def _mine(tmp_path, corpus, *flags):
    return ["mine", "--in", str(corpus), "--out", str(tmp_path / "mined"), "--points", "60",
            *flags]


# the leaf-count filter is fixed, so its flags are unrecognized arguments
def _mine_reversed_leaf_range(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--min-leaves", "5", "--max-leaves", "2")


def _mine_negative_min_leaves(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--min-leaves", "-3")


def _mine_zero_points(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--points", "0")


def _mine_negative_seed(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--seed", "-1")


def _synth_negative_seed(tmp_path, corpus):
    return ["synth", "--out", str(tmp_path / "s"), "--counts", "table=3", "--seed", "-1"]


def _pretrain_negative_seed(tmp_path, corpus):
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--seed", "-1"]


def _synth_negative_seed_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, seed=-2)


def _synth_string_seed_in_config(tmp_path, corpus):
    return _synth_config(tmp_path, seed="x")


def _seed_in_train_config(tmp_path, corpus):
    # the seed is the --seed flag, which would silently overwrite this key
    arch, train = tmp_path / "arch.json", tmp_path / "train.json"
    arch.write_text(json.dumps(ARCH))
    train.write_text(json.dumps({**TRAIN, "seed": 3}))
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", str(arch), "--train", str(train)]


# the margin and the plateau schedule are constants, not training-config
# fields, so a --train file naming one is refused before training starts
def _train_negative_margin(tmp_path, corpus):
    return _train_file(tmp_path, corpus, margin=-1)


def _train_string_margin(tmp_path, corpus):
    return _train_file(tmp_path, corpus, margin="x")


def _train_negative_min_lr(tmp_path, corpus):
    return _train_file(tmp_path, corpus, min_lr=-1)


def _train_string_min_lr(tmp_path, corpus):
    return _train_file(tmp_path, corpus, min_lr="x")


def _train_string_plateau_patience(tmp_path, corpus):
    return _train_file(tmp_path, corpus, plateau_patience="x")


def _train_nan_plateau_threshold(tmp_path, corpus):
    return _train_file(tmp_path, corpus, plateau_rel_threshold=float("nan"))


def _train_negative_stop_decays(tmp_path, corpus):
    return _train_file(tmp_path, corpus, stop_decays_below=-3)


def _train_infinite_decay_factor(tmp_path, corpus):
    return _train_file(tmp_path, corpus, decay_factor=float("inf"))


def _synth_fractional_sub_leaves(tmp_path, corpus):
    return _synth_config(tmp_path, noise={"max_sub_leaves": 2.5})


def _synth_string_split_parts(tmp_path, corpus):
    return _synth_config(tmp_path, noise={"split_parts": "no"})


def _synth_bool_group_levels(tmp_path, corpus):
    return _synth_config(tmp_path, noise={"max_group_levels": True})


def _synth_integer_group_leaves(tmp_path, corpus):
    return _synth_config(tmp_path, noise={"group_leaves": 0})


@pytest.mark.parametrize("make_argv", [
    _checkpoint_missing_lift_widths, _zero_width_arch, _negative_lr, _corrupt_checkpoint,
    _checkpoint_unknown_compression, _arch_not_utf8, _malformed_manifest,
    _split_without_validation, _vocabulary_without_tags,
    _ply_without_leaf_id, _ply_non_numeric, _synth_non_integer_count, _synth_unknown_noise_key,
    _unlabeled_segmentation, _synth_string_count_in_config, _synth_float_count_in_config,
    _benchmark_x_not_a_number, _benchmark_points_grid_not_a_number, _benchmark_negative_x,
    _benchmark_zero_eval_points, _benchmark_zero_repeats, _finetune_negative_labeled_shapes,
    _finetune_zero_labeled_shapes, _fractional_max_epochs, _synth_noise_tag_prob,
    _mine_synonyms_not_strings, _manifest_synonyms_not_a_map, _ply_vertex_count_not_a_number,
    _ply_blank_header_line, _ply_property_without_name, _synth_string_tag_prob_in_config,
    _synth_tag_prob_list_in_config, _export_without_shapes, _export_shape_given_twice,
    _vocabulary_tags_not_strings,
    _vocabulary_tags_a_string, _strategy_in_train_config, _mine_reversed_leaf_range,
    _mine_negative_min_leaves, _mine_zero_points, _mine_negative_seed,
    _synth_negative_seed, _pretrain_negative_seed, _synth_negative_seed_in_config,
    _synth_string_seed_in_config, _seed_in_train_config, _train_negative_margin,
    _train_string_margin, _train_negative_min_lr, _train_string_min_lr,
    _train_string_plateau_patience, _train_nan_plateau_threshold, _train_negative_stop_decays,
    _train_infinite_decay_factor, _synth_fractional_sub_leaves, _synth_string_split_parts,
    _synth_bool_group_levels, _synth_integer_group_leaves, _synth_counts_list_in_config,
    _synth_counts_string_in_config, _synth_unknown_top_level_key,
    _finetune_labeled_shapes_above_pool, _finetune_tags_without_vocabulary,
    _finetune_tags_without_validation_chair, _ply_body_longer_than_header,
    _ply_without_end_header, _ply_ascii, _synth_tag_prob_not_a_number,
    _synth_tag_prob_above_one, _synth_tag_prob_for_uncounted_category,
    _benchmark_scratch_checkpoint, _benchmark_checkpoint_given_twice,
    _benchmark_category_checkpoint_given_twice, _benchmark_checkpoint_shared_and_per_category,
    _pretrain_heads_in_arch, _benchmark_tags_in_arch, _finetune_arch_with_checkpoint])
def test_bad_configs_exit_with_error_line(tmp_path, capsys, make_argv):
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    argv = make_argv(tmp_path, corpus)
    capsys.readouterr()
    # an exception escaping main is what prints a traceback from the console
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        code = exc.code
    assert code in (1, 2)
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


# each names the file, then the field or the part of the file at fault
@pytest.mark.parametrize("make_argv, file, field", [
    (_split_without_validation, "manifest.json", "split: unknown keys [], missing keys"),
    (_split_overlapping, "manifest.json", "split: split groups overlap"),
    (_vocabularies_not_an_object, "manifest.json", "vocabularies must be an object"),
    (_vocabulary_not_an_object, "manifest.json", "vocabularies must be an object"),
    (_vocabulary_without_tags, "manifest.json", "vocabularies['table']: unknown keys [], "
                                                "missing keys ['tags']"),
    (_vocabulary_tags_not_strings, "manifest.json", "vocabularies['table']: tags must be"),
    (_vocabulary_tags_a_string, "manifest.json", "vocabularies['table']: tags must be"),
    (_vocabulary_synonym_onto_unknown_tag, "manifest.json",
     "vocabularies['table']: synonyms map onto unknown tags"),
    (_manifest_synonyms_not_a_map, "manifest.json", "synonyms must be"),
    (_mine_synonyms_not_strings, "synonyms.json", "synonyms must be"),
    (_zero_width_arch, "arch.json", "point_widths must be"),
    (_negative_lr, "train.json", "lr must be"),
])
def test_manifest_and_config_refusals_name_the_file_and_field(tmp_path, capsys, make_argv,
                                                              file, field):
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    argv = make_argv(tmp_path, corpus)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{file}: {field}" in err


# the real entry point, once for each way out of main
@pytest.mark.parametrize("argv, code", [
    (["synth", "--out", "s", "--counts", "table=3", "--config", "synth.json"], 2),
    (["synth", "--out", "s"], 2),
    (["pretrain", "--data", "empty", "--out", "ck.npz"], 1),
], ids=["usage_error", "configuration_error", "runtime_error"])
def test_entry_point_exits_with_error_line(tmp_path, argv, code):
    src = str(Path(partembed.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "partembed.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def _export_unknown_ids(tmp_path, corpus):
    return [*_export_without_shapes(tmp_path, corpus), "--data", str(corpus), "--ids", "nope"]


def _export_some_unknown_ids(tmp_path, corpus):
    return [*_export_without_shapes(tmp_path, corpus), "--data", str(corpus),
            "--ids", "table_0000,nope"]


def _benchmark_without_checkpoint(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--checkpoint", f"hierarchy={tmp_path / 'gone.npz'}")


def _benchmark_x_above_pool(tmp_path, corpus):
    return _benchmark(tmp_path, corpus, "--x", "9")


# an output directory is made only when there is something to write into it
@pytest.mark.parametrize("make_argv", [
    _finetune_tags_without_vocabulary, _finetune_tags_without_validation_chair,
    _finetune_labeled_shapes_above_pool, _export_unknown_ids, _benchmark_without_checkpoint,
    _benchmark_x_above_pool, _export_some_unknown_ids, _synth_tag_prob_for_uncounted_category,
    _benchmark_scratch_checkpoint, _benchmark_checkpoint_given_twice,
    _benchmark_category_checkpoint_given_twice, _benchmark_checkpoint_shared_and_per_category,
    _pretrain_heads_in_arch, _benchmark_tags_in_arch, _finetune_arch_with_checkpoint])
def test_refused_commands_leave_no_output_directory(tmp_path, capsys, make_argv):
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    argv = make_argv(tmp_path, corpus)
    out = tmp_path / "new" / "out"
    argv[argv.index("--out") + 1] = str(out)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["mine", "pretrain", "finetune", "benchmark",
                                     "export-embeddings"])
def test_points_below_one_is_a_usage_error(tmp_path, capsys, command):
    # rejected by the flag itself, before any corpus is read
    argv = [command, "--points", "0", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--points: must be an integer of at least 1" in capsys.readouterr().err


def test_epochs_below_one_is_refused_by_the_flag_not_blamed_on_the_train_file(tmp_path, capsys,
                                                                              configs):
    _, train = configs
    with pytest.raises(SystemExit) as err:
        main(["pretrain", "--data", str(tmp_path), "--out", str(tmp_path / "ck.npz"),
              "--train", str(train), "--epochs", "0"])
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert "--epochs: must be an integer of at least 1" in err and str(train) not in err


# A flag type is pinned by what it makes of a few probe strings ("error"
# where it refuses one), so renaming a converter does not break the pin.
TYPE_PROBES = ("-1", "0", "1", "a", "1,2", "")
TYPES = {
    "int": (-1, 0, 1, "error", "error", "error"),
    "natural": ("error", 0, 1, "error", "error", "error"),
    "count": ("error", "error", 1, "error", "error", "error"),
    "names": (("-1",), ("0",), ("1",), ("a",), ("1", "2"), "error"),
    "ints": ((-1,), (0,), (1,), "error", (1, 2), "error"),
}


def _type_kind(convert):
    if convert is None:
        return None
    made = []
    for probe in TYPE_PROBES:
        try:
            made.append(convert(probe))
        except Exception:
            made.append("error")
    [kind] = [k for k, v in TYPES.items() if v == tuple(made)]
    return kind


# dest -> (option strings, default, required, choices, nargs, type, action)
OUT = (("--out",), None, True, None, None, None, "_StoreAction")
SEED = (("--seed",), 0, False, None, None, "natural", "_StoreAction")
POINTS = (("--points",), 10000, False, None, None, "count", "_StoreAction")
DATA = (("--data",), None, True, None, None, None, "_StoreAction")
EPOCHS = (("--epochs",), None, False, None, None, "count", "_StoreAction")
JSON_FILE = (None, False, None, None, None, "_StoreAction")
HELP = (("-h", "--help"), "==SUPPRESS==", False, None, 0, None, "_HelpAction")
TRAINING = {"data": DATA, "epochs": EPOCHS, "arch": (("--arch",), *JSON_FILE),
            "train": (("--train",), *JSON_FILE), "out": OUT, "seed": SEED, "points": POINTS,
            "help": HELP}
PARSER_PIN = {
    "synth": {
        "out": OUT, "seed": SEED, "help": HELP,
        "counts": (("--counts",), None, False, None, "*", None, "_StoreAction"),
        "tag_prob": (("--tag-prob",), None, False, None, "*", None, "_StoreAction"),
    },
    "mine": {
        "out": OUT, "seed": SEED, "points": POINTS, "help": HELP,
        "in_dir": (("--in",), None, True, None, None, None, "_StoreAction"),
        "synonyms": (("--synonyms",), *JSON_FILE),
        "align_to": (("--align-to",), *JSON_FILE),
    },
    "pretrain": {
        **TRAINING,
        "strategy": (("--strategy",), "hierarchy", False, ("hierarchy", "leaf", "autoencoder"),
                     None, None, "_StoreAction"),
    },
    "finetune": {
        **TRAINING,
        "objective": (("--objective",), None, True, ("tags", "segmentation"), None, None,
                      "_StoreAction"),
        "category": (("--category",), None, True, None, None, None, "_StoreAction"),
        "checkpoint": (("--checkpoint",), *JSON_FILE),
        "labeled_shapes": (("--labeled-shapes",), None, False, None, None, "count",
                           "_StoreAction"),
    },
    "benchmark": {
        **TRAINING,
        "categories": (("--categories",), None, False, None, None, "names", "_StoreAction"),
        "x": (("--x",), (4, 8, 12, 20, 40, 60, 120), False, None, None, "ints", "_StoreAction"),
        "points_grid": (("--points-grid",), (20, 40, 60, 100, 200, 500), False, None, None,
                        "ints", "_StoreAction"),
        "axes": (("--axes",), ("shapes", "points"), False, None, None, "names", "_StoreAction"),
        "repeats": (("--repeats",), 5, False, None, None, "int", "_StoreAction"),
        "eval_points": (("--eval-points",), 2048, False, None, None, "int", "_StoreAction"),
        "checkpoint": (("--checkpoint",), None, False, None, None, None, "_AppendAction"),
    },
    "export-embeddings": {
        "out": OUT, "seed": SEED, "points": POINTS, "help": HELP,
        "checkpoint": (("--checkpoint",), None, True, None, None, None, "_StoreAction"),
        "data": (("--data",), *JSON_FILE),
        "shape": (("--shape",), None, False, None, "+", None, "_StoreAction"),
        "ids": (("--ids",), None, False, None, None, "names", "_StoreAction"),
    },
}


def test_parser_flags_are_pinned():
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(PARSER_PIN)
    for command, parser in sub.choices.items():
        flags = {a.dest: (tuple(a.option_strings), a.default, a.required, a.choices, a.nargs,
                          _type_kind(a.type), type(a).__name__) for a in parser._actions}
        assert len(flags) == len(parser._actions), command   # one action per dest
        assert flags == PARSER_PIN[command], command
    # export reads exactly one of its two sources
    [group] = sub.choices["export-embeddings"]._mutually_exclusive_groups
    assert group.required and [a.dest for a in group._group_actions] == ["data", "shape"]


def test_run_manifest_contents(tmp_path):
    out = _synth(tmp_path, spec="table=3", seed="9")
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "synth"
    assert run["seed"] == 9
    assert len(run["config_hash"]) == 64
    assert run["outputs"] == [str(out)]
    assert run["started"] <= run["finished"]
    assert run["flags"]["counts"] == ["table=3"]


def test_run_manifest_records_the_synth_seed(tmp_path):
    for out, flags in ((tmp_path / "a", ()), (tmp_path / "b", ("--seed", "8"))):
        assert main(["synth", "--out", str(out), "--counts", "chair=3", *flags]) == 0
        run = json.loads((out / "run.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert run["seed"] == manifest["seed"] == (8 if flags else 0)
        assert run["inputs"] == []


def test_synth_and_mine_refuse_an_out_directory_that_holds_files(tmp_path, capsys):
    # a second run into one --out would leave the first run's shapes and
    # clouds beside its own, and load_corpus would read them all
    one = tmp_path / "one" / "chairs"
    one.mkdir(parents=True)
    shutil.copyfile(FIXTURES / "scenes" / "chairs" / "side_chair.dae", one / "side_chair.dae")
    for first, second in (
            (["synth", "--counts", "table=6"], ["synth", "--counts", "table=3"]),
            (["mine", "--in", str(FIXTURES / "scenes"), "--points", "60"],
             ["mine", "--in", str(one.parent), "--points", "60"])):
        out = tmp_path / first[0]
        assert main([*first, "--out", str(out)]) == 0
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main([*second, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {out} exists")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written
    # an empty directory is a fresh output
    (tmp_path / "empty").mkdir()
    assert main(["synth", "--counts", "table=3", "--out", str(tmp_path / "empty")]) == 0


def test_run_manifest_lists_every_file_read(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=4", seed="3")
    rc = main(["finetune", "--data", str(corpus), "--out", str(tmp_path / "seg.npz"),
               "--objective", "segmentation", "--category", "table", "--points", "60",
               "--epochs", "1", "--arch", str(arch), "--train", str(train)])
    assert rc == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["inputs"] == [str(corpus), str(arch), str(train)]   # no --checkpoint given

    rc = main(["export-embeddings", "--checkpoint", str(tmp_path / "seg.npz"),
               "--data", str(corpus), "--out", str(tmp_path / "e"), "--points", "60"])
    assert rc == 0
    run = json.loads((tmp_path / "e" / "run.json").read_text())
    assert run["inputs"] == [str(tmp_path / "seg.npz"), str(corpus)]


def test_synth_is_deterministic(tmp_path, capsys):
    a = _synth(tmp_path, "a", spec="table=3", seed="4")
    assert "wrote 3 shapes" in capsys.readouterr().out
    b = _synth(tmp_path, "b", spec="table=3", seed="4")
    for rel in sorted(p.relative_to(a) for p in (a / "table").glob("*.json")):
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


# ---------------------------------------------------------------------------
# mining against the golden report
# ---------------------------------------------------------------------------

def test_mine_reproduces_golden_report(tmp_path, capsys):
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(FIXTURES / "scenes"), "--out", str(out),
               "--seed", "0", "--points", "500"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "kept 3 shapes" in stdout

    golden = json.loads((FIXTURES / "golden" / "mine_report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kept"] == golden["kept"]
    assert manifest["reject_counts"] == golden["reject_counts"]
    assert manifest["split"] == golden["split"]
    assert manifest["sufficiency"] == golden["sufficiency"]
    # reject reasons carry parser detail after the class; the class is stable
    classes = {Path(k).stem: v.split(":", 1)[0] for k, v in manifest["rejected"].items()}
    assert classes == golden["rejected_classes"]
    for cat, vocab in golden["vocabularies"].items():
        assert manifest["vocabularies"][cat]["tags"] == vocab["tags"]
        assert manifest["vocabularies"][cat]["counts"] == vocab["counts"]

    # kept shapes are rewritten under their category, clouds next to them
    assert sorted(p.name for p in out.rglob("*.json")) == [
        "club_chair.json", "manifest.json", "run.json", "sedan.json", "side_chair.json"]
    plys = sorted(p.name for p in (out / "clouds").glob("*.ply"))
    assert plys == ["club_chair.ply", "sedan.ply", "side_chair.ply"]
    cloud, extras = read_ply(out / "clouds" / "sedan.ply")
    assert len(cloud) == 500
    assert cloud.tag_id is not None and (cloud.tag_id >= 0).any()


def test_mine_rejects_malformed_numbers_and_mines_the_rest(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    shutil.copytree(FIXTURES / "scenes", scenes)
    sedan = (scenes / "cars" / "sedan.dae").read_text()
    (scenes / "cars" / "short_translate.dae").write_text(
        sedan.replace("<translate>1.6 0 0.5</translate>", "<translate>1.6 0</translate>"))
    chair = (scenes / "chairs" / "side_chair.dae").read_text()
    (scenes / "chairs" / "word_in_floats.dae").write_text(
        chair.replace(">0 0 0 1 0 0 1 1 0 0 1 0<", ">0 0 0 1 0 0 1 one 0 0 1 0<"))
    (scenes / "chairs" / "negative_offset.dae").write_text(
        chair.replace('source="#g_panel_v" offset="0"', 'source="#g_panel_v" offset="-1"'))
    (scenes / "cars" / "unknown_encoding.dae").write_text(
        sedan.replace('encoding="utf-8"', 'encoding="utf-5-8"'))
    shape = {"shape_id": "x", "category": "chairs", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
             "triangles": [[0, 1, 2]] * 2,
             "parents": [None, 0, 0], "names": ["chair", "seat", "back"], "tri_leaf": [1, 2]}
    # a part name in Latin-1
    (scenes / "chairs" / "not_utf8.json").write_bytes(
        json.dumps({**shape, "shape_id": "not_utf8"}).encode().replace(b"seat", b"s\xe9at"))
    (scenes / "chairs" / "huge_index.json").write_text(
        json.dumps({**shape, "shape_id": "huge_index"}).replace("[0, 1, 2]]", "[0, 1, 1e400]]"))
    # the earlier layout: a node list with child lists and triangle ranges
    (scenes / "chairs" / "old_layout.json").write_text(json.dumps(
        {**{k: shape[k] for k in ("category", "vertices", "triangles")}, "shape_id": "old_layout",
         "nodes": [{"id": 0, "parent": None, "name": "chair", "children": [1, 2]},
                   {"id": 1, "parent": 0, "name": "seat", "tri_range": [0, 1]},
                   {"id": 2, "parent": 0, "name": "back", "tri_range": [1, 2]}]}))
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(scenes), "--out", str(out), "--seed", "0",
               "--points", "500"])
    assert rc == 0
    assert "kept 3 shapes" in capsys.readouterr().out

    golden = json.loads((FIXTURES / "golden" / "mine_report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("cars/short_translate.dae", "chairs/word_in_floats.dae"):
        assert manifest["rejected"][name].startswith("parse_error:malformed number: ")
    assert manifest["rejected"]["chairs/negative_offset.dae"] == \
        "parse_error:primitive <input> offset -1 is negative"
    for name, reason in (("cars/unknown_encoding.dae", "malformed XML: unknown encoding"),
                         ("chairs/not_utf8.json", "not UTF-8 text: "),
                         ("chairs/huge_index.json", "triangles is not a numeric array"),
                         ("chairs/old_layout.json", "missing required field 'parents'")):
        assert manifest["rejected"][name].startswith(f"parse_error:{reason}"), name
    classes = {Path(k).stem: v.split(":", 1)[0] for k, v in manifest["rejected"].items()}
    assert classes == {**golden["rejected_classes"], "short_translate": "parse_error",
                       "word_in_floats": "parse_error", "negative_offset": "parse_error",
                       "unknown_encoding": "parse_error", "not_utf8": "parse_error",
                       "huge_index": "parse_error", "old_layout": "parse_error"}
    assert manifest["reject_counts"] == {**golden["reject_counts"], "parse_error": 10}
    for key in ("kept", "split", "sufficiency"):
        assert manifest[key] == golden[key]
    for cat, vocab in golden["vocabularies"].items():
        assert manifest["vocabularies"][cat]["tags"] == vocab["tags"]
        assert manifest["vocabularies"][cat]["counts"] == vocab["counts"]


def test_mine_rejects_degenerate_meshes_and_mines_the_rest(tmp_path, capsys):
    scenes = tmp_path / "scenes"
    shutil.copytree(FIXTURES / "scenes", scenes)
    # two leaves, every vertex at one point: zero total area
    shape = {"shape_id": "collapsed", "category": "chairs",
             "vertices": [[0.5, 0.5, 0.5]] * 3, "triangles": [[0, 1, 2]] * 2,
             "parents": [None, 0, 0], "names": ["chair", "seat", "back"], "tri_leaf": [1, 2]}
    (scenes / "chairs" / "collapsed.json").write_text(json.dumps(shape))
    # JSON reads 1e400 as inf; its area is nan, with no NumPy warning
    (scenes / "chairs" / "infinite_vertex.json").write_text(json.dumps(
        {**shape, "shape_id": "infinite_vertex", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}
    ).replace("[1, 0, 0]", "[1e400, 0, 0]"))
    chair = (scenes / "chairs" / "side_chair.dae").read_text()
    (scenes / "chairs" / "nan_in_floats.dae").write_text(
        chair.replace(">0 0 0 1 0 0 1 1 0 0 1 0<", ">0 0 0 1 0 0 1 nan 0 0 1 0<"))
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(scenes), "--out", str(out), "--seed", "0",
               "--points", "200"])
    assert rc == 0
    assert "kept 3 shapes" in capsys.readouterr().out

    golden = json.loads((FIXTURES / "golden" / "mine_report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rejected"]["chairs/collapsed.json"] == "degenerate_mesh:area 0"
    assert manifest["rejected"]["chairs/nan_in_floats.dae"] == "degenerate_mesh:area nan"
    assert manifest["rejected"]["chairs/infinite_vertex.json"] == "degenerate_mesh:area nan"
    assert manifest["reject_counts"] == {**golden["reject_counts"], "degenerate_mesh": 3}
    for key in ("kept", "split", "sufficiency"):
        assert manifest[key] == golden[key]
    assert sorted(p.stem for p in out.glob("*/*.json")) == ["club_chair", "sedan", "side_chair"]


def test_a_manifest_without_split_or_vocabularies_derives_them(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--counts", "chair=4", "table=3"]) == 0
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert "split" not in manifest and "vocabularies" not in manifest
    records, split, vocabs = cli._load_dataset(corpus)
    assert split == split_dataset([r.shape_id for r in records], seed=0)
    assert vocabs == {cat: extract_tags(records, cat, synonyms=manifest["synonyms"])
                      for cat in ("chair", "table")}
    # the manifest's synonyms are the ones applied
    assert manifest["synonyms"] == SYNTH_SYNONYMS
    assert vocabs["chair"].tags != extract_tags(records, "chair").tags


def test_a_mined_manifest_decodes_to_the_mined_split_and_vocabularies(tmp_path):
    out = tmp_path / "mined"
    assert main(["mine", "--in", str(FIXTURES / "scenes"), "--out", str(out), "--seed", "3",
                 "--points", "50"]) == 0
    _, report = mine_directory(FIXTURES / "scenes", seed=3)
    _, split, vocabs = cli._load_dataset(out)
    assert split == report.split and vocabs == report.vocabularies


def test_a_corpus_read_error_names_the_file(tmp_path, capsys):
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    bad = corpus / "table" / "table_0001.json"
    bad.write_bytes(bad.read_bytes().replace(b'"table_0001"', b'"table_\xe91"'))
    ck = _tiny_checkpoint(tmp_path)
    for argv in (["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck2.npz")],
                 ["export-embeddings", "--checkpoint", str(ck), "--out", str(tmp_path / "e"),
                  "--shape", str(corpus / "table" / "table_0000.json"), str(bad)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text: ")


def test_a_shape_id_in_two_corpus_files_is_refused_naming_both(tmp_path, capsys):
    # a shape file copied into a second category directory: reading on would
    # train on one copy, or export one embedding over the other
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    first = corpus / "table" / "table_0001.json"
    copy = corpus / "chair" / "table_0001.json"
    copy.parent.mkdir()
    copy.write_bytes(first.read_bytes())
    ck = _tiny_checkpoint(tmp_path)
    for argv in (["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck2.npz")],
                 ["export-embeddings", "--checkpoint", str(ck), "--out", str(tmp_path / "e"),
                  "--data", str(corpus)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {copy} and {first}: duplicate shape_id 'table_0001'")
    # --shape reads the files in the order given
    capsys.readouterr()
    assert main(["export-embeddings", "--checkpoint", str(ck), "--out", str(tmp_path / "e"),
                 "--shape", str(first), str(copy)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {first} and {copy}: duplicate shape_id 'table_0001'")
    assert not (tmp_path / "e").exists()


def test_mine_align_to_writes_the_aligned_corpus_once(tmp_path):
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(FIXTURES / "scenes"), "--out", str(out), "--points", "100"])
    assert rc == 0

    target = tmp_path / "target.ply"
    write_ply(target, PointCloud(points=np.random.default_rng(0).normal(size=(100, 3)),
                                 leaf_id=np.zeros(100)))
    aligned = tmp_path / "aligned"
    rc = main(["mine", "--in", str(FIXTURES / "scenes"), "--out", str(aligned),
               "--points", "100", "--align-to", str(target)])
    assert rc == 0
    # the aligned corpus is written once, after alignment, and loads; its
    # clouds are the same draws, moved as their meshes were
    plain, moved = load_corpus(out), load_corpus(aligned)
    assert [r.shape_id for r in moved] == [r.shape_id for r in plain]
    for a, b in zip(plain, moved):
        assert a.mesh.vertices.shape == b.mesh.vertices.shape
        assert not np.allclose(a.mesh.vertices, b.mesh.vertices)
        cloud_a, _ = read_ply(out / "clouds" / f"{a.shape_id}.ply")
        cloud_b, _ = read_ply(aligned / "clouds" / f"{b.shape_id}.ply")
        np.testing.assert_array_equal(cloud_a.leaf_id, cloud_b.leaf_id)
        assert not np.allclose(cloud_a.points, cloud_b.points)


def test_mine_refuses_a_non_finite_align_to_coordinate(tmp_path, capsys):
    argv = _align_to(tmp_path, FIXTURES / "scenes",
                     core_ply([(np.nan, 0, 0, 1, -1, -1), *ROWS[1:]]))
    assert main(argv) == 1
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "mined").exists()


def test_mine_refuses_an_in_path_that_is_not_a_directory(tmp_path, capsys):
    out = tmp_path / "mined"
    assert main(["mine", "--in", str(tmp_path / "nowhere"), "--out", str(out)]) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()
    # an existing empty directory is mined, to nothing
    (tmp_path / "empty").mkdir()
    assert main(["mine", "--in", str(tmp_path / "empty"), "--out", str(out)]) == 0
    assert "kept 0 shapes" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# training flow
# ---------------------------------------------------------------------------

def test_pretrain_finetune_export_flow(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=5", seed="2")
    ck = tmp_path / "pretrained.npz"
    rc = main(["pretrain", "--data", str(corpus), "--out", str(ck),
               "--strategy", "hierarchy", "--points", "80", "--epochs", "2",
               "--arch", str(arch), "--train", str(train)])
    assert rc == 0
    params, cfg, meta = load_checkpoint(ck)
    assert meta["stage"] == "pretrain" and meta["strategy"] == "hierarchy"
    assert meta["epochs"] == 2 and meta["best_epoch"] in (0, 1)
    assert cfg.embed_dim == 6
    assert (tmp_path / "run.json").exists()  # next to the checkpoint

    seg = tmp_path / "seg.npz"
    rc = main(["finetune", "--data", str(corpus), "--out", str(seg),
               "--objective", "segmentation", "--category", "table",
               "--checkpoint", str(ck), "--labeled-shapes", "2",
               "--points", "80", "--epochs", "1", "--train", str(train)])
    assert rc == 0
    _, seg_cfg, seg_meta = load_checkpoint(seg)
    assert seg_meta["stage"] == "finetune_segmentation"
    assert seg_cfg.n_classes == seg_meta["n_classes"] == 2

    exp = tmp_path / "embeds"
    rc = main(["export-embeddings", "--checkpoint", str(ck), "--data", str(corpus),
               "--out", str(exp), "--points", "60", "--ids", "table_0000,table_0001"])
    assert rc == 0
    plys = sorted(exp.glob("*.ply"))
    assert [p.name for p in plys] == ["table_0000.ply", "table_0001.ply"]
    cloud, extras = read_ply(plys[0])
    embed = np.stack([extras[f"e{i}"] for i in range(6)], axis=1)
    assert np.abs(np.linalg.norm(embed, axis=1) - 1.0).max() < 1e-6
    for channel in ("red", "green", "blue"):
        assert extras[channel].min() >= 0 and extras[channel].max() <= 255


def test_pretrain_autoencoder_checkpoint_has_ae(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=4", seed="6")
    ck = tmp_path / "ae.npz"
    rc = main(["pretrain", "--data", str(corpus), "--out", str(ck),
               "--strategy", "autoencoder", "--points", "60", "--epochs", "1",
               "--arch", str(arch), "--train", str(train)])
    assert rc == 0
    params, cfg, meta = load_checkpoint(ck)
    assert cfg.with_ae and any(k.startswith("ae") for k in params)
    assert meta["strategy"] == "autoencoder"


def test_finetune_segmentation_from_another_categorys_head(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=5", seed="2")
    # a chair segmentation checkpoint: four classes, where tables have two
    chair = replace(cli._read_config(PenConfig, arch, {}), n_classes=4)
    ck = tmp_path / "chair_seg.npz"
    save_checkpoint(ck, init_params(chair, np.random.default_rng(0)), chair)
    out = tmp_path / "seg.npz"
    rc = main(["finetune", "--data", str(corpus), "--out", str(out),
               "--objective", "segmentation", "--category", "table",
               "--checkpoint", str(ck), "--labeled-shapes", "2",
               "--points", "80", "--epochs", "1", "--train", str(train)])
    assert rc == 0
    params, cfg, _ = load_checkpoint(out)
    assert cfg.n_classes == 2 and params["seg1.W"].shape == (chair.head_hidden, 2)


def test_finetune_tags_from_scratch(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="chair=5", seed="3",
                    extra=["--tag-prob", "chair=0.9"])
    out = tmp_path / "tags.npz"
    rc = main(["finetune", "--data", str(corpus), "--out", str(out),
               "--objective", "tags", "--category", "chair",
               "--points", "80", "--epochs", "1",
               "--arch", str(arch), "--train", str(train)])
    assert rc == 0
    params, cfg, meta = load_checkpoint(out)
    assert meta["stage"] == "finetune_tags"
    assert cfg.n_tags == len(meta["tags"]) > 0
    assert any(k.startswith("tag") for k in params)


@pytest.mark.parametrize("kind", ["scratch", "metric", "autoencoder", "segmentation", "tags"])
def test_finetune_tags_starts_like_segmentation(tmp_path, configs, monkeypatch, kind):
    arch, train = configs
    corpus = _synth(tmp_path, spec="chair=5", seed="3", extra=["--tag-prob", "chair=0.9"])
    n_tags = len(extract_tags(load_corpus(corpus), "chair", synonyms=SYNTH_SYNONYMS).tags)
    base = cli._read_config(PenConfig, arch, {})
    ckpt_cfg, lent = {
        "scratch": (None, ()),
        "metric": (base, PRETRAINED),
        "autoencoder": (replace(base, with_ae=True, ae_hidden=(5,), ae_points=4),
                        ("enc", "lift")),
        "segmentation": (replace(base, n_classes=2), PRETRAINED),
        "tags": (replace(base, n_tags=n_tags), PRETRAINED),   # another category's, say
    }[kind]
    out = tmp_path / "tags.npz"
    argv = ["finetune", "--data", str(corpus), "--out", str(out), "--objective", "tags",
            "--category", "chair", "--points", "80", "--epochs", "1", "--train", str(train)]
    ckpt = {}
    if ckpt_cfg is None:
        argv += ["--arch", str(arch)]
    else:
        ckpt = init_params(ckpt_cfg, np.random.default_rng(0))
        save_checkpoint(tmp_path / "ck.npz", ckpt, ckpt_cfg)
        argv += ["--checkpoint", str(tmp_path / "ck.npz")]
    starts = []
    real = cli.finetune_tags

    def spy(*args):
        # the pretrained prefixes in force, PRETRAINED when left to the default
        starts.append(({k: v.copy() for k, v in args[0].items()},
                       args[5] if len(args) > 5 else PRETRAINED))
        return real(*args)

    monkeypatch.setattr(cli, "finetune_tags", spy)
    assert main(argv) == 0
    [(start, pretrained)] = starts
    # the lent tensors step at trunk_lr_scale; no other weight is lent
    # (biases start at zero either way)
    assert pretrained == lent
    for name, tensor in start.items():
        if not name.endswith(".W"):
            continue
        reused = name in ckpt and np.array_equal(tensor, ckpt[name])
        assert reused == name.startswith(lent), name
    params, cfg, _ = load_checkpoint(out)
    assert not cfg.with_ae and cfg.n_classes == 0 and cfg.n_tags == n_tags
    assert all(name.startswith(("enc", "lift", "dec", "embed", "tag")) for name in params)


def test_finetune_tags_reads_no_test_shape(tmp_path, capsys):
    argv = _finetune_tags_without_validation_chair(tmp_path, None)
    assert main(argv) == 2
    assert "error: category 'chair': no tagged shape in the validation split" \
        in capsys.readouterr().err
    assert not (tmp_path / "tags.npz").exists()


def test_finetune_tags_trains_on_one_train_and_one_validation_shape(tmp_path):
    corpus = _synth(tmp_path, spec="chair=3", seed="3", extra=["--tag-prob", "chair=0.9"])
    manifest = json.loads((corpus / "manifest.json").read_text())
    train, val, test = manifest["shape_ids"]
    (corpus / "chair" / f"{test}.json").unlink()
    _edit_manifest(corpus, lambda m: m.update(split={"train": [train], "validation": [val],
                                                     "test": [test]}))
    assert main(_finetune_tags(tmp_path, corpus, "chair")) == 0
    _, _, meta = load_checkpoint(tmp_path / "tags.npz")
    assert meta["stage"] == "finetune_tags" and meta["epochs"] == 1


def test_finetune_rejects_unknown_category(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    rc = main(["finetune", "--data", str(corpus), "--out", str(tmp_path / "x.npz"),
               "--objective", "tags", "--category", "spaceship"])
    assert rc == 2


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_cli_writes_tables(tmp_path, configs, capsys):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=8", seed="5")
    out = tmp_path / "bench"
    rc = main(["benchmark", "--data", str(corpus), "--out", str(out),
               "--x", "2", "--axes", "shapes", "--repeats", "2", "--points", "80",
               "--eval-points", "40", "--epochs", "1", "--arch", str(arch), "--train", str(train)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "wrote 2 rows" in stdout and "mIoU" in stdout
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "category,variant,axis,value,repeat,miou,seconds"
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"][0]["repeats"] == 2
    assert (out / "run.json").exists()


def test_benchmark_runs_scratch_then_each_checkpoint_in_order(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=8", seed="5")
    ck = tmp_path / "h.npz"
    cfg = cli._read_config(PenConfig, arch, {})
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    argv = ["benchmark", "--data", str(corpus), "--x", "2", "--axes", "shapes",
            "--repeats", "2", "--points", "60", "--eval-points", "40", "--epochs", "1",
            "--arch", str(arch), "--train", str(train)]
    for name, flags, variants in (
            ("alone", (), ["scratch"]),
            ("both", ("--checkpoint", f"leaf={ck}", "--checkpoint", f"hierarchy={ck}"),
             ["scratch", "leaf", "hierarchy"])):
        assert main([*argv, "--out", str(tmp_path / name), *flags]) == 0
        rows = (tmp_path / name / "metrics.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == variants * 2   # per repeat


def test_checkpoint_flags_name_each_variant_once():
    assert cli._parse_checkpoint_flags(["hierarchy=h.npz", "tags=chair=c.npz",
                                        "tags=table=t.npz"]) == {
        "hierarchy": "h.npz", "tags": {"chair": "c.npz", "table": "t.npz"}}
    for flags, problem in (
            (["hierarchy=a.npz", "hierarchy=b.npz"], "hierarchy given twice"),
            (["tags=chair=a.npz", "tags=chair=b.npz"], "tags=chair given twice"),
            (["tags=a.npz", "tags=chair=b.npz"], "tags given both shared and per category"),
            (["tags=chair=a.npz", "tags=b.npz"], "tags given both shared and per category")):
        with pytest.raises(ConfigurationError) as err:
            cli._parse_checkpoint_flags(flags)
        assert str(err.value) == f"--checkpoint {problem}"


def test_benchmark_missing_checkpoint_exits_2(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=8", seed="5")
    rc = main(["benchmark", "--data", str(corpus), "--out", str(tmp_path / "b"),
               "--x", "2", "--axes", "shapes", "--repeats", "1", "--points", "60",
               "--arch", str(arch), "--train", str(train),
               "--checkpoint", f"hierarchy={tmp_path / 'gone.npz'}"])
    assert rc == 2


def test_benchmark_takes_a_per_category_checkpoint_for_any_variant(tmp_path, configs):
    arch, train = configs
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--counts", "chair=8", "table=8"]) == 0
    cfg = cli._read_config(PenConfig, arch, {})
    ck = tmp_path / "h.npz"
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    out = tmp_path / "bench"
    rc = main(["benchmark", "--data", str(corpus), "--out", str(out),
               "--x", "2", "--axes", "shapes",
               "--repeats", "1", "--points", "60", "--eval-points", "40", "--epochs", "1",
               "--arch", str(arch), "--train", str(train),
               "--checkpoint", f"hierarchy=chair={ck}"])
    assert rc == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    # tables are missing from the hierarchy mapping, so they get scratch only
    assert sorted(r.split(",")[:2] for r in rows) == [
        ["chair", "hierarchy"], ["chair", "scratch"], ["table", "scratch"]]


@pytest.mark.parametrize("source", ["--data", "--shape"])
def test_export_with_no_shapes_exits_2(tmp_path, configs, source):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=4", seed="6")
    ck = tmp_path / "ck.npz"
    main(["pretrain", "--data", str(corpus), "--out", str(ck), "--points", "60",
          "--epochs", "1", "--arch", str(arch), "--train", str(train)])
    inputs = [corpus] if source == "--data" else sorted(corpus.glob("table/*.json"))
    rc = main(["export-embeddings", "--checkpoint", str(ck), source, *map(str, inputs),
               "--out", str(tmp_path / "e"), "--ids", "nope"])
    assert rc == 2


def test_export_ids_narrow_explicit_shapes(tmp_path, capsys):
    corpus = _synth(tmp_path, spec="table=3", seed="6")
    ck = tmp_path / "ck.npz"
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), decoder_widths=(), embed_dim=3)
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    a, b, _ = sorted(corpus.glob("table/*.json"))
    rc = main(["export-embeddings", "--checkpoint", str(ck), "--shape", str(a), str(b),
               "--ids", a.stem, "--out", str(tmp_path / "e"), "--points", "60"])
    assert rc == 0
    assert [p.name for p in (tmp_path / "e").glob("*.ply")] == [f"{a.stem}.ply"]
    # every id the source lacks is named, the corpus's third shape included
    rc = main(["export-embeddings", "--checkpoint", str(ck), "--shape", str(a), str(b),
               "--ids", f"nope,{a.stem},gone,table_0002", "--out", str(tmp_path / "f")])
    assert rc == 2
    assert "error: --ids not found: nope, gone, table_0002" in capsys.readouterr().err
