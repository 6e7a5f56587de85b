"""Command-line tests: exit codes, run manifests, the synth/pretrain/export
flow, benchmarking, and mining against the golden report."""

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
from partembed.geometry import PointCloud, read_ply, write_ply
from partembed.ingest import extract_tags, load_corpus
from partembed.network import PenConfig, init_params, load_checkpoint, save_checkpoint
from partembed.synth import SYNTH_SYNONYMS
from partembed.training import PRETRAINED

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
    ck = tmp_path / "ck.npz"
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), decoder_widths=(), embed_dim=3)
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
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


def _align_to(tmp_path, corpus, ply_text):
    target = tmp_path / "target.ply"
    target.write_text(ply_text)
    return ["mine", "--in", str(corpus), "--out", str(tmp_path / "mined"), "--points", "60",
            "--align-to", str(target)]


def _ply_without_leaf_id(tmp_path, corpus):
    return _align_to(tmp_path, corpus, "ply\nformat ascii 1.0\nelement vertex 2\n"
                     "property float x\nproperty float y\nproperty float z\nend_header\n"
                     "0 0 0\n1 1 1\n")


def _ply_non_numeric(tmp_path, corpus):
    props = "".join(f"property double {name}\n" for name in ("x", "y", "z"))
    props += "".join(f"property int {name}\n" for name in ("leaf_id", "tag_id", "label"))
    return _align_to(tmp_path, corpus, "ply\nformat ascii 1.0\nelement vertex 1\n"
                     f"{props}end_header\na b c 0 -1 -1\n")


def _ply_vertex_count_not_a_number(tmp_path, corpus):
    return _align_to(tmp_path, corpus, "ply\nformat ascii 1.0\nelement vertex abc\nend_header\n")


def _ply_blank_header_line(tmp_path, corpus):
    return _align_to(tmp_path, corpus, "ply\nformat ascii 1.0\n\nelement vertex 1\nend_header\n")


def _ply_property_without_name(tmp_path, corpus):
    return _align_to(tmp_path, corpus, "ply\nformat ascii 1.0\nelement vertex 1\n"
                     "property double\nend_header\n")


def _synth_non_integer_count(tmp_path, corpus):
    return ["synth", "--out", str(tmp_path / "s"), "--counts", "table=x"]


def _synth_unknown_noise_key(tmp_path, corpus):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": {"table": 3}, "noise": {"wobble": 1}}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


def _synth_noise_tag_prob(tmp_path, corpus):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": {"table": 3}, "noise": {"tag_prob": 1.0}}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


def _unlabeled_segmentation(tmp_path, corpus):
    for path in corpus.glob("table/*.json"):
        shape = json.loads(path.read_text())
        del shape["semantic_labels"]
        path.write_text(json.dumps(shape))
    return ["finetune", "--data", str(corpus), "--out", str(tmp_path / "seg.npz"),
            "--objective", "segmentation", "--category", "table", "--points", "60"]


def _synth_config_counts(tmp_path, counts):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": counts}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


def _synth_config_tag_prob(tmp_path, tag_prob):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": {"table": 3}, "tag_prob": tag_prob}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


def _synth_string_tag_prob_in_config(tmp_path, corpus):
    return _synth_config_tag_prob(tmp_path, {"table": "x"})


def _synth_tag_prob_list_in_config(tmp_path, corpus):
    return _synth_config_tag_prob(tmp_path, [1])


def _synth_string_count_in_config(tmp_path, corpus):
    return _synth_config_counts(tmp_path, {"table": "x"})


def _synth_float_count_in_config(tmp_path, corpus):
    return _synth_config_counts(tmp_path, {"table": 3.5})


def _synth_counts_list_in_config(tmp_path, corpus):
    return _synth_config_counts(tmp_path, [1, 2])


def _synth_counts_string_in_config(tmp_path, corpus):
    return _synth_config_counts(tmp_path, "chair")


def _synth_unknown_top_level_key(tmp_path, corpus):
    # a misspelt "seed" would otherwise be dropped and the corpus seeded 0
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": {"chair": 3}, "sead": 5}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


def _benchmark(tmp_path, corpus, *flags):
    return ["benchmark", "--data", str(corpus), "--out", str(tmp_path / "b"),
            "--variants", "scratch", "--axes", "shapes", "--x", "1", "--repeats", "1",
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


def _finetune_labeled_shapes(tmp_path, corpus, n):
    return ["finetune", "--data", str(corpus), "--out", str(tmp_path / "seg.npz"),
            "--objective", "segmentation", "--category", "table", "--points", "60",
            "--epochs", "1", "--labeled-shapes", n]


def _finetune_negative_labeled_shapes(tmp_path, corpus):
    return _finetune_labeled_shapes(tmp_path, corpus, "-1")


def _finetune_zero_labeled_shapes(tmp_path, corpus):
    return _finetune_labeled_shapes(tmp_path, corpus, "0")


def _export_without_shapes(tmp_path, corpus):
    ck = tmp_path / "ck.npz"
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), decoder_widths=(), embed_dim=3)
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    return ["export-embeddings", "--checkpoint", str(ck), "--out", str(tmp_path / "e"),
            "--points", "60"]


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


def _mine_reversed_leaf_range(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--min-leaves", "5", "--max-leaves", "2")


def _mine_negative_min_leaves(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--min-leaves", "-3")


def _mine_zero_points_without_clouds(tmp_path, corpus):
    # nothing is sampled without clouds, so only the flag check can catch it
    return _mine(tmp_path, corpus, "--no-clouds", "--points", "0")


def _mine_negative_seed(tmp_path, corpus):
    return _mine(tmp_path, corpus, "--seed", "-1")


def _synth_negative_seed(tmp_path, corpus):
    return ["synth", "--out", str(tmp_path / "s"), "--counts", "table=3", "--seed", "-1"]


def _pretrain_negative_seed(tmp_path, corpus):
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--seed", "-1"]


def _synth_config_seed(tmp_path, seed):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": {"table": 3}, "seed": seed}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


def _synth_negative_seed_in_config(tmp_path, corpus):
    return _synth_config_seed(tmp_path, -2)


def _synth_string_seed_in_config(tmp_path, corpus):
    return _synth_config_seed(tmp_path, "x")


def _seed_in_train_config(tmp_path, corpus):
    # the seed is the --seed flag, which would silently overwrite this key
    arch, train = tmp_path / "arch.json", tmp_path / "train.json"
    arch.write_text(json.dumps(ARCH))
    train.write_text(json.dumps({**TRAIN, "seed": 3}))
    return ["pretrain", "--data", str(corpus), "--out", str(tmp_path / "ck.npz"),
            "--points", "60", "--arch", str(arch), "--train", str(train)]


# a nonpositive margin trains at loss 0 and a non-number fails inside numpy
# mid-training, so each must be refused before training starts
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


def _synth_noise(tmp_path, **noise):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"counts": {"table": 3}, "noise": noise}))
    return ["synth", "--out", str(tmp_path / "s"), "--config", str(config)]


# a corpus would still be written from each, so each must be refused
def _synth_fractional_sub_leaves(tmp_path, corpus):
    return _synth_noise(tmp_path, max_sub_leaves=2.5)


def _synth_string_split_parts(tmp_path, corpus):
    return _synth_noise(tmp_path, split_parts="no")


def _synth_bool_group_levels(tmp_path, corpus):
    return _synth_noise(tmp_path, max_group_levels=True)


def _synth_integer_group_leaves(tmp_path, corpus):
    return _synth_noise(tmp_path, group_leaves=0)


@pytest.mark.parametrize("make_argv", [
    _checkpoint_missing_lift_widths, _zero_width_arch, _negative_lr, _corrupt_checkpoint,
    _malformed_manifest, _split_without_validation, _vocabulary_without_tags,
    _ply_without_leaf_id, _ply_non_numeric, _synth_non_integer_count, _synth_unknown_noise_key,
    _unlabeled_segmentation, _synth_string_count_in_config, _synth_float_count_in_config,
    _benchmark_x_not_a_number, _benchmark_points_grid_not_a_number, _benchmark_negative_x,
    _benchmark_zero_eval_points, _benchmark_zero_repeats, _finetune_negative_labeled_shapes,
    _finetune_zero_labeled_shapes, _fractional_max_epochs, _synth_noise_tag_prob,
    _mine_synonyms_not_strings, _manifest_synonyms_not_a_map, _ply_vertex_count_not_a_number,
    _ply_blank_header_line, _ply_property_without_name, _synth_string_tag_prob_in_config,
    _synth_tag_prob_list_in_config, _export_without_shapes, _vocabulary_tags_not_strings,
    _vocabulary_tags_a_string, _strategy_in_train_config, _mine_reversed_leaf_range,
    _mine_negative_min_leaves, _mine_zero_points_without_clouds, _mine_negative_seed,
    _synth_negative_seed, _pretrain_negative_seed, _synth_negative_seed_in_config,
    _synth_string_seed_in_config, _seed_in_train_config, _train_negative_margin,
    _train_string_margin, _train_negative_min_lr, _train_string_min_lr,
    _train_string_plateau_patience, _train_nan_plateau_threshold, _train_negative_stop_decays,
    _train_infinite_decay_factor, _synth_fractional_sub_leaves, _synth_string_split_parts,
    _synth_bool_group_levels, _synth_integer_group_leaves, _synth_counts_list_in_config,
    _synth_counts_string_in_config, _synth_unknown_top_level_key])
def test_bad_configs_exit_with_error_line(tmp_path, make_argv):
    corpus = _synth(tmp_path, spec="table=3", seed="1")
    src = str(Path(partembed.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "partembed.cli", *make_argv(tmp_path, corpus)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode in (1, 2)
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["mine", "pretrain", "finetune", "benchmark",
                                     "export-embeddings"])
def test_points_below_one_is_a_usage_error(tmp_path, capsys, command):
    # rejected by the flag itself, before any corpus is read
    argv = [command, "--points", "0", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--points: must be an integer of at least 1" in capsys.readouterr().err


def test_run_manifest_contents(tmp_path):
    out = _synth(tmp_path, spec="table=3", seed="9")
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "synth"
    assert run["seed"] == 9
    assert len(run["config_hash"]) == 64
    assert run["outputs"] == [str(out)]
    assert run["started"] <= run["finished"]
    assert run["flags"]["counts"] == ["table=3"]


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
    classes = {k: v.split(":", 1)[0] for k, v in manifest["rejected"].items()}
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
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(scenes), "--out", str(out), "--seed", "0",
               "--points", "500"])
    assert rc == 0
    assert "kept 3 shapes" in capsys.readouterr().out

    golden = json.loads((FIXTURES / "golden" / "mine_report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("short_translate", "word_in_floats"):
        assert manifest["rejected"][name].startswith("parse_error:malformed number: ")
    assert manifest["rejected"]["negative_offset"] == \
        "parse_error:primitive <input> offset -1 is negative"
    classes = {k: v.split(":", 1)[0] for k, v in manifest["rejected"].items()}
    assert classes == {**golden["rejected_classes"], "short_translate": "parse_error",
                       "word_in_floats": "parse_error", "negative_offset": "parse_error"}
    assert manifest["reject_counts"] == {**golden["reject_counts"], "parse_error": 6}
    for key in ("kept", "split", "sufficiency"):
        assert manifest[key] == golden[key]
    for cat, vocab in golden["vocabularies"].items():
        assert manifest["vocabularies"][cat]["tags"] == vocab["tags"]
        assert manifest["vocabularies"][cat]["counts"] == vocab["counts"]


@pytest.mark.parametrize("clouds", ["--clouds", "--no-clouds"])
def test_mine_rejects_degenerate_meshes_and_mines_the_rest(tmp_path, capsys, clouds):
    scenes = tmp_path / "scenes"
    shutil.copytree(FIXTURES / "scenes", scenes)
    # two leaves, every vertex at one point: zero total area
    (scenes / "chairs" / "collapsed.json").write_text(json.dumps({
        "shape_id": "collapsed", "category": "chairs",
        "vertices": [[0.5, 0.5, 0.5]] * 3, "triangles": [[0, 1, 2]] * 2,
        "nodes": [{"id": 0, "parent": None, "name": "chair", "children": [1, 2]},
                  {"id": 1, "parent": 0, "name": "seat", "tri_range": [0, 1]},
                  {"id": 2, "parent": 0, "name": "back", "tri_range": [1, 2]}]}))
    chair = (scenes / "chairs" / "side_chair.dae").read_text()
    (scenes / "chairs" / "nan_in_floats.dae").write_text(
        chair.replace(">0 0 0 1 0 0 1 1 0 0 1 0<", ">0 0 0 1 0 0 1 nan 0 0 1 0<"))
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(scenes), "--out", str(out), "--seed", "0",
               "--points", "200", clouds])
    assert rc == 0
    assert "kept 3 shapes" in capsys.readouterr().out

    golden = json.loads((FIXTURES / "golden" / "mine_report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["rejected"]["collapsed"] == "degenerate_mesh:area 0"
    assert manifest["rejected"]["nan_in_floats"] == "degenerate_mesh:area nan"
    assert manifest["reject_counts"] == {**golden["reject_counts"], "degenerate_mesh": 2}
    for key in ("kept", "split", "sufficiency"):
        assert manifest[key] == golden[key]
    assert sorted(p.stem for p in out.glob("*/*.json")) == ["club_chair", "sedan", "side_chair"]


def test_mine_without_clouds(tmp_path):
    out = tmp_path / "mined"
    rc = main(["mine", "--in", str(FIXTURES / "scenes"), "--out", str(out),
               "--no-clouds", "--points", "100"])
    assert rc == 0
    assert not (out / "clouds").exists()

    target = tmp_path / "target.ply"
    write_ply(target, PointCloud(points=np.random.default_rng(0).normal(size=(100, 3)),
                                 leaf_id=np.zeros(100)))
    aligned = tmp_path / "aligned"
    rc = main(["mine", "--in", str(FIXTURES / "scenes"), "--out", str(aligned),
               "--no-clouds", "--points", "100", "--align-to", str(target)])
    assert rc == 0
    assert not (aligned / "clouds").exists()
    # the aligned corpus is written once, after alignment, and loads
    plain, moved = load_corpus(out), load_corpus(aligned)
    assert [r.shape_id for r in moved] == [r.shape_id for r in plain]
    for a, b in zip(plain, moved):
        assert a.mesh.vertices.shape == b.mesh.vertices.shape
        assert not np.allclose(a.mesh.vertices, b.mesh.vertices)


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
    chair = replace(cli._config(PenConfig, ARCH, "arch"), n_classes=4)
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
    base = cli._config(PenConfig, ARCH, "arch")
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
            "--category", "chair", "--points", "80", "--epochs", "1",
            "--arch", str(arch), "--train", str(train)]
    ckpt = {}
    if ckpt_cfg is not None:
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
               "--variants", "scratch", "--x", "2", "--axes", "shapes",
               "--repeats", "2", "--points", "80", "--eval-points", "40",
               "--epochs", "1", "--arch", str(arch), "--train", str(train)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "wrote 2 rows" in stdout and "mIoU" in stdout
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "category,variant,axis,value,repeat,miou,seconds"
    assert len(rows) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"][0]["repeats"] == 2
    assert (out / "run.json").exists()


def test_benchmark_missing_checkpoint_exits_2(tmp_path, configs):
    arch, train = configs
    corpus = _synth(tmp_path, spec="table=8", seed="5")
    rc = main(["benchmark", "--data", str(corpus), "--out", str(tmp_path / "b"),
               "--variants", "scratch,hierarchy", "--x", "2", "--axes", "shapes",
               "--repeats", "1", "--points", "60", "--arch", str(arch),
               "--train", str(train)])
    assert rc == 2


def test_benchmark_takes_a_per_category_checkpoint_for_any_variant(tmp_path, configs):
    arch, train = configs
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--counts", "chair=8", "table=8"]) == 0
    cfg = cli._config(PenConfig, ARCH, "arch")
    ck = tmp_path / "h.npz"
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    out = tmp_path / "bench"
    rc = main(["benchmark", "--data", str(corpus), "--out", str(out),
               "--variants", "scratch,hierarchy", "--x", "2", "--axes", "shapes",
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


def test_export_ids_narrow_explicit_shapes(tmp_path):
    corpus = _synth(tmp_path, spec="table=3", seed="6")
    ck = tmp_path / "ck.npz"
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), decoder_widths=(), embed_dim=3)
    save_checkpoint(ck, init_params(cfg, np.random.default_rng(0)), cfg)
    a, b, _ = sorted(corpus.glob("table/*.json"))
    rc = main(["export-embeddings", "--checkpoint", str(ck), "--shape", str(a), str(b),
               "--ids", a.stem, "--out", str(tmp_path / "e"), "--points", "60"])
    assert rc == 0
    assert [p.name for p in (tmp_path / "e").glob("*.ply")] == [f"{a.stem}.ply"]
