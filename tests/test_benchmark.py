"""Benchmark tests: mean-IoU oracles, the metrics table, labeled-set
selection, checkpoint resolution, the fine-tune start, and a small
end-to-end run."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from partembed import benchmark
from partembed.benchmark import (
    CSV_HEADER,
    VARIANTS,
    BenchmarkSpec,
    MetricsTable,
    finetune_start,
    miou,
    resolve_checkpoints,
    run_benchmark,
    select_labeled_points,
    select_labeled_shapes,
)
from partembed.errors import ConfigurationError, InputError
from partembed.ingest import split_dataset
from partembed.network import PenConfig, init_params, save_checkpoint
from partembed.synth import generate_corpus
from partembed.training import PRETRAINED, TrainConfig, prepare_shapes

BASE = PenConfig(point_widths=(8, 8), lift_widths=(16,), decoder_widths=(24,),
                 embed_dim=6, head_hidden=6)

FAST_TC = TrainConfig(lr=0.01, batch_shapes=4, subsample_points=40,
                      triplets_per_shape=16, max_epochs=1, head_epochs=1,
                      microbatch=2, seed=0)


@pytest.fixture(scope="module")
def table_shapes():
    records = generate_corpus({"table": 8}, seed=21)
    return prepare_shapes(records, n_points=100, seed=0)


@pytest.fixture(scope="module")
def table_split(table_shapes):
    return split_dataset([s.record.shape_id for s in table_shapes], seed=0)


# ---------------------------------------------------------------------------
# mean IoU
# ---------------------------------------------------------------------------

def test_miou_identity_is_one():
    gt = np.array([0, 1, 2, 2, 1, 0, 1])
    assert miou(gt, gt, 3) == 1.0


def test_miou_two_label_confusion_is_seven_twelfths():
    gt = np.concatenate([np.zeros(100, dtype=int), np.ones(100, dtype=int)])
    pred = np.concatenate([np.zeros(50, dtype=int), np.ones(150, dtype=int)])
    # label 0: 50/100 overlap; label 1: 100/150; mean (1/2 + 2/3)/2 = 7/12
    assert abs(miou(pred, gt, 2) - 7.0 / 12.0) < 1e-6


def test_miou_is_invariant_to_relabeling():
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 4, size=300)
    pred = rng.integers(0, 4, size=300)
    perm = np.array([2, 3, 1, 0])
    assert miou(pred, gt, 4) == pytest.approx(miou(perm[pred], perm[gt], 4), abs=1e-12)


def test_miou_counts_absent_labels_as_perfect():
    gt = np.array([0, 0, 1, 1])
    pred = np.array([0, 0, 1, 0])
    with_absent = miou(pred, gt, 3)
    without = miou(pred, gt, 2)
    # label 2 is in neither: IoU 1 joins the mean
    assert with_absent == pytest.approx((2 * without + 1.0) / 3.0, abs=1e-12)


def test_miou_ignores_unlabeled_ground_truth():
    gt = np.array([0, -1, 1])
    pred = np.array([0, 1, 1])  # disagreement only on the ignored point
    assert miou(pred, gt, 2) == 1.0


def test_miou_rejects_out_of_range_labels():
    with pytest.raises(InputError):
        miou(np.array([0, 2]), np.array([0, 1]), 2)
    with pytest.raises(InputError):
        miou(np.array([0, 1]), np.array([0, 2]), 2)
    with pytest.raises(InputError):
        miou(np.array([-1, 0]), np.array([0, 0]), 2)
    with pytest.raises(InputError):
        miou(np.array([0, 1, 0]), np.array([0, 1]), 2)


# ---------------------------------------------------------------------------
# metrics table
# ---------------------------------------------------------------------------

def _toy_table():
    table = MetricsTable()
    for r in range(3):
        table.add(category="table", variant="scratch", axis="shapes", value=4,
                  repeat=r, miou=0.5 + 0.1 * r, seconds=1.0 + r)
        table.add(category="table", variant="hierarchy", axis="shapes", value=4,
                  repeat=r, miou=0.7 + 0.1 * r, seconds=2.0)
    return table


def test_metrics_table_means_and_summary():
    table = _toy_table()
    cells = {(c["variant"]): c for c in table.summary()["cells"]}
    assert cells["scratch"]["mean_miou"] == pytest.approx(0.6)
    assert cells["scratch"]["repeats"] == 3
    assert cells["hierarchy"]["std_miou"] == pytest.approx(float(np.std([0.7, 0.8, 0.9])))


# ---------------------------------------------------------------------------
# labeled-set selection
# ---------------------------------------------------------------------------

def test_select_labeled_shapes(table_shapes):
    picked = select_labeled_shapes(table_shapes, 3, np.random.default_rng(0))
    ids = [s.record.shape_id for s in picked]
    assert len(set(ids)) == 3
    again = select_labeled_shapes(table_shapes, 3, np.random.default_rng(0))
    assert ids == [s.record.shape_id for s in again]
    with pytest.raises(ConfigurationError):
        select_labeled_shapes(table_shapes, len(table_shapes) + 1,
                              np.random.default_rng(0))


def test_select_labeled_points_masks_and_nests(table_shapes):
    shapes = table_shapes[:3]
    few = select_labeled_points(shapes, 10, np.random.default_rng(5))
    more = select_labeled_points(shapes, 30, np.random.default_rng(5))
    for orig, a, b in zip(shapes, few, more):
        assert len(a.cloud) == len(orig.cloud)
        la = np.flatnonzero(a.cloud.semantic_label >= 0)
        lb = np.flatnonzero(b.cloud.semantic_label >= 0)
        assert len(la) == 10 and len(lb) == 30
        assert set(la.tolist()) <= set(lb.tolist())
        # kept labels agree with the source; the source is untouched
        assert np.array_equal(a.cloud.semantic_label[la], orig.cloud.semantic_label[la])
        assert (orig.cloud.semantic_label >= 0).all()
    everything = select_labeled_points(shapes, 10_000, np.random.default_rng(5))
    assert (everything[0].cloud.semantic_label >= 0).all()


def test_select_labeled_points_is_roughly_uniform(table_shapes):
    shape = table_shapes[0]
    n = len(shape.cloud)
    rng = np.random.default_rng(17)
    hits = np.zeros(n)
    draws = 2000
    for _ in range(draws):
        out = select_labeled_points([shape], 20, rng)[0]
        hits += out.cloud.semantic_label >= 0
    freq = hits / draws
    assert np.abs(freq - 20 / n).max() < 0.03


# ---------------------------------------------------------------------------
# checkpoint resolution
# ---------------------------------------------------------------------------

def _write_ckpt(tmp_path, name, cfg=BASE, meta=None):
    path = tmp_path / f"{name}.npz"
    save_checkpoint(path, init_params(cfg, np.random.default_rng(3)), cfg, meta=meta)
    return path


def test_resolve_checkpoints_loads_everything_up_front(tmp_path):
    spec = BenchmarkSpec(categories=("table",),
                         variants=("scratch", "hierarchy", "tags"))
    h = _write_ckpt(tmp_path, "hier")
    t = _write_ckpt(tmp_path, "tags_table")
    loaded = resolve_checkpoints(spec, {"hierarchy": h, "tags": {"table": t}})
    assert set(loaded) == {"hierarchy", ("tags", "table")}
    params, cfg, _ = loaded["hierarchy"]
    assert cfg == BASE and "enc0.W" in params


def test_resolve_checkpoints_names_every_problem(tmp_path):
    spec = BenchmarkSpec(categories=("table",),
                         variants=("autoencoder", "hierarchy", "tags"))
    with pytest.raises(ConfigurationError) as err:
        resolve_checkpoints(spec, {"hierarchy": tmp_path / "gone.npz",
                                   "tags": "not-a-mapping"})
    msg = str(err.value)
    assert "autoencoder" in msg and "hierarchy" in msg and "tags" in msg


def test_resolve_checkpoints_skips_categories_without_tags(tmp_path):
    spec = BenchmarkSpec(categories=("table",), variants=("scratch", "tags"))
    assert resolve_checkpoints(spec, {"tags": {}}) == {}
    other = _write_ckpt(tmp_path, "tags_chair")
    loaded = resolve_checkpoints(spec, {"tags": {"chair": other}})
    assert set(loaded) == {("tags", "chair")}


# ---------------------------------------------------------------------------
# fine-tune start
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ckpt_cfg, lent", [
    (BASE, PRETRAINED),                                                  # metric
    (replace(BASE, with_ae=True, ae_hidden=(5,), ae_points=4), ("enc", "lift")),
    (replace(BASE, n_classes=4, n_tags=2), PRETRAINED),                  # seg + tags
    (None, ()),                                                          # scratch
    (replace(BASE, n_classes=3, n_tags=5), PRETRAINED),                  # same head sizes
])
def test_finetune_start_lends_trunk_and_decoder_never_heads(ckpt_cfg, lent):
    ckpt = None
    if ckpt_cfg is not None:
        ckpt = (init_params(ckpt_cfg, np.random.default_rng(3)), ckpt_cfg, {})
    for head, other, heads in (("seg", "tag", {"n_classes": 3}), ("tag", "seg", {"n_tags": 5})):
        params, cfg, pretrained = finetune_start(ckpt, BASE, np.random.default_rng(9), **heads)
        assert pretrained == lent
        assert cfg == replace(ckpt_cfg or BASE, **{"n_classes": 0, "n_tags": 0, **heads},
                              with_ae=False)
        fresh = init_params(cfg, np.random.default_rng(9))
        # one fresh head of the asked size; no other head, no reconstruction tensors
        assert set(params) == set(fresh)
        assert params[f"{head}1.W"].shape == (BASE.head_hidden, *heads.values())
        assert not any(name.startswith(("ae", other)) for name in params)
        for name, tensor in params.items():
            if name.startswith(lent):
                assert np.array_equal(tensor, ckpt[0][name])
                assert not np.shares_memory(tensor, ckpt[0][name])
            else:
                assert np.array_equal(tensor, fresh[name]), name


def test_benchmark_spec_validation():
    with pytest.raises(ConfigurationError):
        BenchmarkSpec(categories=("table",), variants=("scratch", "mystery"))
    with pytest.raises(ConfigurationError):
        BenchmarkSpec(categories=("table",), axes=("shapes", "lines"))
    for bad in ({"shape_axis": (4, 0)}, {"shape_axis": (-1,)}, {"point_axis": (20, 0)},
                {"point_axis_shapes": 0}, {"repeats": 0}, {"eval_points": 0},
                {"repeats": 1.5}):
        with pytest.raises(ConfigurationError):
            BenchmarkSpec(categories=("table",), **bad)
    # a repeated grid entry would run its cells twice over the same seeds
    for bad in ({"shape_axis": (2, 2)}, {"point_axis": (20, 40, 20)},
                {"variants": ("scratch", "scratch")}, {"categories": ("chair", "chair")},
                {"axes": ("shapes", "shapes")}):
        with pytest.raises(ConfigurationError, match="distinct"):
            BenchmarkSpec(**{"categories": ("table",), **bad})
    assert BenchmarkSpec(categories=("t",)).variants == VARIANTS


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

def test_run_benchmark_small_grid(tmp_path, table_shapes, table_split):
    ckpt = _write_ckpt(tmp_path, "hierarchy")
    spec = BenchmarkSpec(categories=("table",), variants=("scratch", "hierarchy"),
                         shape_axis=(2,), point_axis=(15,), point_axis_shapes=2,
                         axes=("shapes", "points"), repeats=2, eval_points=50, seed=0)
    out_csv = tmp_path / "rows.csv"
    out_summary = tmp_path / "summary.json"
    table = run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE,
                          {"hierarchy": ckpt}, out_csv=out_csv, out_summary=out_summary)
    # 1 category x 2 variants x 2 axes x 1 value x 2 repeats
    assert len(table.rows) == 8
    for row in table.rows:
        assert 0.0 <= row["miou"] <= 1.0
        assert row["variant"] in ("scratch", "hierarchy")
        assert row["seconds"] >= 0.0
    with open(out_csv, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == CSV_HEADER
        assert list(reader) == [{k: str(row[k]) for k in CSV_HEADER} for row in table.rows]
    summary = json.loads(out_summary.read_text())
    assert {c["variant"] for c in summary["cells"]} == {"scratch", "hierarchy"}
    for cell in summary["cells"]:
        assert cell["repeats"] == 2


def test_run_benchmark_is_deterministic(table_shapes, table_split, tmp_path):
    spec = BenchmarkSpec(categories=("table",), variants=("scratch",),
                         shape_axis=(2,), axes=("shapes",), repeats=1,
                         eval_points=40, seed=0)
    t1 = run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE, {})
    t2 = run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE, {})
    assert t1.rows[0]["miou"] == t2.rows[0]["miou"]


def test_run_benchmark_skips_tagless_categories(table_shapes, table_split):
    spec = BenchmarkSpec(categories=("table",), variants=("scratch", "tags"),
                         shape_axis=(2,), axes=("shapes",), repeats=1,
                         eval_points=40, seed=0)
    table = run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE, {"tags": {}})
    assert {r["variant"] for r in table.rows} == {"scratch"}


def test_run_benchmark_starts_each_row_with_one_init(table_shapes, table_split, tmp_path,
                                                    monkeypatch):
    # harnesses time a cell from its init_params call to the next one
    events = []

    def logged(name):
        fn = getattr(benchmark, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("init_params", "predict_segmentation"):
        monkeypatch.setattr(benchmark, name, logged(name))
    spec = BenchmarkSpec(categories=("table",), variants=("scratch", "hierarchy", "tags"),
                         shape_axis=(2,), point_axis=(15,), point_axis_shapes=2,
                         repeats=1, eval_points=40, seed=0)
    table = run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE,
                          {"hierarchy": _write_ckpt(tmp_path, "h"), "tags": {}})
    assert len(table.rows) == 4
    assert events == ["init_params", "predict_segmentation"] * len(table.rows)


def test_run_benchmark_checks_checkpoints_before_training(table_shapes, table_split, tmp_path):
    spec = BenchmarkSpec(categories=("table",), variants=("scratch", "leaf"),
                         shape_axis=(2,), axes=("shapes",), repeats=1, seed=0)
    with pytest.raises(ConfigurationError, match="leaf"):
        run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE,
                      {"leaf": tmp_path / "missing.npz"})


@pytest.mark.parametrize("grid", [dict(shape_axis=(2, 50), axes=("shapes",)),
                                  dict(shape_axis=(2,), point_axis_shapes=50)])
def test_run_benchmark_checks_pool_sizes_before_training(table_shapes, table_split, monkeypatch,
                                                         grid):
    calls = []
    monkeypatch.setattr(benchmark, "finetune_segmentation", lambda *a, **k: calls.append(a))
    spec = BenchmarkSpec(categories=("table",), variants=("scratch",), point_axis=(15,),
                         repeats=3, eval_points=40, seed=0, **grid)
    with pytest.raises(ConfigurationError, match="requested 50 labeled shapes"):
        run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE, {})
    assert calls == []


def test_run_benchmark_rejects_mismatched_checkpoint(table_shapes, table_split, tmp_path):
    wrong = PenConfig(point_widths=(4,), lift_widths=(8,), decoder_widths=(6,),
                      embed_dim=4, head_hidden=4)
    path = _write_ckpt(tmp_path, "wrong", cfg=wrong)
    spec = BenchmarkSpec(categories=("table",), variants=("autoencoder",),
                         shape_axis=(2,), axes=("shapes",), repeats=1,
                         eval_points=40, seed=0)
    # the fine-tune config comes from the checkpoint, so sizes agree and
    # the run must succeed whatever the base config says
    table = run_benchmark(table_shapes, table_split, spec, FAST_TC, BASE,
                          {"autoencoder": path})
    assert len(table.rows) == 1
