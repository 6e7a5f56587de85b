"""The three benchmark workloads: set-up, one timed pass, and the checks.

A workload is a ``setup(seed, work_dir) -> ctx`` function and a
``run_pass(ctx, checks, patches) -> PassResult`` function. Every pass of one
run repeats the same work on the same inputs from fresh parameters, so
passes are interchangeable samples and their results must agree exactly.
Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from partembed import benchmark as pe_benchmark
from partembed import cli, ingest, network, synth, training
from partembed.network import PenConfig


class Checks:
    """Counts checked operations; a failed one is kept with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @contextlib.contextmanager
    def operation(self, what: str):
        """One attempted operation; an exception inside fails it and ends
        the pass as ``Failed``."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            raise Failed(what) from exc


class Failed(Exception):
    """A pass could not complete."""


@dataclass
class PassResult:
    wall_s: float
    stages: dict[str, float] = field(default_factory=dict)      # seconds
    rates: dict[str, float] = field(default_factory=dict)       # per-stage, per second
    values: dict[str, float] = field(default_factory=dict)      # results that must repeat
    cell_s: list[float] = field(default_factory=list)
    bytes_written: int = 0


def _finite_and_decreasing(checks: Checks, stage: str, report) -> None:
    losses = report.train_losses + report.val_losses
    checks.check(losses and all(np.isfinite(losses)), f"{stage}: non-finite loss")
    checks.check(report.val_losses[-1] < report.val_losses[0],
                 f"{stage}: val loss {report.val_losses[-1]:.6g} not below "
                 f"first epoch {report.val_losses[0]:.6g}")


# ---------------------------------------------------------------------------
# pretrain_full: the paper-size network on 8 x 2500-point microbatches
# ---------------------------------------------------------------------------

FULL_COUNTS = {"chair": 6, "table": 5, "airplane": 5}   # 8 train + 8 val shapes
# One Adam step per epoch. The first steps from initialisation raise the
# loss before it falls, so with fewer than 4 epochs the validation loss
# need not end below its first-epoch value.
FULL_TC = dict(batch_shapes=8, subsample_points=2500, triplets_per_shape=512,
               microbatch=8, max_epochs=4)


def setup_pretrain_full(seed: int, work: Path) -> dict:
    records = synth.generate_corpus(FULL_COUNTS, seed=seed)
    shapes = training.prepare_shapes(records, n_points=10000, seed=seed)
    order = np.random.default_rng(seed).permutation(len(shapes))
    return {"seed": seed, "train": [shapes[i] for i in order[:8]],
            "val": [shapes[i] for i in order[8:16]]}


def pass_pretrain_full(ctx: dict, checks: Checks, patches) -> PassResult:
    cfg = PenConfig()
    tc = training.TrainConfig(seed=ctx["seed"], **FULL_TC)
    t0 = time.perf_counter()
    params = network.init_params(cfg, np.random.default_rng(ctx["seed"]))
    with checks.operation("pretrain_metric"):
        report = training.pretrain_metric(params, cfg, ctx["train"], ctx["val"], tc)
    wall = time.perf_counter() - t0
    _finite_and_decreasing(checks, "pretrain_metric", report)
    return PassResult(
        wall_s=wall, stages={"pretrain": wall},
        rates={"pretrain_shapes_per_s": report.epochs * len(ctx["train"]) / wall},
        values={"pretrain_val_loss": report.best_val})


# ---------------------------------------------------------------------------
# fewshot: the acceptance pipeline at reduced count
# ---------------------------------------------------------------------------

ORDERING_ARCH = PenConfig(point_widths=(32, 32), lift_widths=(64,),
                          decoder_widths=(64,), embed_dim=32, head_hidden=64)
FEWSHOT_COUNTS = {"chair": 20, "table": 20, "airplane": 20}
# With 9 validation shapes the validation loss bounces from epoch to epoch;
# by epoch 5 its fall outruns the bounce, so 6 epochs end below epoch 1.
PRETRAIN_TC = dict(lr=0.01, batch_shapes=32, subsample_points=512,
                   triplets_per_shape=256, max_epochs=6, microbatch=8)
FINETUNE_TC = dict(lr=0.01, batch_shapes=8, subsample_points=512, triplets_per_shape=256,
                   head_epochs=8, max_epochs=12, microbatch=4, trunk_lr_scale=0.1)
GRID_VARIANTS = ("scratch", "autoencoder", "hierarchy")
GRID_REPEATS = 1
INIT_SALT = {"pretrain": 0x11717, "ae": 0x11717, "tags": 0xF17A6}
CHECKPOINTS = {"pretrain": "hierarchy", "ae": "autoencoder"}   # stage -> grid variant


def setup_fewshot(seed: int, work: Path) -> dict:
    records = synth.generate_corpus(FEWSHOT_COUNTS, seed=seed)
    vocabs = {}
    for cat in FEWSHOT_COUNTS:
        v = ingest.extract_tags([r for r in records if r.category == cat], cat,
                                synonyms=synth.SYNTH_SYNONYMS)
        if v.tags:
            vocabs[cat] = v
    shapes = training.prepare_shapes(records, n_points=640, seed=seed,
                                     vocab_by_category=vocabs)
    # Split each category on its own so every one has validation and test
    # shapes; a corpus this small split as a whole can leave one without.
    parts = [ingest.split_dataset([r.shape_id for r in records if r.category == cat], seed=seed)
             for cat in FEWSHOT_COUNTS]
    split = ingest.DatasetSplit(*(tuple(i for p in parts for i in getattr(p, group))
                                  for group in ("train", "validation", "test")))
    by_id = {s.record.shape_id: s for s in shapes}
    return {"seed": seed, "work": work, "shapes": shapes, "split": split,
            "vocab_chair": vocabs["chair"],
            "train": [by_id[i] for i in split.train],
            "val": [by_id[i] for i in split.validation]}


class _CellClock:
    """Cell boundaries seen from outside run_benchmark: every cell starts
    with one ``init_params`` call, so a cell runs from that call to the next
    one, or to the end of the grid. Predictions are range-checked here too."""

    def __init__(self, patches, checks: Checks):
        self.starts: list[float] = []
        init, predict = pe_benchmark.init_params, pe_benchmark.predict_segmentation

        def init_params(*args, **kwargs):
            self.starts.append(time.perf_counter())
            return init(*args, **kwargs)

        def predict_segmentation(params, cfg, points, *args, **kwargs):
            pred = predict(params, cfg, points, *args, **kwargs)
            checks.check(pred.shape == points.shape[:2] and pred.min() >= 0
                          and pred.max() < cfg.n_classes,
                          f"predictions outside 0..{cfg.n_classes - 1}")
            return pred

        patches.set(pe_benchmark, "init_params", init_params)
        patches.set(pe_benchmark, "predict_segmentation", predict_segmentation)

    def cells(self, end: float) -> list[float]:
        bounds = self.starts + [end]
        self.starts = []
        return [b - a for a, b in zip(bounds, bounds[1:])]


def pass_fewshot(ctx: dict, checks: Checks, patches) -> PassResult:
    seed, work = ctx["seed"], ctx["work"]
    train, val = ctx["train"], ctx["val"]
    ptc = training.TrainConfig(seed=seed, **PRETRAIN_TC)
    out = PassResult(wall_s=0.0)
    t_pass = time.perf_counter()

    def stage(name, fn, cfg, tr, va, init_from=None):
        t0 = time.perf_counter()
        params = network.init_params(
            cfg, np.random.default_rng(np.random.SeedSequence((seed, INIT_SALT[name]))))
        if init_from is not None:
            params = {k: init_from.get(k, v) for k, v in params.items()}
        with checks.operation(name):
            report = fn(params, cfg, tr, va, ptc)
        if name in CHECKPOINTS:
            network.save_checkpoint(work / f"{name}.npz", params, cfg, {})
        out.stages[name] = time.perf_counter() - t0
        out.rates[f"{name}_shapes_per_s"] = report.epochs * len(tr) / out.stages[name]
        _finite_and_decreasing(checks, name, report)
        return params, report

    params_h, rep_h = stage("pretrain", training.pretrain_metric, ORDERING_ARCH, train, val)
    out.values["pretrain_val_loss"] = rep_h.best_val
    stage("ae", training.pretrain_autoencoder,
          replace(ORDERING_ARCH, with_ae=True, ae_hidden=(64,), ae_points=64), train, val)
    chairs = [[s for s in part if s.category == "chair"] for part in (train, val)]
    stage("tags", training.finetune_tags,
          replace(ORDERING_ARCH, n_tags=len(ctx["vocab_chair"].tags)), *chairs,
          init_from=params_h)

    spec = pe_benchmark.BenchmarkSpec(
        categories=tuple(FEWSHOT_COUNTS), variants=GRID_VARIANTS, shape_axis=(4,),
        axes=("shapes",), repeats=GRID_REPEATS, seed=seed, eval_points=512)
    clock = _CellClock(patches, checks)
    t0 = time.perf_counter()
    with checks.operation("run_benchmark"):
        table = pe_benchmark.run_benchmark(
            ctx["shapes"], ctx["split"], spec, training.TrainConfig(seed=seed, **FINETUNE_TC),
            ORDERING_ARCH, {variant: work / f"{name}.npz" for name, variant in CHECKPOINTS.items()})
    end = time.perf_counter()
    out.cell_s = clock.cells(end)
    out.stages["grid"] = end - t0
    n_cells = len(FEWSHOT_COUNTS) * len(GRID_VARIANTS) * GRID_REPEATS
    checks.check(len(table.rows) == n_cells == len(out.cell_s),
                 f"grid: {len(table.rows)} rows and {len(out.cell_s)} timed cells, "
                 f"expected {n_cells}")
    checks.check(all(0.0 <= r["miou"] <= 1.0 for r in table.rows), "mIoU outside [0, 1]")
    out.rates["cells_per_s"] = len(table.rows) / out.stages["grid"]
    by_key = {(r["category"], r["value"], r["repeat"], r["variant"]): r["miou"]
              for r in table.rows}
    gains = [m - by_key[k[:3] + ("scratch",)] for k, m in by_key.items()
             if k[3] == "hierarchy"]
    out.values["miou_gain"] = float(np.mean(gains))
    out.wall_s = time.perf_counter() - t_pass
    return out


# ---------------------------------------------------------------------------
# mine: the mining CLI and the read side, no network work
# ---------------------------------------------------------------------------

MINE_COUNTS = {"chair": 20, "table": 20, "airplane": 20}
DAE_COPIES = 3
MINE_POINTS = 10000


def setup_mine(seed: int, work: Path) -> dict:
    """Raw corpus on disk: synthetic JSON shapes plus renamed copies of the
    shipped COLLADA fixtures. The expected mining outcome per file comes
    from the fixtures' golden report."""
    root = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
    golden = json.loads((root / "golden" / "mine_report.json").read_text())
    raw = work / "raw"
    if raw.exists():
        shutil.rmtree(raw)
    synth.generate_corpus(MINE_COUNTS, seed=seed, out_dir=raw)
    expect_kept = dict(MINE_COUNTS)
    expect_rejects: dict[str, int] = {}
    for dae in sorted((root / "scenes").glob("*/*.dae")):
        cat = dae.parent.name
        (raw / cat).mkdir(exist_ok=True)
        for i in range(DAE_COPIES):
            shutil.copyfile(dae, raw / cat / f"{dae.stem}_{i}.dae")
        cls = golden["rejected_classes"].get(dae.stem)
        if cls is None:
            expect_kept[cat] = expect_kept.get(cat, 0) + DAE_COPIES
        else:
            expect_rejects[cls] = expect_rejects.get(cls, 0) + DAE_COPIES
    return {"seed": seed, "work": work, "raw": raw, "expect_kept": expect_kept,
            "expect_rejects": expect_rejects,
            "files": sum(expect_kept.values()) + sum(expect_rejects.values())}


def pass_mine(ctx: dict, checks: Checks, patches) -> PassResult:
    out_dir = ctx["work"] / "mined"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    t0 = time.perf_counter()
    with checks.operation("partembed mine"), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["mine", "--in", str(ctx["raw"]), "--out", str(out_dir)])
    t1 = time.perf_counter()
    checks.check(rc == 0, f"partembed mine exited {rc}")
    with checks.operation("load_corpus + prepare_shapes"):
        records = ingest.load_corpus(out_dir)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        vocabs = {cat: ingest.TagVocabulary(category=cat, tags=tuple(v["tags"]),
                                            synonyms=v["synonyms"], counts=v["counts"])
                  for cat, v in manifest["vocabularies"].items()}
        shapes = training.prepare_shapes(records, n_points=MINE_POINTS, seed=ctx["seed"],
                                         vocab_by_category=vocabs)
    t2 = time.perf_counter()

    kept: dict[str, int] = {}
    for r in records:
        kept[r.category] = kept.get(r.category, 0) + 1
    checks.check(kept == ctx["expect_kept"] and manifest["kept"] == len(records),
                 f"kept per category {kept}, expected {ctx['expect_kept']}")
    checks.check(manifest["reject_counts"] == ctx["expect_rejects"],
                 f"rejects {manifest['reject_counts']}, expected {ctx['expect_rejects']}")
    plys = sorted((out_dir / "clouds").glob("*.ply"))
    checks.check(sorted(p.stem for p in plys) == sorted(r.shape_id for r in records),
                 f"{len(plys)} PLY files for {len(records)} kept shapes")
    checks.check(all(len(s.cloud) == MINE_POINTS for s in shapes), "prepared cloud size")
    return PassResult(
        wall_s=t2 - t0, stages={"mine": t1 - t0, "load": t2 - t1},
        rates={"mine_shapes_per_s": ctx["files"] / (t1 - t0),
               "load_shapes_per_s": len(records) / (t2 - t1)},
        values={"kept_ratio": len(records) / ctx["files"]},
        bytes_written=sum(p.stat().st_size for p in plys))


WORKLOADS = {
    "pretrain_full": (setup_pretrain_full, pass_pretrain_full),
    "fewshot": (setup_fewshot, pass_fewshot),
    "mine": (setup_mine, pass_mine),
}

RATE_UNITS = {"pretrain_shapes_per_s": "shapes/s", "ae_shapes_per_s": "shapes/s",
              "tags_shapes_per_s": "shapes/s", "cells_per_s": "cells/s",
              "mine_shapes_per_s": "shapes/s", "load_shapes_per_s": "shapes/s"}
