"""Few-shot segmentation transfer benchmark.

For each category and pretraining variant, a small labeled set is drawn from
the training split, the network is fine-tuned on it, and mean IoU is measured
on the untouched test split. Two axes: the number of labeled shapes, and the
number of labeled points on a fixed set of shapes. Every (category, value,
repeat) cell uses the same labeled selection across variants, so variant
comparisons are paired.

Every variant but ``scratch`` starts from a checkpoint, shared by all
categories or one per category. What a checkpoint lends is read from the
checkpoint itself (``finetune_start``), never from the variant's name.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import check, kind
from .errors import ConfigurationError, InputError
from .ingest import DatasetSplit
from .network import PenConfig, init_params, load_checkpoint
from .training import (PRETRAINED, TrainConfig, TrainShape, finetune_segmentation,
                       predict_segmentation)

VARIANTS = ("scratch", "autoencoder", "leaf", "hierarchy", "tags", "hierarchy_tags")

CSV_HEADER = ("category", "variant", "axis", "value", "repeat", "miou", "seconds")


@dataclass
class BenchmarkSpec:
    categories: tuple[str, ...] = kind("names")
    variants: tuple[str, ...] = kind("names", VARIANTS)
    shape_axis: tuple[int, ...] = kind("grid", (4, 8, 12, 20, 40, 60, 120))
    point_axis: tuple[int, ...] = kind("grid", (20, 40, 60, 100, 200, 500))
    point_axis_shapes: int = kind("count", 8)
    axes: tuple[str, ...] = kind("names", ("shapes", "points"))
    repeats: int = kind("count", 5)
    seed: int = kind("natural", 0)
    eval_points: int = kind("count", 2048)

    def __post_init__(self):
        check(self)
        if not set(self.variants) <= set(VARIANTS):
            raise ConfigurationError(f"variants must be drawn from {VARIANTS}")
        if not set(self.axes) <= {"shapes", "points"}:
            raise ConfigurationError("axes must be drawn from ('shapes', 'points')")


@dataclass
class MetricsTable:
    rows: list[dict] = field(default_factory=list)

    def add(self, **row) -> None:
        self.rows.append(row)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for row in self.rows:
                w.writerow([row[k] for k in CSV_HEADER])

    def summary(self) -> dict:
        groups: dict[tuple, list[float]] = {}
        for r in self.rows:
            groups.setdefault((r["category"], r["variant"], r["axis"], r["value"]), []).append(r["miou"])
        return {
            "cells": [
                {"category": c, "variant": v, "axis": a, "value": x,
                 "mean_miou": float(np.mean(vals)), "std_miou": float(np.std(vals)),
                 "repeats": len(vals)}
                for (c, v, a, x), vals in sorted(groups.items())
            ]
        }


def miou(pred: np.ndarray, gt: np.ndarray, n_labels: int) -> float:
    """Mean intersection-over-union across label ids 0..n_labels-1 for one
    shape. Labels absent from both prediction and ground truth count as IoU 1
    (an empty union is a perfect match). Points with ground truth -1 are
    ignored."""
    pred = np.asarray(pred).reshape(-1)
    gt = np.asarray(gt).reshape(-1)
    if pred.shape != gt.shape:
        raise InputError("pred and gt must parallel each other")
    if len(pred) and (pred.min() < 0 or pred.max() >= n_labels or gt.max() >= n_labels):
        raise InputError(f"label id outside the {n_labels}-label set")
    valid = gt >= 0
    vals = []
    for c in range(n_labels):
        p = (pred == c) & valid
        g = gt == c
        union = int(np.sum(p | g))
        inter = int(np.sum(p & g))
        vals.append(1.0 if union == 0 else inter / union)
    return float(np.mean(vals))


def select_labeled_shapes(pool: Sequence[TrainShape], x: int,
                          rng: np.random.Generator) -> list[TrainShape]:
    """Draw x distinct shapes from the fine-tuning pool."""
    if x > len(pool):
        raise ConfigurationError(f"requested {x} labeled shapes, pool has {len(pool)}")
    idx = rng.choice(len(pool), size=x, replace=False)
    return [pool[i] for i in idx]


def select_labeled_points(shapes: Sequence[TrainShape], y: int,
                          rng: np.random.Generator) -> list[TrainShape]:
    """Copies of the shapes keeping only y labeled points each (the rest get
    label -1). Labeled sets are nested across increasing y for one generator
    sequence, since each shape draws a single permutation prefix."""
    out = []
    for s in shapes:
        n = len(s.cloud)
        keep = rng.permutation(n)[:min(y, n)]
        labels = np.full(n, -1, dtype=np.int64)
        labels[keep] = s.cloud.semantic_label[keep]
        out.append(TrainShape(record=s.record, cloud=replace(s.cloud, semantic_label=labels)))
    return out


def resolve_checkpoints(spec: BenchmarkSpec, checkpoints: dict) -> dict:
    """Load every checkpoint the requested variants need, before any training
    runs. A variant maps to one path, shared by every category, or to a
    category -> path mapping; categories missing from a mapping are skipped
    (tags exist only for some). Loaded checkpoints are keyed by variant or
    by (variant, category). Missing or unreadable files raise naming
    everything missing at once."""
    loaded: dict = {}
    problems = []
    for variant in spec.variants:
        if variant == "scratch":
            continue
        given = checkpoints.get(variant)
        paths = given.items() if isinstance(given, dict) else [(None, given)]
        for cat, path in paths:
            name = variant if cat is None else f"{variant}/{cat}"
            if path is None or not Path(path).exists():
                problems.append(f"{name}: missing checkpoint {path!r}")
            else:
                loaded[variant if cat is None else (variant, cat)] = load_checkpoint(path)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return loaded


def _category_classes(shapes: Sequence[TrainShape]) -> int:
    top = 0
    for s in shapes:
        if s.cloud.semantic_label is None:
            raise InputError(f"shape {s.record.shape_id} lacks semantic labels")
        top = max(top, int(s.cloud.semantic_label.max()))
    return top + 1


def finetune_start(ckpt, cfg: PenConfig, rng: np.random.Generator, *, n_classes: int = 0,
                   n_tags: int = 0) -> tuple[dict, PenConfig, tuple[str, ...]]:
    """Parameters, config and pretrained prefixes to fine-tune an
    ``n_classes`` segmentation head or an ``n_tags`` tag head from a loaded
    checkpoint, or from scratch on ``cfg`` when ``ckpt`` is None. A
    checkpoint sets the network sizes and lends its trunk and embedding
    decoder, or only its trunk when it is a reconstruction checkpoint
    (``with_ae``), whose embedding decoder never trained. Heads always start
    fresh from ``rng``; the result has no reconstruction decoder."""
    pretrained: tuple[str, ...] = ()
    if ckpt is not None:
        loaded, cfg, _ = ckpt
        pretrained = ("enc", "lift") if cfg.with_ae else PRETRAINED
    cfg = replace(cfg, n_classes=n_classes, n_tags=n_tags, with_ae=False)
    params = init_params(cfg, rng)
    for name in params:
        if name.startswith(pretrained):
            params[name] = loaded[name].copy()
    return params, cfg, pretrained


def run_benchmark(shapes: Sequence[TrainShape], split: DatasetSplit, spec: BenchmarkSpec,
                  tc: TrainConfig, base_cfg: PenConfig, checkpoints: dict,
                  out_csv=None, out_summary=None) -> MetricsTable:
    """Run the transfer matrix and return one row per (category, variant,
    axis, value, repeat). ``checkpoints`` maps each non-scratch variant to
    an .npz path or to a {category: path} mapping; all are loaded up front
    (see ``resolve_checkpoints``)."""
    loaded = resolve_checkpoints(spec, checkpoints)
    by_id = {s.record.shape_id: s for s in shapes}
    train_ids = [i for i in split.train if i in by_id]
    test_ids = [i for i in split.test if i in by_id]

    # every category's data is checked before the first cell trains
    largest = max([*(spec.shape_axis if "shapes" in spec.axes else ()),
                   *((spec.point_axis_shapes,) if "points" in spec.axes else ())])
    cats = []
    for cat in spec.categories:
        pool = [by_id[i] for i in train_ids if by_id[i].category == cat]
        test = [by_id[i] for i in test_ids if by_id[i].category == cat]
        if not pool or not test:
            raise ConfigurationError(f"category {cat!r}: empty fine-tune pool or test set")
        n_classes = _category_classes(pool + test)
        if largest > len(pool):
            raise ConfigurationError(f"category {cat!r}: requested {largest} labeled shapes, "
                                     f"pool has {len(pool)}")
        cats.append((cat, pool, test, n_classes))

    table = MetricsTable()
    for ci, (cat, pool, test, n_classes) in enumerate(cats):
        eval_rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xE7A1, ci)))
        eval_idx = [np.sort(eval_rng.permutation(len(s.cloud))[:spec.eval_points]) for s in test]
        eval_pts = np.stack([s.cloud.points[idx] for s, idx in zip(test, eval_idx)])
        eval_gt = [s.cloud.semantic_label[idx] for s, idx in zip(test, eval_idx)]

        for axis in spec.axes:
            values = spec.shape_axis if axis == "shapes" else spec.point_axis
            for value in values:
                for r in range(spec.repeats):
                    select_rng = np.random.default_rng(
                        np.random.SeedSequence((spec.seed, 0x5E1, ci, 0 if axis == "shapes" else 1,
                                                value, r)))
                    if axis == "shapes":
                        labeled = select_labeled_shapes(pool, value, select_rng)
                    else:
                        fixed = select_labeled_shapes(pool, spec.point_axis_shapes, select_rng)
                        labeled = select_labeled_points(fixed, value, select_rng)

                    for vi, variant in enumerate(spec.variants):
                        ckpt = loaded.get(variant, loaded.get((variant, cat)))
                        if ckpt is None and variant != "scratch":
                            continue  # a per-category mapping without this category
                        t0 = time.perf_counter()
                        rng_init = np.random.default_rng(
                            np.random.SeedSequence((spec.seed, 0x171, ci, vi, value, r)))
                        params, cat_cfg, pretrained = finetune_start(ckpt, base_cfg, rng_init,
                                                                     n_classes=n_classes)
                        ftc = replace(tc, seed=tc.seed + 1000 * r + value)
                        finetune_segmentation(params, cat_cfg, labeled, ftc, pretrained)
                        pred = predict_segmentation(params, cat_cfg, eval_pts,
                                                    microbatch=tc.microbatch)
                        scores = [miou(pred[i], eval_gt[i], n_classes) for i in range(len(test))]
                        table.add(category=cat, variant=variant, axis=axis, value=value,
                                  repeat=r, miou=float(np.mean(scores)),
                                  seconds=round(time.perf_counter() - t0, 3))
    if out_csv is not None:
        table.to_csv(out_csv)
    if out_summary is not None:
        Path(out_summary).write_text(json.dumps(table.summary(), indent=2, sort_keys=True) + "\n")
    return table
