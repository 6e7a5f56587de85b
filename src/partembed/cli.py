"""Command-line entry point: synth, mine, pretrain, finetune, benchmark,
export-embeddings.

Every command is deterministic given its flags and seed, writes its outputs
under the given path and returns (directory, inputs, outputs), from which
``main`` drops a run.json manifest next to them. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error. Every JSON config
(``--arch``, ``--train``, a synth ``noise``) decodes through
``config.from_json`` after its defaults fill the keys it omits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (VARIANTS, BenchmarkSpec, _category_classes, finetune_start,
                        run_benchmark, select_labeled_shapes)
from .config import from_json, is_int
from .errors import ConfigurationError, InputError, PartembedError
from .geometry import icp_align, read_ply, sample_surface, write_ply
from .ingest import (DEFAULT_STOP_PATTERNS, DatasetSplit, FilterPolicy,
                     TagVocabulary, extract_tags, label_points_with_tags, load_corpus,
                     mine_directory, parse_json_shape, split_dataset, write_corpus)
from .network import PenConfig, forward_embed, init_params, load_checkpoint, save_checkpoint
from .synth import DEFAULT_TAG_PROB, NoiseConfig, generate_corpus
from .training import (TrainConfig, finetune_segmentation, finetune_tags,
                       prepare_shapes, pretrain_autoencoder, pretrain_metric)

# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _parse_kv(items, cast):
    """['a=1', 'b=2'] -> {'a': cast('1'), 'b': cast('2')}"""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigurationError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = cast(v)
        except ValueError as exc:
            raise ConfigurationError(f"bad value in {item!r}: {exc}") from exc
    return out


def _csv(cast=str):
    """argparse type of a nonempty comma list: 'a,b' -> (cast('a'), cast('b'));
    a bad item is a usage error (exit 2)."""
    def comma_list(text):
        items = tuple(cast(x) for x in text.split(",") if x)
        if not items:
            raise ValueError("empty list")
        return items
    return comma_list


def _at_least(least: int):
    """argparse type of an integer of at least ``least``; anything else is a
    usage error (exit 2) that names the flag."""
    def integer(text):
        if not (text.removeprefix("-").isdigit() and int(text) >= least):
            raise argparse.ArgumentTypeError(
                f"must be an integer of at least {least}, got {text!r}")
        return int(text)
    return integer


def _load_json(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    return obj


def _synonyms(obj, path) -> dict[str, str]:
    """A synonym map read from ``path``: a JSON object from strings to strings."""
    if not (isinstance(obj, dict)
            and all(isinstance(k, str) and isinstance(v, str) for k, v in obj.items())):
        raise ConfigurationError(f"{path}: synonyms must map names to tag strings")
    return obj


def _config(cls, raw, what: str, **overrides):
    """A ``cls`` from a JSON object whose omitted keys take their defaults."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    return from_json(cls, {**asdict(cls()), **raw, **overrides}, what)


def _pen_config(path_or_none, **overrides) -> PenConfig:
    raw = _load_json(path_or_none) if path_or_none else {}
    return _config(PenConfig, raw, str(path_or_none), **overrides)


def _train_config(path_or_none, **overrides) -> TrainConfig:
    raw = _load_json(path_or_none) if path_or_none else {}
    if "seed" in raw:
        raise ConfigurationError(f"{path_or_none}: the seed is the --seed flag, "
                                 f"not a training-config field")
    return _config(TrainConfig, raw, str(path_or_none),
                   **{k: v for k, v in overrides.items() if v is not None})


def _write_run_manifest(out_dir: Path, args: argparse.Namespace,
                        inputs: list, outputs: list, started: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    blob = json.dumps(flags, sort_keys=True, default=str)
    manifest = {
        "command": args.command,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "flags": json.loads(blob),
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_dataset(data_dir):
    """Records plus (split, vocabularies, synonyms) from the directory's
    manifest when one exists; missing pieces are derived deterministically."""
    data_dir = Path(data_dir)
    records = load_corpus(data_dir)
    if not records:
        raise InputError(f"no shape JSON files under {data_dir}")
    mpath = data_dir / "manifest.json"
    manifest = _load_json(mpath) if mpath.exists() else {}
    synonyms = _synonyms(manifest.get("synonyms", {}), mpath)
    try:
        split = DatasetSplit.from_json(manifest["split"]) if "split" in manifest else \
            split_dataset([r.shape_id for r in records], seed=0)
        vocabs = {}
        for cat, v in manifest.get("vocabularies", {}).items():
            if not (isinstance(v["tags"], list) and all(isinstance(t, str) for t in v["tags"])):
                raise ConfigurationError(f"{mpath}: tags of {cat!r} must be a list of strings")
            vocabs[cat] = TagVocabulary(category=cat, tags=tuple(v["tags"]),
                                        synonyms=_synonyms(v.get("synonyms", {}), mpath),
                                        counts=v.get("counts", {}))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigurationError(f"{mpath}: missing or malformed field {exc}") from exc
    if "vocabularies" not in manifest:
        for cat in sorted({r.category for r in records}):
            vocabs[cat] = extract_tags(records, cat, synonyms=synonyms)
    return records, split, vocabs


def _split_shapes(shapes, split: DatasetSplit):
    by_id = {s.record.shape_id: s for s in shapes}
    train = [by_id[i] for i in split.train if i in by_id]
    val = [by_id[i] for i in split.validation if i in by_id]
    test = [by_id[i] for i in split.test if i in by_id]
    return train, val, test


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

SYNTH_KEYS = ("counts", "seed", "tag_prob", "noise")


def cmd_synth(args) -> tuple[Path, list, list]:
    cfg = _load_json(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(SYNTH_KEYS))
    if unknown:
        raise ConfigurationError(f"{args.config}: unknown keys {unknown}, expected {SYNTH_KEYS}")
    if not isinstance(cfg.get("counts", {}), dict):
        raise ConfigurationError(f"{args.config}: counts must map category names to counts")
    counts = _parse_kv(args.counts, int) or cfg.get("counts")
    if not counts:
        raise ConfigurationError("no categories: pass --counts cat=N or a --config with counts")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if not (is_int(seed) and seed >= 0):
        raise ConfigurationError(f"{args.config}: seed must be an integer of at least 0")
    cfg_tag_prob = cfg.get("tag_prob", {})
    if not (isinstance(cfg_tag_prob, dict) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in cfg_tag_prob.values())):
        raise ConfigurationError(f"{args.config}: tag_prob must map category names to numbers")
    tag_prob = {**DEFAULT_TAG_PROB, **cfg_tag_prob, **_parse_kv(args.tag_prob, float)}
    noise = _config(NoiseConfig, cfg["noise"], f"{args.config}: noise") if "noise" in cfg else None
    out = Path(args.out)
    try:
        records = generate_corpus(counts, seed=seed, tag_prob=tag_prob, noise=noise, out_dir=out)
    except InputError as exc:
        raise ConfigurationError(f"bad corpus settings: {exc}") from exc
    print(f"wrote {len(records)} shapes in {len(counts)} categories to {out}")
    return out, [args.config] if args.config else [], [out]


def cmd_mine(args) -> tuple[Path, list, list]:
    out = Path(args.out)
    synonyms = _synonyms(_load_json(args.synonyms), args.synonyms) if args.synonyms else None
    stop = args.stop_patterns or DEFAULT_STOP_PATTERNS
    policy = FilterPolicy(min_leaves=args.min_leaves, max_leaves=args.max_leaves)
    records, report = mine_directory(args.in_dir, synonyms=synonyms,
                                     stop_patterns=stop, policy=policy, seed=args.seed)
    target = None
    if args.align_to:
        target, _ = read_ply(args.align_to)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xC1)))
    if args.clouds or target is not None:
        cloud_dir = out / "clouds"
        if args.clouds:
            cloud_dir.mkdir(parents=True, exist_ok=True)
        for rec in records:
            cloud = sample_surface(rec.mesh, n=args.points, rng=rng)
            if target is not None:
                result = icp_align(cloud, target)
                cloud.points = result.transform.apply(cloud.points)
                rec.mesh.vertices = result.transform.apply(rec.mesh.vertices)
            if not args.clouds:
                continue
            vocab = report.vocabularies.get(rec.category)
            if vocab is not None and vocab.tags:
                cloud.tag_id = label_points_with_tags(cloud, rec, vocab)
            write_ply(cloud_dir / f"{rec.shape_id}.ply", cloud)
    write_corpus(records, out, report.to_json())

    print(f"kept {report.kept} shapes")
    for reason, count in sorted(report.reject_counts.items()):
        print(f"rejected {reason}: {count}")
    for cat in sorted(report.vocabularies):
        v = report.vocabularies[cat]
        s = report.sufficiency[cat]
        verdict = "sufficient" if s["sufficient"] else "insufficient"
        print(f"{cat}: tags={list(v.tags)} coverage={s['coverage']:.4f} ({verdict})")
    return out, [args.in_dir], [out]


def cmd_pretrain(args) -> tuple[Path, list, list]:
    records, split, vocabs = _load_dataset(args.data)
    cfg = _pen_config(args.arch, with_ae=(args.strategy == "autoencoder"))
    tc = _train_config(args.train, seed=args.seed, max_epochs=args.epochs)
    shapes = prepare_shapes(records, n_points=args.points, seed=args.seed,
                            vocab_by_category=vocabs)
    train, val, _ = _split_shapes(shapes, split)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x11717)))
    params = init_params(cfg, rng)
    if args.strategy == "autoencoder":
        report = pretrain_autoencoder(params, cfg, train, val, tc)
    else:
        report = pretrain_metric(params, cfg, train, val, tc, args.strategy)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    meta = {"stage": "pretrain", "strategy": args.strategy, "seed": args.seed,
            "epochs": report.epochs, "best_val": report.best_val,
            "best_epoch": report.best_epoch, "stop_reason": report.stop_reason}
    save_checkpoint(out, params, cfg, meta)
    print(f"pretrained ({args.strategy}) for {report.epochs} epochs, "
          f"best val {report.best_val:.6f} at epoch {report.best_epoch}; wrote {out}")
    return out.parent, [args.data], [out]


def cmd_finetune(args) -> tuple[Path, list, list]:
    records, split, vocabs = _load_dataset(args.data)
    records = [r for r in records if r.category == args.category]
    if not records:
        raise ConfigurationError(f"no shapes of category {args.category!r} in {args.data}")
    tc = _train_config(args.train, seed=args.seed, max_epochs=args.epochs)
    ckpt = load_checkpoint(args.checkpoint) if args.checkpoint else None
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    if args.objective == "tags":
        vocab = vocabs.get(args.category)
        if vocab is None or not vocab.tags:
            raise ConfigurationError(f"category {args.category!r} has no tag vocabulary")
        shapes = prepare_shapes(records, n_points=args.points, seed=args.seed,
                                vocab_by_category={args.category: vocab})
        shapes = [s for s in shapes if (s.cloud.tag_id >= 0).any()]
        if len(shapes) < 3:
            raise ConfigurationError(f"category {args.category!r}: too few tagged shapes")
        train, val, _ = _split_shapes(shapes, split)
        if not train or not val:
            n_val = max(1, len(shapes) // 5)
            val, train = shapes[:n_val], shapes[n_val:]
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xF17A6)))
        params, cfg, pretrained = finetune_start(ckpt, _pen_config(args.arch), rng,
                                                 n_tags=len(vocab.tags))
        report = finetune_tags(params, cfg, train, val, tc, pretrained)
        meta = {"stage": "finetune_tags", "category": args.category, "seed": args.seed,
                "tags": list(vocab.tags), "epochs": report.epochs,
                "best_val": report.best_val}
    else:
        shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
        n_classes = _category_classes(shapes)
        train, _, _ = _split_shapes(shapes, split)
        if args.labeled_shapes is not None:
            rng_sel = np.random.default_rng(np.random.SeedSequence((args.seed, 0x5E1EC7)))
            train = select_labeled_shapes(train, min(args.labeled_shapes, len(train)), rng_sel)
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xF15E6)))
        params, cfg, pretrained = finetune_start(ckpt, _pen_config(args.arch), rng,
                                                 n_classes=n_classes)
        report = finetune_segmentation(params, cfg, train, tc, pretrained)
        meta = {"stage": "finetune_segmentation", "category": args.category,
                "seed": args.seed, "epochs": report.epochs, "n_classes": n_classes}
    save_checkpoint(out, params, cfg, meta)
    print(f"fine-tuned ({args.objective}) on {args.category}: {report.epochs} epochs; wrote {out}")
    return out.parent, [args.data, args.checkpoint or ""], [out]


def _parse_checkpoint_flags(items) -> dict:
    """['hierarchy=ck.npz', 'tags=chair=ck.npz'] -> nested mapping."""
    out: dict = {}
    for item in items or []:
        parts = item.split("=")
        if len(parts) == 2:
            out[parts[0]] = parts[1]
        elif len(parts) == 3:
            out.setdefault(parts[0], {})[parts[1]] = parts[2]
        else:
            raise ConfigurationError(f"expected variant=path or variant=category=path, got {item!r}")
    return out


def cmd_benchmark(args) -> tuple[Path, list, list]:
    records, split, _ = _load_dataset(args.data)
    spec = BenchmarkSpec(
        categories=args.categories or tuple(sorted({r.category for r in records})),
        variants=args.variants, shape_axis=args.x, point_axis=args.points_grid,
        axes=args.axes, repeats=args.repeats, seed=args.seed, eval_points=args.eval_points)
    shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
    tc = _train_config(args.train, seed=args.seed, max_epochs=args.epochs)
    base_cfg = _pen_config(args.arch)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = run_benchmark(shapes, split, spec, tc, base_cfg,
                          _parse_checkpoint_flags(args.checkpoint),
                          out_csv=out / "metrics.csv", out_summary=out / "summary.json")
    print(f"wrote {len(table.rows)} rows to {out / 'metrics.csv'}")
    for cell in table.summary()["cells"]:
        print(f"{cell['category']:>10} {cell['variant']:>15} {cell['axis']}={cell['value']:<4} "
              f"mIoU {cell['mean_miou']:.4f} ± {cell['std_miou']:.4f}")
    return out, [args.data], [out / "metrics.csv"]


def _pca_rgb(embed: np.ndarray) -> np.ndarray:
    """Project embeddings onto their top three principal axes and map each
    channel to 0..255. Component signs are fixed so output is deterministic."""
    x = embed - embed.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    comps = vt[:3]
    signs = np.sign(comps[np.arange(len(comps)), np.abs(comps).argmax(axis=1)])
    signs[signs == 0] = 1.0
    proj = x @ (comps * signs[:, None]).T
    if proj.shape[1] < 3:
        proj = np.pad(proj, ((0, 0), (0, 3 - proj.shape[1])))
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.round((proj - lo) / span * 255).astype(np.int64)


def cmd_export_embeddings(args) -> tuple[Path, list, list]:
    params, cfg, _ = load_checkpoint(args.checkpoint)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.shape:
        records = [parse_json_shape(Path(p).read_text()) for p in args.shape]
    else:
        records = load_corpus(args.data)
    if args.ids:
        records = [r for r in records if r.shape_id in args.ids]
    if not records:
        raise ConfigurationError("no shapes to export")
    shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
    written = []
    for s in shapes:
        embed, _ = forward_embed(params, cfg, s.cloud.points[None])
        rows = embed[0]
        path = out / f"{s.record.shape_id}.ply"
        write_ply(path, s.cloud, embeddings=rows, rgb=_pca_rgb(rows))
        written.append(path)
    print(f"exported {len(written)} embedding clouds to {out}")
    return out, [args.checkpoint], written


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="partembed",
        description="Mine part hierarchies from scene files, train point "
                    "embeddings with tree-aware triplets, benchmark few-shot "
                    "segmentation transfer.")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    s.add_argument("--out", required=True)
    s.add_argument("--config", help="JSON with counts/seed/tag_prob/noise")
    s.add_argument("--counts", nargs="*", metavar="CAT=N")
    s.add_argument("--tag-prob", nargs="*", metavar="CAT=P", dest="tag_prob")
    s.add_argument("--seed", type=_at_least(0), default=None)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("mine", help="parse, filter and tag a directory of scene files")
    s.add_argument("--in", required=True, dest="in_dir")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--points", type=_at_least(1), default=10000)
    s.add_argument("--synonyms", help="JSON file mapping raw names to canonical tags")
    s.add_argument("--stop-patterns", type=_csv(), help="comma-separated junk name tokens")
    s.add_argument("--min-leaves", type=int, default=2)
    s.add_argument("--max-leaves", type=int, default=500)
    s.add_argument("--align-to", help="PLY target cloud for ICP canonical alignment")
    s.add_argument("--clouds", action=argparse.BooleanOptionalAction, default=True,
                   help="write sampled point clouds (PLY) next to the shapes")
    s.set_defaults(func=cmd_mine)

    s = sub.add_parser("pretrain", help="triplet metric or reconstruction pretraining")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--strategy", choices=("hierarchy", "leaf", "autoencoder"),
                   default="hierarchy")
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--points", type=_at_least(1), default=10000)
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--arch", help="architecture config JSON")
    s.add_argument("--train", help="training config JSON")
    s.set_defaults(func=cmd_pretrain)

    s = sub.add_parser("finetune", help="tag or segmentation fine-tuning")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--objective", choices=("tags", "segmentation"), required=True)
    s.add_argument("--category", required=True)
    s.add_argument("--checkpoint", help="pretrained checkpoint to start from")
    s.add_argument("--labeled-shapes", type=_at_least(1), default=None)
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--points", type=_at_least(1), default=10000)
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--arch", help="architecture config JSON")
    s.add_argument("--train", help="training config JSON")
    s.set_defaults(func=cmd_finetune)

    s = sub.add_parser("benchmark", help="few-shot transfer benchmark")
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--categories", type=_csv())
    s.add_argument("--variants", type=_csv(), default=VARIANTS)
    s.add_argument("--x", type=_csv(int), default=BenchmarkSpec.shape_axis,
                   help="labeled-shape counts, e.g. 4,8")
    s.add_argument("--points-grid", dest="points_grid", type=_csv(int),
                   default=BenchmarkSpec.point_axis)
    s.add_argument("--axes", type=_csv(), default=BenchmarkSpec.axes, help="shapes,points")
    s.add_argument("--repeats", type=int, default=5)
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.add_argument("--points", type=_at_least(1), default=10000)
    s.add_argument("--eval-points", type=int, default=2048, dest="eval_points")
    s.add_argument("--epochs", type=int, default=None)
    s.add_argument("--checkpoint", action="append", metavar="VARIANT=PATH",
                   help="repeatable; any variant takes VARIANT=PATH (shared) or "
                        "VARIANT=CATEGORY=PATH (per category; others are skipped)")
    s.add_argument("--arch", help="architecture config JSON for scratch")
    s.add_argument("--train", help="training config JSON")
    s.set_defaults(func=cmd_benchmark)

    s = sub.add_parser("export-embeddings", help="write per-point embeddings as PLY")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--out", required=True)
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="mined/synthetic shape directory")
    source.add_argument("--shape", nargs="+", help="explicit shape JSON files")
    s.add_argument("--ids", type=_csv(), help="comma-separated shape ids to keep")
    s.add_argument("--points", type=_at_least(1), default=10000)
    s.add_argument("--seed", type=_at_least(0), default=0)
    s.set_defaults(func=cmd_export_embeddings)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        out_dir, inputs, outputs = args.func(args)
        _write_run_manifest(out_dir, args, inputs, outputs, started)
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PartembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
