"""Command-line entry point: synth, mine, pretrain, finetune, benchmark,
export-embeddings.

Every command is deterministic given its flags and seed, writes its outputs
under the given path and returns (directory, inputs, outputs): the files
it read (None for a path flag not given) and wrote. From these ``main``
drops a run.json manifest next to the outputs. Exit codes: 0 success,
1 runtime failure, 2 usage or configuration error. Both JSON configs
(``--arch``, ``--train``) fill their omitted keys with defaults and decode
through ``config.from_json``, as a corpus manifest's ``split`` and
``vocabularies`` do; neither config may name a key the command sets.
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
from .benchmark import (BenchmarkSpec, category_classes, finetune_start, run_benchmark,
                        select_labeled_shapes)
from .config import check_value, from_json
from .errors import ConfigurationError, InputError, PartembedError
from .geometry import icp_align, read_ply, sample_surface, write_ply
from .ingest import (DatasetSplit, TagVocabulary, extract_tags, label_points_with_tags,
                     load_corpus, mine_directory, read_json_shapes, split_dataset,
                     write_corpus)
from .network import PenConfig, forward_embed, init_params, load_checkpoint, save_checkpoint
from .synth import generate_corpus
from .training import (TrainConfig, finetune_segmentation, finetune_tags,
                       prepare_shapes, pretrain_autoencoder, pretrain_metric, split_shapes)
from .triplets import STRATEGIES

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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    check_value(str(path), "object", obj)
    return obj


def _read_config(cls, path, sets: dict, **flags):
    """A ``cls`` from the JSON file at ``path`` (no file: the defaults) with
    the keys ``sets``, which the command sets and so the file may not name,
    and the ``flags`` given, which override the file."""
    raw = _load_json(path) if path else {}
    if named := sorted(set(raw) & set(sets)):
        raise ConfigurationError(f"{path} names {', '.join(named)}, "
                                 f"which the command sets")
    given = {k: v for k, v in flags.items() if v is not None}
    return from_json(cls, {**asdict(cls()), **raw, **given, **sets}, str(path or cls.__name__))


# the heads and the reconstruction decoder are the command's to set
HEADS = {"n_classes": 0, "n_tags": 0, "with_ae": False}


def _write_run_manifest(out_dir: Path, args: argparse.Namespace,
                        inputs: list, outputs: list, started: float) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    blob = json.dumps(flags, sort_keys=True, default=str)
    manifest = {
        "command": args.command,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "flags": json.loads(blob),
        "seed": args.seed,
        "inputs": [str(p) for p in inputs if p],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _new_dir(path) -> Path:
    """``path`` as an output directory holding no files of an earlier run,
    which would otherwise be read back as part of this one."""
    out = Path(path)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        raise ConfigurationError(f"--out {out} exists and is not empty")
    return out


def _load_dataset(data_dir):
    """Records, split and tag vocabularies of a corpus directory: the latter
    two from its manifest, or derived deterministically where it lacks them."""
    data_dir = Path(data_dir)
    records = load_corpus(data_dir)
    if not records:
        raise InputError(f"no shape JSON files under {data_dir}")
    mpath = data_dir / "manifest.json"
    manifest = _load_json(mpath) if mpath.exists() else {}
    synonyms = manifest.get("synonyms", {})
    check_value(f"{mpath}: synonyms", "string_map", synonyms)
    split = from_json(DatasetSplit, manifest["split"], f"{mpath}: split") \
        if "split" in manifest else split_dataset([r.shape_id for r in records], seed=0)
    if "vocabularies" not in manifest:
        return records, split, {cat: extract_tags(records, cat, synonyms=synonyms)
                                for cat in sorted({r.category for r in records})}
    check_value(f"{mpath}: vocabularies", "objects", manifest["vocabularies"])
    return records, split, {  # the key is the category; synonyms and counts may be left out
        cat: from_json(TagVocabulary, {"synonyms": {}, "counts": {}, **entry, "category": cat},
                       f"{mpath}: vocabularies[{cat!r}]")
        for cat, entry in manifest["vocabularies"].items()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> tuple[Path, list, list]:
    out = _new_dir(args.out)
    counts = _parse_kv(args.counts, int)
    if not counts:
        raise ConfigurationError("no categories: pass --counts cat=N")
    try:
        records = generate_corpus(counts, seed=args.seed,
                                  tag_prob=_parse_kv(args.tag_prob, float), out_dir=out)
    except InputError as exc:
        raise ConfigurationError(f"bad corpus settings: {exc}") from exc
    print(f"wrote {len(records)} shapes in {len(counts)} categories to {out}")
    return out, [], [out]


def cmd_mine(args) -> tuple[Path, list, list]:
    out = _new_dir(args.out)
    synonyms = _load_json(args.synonyms) if args.synonyms else {}
    check_value(f"{args.synonyms}: synonyms", "string_map", synonyms)
    records, report = mine_directory(args.in_dir, synonyms=synonyms, seed=args.seed)
    target = None
    if args.align_to:
        target, _ = read_ply(args.align_to)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xC1)))
    cloud_dir = out / "clouds"
    cloud_dir.mkdir(parents=True, exist_ok=True)
    for rec in records:
        cloud = sample_surface(rec.mesh, n=args.points, rng=rng)
        if target is not None:
            result = icp_align(cloud, target)
            cloud.points = result.transform.apply(cloud.points)
            rec.mesh.vertices = result.transform.apply(rec.mesh.vertices)
        cloud.tag_id = label_points_with_tags(cloud.leaf_id, rec.hierarchy,
                                              report.vocabularies[rec.category])
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
    return out, [args.in_dir, args.synonyms, args.align_to], [out]


def cmd_pretrain(args) -> tuple[Path, list, list]:
    records, split, _ = _load_dataset(args.data)
    cfg = _read_config(PenConfig, args.arch, {**HEADS, "with_ae": args.strategy == "autoencoder"})
    tc = _read_config(TrainConfig, args.train, {"seed": args.seed}, max_epochs=args.epochs)
    shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
    train, val, _ = split_shapes(shapes, split)
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
    return out.parent, [args.data, args.arch, args.train], [out]


def cmd_finetune(args) -> tuple[Path, list, list]:
    if args.checkpoint and args.arch:
        raise ConfigurationError("--arch is for training from scratch, not from a --checkpoint")
    records, split, vocabs = _load_dataset(args.data)
    records = [r for r in records if r.category == args.category]
    if not records:
        raise ConfigurationError(f"no shapes of category {args.category!r} in {args.data}")
    tc = _read_config(TrainConfig, args.train, {"seed": args.seed}, max_epochs=args.epochs)
    base_cfg = _read_config(PenConfig, args.arch, HEADS)
    ckpt = load_checkpoint(args.checkpoint) if args.checkpoint else None

    if args.objective == "tags":
        vocab = vocabs.get(args.category)
        if vocab is None or not vocab.tags:
            raise ConfigurationError(f"category {args.category!r} has no tag vocabulary")
        shapes = prepare_shapes(records, n_points=args.points, seed=args.seed,
                                vocab_by_category={args.category: vocab})
        train, val, _ = split_shapes([s for s in shapes if (s.cloud.tag_id >= 0).any()], split)
        if not train or not val:
            raise ConfigurationError(f"category {args.category!r}: no tagged shape in the "
                                     f"{'validation' if train else 'train'} split")
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xF17A6)))
        params, cfg, pretrained = finetune_start(ckpt, base_cfg, rng,
                                                 n_tags=len(vocab.tags))
        report = finetune_tags(params, cfg, train, val, tc, pretrained)
        meta = {"stage": "finetune_tags", "category": args.category, "seed": args.seed,
                "tags": list(vocab.tags), "epochs": report.epochs,
                "best_val": report.best_val}
    else:
        shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
        n_classes = category_classes(shapes)
        train, _, _ = split_shapes(shapes, split)
        if args.labeled_shapes is not None:
            rng_sel = np.random.default_rng(np.random.SeedSequence((args.seed, 0x5E1EC7)))
            train = select_labeled_shapes(train, args.labeled_shapes, rng_sel)
        rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0xF15E6)))
        params, cfg, pretrained = finetune_start(ckpt, base_cfg, rng,
                                                 n_classes=n_classes)
        report = finetune_segmentation(params, cfg, train, tc, pretrained)
        meta = {"stage": "finetune_segmentation", "category": args.category,
                "seed": args.seed, "epochs": report.epochs, "n_classes": n_classes}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, params, cfg, meta)
    print(f"fine-tuned ({args.objective}) on {args.category}: {report.epochs} epochs; wrote {out}")
    return out.parent, [args.data, args.checkpoint, args.arch, args.train], [out]


def _parse_checkpoint_flags(items) -> dict:
    """['hierarchy=ck.npz', 'tags=chair=ck.npz'] -> nested mapping. A variant
    takes one shared path or one path per category, each given once."""
    out: dict = {}
    for item in items or []:
        parts = item.split("=")
        if len(parts) not in (2, 3) or not all(parts):
            raise ConfigurationError(f"expected variant=path or variant=category=path, got {item!r}")
        variant, *cat, path = parts
        given = out.setdefault(variant, {})
        key = cat[0] if cat else None
        if key in given:
            raise ConfigurationError(f"--checkpoint {'='.join((variant, *cat))} given twice")
        if given and None in (key, *given):
            raise ConfigurationError(f"--checkpoint {variant} given both shared and per category")
        given[key] = path
    return {variant: given.get(None, given) for variant, given in out.items()}


def cmd_benchmark(args) -> tuple[Path, list, list]:
    checkpoints = _parse_checkpoint_flags(args.checkpoint)
    records, split, _ = _load_dataset(args.data)
    # scratch runs first, as every variant's pair; a scratch= checkpoint is refused later
    spec = BenchmarkSpec(
        categories=args.categories or tuple(sorted({r.category for r in records})),
        variants=tuple(dict.fromkeys(["scratch", *checkpoints])), shape_axis=args.x,
        point_axis=args.points_grid, axes=args.axes, repeats=args.repeats, seed=args.seed,
        eval_points=args.eval_points)
    shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
    tc = _read_config(TrainConfig, args.train, {"seed": args.seed}, max_epochs=args.epochs)
    base_cfg = _read_config(PenConfig, args.arch, HEADS)
    out = Path(args.out)
    table = run_benchmark(shapes, split, spec, tc, base_cfg, checkpoints,
                          out_csv=out / "metrics.csv", out_summary=out / "summary.json")
    print(f"wrote {len(table.rows)} rows to {out / 'metrics.csv'}")
    for cell in table.summary()["cells"]:
        print(f"{cell['category']:>10} {cell['variant']:>15} {cell['axis']}={cell['value']:<4} "
              f"mIoU {cell['mean_miou']:.4f} ± {cell['std_miou']:.4f}")
    opened = [p for c in checkpoints.values()
              for p in (c.values() if isinstance(c, dict) else [c])]
    return out, [args.data, *opened, args.arch, args.train], [out / "metrics.csv"]


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
    if args.shape:
        records = read_json_shapes(args.shape)
    else:
        records = load_corpus(args.data)
    if args.ids:
        found = {r.shape_id for r in records}
        missing = [i for i in args.ids if i not in found]
        if missing:
            raise ConfigurationError(f"--ids not found: {', '.join(missing)}")
        records = [r for r in records if r.shape_id in args.ids]
    if not records:
        raise ConfigurationError("no shapes to export")
    shapes = prepare_shapes(records, n_points=args.points, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for s in shapes:
        embed, _ = forward_embed(params, cfg, s.cloud.points[None])
        rows = embed[0]
        path = out / f"{s.record.shape_id}.ply"
        write_ply(path, s.cloud, embeddings=rows, rgb=_pca_rgb(rows))
        written.append(path)
    print(f"exported {len(written)} embedding clouds to {out}")
    return out, [args.checkpoint, args.data, *(args.shape or ())], written


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
    # flags shared by every command, by those that sample clouds, and by
    # those that train
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out", required=True)
    outputs.add_argument("--seed", type=_at_least(0), default=0)
    sampling = argparse.ArgumentParser(add_help=False, parents=[outputs])
    sampling.add_argument("--points", type=_at_least(1), default=10000)
    training = argparse.ArgumentParser(add_help=False, parents=[sampling])
    training.add_argument("--data", required=True)
    training.add_argument("--epochs", type=_at_least(1), default=None)
    training.add_argument("--arch", help="architecture config JSON for training from scratch")
    training.add_argument("--train", help="training config JSON")

    s = sub.add_parser("synth", parents=[outputs], help="generate a synthetic labeled corpus")
    s.add_argument("--counts", nargs="*", metavar="CAT=N")
    s.add_argument("--tag-prob", nargs="*", metavar="CAT=P", dest="tag_prob")
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("mine", parents=[sampling],
                       help="parse, filter and tag a directory of scene files")
    s.add_argument("--in", required=True, dest="in_dir")
    s.add_argument("--synonyms", help="JSON file mapping raw names to canonical tags")
    s.add_argument("--align-to", help="PLY target cloud for ICP canonical alignment")
    s.set_defaults(func=cmd_mine)

    s = sub.add_parser("pretrain", parents=[training],
                       help="triplet metric or reconstruction pretraining")
    s.add_argument("--strategy", choices=(*STRATEGIES, "autoencoder"),
                   default="hierarchy")
    s.set_defaults(func=cmd_pretrain)

    s = sub.add_parser("finetune", parents=[training], help="tag or segmentation fine-tuning")
    s.add_argument("--objective", choices=("tags", "segmentation"), required=True)
    s.add_argument("--category", required=True)
    s.add_argument("--checkpoint", help="pretrained checkpoint to start from")
    s.add_argument("--labeled-shapes", type=_at_least(1), default=None)
    s.set_defaults(func=cmd_finetune)

    s = sub.add_parser("benchmark", parents=[training], help="few-shot transfer benchmark")
    s.add_argument("--categories", type=_csv())
    s.add_argument("--x", type=_csv(int), default=BenchmarkSpec.shape_axis,
                   help="labeled-shape counts, e.g. 4,8")
    s.add_argument("--points-grid", dest="points_grid", type=_csv(int),
                   default=BenchmarkSpec.point_axis)
    s.add_argument("--axes", type=_csv(), default=BenchmarkSpec.axes, help="shapes,points")
    s.add_argument("--repeats", type=int, default=BenchmarkSpec.repeats)
    s.add_argument("--eval-points", type=int, default=BenchmarkSpec.eval_points,
                   dest="eval_points")
    s.add_argument("--checkpoint", action="append", metavar="VARIANT=PATH",
                   help="repeatable; each names a variant run after scratch, with "
                        "VARIANT=PATH (shared) or VARIANT=CATEGORY=PATH (per category; "
                        "others are skipped)")
    s.set_defaults(func=cmd_benchmark)

    s = sub.add_parser("export-embeddings", parents=[sampling],
                       help="write per-point embeddings as PLY")
    s.add_argument("--checkpoint", required=True)
    source = s.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="mined/synthetic shape directory")
    source.add_argument("--shape", nargs="+", help="explicit shape JSON files")
    s.add_argument("--ids", type=_csv(), help="comma-separated shape ids to keep")
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
    except (PartembedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
