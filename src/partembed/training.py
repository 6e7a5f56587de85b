"""Training: triplet metric pretraining, the reconstruction baseline, and
tag and segmentation fine-tuning, all run by one loop, ``fit``.

``fit`` shuffles the shapes each epoch, runs each batch through the network
in microbatch chunks and takes one Adam step per batch. An objective
supplies a ``draw`` (the point subsets or triplets a step sees of a shape)
and a ``chunk_loss``, which returns the loss summed over the chunk's shapes.
Adam thus always steps on the batch sum, so chunking is exact.
``TrainReport.train_losses`` is the per-shape mean loss of each epoch for
every objective. Validation draws are frozen once per run, so the
validation loss is a pure function of the parameters. A run is one ``fit``
call on a schedule of per-epoch rate multipliers, by which fine-tuning steps
pretrained tensors at ``trunk_lr_scale`` times the rate; 0 freezes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import check, kind
from .errors import InputError, PartembedError, SamplingError
from .geometry import PointCloud, normalize_cloud, sample_surface
from .ingest import (MIN_TAG_COVERAGE, DatasetSplit, ShapeRecord, TagVocabulary,
                     label_points_with_tags, tag_sufficiency)
from .network import (AdamState, PenConfig, adam_step, ae_backward,
                      ae_forward, backward_embed, backward_trunk, chamfer_batch_and_grad,
                      forward_embed, forward_trunk, head_backward, head_forward,
                      seg_loss_and_grad, tag_loss_and_grad, triplet_loss_and_grad)
from .triplets import sample_triplets


# The plateau schedule: an epoch improves when its validation loss beats the
# best seen by more than PLATEAU_REL_THRESHOLD (relative); PLATEAU_PATIENCE
# epochs without improvement divide the rate by DECAY_FACTOR, and training
# stops once STOP_DECAYS_BELOW decays have landed below MIN_LR.
DECAY_FACTOR = 10.0
PLATEAU_PATIENCE = 5
PLATEAU_REL_THRESHOLD = 1e-4
MIN_LR = 1e-5
STOP_DECAYS_BELOW = 2


@dataclass
class TrainConfig:
    """Knobs for every objective. Defaults follow the full-scale recipe: Adam at
    0.01 divided by 10 on validation plateau, 32-shape batches, 2500-point
    subsamples, a constant number of triplets per shape."""

    lr: float = kind("positive", 0.01)
    batch_shapes: int = kind("count", 32)
    subsample_points: int = kind("count", 2500)
    triplets_per_shape: int = kind("count", 512)
    max_epochs: int = kind("count", 100)
    seed: int = kind("natural", 0)
    microbatch: int = kind("count", 8)
    trunk_lr_scale: float = kind("nonnegative", 0.1)  # 0 freezes pretrained tensors in fine-tuning
    head_epochs: int = kind("natural", 10)  # fresh tensors alone, before pretrained ones join

    def __post_init__(self):
        check(self)


class PlateauScheduler:
    """Divide the learning rate, starting at ``lr``, when the watched loss
    stops improving, on the module's plateau schedule. ``observe`` returns
    True once training should stop at the rate floor."""

    def __init__(self, lr: float):
        self.lr = lr
        self.best = np.inf
        self.bad_epochs = 0
        self.decays_below = 0

    def observe(self, loss: float) -> bool:
        # against inf the relative margin is nan; any finite loss improves
        bar = self.best - PLATEAU_REL_THRESHOLD * abs(self.best) \
            if np.isfinite(self.best) else self.best
        if loss < bar:
            self.best = loss
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        if self.bad_epochs >= PLATEAU_PATIENCE:
            self.lr /= DECAY_FACTOR
            self.bad_epochs = 0
            if self.lr < MIN_LR:
                self.decays_below += 1
                if self.decays_below >= STOP_DECAYS_BELOW:
                    return True
        return False


@dataclass
class TrainShape:
    """A shape prepared for training: its record and normalized cloud (with
    its points' tag ids when the category has a vocabulary)."""

    record: ShapeRecord
    cloud: PointCloud

    @property
    def category(self) -> str:
        return self.record.category


@dataclass
class TrainReport:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    epochs: int = 0
    best_epoch: int = -1
    best_val: float = np.inf
    stop_reason: str = ""


def prepare_shapes(records: Sequence[ShapeRecord], n_points: int = 10000,
                   seed: int = 0,
                   vocab_by_category: Optional[dict[str, TagVocabulary]] = None
                   ) -> list[TrainShape]:
    """Sample, normalize and annotate every record. One generator seeded once
    drives all sampling, so the same records and seed give the same clouds."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC10D)))
    out = []
    for rec in records:
        cloud = normalize_cloud(sample_surface(rec.mesh, n=n_points, rng=rng))
        vocab = (vocab_by_category or {}).get(rec.category)
        if vocab is not None:
            cloud.tag_id = label_points_with_tags(cloud.leaf_id, rec.hierarchy, vocab)
        out.append(TrainShape(record=rec, cloud=cloud))
    return out


def split_shapes(shapes: Sequence[TrainShape], split: DatasetSplit
                 ) -> tuple[list[TrainShape], list[TrainShape], list[TrainShape]]:
    """The shapes of the split's train, validation and test ids, each group
    in split order. Ids not among ``shapes`` are skipped."""
    by_id = {s.record.shape_id: s for s in shapes}
    return tuple([by_id[i] for i in ids if i in by_id]
                 for ids in (split.train, split.validation, split.test))


def _check_same_size(shapes: Sequence[TrainShape]):
    sizes = {len(s.cloud) for s in shapes}
    if len(sizes) > 1:
        raise InputError(f"shapes must share a point count, got {sorted(sizes)}")


def _subsample(shape: TrainShape, n: int, rng: np.random.Generator,
               labeled: Optional[np.ndarray] = None) -> np.ndarray:
    """``n`` distinct point indices, keeping every point of a ``labeled`` mask
    when they fit, so a sparsely labeled batch always has points to supervise."""
    total = len(shape.cloud)
    if n >= total:
        return np.arange(total)
    lab = np.arange(total) if labeled is None else np.flatnonzero(labeled)
    if len(lab) >= n:
        return rng.choice(lab, size=n, replace=False)
    fill = rng.choice(np.flatnonzero(~labeled), size=n - len(lab), replace=False)
    return np.concatenate([lab, fill])


def _shape_triplets(shape: TrainShape, sub_idx: np.ndarray, k: int,
                    rng: np.random.Generator, strategy: str) -> np.ndarray:
    """(3, k) triplets indexing the subsample ``sub_idx`` of the shape."""
    try:
        return sample_triplets(shape.record.hierarchy, shape.cloud.leaf_id[sub_idx], k, rng,
                               strategy)
    except SamplingError as exc:
        raise PartembedError(f"shape {shape.record.shape_id}: no valid triplets ({exc})") from exc


def _pad_rows(named: np.ndarray, n: int, width: int) -> np.ndarray:
    """``named`` followed by the first of the other rows of [0, n), ``width``
    rows in all."""
    free = np.ones(n, dtype=bool)
    free[named] = False
    return np.concatenate([named, np.flatnonzero(free)[:width - len(named)]])


def _accumulate(total: dict, part: dict) -> None:
    for k, v in part.items():
        if k in total:
            total[k] += v
        else:
            total[k] = v


# the tensors a pretrained network lends to fine-tuning: trunk and decoder
PRETRAINED = ("enc", "lift", "dec", "embed")


def _lr_mult(params: dict, pretrained: tuple[str, ...], trunk_scale: float) -> dict[str, float]:
    """``trunk_scale`` for the pretrained tensors, full rate for the rest."""
    return {name: trunk_scale if name.startswith(pretrained) else 1.0 for name in params}


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------

Draw = Callable[[list[TrainShape], np.random.Generator], list]
ChunkLoss = Callable[[list[TrainShape], list, bool], tuple[float, Optional[dict]]]


def fit(params: dict, shapes: Sequence[TrainShape], tc: TrainConfig, rng: np.random.Generator,
        draw: Draw, chunk_loss: ChunkLoss, lr_mults: Sequence[Optional[dict[str, float]]],
        val: Optional[tuple[Sequence[TrainShape], np.random.Generator]] = None) -> TrainReport:
    """Train ``params`` in place for up to ``len(lr_mults)`` epochs of ``shapes``.

    ``draw(chunk, rng)`` returns what one step sees of each shape of the
    chunk; ``chunk_loss(chunk, draws, want_grads)`` returns the loss summed
    over the chunk's shapes and its gradients (None unless asked). Adam
    steps once per batch on the gradient summed over the batch's shapes,
    with epoch ``e``'s per-tensor rate multipliers ``lr_mults[e]`` (None:
    full rate).

    ``val`` is (validation shapes, generator for their draws). With it the
    validation loss is watched: the rate decays on plateaus, training stops
    at the rate floor, and ``params`` end at the best epoch's values.
    Without it every epoch of the schedule runs.
    """
    val_shapes, rng_val = val if val is not None else ((), None)
    if not shapes or (val is not None and not val_shapes):
        raise InputError("need nonempty train and validation shape lists")
    _check_same_size([*shapes, *val_shapes])
    state = AdamState()
    report = TrainReport(stop_reason="max_epochs" if val_shapes else "fixed_epochs")
    sched = PlateauScheduler(tc.lr)
    # drawn one shape at a time, once per run: the validation loss is then a
    # pure function of the parameters and independent of the chunking
    fixtures = [d for s in val_shapes for d in draw([s], rng_val)]
    best_params = None
    n = len(shapes)
    for lr_mult in lr_mults:
        order = rng.permutation(n)
        epoch_loss = 0.0
        for lo in range(0, n, tc.batch_shapes):
            batch = order[lo:lo + tc.batch_shapes]
            grads: dict[str, np.ndarray] = {}
            for mlo in range(0, len(batch), tc.microbatch):
                chunk = [shapes[i] for i in batch[mlo:mlo + tc.microbatch]]
                loss, g = chunk_loss(chunk, draw(chunk, rng), True)
                epoch_loss += loss
                _accumulate(grads, g)
            adam_step(params, grads, state, sched.lr, lr_mult=lr_mult)
        report.train_losses.append(epoch_loss / n)
        report.epochs += 1
        if not val_shapes:
            continue
        v = sum(chunk_loss(val_shapes[lo:lo + tc.microbatch], fixtures[lo:lo + tc.microbatch],
                           False)[0]
                for lo in range(0, len(val_shapes), tc.microbatch)) / len(val_shapes)
        report.val_losses.append(v)
        if v < report.best_val:
            report.best_val = v
            report.best_epoch = report.epochs - 1
            best_params = {k: x.copy() for k, x in params.items()}
        if sched.observe(v):
            report.stop_reason = "lr_floor"
            break
    if best_params is not None:
        params.update(best_params)
    return report


def _train_val_rngs(tc: TrainConfig, salt: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence((tc.seed, salt)).spawn(2)]


def _point_draw(n: int, labeled=lambda s: None) -> Draw:
    """A draw of ``_subsample(shape, n, rng, labeled(shape))`` per shape."""
    return lambda chunk, rng: [_subsample(s, n, rng, labeled(s)) for s in chunk]


def _head_loss(params: dict, cfg: PenConfig, prefix: str, loss_and_grad,
               labels_of) -> ChunkLoss:
    """Chunk loss of a per-point classifier head on the embedding, trained
    through the whole network."""
    def chunk_loss(chunk, subs, want_grads):
        pts = np.stack([s.cloud.points[sub] for s, sub in zip(chunk, subs)])
        labels = np.stack([labels_of(s)[sub] for s, sub in zip(chunk, subs)])
        _, trace = forward_embed(params, cfg, pts)
        loss, g_logits = loss_and_grad(head_forward(params, cfg, prefix, trace), labels)
        if not want_grads:
            return loss, None
        grads: dict[str, np.ndarray] = {}
        g_embed = head_backward(params, cfg, prefix, trace, g_logits, grads)
        return loss, backward_embed(params, cfg, trace, g_embed, grads)
    return chunk_loss


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def pretrain_metric(params: dict, cfg: PenConfig, train_shapes: Sequence[TrainShape],
                    val_shapes: Sequence[TrainShape], tc: TrainConfig,
                    strategy: str = "hierarchy") -> TrainReport:
    """Triplet metric pretraining with the ``hierarchy`` or ``leaf`` triplet
    strategy. Mutates ``params`` and leaves them at the best-validation
    epoch's values.

    A draw holds, per shape, the subsample, the distinct subsample rows its
    triplets name (sorted) and the (3, k) triplets as indices into those
    rows. A step decodes only the named rows; the trunk still pools over
    the whole subsample."""
    def draw(chunk, rng):
        subs = [_subsample(s, tc.subsample_points, rng) for s in chunk]
        draws = []
        for s, sub in zip(chunk, subs):
            t = _shape_triplets(s, sub, tc.triplets_per_shape, rng, strategy)
            named, local = np.unique(t, return_inverse=True)
            draws.append((sub, named, local.reshape(t.shape)))
        return draws

    def chunk_loss(chunk, draws, want_grads):
        pts = np.stack([s.cloud.points[sub] for s, (sub, _, _) in zip(chunk, draws)])
        # pad every shape to the chunk's widest with its own unnamed rows,
        # so each shape's rows stay distinct
        width = max(len(named) for _, named, _ in draws)
        rows = np.stack([_pad_rows(named, len(sub), width) for sub, named, _ in draws])
        embed, trace = forward_embed(params, cfg, pts, rows)
        loss, g_embed = triplet_loss_and_grad(embed, np.stack([t for _, _, t in draws]))
        return loss, backward_embed(params, cfg, trace, g_embed) if want_grads else None

    rng_train, rng_val = _train_val_rngs(tc, 0x7E1)
    return fit(params, train_shapes, tc, rng_train, draw, chunk_loss, [None] * tc.max_epochs,
               val=(val_shapes, rng_val))


def finetune_tags(params: dict, cfg: PenConfig, train_shapes: Sequence[TrainShape],
                  val_shapes: Sequence[TrainShape], tc: TrainConfig,
                  pretrained: tuple[str, ...] = PRETRAINED) -> TrainReport:
    """Tag fine-tuning: the tensors named by the ``pretrained`` prefixes step
    at ``trunk_lr_scale`` (0 freezes them), the rest at full rate; an empty
    ``pretrained`` means training from scratch. Loss is the summed
    one-vs-rest cross-entropy; validation is its per-shape mean."""
    for s in list(train_shapes) + list(val_shapes):
        if s.cloud.tag_id is None:
            raise PartembedError(f"shape {s.record.shape_id} has no tag labels")
    ok, coverage = tag_sufficiency([np.mean(s.cloud.tag_id >= 0) for s in train_shapes])
    if not ok:
        raise PartembedError(f"insufficient tags: mean tagged fraction {coverage:.4f} "
                              f"does not clear {MIN_TAG_COVERAGE}")
    rng_train, rng_val = _train_val_rngs(tc, 0x7A6)
    chunk_loss = _head_loss(params, cfg, "tag", tag_loss_and_grad,
                            lambda s: s.cloud.tag_id)
    return fit(params, train_shapes, tc, rng_train, _point_draw(tc.subsample_points), chunk_loss,
               [_lr_mult(params, pretrained, tc.trunk_lr_scale)] * tc.max_epochs,
               val=(val_shapes, rng_val))


def pretrain_autoencoder(params: dict, cfg: PenConfig, train_shapes: Sequence[TrainShape],
                         val_shapes: Sequence[TrainShape], tc: TrainConfig) -> TrainReport:
    """Chamfer reconstruction pretraining of the trunk (the baseline). Only
    the trunk and the reconstruction decoder receive gradients; the
    embedding decoder is untouched and stays at its initialization."""
    def chunk_loss(chunk, subs, want_grads):
        pts = np.stack([s.cloud.points[sub] for s, sub in zip(chunk, subs)])
        # no per-point gradient: the trace keeps the pool winners alone
        trace = forward_trunk(params, cfg, pts, np.empty((len(pts), 0), np.intp))
        recon = ae_forward(params, cfg, trace)
        loss, g_recon = chamfer_batch_and_grad(recon, list(pts))
        if not want_grads:
            return loss, None
        grads: dict[str, np.ndarray] = {}
        g_global = ae_backward(params, cfg, trace, g_recon, grads)
        backward_trunk(params, cfg, trace, None, g_global, grads)
        return loss, grads

    rng_train, rng_val = _train_val_rngs(tc, 0xAE)
    return fit(params, train_shapes, tc, rng_train, _point_draw(tc.subsample_points), chunk_loss,
               [None] * tc.max_epochs, val=(val_shapes, rng_val))


def _seg_loss_summed(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    # the mean over the chunk's labeled points, counted once per shape so
    # that chunk losses add up like the per-shape sums of the other losses
    loss, g = seg_loss_and_grad(logits, labels)
    return loss * len(logits), g * len(logits)


def finetune_segmentation(params: dict, cfg: PenConfig, train_shapes: Sequence[TrainShape],
                          tc: TrainConfig, pretrained: tuple[str, ...] = PRETRAINED
                          ) -> TrainReport:
    """Few-shot segmentation fine-tuning on a handful of labeled shapes.

    ``pretrained`` names the prefixes of the tensors a checkpoint lent.
    The schedule's first ``head_epochs`` entries freeze them, so the fresh
    tensors train alone; ``max_epochs`` entries with them at
    ``trunk_lr_scale`` follow. An empty ``pretrained`` means training from
    scratch, with no head stage and every tensor at full rate. Epoch counts
    are fixed: the labeled sets are too small to carve a validation split from.
    """
    for s in train_shapes:
        if s.cloud.semantic_label is None:
            raise PartembedError(f"shape {s.record.shape_id} has no semantic labels")
        top = int(s.cloud.semantic_label.max())
        if top >= cfg.n_classes:
            raise InputError(
                f"shape {s.record.shape_id}: label {top} outside the {cfg.n_classes}-class set")
    rng = np.random.default_rng(np.random.SeedSequence((tc.seed, 0x5E6)))
    chunk_loss = _head_loss(params, cfg, "seg", _seg_loss_summed,
                            lambda s: s.cloud.semantic_label)
    head = tc.head_epochs if pretrained else 0
    return fit(params, train_shapes, tc, rng,
               _point_draw(tc.subsample_points, lambda s: s.cloud.semantic_label >= 0),
               chunk_loss, [_lr_mult(params, pretrained, 0.0)] * head
               + [_lr_mult(params, pretrained, tc.trunk_lr_scale)] * tc.max_epochs)


def predict_segmentation(params: dict, cfg: PenConfig, points: np.ndarray,
                         microbatch: int = 8) -> np.ndarray:
    """Argmax class per point for a (S, N, 3) batch of clouds."""
    outs = []
    for lo in range(0, len(points), microbatch):
        _, trace = forward_embed(params, cfg, points[lo:lo + microbatch])
        outs.append(head_forward(params, cfg, "seg", trace).argmax(axis=2))
    return np.concatenate(outs, axis=0)
