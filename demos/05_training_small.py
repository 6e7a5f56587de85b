"""Pretraining helps: a small end-to-end run.

Generates 16 chairs, pretrains a point embedding network with tree-aware
triplets on 10 of them, then fine-tunes a segmentation head on just 3
labeled shapes. A second network trains on the same 3 shapes from random
init. Both are scored on 3 held-out chairs. Runs in a few seconds.
"""

import time

import numpy as np

from partembed.benchmark import miou
from partembed.ingest import split_dataset
from partembed.network import PenConfig, init_params
from partembed.synth import generate_corpus
from partembed.training import (PRETRAINED, TrainConfig, finetune_segmentation,
                                predict_segmentation, prepare_shapes,
                                pretrain_metric)

t0 = time.time()
records = generate_corpus({"chair": 16}, seed=1)
shapes = prepare_shapes(records, n_points=400, seed=0)
split = split_dataset([r.shape_id for r in records], seed=0)
by_id = {s.record.shape_id: s for s in shapes}
train = [by_id[i] for i in split.train]
val = [by_id[i] for i in split.validation]
test = [by_id[i] for i in split.test] + val[1:]
print(f"{len(train)} train / {len(test)} held-out chairs, 400 points each")

cfg = PenConfig(point_widths=(16, 16), lift_widths=(32,), decoder_widths=(32,),
                embed_dim=16, head_hidden=32)
pre_tc = TrainConfig(lr=0.01, batch_shapes=10, subsample_points=300,
                     triplets_per_shape=128, max_epochs=15, microbatch=5, seed=0)
# pretrain_metric updates this dict in place; afterwards it holds the
# pretrained trunk
pre_params = init_params(cfg, np.random.default_rng(0))
report = pretrain_metric(pre_params, cfg, train, val[:1], pre_tc)
print(f"pretrained {report.epochs} epochs, triplet loss "
      f"{report.train_losses[0]:.4f} -> {report.train_losses[-1]:.4f}")

n_classes = 1 + max(int(s.cloud.semantic_label.max()) for s in shapes)
labeled = train[:3]
ft_tc = TrainConfig(lr=0.01, batch_shapes=3, subsample_points=300,
                    triplets_per_shape=128, head_epochs=6, max_epochs=8,
                    microbatch=3, trunk_lr_scale=0.1, seed=0)

scores = {}
for name, pretrained in (("pretrained", PRETRAINED), ("scratch", ())):
    seg_cfg = PenConfig(point_widths=(16, 16), lift_widths=(32,),
                        decoder_widths=(32,), embed_dim=16, head_hidden=32,
                        n_classes=n_classes)
    params = init_params(seg_cfg, np.random.default_rng(42))
    if pretrained:
        params.update({k: v.copy() for k, v in pre_params.items()})
    finetune_segmentation(params, seg_cfg, labeled, ft_tc, pretrained=pretrained)
    per_shape = []
    for s in test:
        pred = predict_segmentation(params, seg_cfg, s.cloud.points[None])[0]
        per_shape.append(miou(pred, s.cloud.semantic_label, n_classes))
    scores[name] = float(np.mean(per_shape))
    print(f"{name:>10}: mIoU {scores[name]:.3f} on held-out chairs "
          f"(3 labeled shapes)")

print()
print(f"pretraining gains {100 * (scores['pretrained'] - scores['scratch']):+.1f} "
      f"mIoU points here; {time.time() - t0:.0f}s total")
