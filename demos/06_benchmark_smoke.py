"""A miniature few-shot transfer benchmark.

The real benchmark compares training from scratch with every pretrained
checkpoint it is given, over a grid of labeled-shape and labeled-point
budgets with repeats. This smoke version runs two variants (scratch vs
hierarchy-pretrained) on one small category and prints the metrics table,
to show the moving parts without the wait.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from partembed.benchmark import BenchmarkSpec, run_benchmark
from partembed.ingest import split_dataset
from partembed.network import PenConfig, init_params, save_checkpoint
from partembed.synth import generate_corpus
from partembed.training import TrainConfig, prepare_shapes, pretrain_metric, split_shapes

t0 = time.time()
records = generate_corpus({"table": 30}, seed=2)
shapes = prepare_shapes(records, n_points=400, seed=0)
split = split_dataset([r.shape_id for r in records], seed=0)
train, val, _ = split_shapes(shapes, split)

cfg = PenConfig(point_widths=(16, 16), lift_widths=(32,), decoder_widths=(32,),
                embed_dim=16, head_hidden=32)
tc = TrainConfig(lr=0.01, batch_shapes=8, subsample_points=300,
                 triplets_per_shape=128, head_epochs=6, max_epochs=10,
                 microbatch=4, trunk_lr_scale=0.1, seed=0)

params = init_params(cfg, np.random.default_rng(0))
pretrain_metric(params, cfg, train, val, tc)
with tempfile.TemporaryDirectory(prefix="partembed_bench_") as tmp:
    work = Path(tmp)
    save_checkpoint(work / "h.npz", params, cfg, {})
    print(f"pretrained on {len(train)} tables ({time.time() - t0:.0f}s)")

    spec = BenchmarkSpec(categories=("table",), variants=("scratch", "hierarchy"),
                         shape_axis=(2, 4), axes=("shapes",), repeats=3, seed=0,
                         eval_points=300)
    table = run_benchmark(shapes, split, spec, tc, cfg, {"hierarchy": work / "h.npz"},
                          out_csv=work / "metrics.csv")

print()
print(f"{'variant':>12} {'x':>3} {'mean mIoU':>10} {'std':>8}")
for cell in table.summary()["cells"]:
    print(f"{cell['variant']:>12} {cell['value']:>3} {cell['mean_miou']:>10.3f} "
          f"{cell['std_miou']:>8.3f}")
print()
print(f"{len(table.rows)} rows; {time.time() - t0:.0f}s total")
