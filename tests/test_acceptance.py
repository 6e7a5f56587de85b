"""End-to-end acceptance gates.

Nine checks, one per guarantee the package makes: exact tree metrics,
triplet sampling distributions, analytic gradients, architecture
invariants, closed-form loss values, ICP recovery, mIoU properties, the
few-shot transfer ordering at desk scale, and the mining golden report.
Each prints one [PASS]/[FAIL] line with its headline numbers (run with -s
to see them on success). Random seeds are fixed; every check is
deterministic. The transfer ordering check trains real networks and takes
a few minutes on one core; everything else finishes in seconds.
"""

import json
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from partembed.benchmark import BenchmarkSpec, miou, run_benchmark
from partembed.geometry import (PointCloud, RigidTransform, icp_align,
                                normalize_cloud, sample_surface)
from partembed.hierarchy import build_tree
from partembed.ingest import FilterPolicy, extract_tags, mine_directory, split_dataset
from partembed.network import (DEFAULT_MARGIN, PROB_CLAMP, PenConfig, ae_backward,
                               ae_forward, all_layers, backward_embed, backward_trunk,
                               chamfer_batch_and_grad, forward_embed, forward_trunk,
                               head_backward, head_forward, init_params,
                               load_checkpoint, save_checkpoint, seg_loss_and_grad,
                               tag_loss_and_grad, triplet_loss_and_grad)
from partembed.synth import SYNTH_SYNONYMS, generate_corpus, generate_shape
from partembed.training import (TrainConfig, finetune_tags, prepare_shapes,
                                pretrain_autoencoder, pretrain_metric)
from partembed.triplets import sample_triplets

from helpers import (KINK_MARGIN, bfs_distance, check_grads, cloud_on_tree,
                     pool_gap, prenorm_floor, random_parents, relu_margin, tree_distance)

FIXTURES = Path(__file__).parent / "fixtures"

TINY = PenConfig(point_widths=(6, 5), lift_widths=(7, 9), decoder_widths=(8,),
                 embed_dim=4, head_hidden=5, n_tags=3, n_classes=4,
                 with_ae=True, ae_hidden=(6,), ae_points=5)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _trunk_layers(cfg):
    return [l for l in all_layers(cfg)
            if l[0].startswith(("enc", "lift", "dec", "embed"))]


# ---------------------------------------------------------------------------
# 1. tree distance equals an independent BFS oracle and is a metric
# ---------------------------------------------------------------------------

def test_tree_distance_matches_bfs_oracle():
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence((2026, 0x7D1)))
    mismatches = 0
    for _ in range(1000):
        parents = random_parents(rng, 500)
        tree = build_tree(parents)
        n = len(parents)
        for a, b in rng.integers(0, n, size=(8, 2)):
            if tree_distance(tree, int(a), int(b)) != bfs_distance(parents, int(a), int(b)):
                mismatches += 1
        for i, j, k in rng.integers(0, n, size=(8, 3)):
            dij = tree_distance(tree, int(i), int(j))
            dik = tree_distance(tree, int(i), int(k))
            djk = tree_distance(tree, int(j), int(k))
            assert dij >= 0 and (dij == 0) == (i == j)
            assert dij == tree_distance(tree, int(j), int(i))
            assert dik <= dij + djk
    dt = time.time() - t0
    _report("tree metric oracle", mismatches == 0 and dt < 30,
            f"1000 trees, 8000 pairs exact, 8000 triples metric, {dt:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 2. sampling follows the inverse-distance law; flat trees erase the
#    difference between strategies
# ---------------------------------------------------------------------------

def test_triplet_sampling_distribution():
    t0 = time.time()
    n_draws = 100_000
    rng = np.random.default_rng(np.random.SeedSequence((2026, 0x5A9)))
    l1s = []
    for _ in range(50):
        parents = random_parents(rng, 8)
        tree = build_tree(parents)
        if len(tree.leaves) < 2:
            parents = [None, 0, 0]
            tree = build_tree(parents)
        cloud = cloud_on_tree(tree, 2, rng)
        a, _, n = sample_triplets(tree, cloud.leaf_id, n_draws, rng, strategy="hierarchy")
        a_leaf = cloud.leaf_id[a]
        n_leaf = cloud.leaf_id[n]
        pairs = np.stack([np.minimum(a_leaf, n_leaf), np.maximum(a_leaf, n_leaf)], axis=1)
        # independent oracle: BFS distances over the raw parent array
        lv = tree.leaves
        exact = {(u, v): 1.0 / bfs_distance(parents, u, v)
                 for i, u in enumerate(lv) for v in lv[i + 1:]}
        z = sum(exact.values())
        emp = Counter(map(tuple, pairs.tolist()))
        l1 = sum(abs(emp.get(k, 0) / n_draws - w / z) for k, w in exact.items())
        l1 += sum(c / n_draws for k, c in emp.items() if k not in exact)
        l1s.append(l1)

    pvals = []
    for n_leaves in (4, 6, 9):
        tree = build_tree([None] + [0] * n_leaves)
        cloud = cloud_on_tree(tree, 2, rng)
        tables = []
        for strategy in ("hierarchy", "leaf"):
            anchor, _, negative = sample_triplets(tree, cloud.leaf_id, n_draws, rng, strategy)
            a, n = cloud.leaf_id[anchor], cloud.leaf_id[negative]
            key = np.minimum(a, n) * (len(tree) + 1) + np.maximum(a, n)
            keys = sorted(set(key.tolist()))
            tables.append([int((key == k).sum()) for k in keys])
        pvals.append(stats.chi2_contingency(np.array(tables))[1])

    dt = time.time() - t0
    ok = max(l1s) < 0.02 and min(pvals) > 0.01 and dt < 120
    _report("triplet sampling law", ok,
            f"50 hierarchies, max L1 {max(l1s):.4f} (< 0.02); flat-tree chi2 "
            f"min p {min(pvals):.3f} (> 0.01); {dt:.1f}s (< 2min)")


# ---------------------------------------------------------------------------
# 3. analytic gradients through the full network match central differences
# ---------------------------------------------------------------------------

def _triplet_instance(seed):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, rng)
    pts = rng.standard_normal((2, 10, 3))
    embed, trace = forward_embed(params, TINY, pts)
    batches = []
    for _ in range(2):
        a = rng.integers(0, 10, size=6)
        b = (a + rng.integers(1, 10, size=6)) % 10
        c = rng.integers(0, 10, size=6)
        batches.append(np.stack([a, b, c]))
    gaps = [np.abs(np.sum((embed[s][a] - embed[s][p]) ** 2, axis=1)
                   - np.sum((embed[s][a] - embed[s][n]) ** 2, axis=1)
                   + DEFAULT_MARGIN).min()
            for s, (a, p, n) in enumerate(batches)]
    if (relu_margin(params, _trunk_layers(TINY), trace) < KINK_MARGIN
            or pool_gap(trace) < KINK_MARGIN or min(gaps) < KINK_MARGIN
            or prenorm_floor(trace) < KINK_MARGIN):
        return None
    loss, g_embed = triplet_loss_and_grad(embed, batches)
    grads = backward_embed(params, TINY, trace, g_embed)

    def f():
        e, _ = forward_embed(params, TINY, pts)
        return triplet_loss_and_grad(e, batches)[0]

    return f, params, grads


def _head_instance(seed, head, loss_and_grad, labels_of):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, rng)
    pts = rng.standard_normal((2, 8, 3))
    embed, trace = forward_embed(params, TINY, pts)
    logits = head_forward(params, TINY, head, trace)
    labels = labels_of(rng)
    head_layers = [l for l in all_layers(TINY) if l[0].startswith(head)]
    p = 1.0 / (1.0 + np.exp(-logits))
    clamp_gap = min(float(p.min() - PROB_CLAMP), float(1.0 - PROB_CLAMP - p.max()))
    if (relu_margin(params, _trunk_layers(TINY), trace) < KINK_MARGIN
            or relu_margin(params, head_layers, trace) < KINK_MARGIN
            or pool_gap(trace) < KINK_MARGIN or clamp_gap < 1e-4
            or prenorm_floor(trace) < KINK_MARGIN):
        return None
    loss, g_logits = loss_and_grad(logits, labels)
    grads = {}
    g_embed = head_backward(params, TINY, head, trace, g_logits, grads)
    backward_embed(params, TINY, trace, g_embed, grads)

    def f():
        _, tr = forward_embed(params, TINY, pts)
        lg = head_forward(params, TINY, head, tr)
        return loss_and_grad(lg, labels)[0]

    return f, params, grads


def _chamfer_instance(seed):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, rng)
    pts = rng.standard_normal((2, 12, 3))
    trace = forward_trunk(params, TINY, pts)
    recon = ae_forward(params, TINY, trace)
    targets = [rng.standard_normal((7, 3)), rng.standard_normal((6, 3))]
    nn_gap = np.inf
    for s in range(2):
        d = np.sum((recon[s][:, None, :] - targets[s][None, :, :]) ** 2, axis=2)
        rows = np.sort(d, axis=1)
        cols = np.sort(d, axis=0)
        nn_gap = min(nn_gap, float((rows[:, 1] - rows[:, 0]).min()),
                     float((cols[1, :] - cols[0, :]).min()))
    trunk = [l for l in all_layers(TINY) if l[0].startswith(("enc", "lift"))]
    ae_layers = [l for l in all_layers(TINY) if l[0].startswith("ae")]
    if (relu_margin(params, trunk, trace) < KINK_MARGIN
            or relu_margin(params, ae_layers, trace) < KINK_MARGIN
            or pool_gap(trace) < KINK_MARGIN or nn_gap < KINK_MARGIN):
        return None
    loss, g_recon = chamfer_batch_and_grad(recon, targets)
    grads = {}
    g_global = ae_backward(params, TINY, trace, g_recon, grads)
    backward_trunk(params, TINY, trace, None, g_global, grads)

    def f():
        tr = forward_trunk(params, TINY, pts)
        rec = ae_forward(params, TINY, tr)
        return chamfer_batch_and_grad(rec, targets)[0]

    return f, params, grads


def test_gradient_suite():
    t0 = time.time()
    makers = {
        "triplet": _triplet_instance,
        "tag": lambda s: _head_instance(
            s, "tag", tag_loss_and_grad,
            lambda rng: rng.integers(-1, TINY.n_tags, size=(2, 8))),
        "segmentation": lambda s: _head_instance(
            s, "seg", seg_loss_and_grad,
            lambda rng: rng.integers(0, TINY.n_classes, size=(2, 8))),
        "chamfer": _chamfer_instance,
    }
    worst = {}
    for name, make in makers.items():
        checked = 0
        errs = []
        for seed in range(500):
            inst = make(seed)
            if inst is None:
                continue
            f, params, grads = inst
            errs.append(check_grads(f, params, grads, h=1e-5, tol=1e-4,
                                    rng=np.random.default_rng(seed + 1), per_tensor=2))
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20, f"{name}: only {checked} kink-free instances"
        worst[name] = max(errs)
    dt = time.time() - t0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    _report("gradient suite", max(worst.values()) < 1e-4 and dt < 120,
            f"20 instances each, worst rel err {detail} (< 1e-4); {dt:.1f}s (< 2min)")


# ---------------------------------------------------------------------------
# 4. architecture invariants
# ---------------------------------------------------------------------------

def test_architecture_invariants(tmp_path):
    rng = np.random.default_rng(np.random.SeedSequence((2026, 0xA2C)))
    params = init_params(TINY, rng)
    pts = rng.standard_normal((3, 40, 3))
    embed, trace = forward_embed(params, TINY, pts)

    perms = [rng.permutation(40) for _ in range(3)]
    embed_p, trace_p = forward_embed(params, TINY,
                                     np.stack([pts[b][perms[b]] for b in range(3)]))
    invariant = np.array_equal(trace_p.global_feat, trace.global_feat)
    equivariant = all(np.array_equal(embed_p[b], embed[b][perms[b]]) for b in range(3))
    norm_err = float(np.abs(np.linalg.norm(embed, axis=2) - 1.0).max())

    path = tmp_path / "ck.npz"
    save_checkpoint(path, params, TINY, {"note": "invariant check"})
    loaded, cfg2, meta = load_checkpoint(path)
    exact = (cfg2 == TINY and meta == {"note": "invariant check"}
             and sorted(loaded) == sorted(params)
             and all(loaded[k].tobytes() == params[k].tobytes() for k in params))

    ok = invariant and equivariant and norm_err < 1e-6 and exact
    _report("architecture invariants", ok,
            f"pooling invariant={invariant}, equivariant={equivariant}, "
            f"unit-norm err {norm_err:.1e} (< 1e-6), checkpoint bit-exact={exact}")


# ---------------------------------------------------------------------------
# 5. closed-form loss values
# ---------------------------------------------------------------------------

def test_closed_form_losses():
    errs = {}
    ce = []
    for n_classes in (2, 5, 11):
        loss, _ = seg_loss_and_grad(np.zeros((1, 4, n_classes)),
                                    np.zeros((1, 4), dtype=np.int64))
        ce.append(abs(loss - np.log(n_classes)))
    errs["uniform CE=lnL"] = max(ce)

    loss, _ = tag_loss_and_grad(np.zeros((1, 1, 2)), np.array([[0]]))
    errs["BCE=2ln2"] = abs(loss - 2 * np.log(2.0))

    e = np.tile([1.0, 0.0, 0.0], (1, 6, 1))
    for m in (DEFAULT_MARGIN, 0.37):
        batch = [np.array([[0, 2], [1, 3], [4, 5]])]
        loss, _ = triplet_loss_and_grad(e, batch, margin=m)
        errs[f"triplet=m({m})"] = max(errs.get(f"triplet=m({m})", 0.0), abs(loss - m))

    loss, _ = chamfer_batch_and_grad(np.array([[[0.0, 0.0, 0.0]]]),
                                     [np.array([[1.0, 0.0, 0.0]])])
    errs["chamfer=2"] = abs(loss - 2.0)

    worst = max(errs.values())
    detail = ", ".join(f"{k} err {v:.1e}" for k, v in errs.items())
    _report("closed-form losses", worst < 1e-12, f"{detail} (< 1e-12)")


# ---------------------------------------------------------------------------
# 6. ICP recovers random rigid transforms
# ---------------------------------------------------------------------------

def _axis_angle(axis, angle):
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_icp_recovery():
    t0 = time.time()
    rng = np.random.default_rng(np.random.SeedSequence((2026, 0x1CB)))
    categories = ("chair", "table", "airplane")
    recovered = 0
    for trial in range(100):
        rec = generate_shape(categories[trial % 3], f"s{trial}", rng)
        cloud = normalize_cloud(sample_surface(rec.mesh, n=2000, rng=rng))
        rot = _axis_angle(rng.standard_normal(3), rng.uniform(0, np.deg2rad(30)))
        trans = rng.uniform(-0.2, 0.2, size=3)
        true = RigidTransform(rot, trans)
        target = PointCloud(points=true.apply(cloud.points), leaf_id=cloud.leaf_id.copy())
        est = icp_align(cloud, target).transform
        cos_angle = np.clip((np.trace(est.rotation.T @ rot) - 1) / 2, -1, 1)
        if (np.arccos(cos_angle) < 1e-3
                and np.linalg.norm(est.translation - trans) < 1e-4):
            recovered += 1
    dt = time.time() - t0
    _report("icp recovery", recovered >= 95 and dt < 60,
            f"{recovered}/100 within 1e-3 rad / 1e-4 units, {dt:.1f}s (< 1min)")


# ---------------------------------------------------------------------------
# 7. mIoU properties
# ---------------------------------------------------------------------------

def test_miou_properties():
    rng = np.random.default_rng(np.random.SeedSequence((2026, 0x310)))
    labels = rng.integers(0, 4, size=500)
    identity = miou(labels, labels, 4)

    gt = np.array([0] * 100 + [1] * 100)
    pred = np.array([0] * 50 + [1] * 50 + [1] * 100)
    confusion = miou(pred, gt, 2)

    perm = rng.permutation(4)
    relabeled = miou(perm[labels], perm[labels], 4)
    pred4 = rng.integers(0, 4, size=500)
    invariant = miou(perm[pred4], perm[labels], 4) == miou(pred4, labels, 4)

    ok = (identity == 1.0 and abs(confusion - 7.0 / 12.0) < 1e-6
          and relabeled == 1.0 and invariant)
    _report("miou properties", ok,
            f"identity {identity}, confusion {confusion:.6f} (7/12 ± 1e-6), "
            f"relabeling invariant={invariant}")


# ---------------------------------------------------------------------------
# 8. few-shot transfer ordering at desk scale
# ---------------------------------------------------------------------------

# Reduced-scale profile: widths and point counts sized so the whole
# pipeline (two pretrainings, a tag fine-tune, 100 benchmark cells) stays
# within a few minutes on one core while the ordering margins stay wide.
ORDERING_ARCH = PenConfig(point_widths=(32, 32), lift_widths=(64,),
                          decoder_widths=(64,), embed_dim=32, head_hidden=64)
PRETRAIN_TC = TrainConfig(lr=0.01, batch_shapes=32, subsample_points=512,
                          triplets_per_shape=256, max_epochs=40, microbatch=8, seed=0)
FINETUNE_TC = TrainConfig(lr=0.01, batch_shapes=8, subsample_points=512,
                          triplets_per_shape=256, head_epochs=8, max_epochs=12,
                          microbatch=4, trunk_lr_scale=0.1, seed=0)


@pytest.mark.slow
def test_fewshot_transfer_ordering(tmp_path):
    t0 = time.time()
    records = generate_corpus({"chair": 200, "table": 200, "airplane": 200}, seed=11)
    vocabs = {}
    for cat in ("chair", "table", "airplane"):
        v = extract_tags([r for r in records if r.category == cat], cat,
                         synonyms=SYNTH_SYNONYMS)
        if v.tags:
            vocabs[cat] = v
    shapes = prepare_shapes(records, n_points=640, seed=0, vocab_by_category=vocabs)
    split = split_dataset([r.shape_id for r in records], seed=0)
    by_id = {s.record.shape_id: s for s in shapes}
    train = [by_id[i] for i in split.train]
    val = [by_id[i] for i in split.validation]

    rng_init = np.random.default_rng(np.random.SeedSequence((0, 0x11717)))
    params_h = init_params(ORDERING_ARCH, rng_init)
    pretrain_metric(params_h, ORDERING_ARCH, train, val, PRETRAIN_TC)
    save_checkpoint(tmp_path / "h.npz", params_h, ORDERING_ARCH, {})

    ae_cfg = replace(ORDERING_ARCH, with_ae=True, ae_hidden=(64,), ae_points=64)
    rng_init = np.random.default_rng(np.random.SeedSequence((0, 0x11717)))
    params_ae = init_params(ae_cfg, rng_init)
    pretrain_autoencoder(params_ae, ae_cfg, train, val, PRETRAIN_TC)
    save_checkpoint(tmp_path / "ae.npz", params_ae, ae_cfg, {})

    tag_cfg = replace(ORDERING_ARCH, n_tags=len(vocabs["chair"].tags))
    rng_init = np.random.default_rng(np.random.SeedSequence((0, 0xF17A6)))
    params_t = init_params(tag_cfg, rng_init)
    params_t = {k: params_h.get(k, v) for k, v in params_t.items()}
    finetune_tags(params_t, tag_cfg,
                  [s for s in train if s.record.category == "chair"],
                  [s for s in val if s.record.category == "chair"], PRETRAIN_TC)
    save_checkpoint(tmp_path / "tags_chair.npz", params_t, tag_cfg, {})

    spec = BenchmarkSpec(categories=("chair", "table", "airplane"),
                         variants=("scratch", "autoencoder", "hierarchy",
                                   "hierarchy_tags"),
                         shape_axis=(4, 8), axes=("shapes",), repeats=5, seed=0,
                         eval_points=512)
    table = run_benchmark(shapes, split, spec, FINETUNE_TC, ORDERING_ARCH,
                          {"hierarchy": tmp_path / "h.npz",
                           "autoencoder": tmp_path / "ae.npz",
                           "hierarchy_tags": {"chair": tmp_path / "tags_chair.npz"}},
                          out_csv=tmp_path / "metrics.csv")

    def mean_of(variant, category=None):
        rows = [r["miou"] for r in table.rows if r["variant"] == variant
                and (category is None or r["category"] == category)]
        return float(np.mean(rows))

    scratch = mean_of("scratch")
    ae = mean_of("autoencoder")
    hier = mean_of("hierarchy")
    hier_chair = mean_of("hierarchy", "chair")
    tags_chair = mean_of("hierarchy_tags", "chair")
    dt = time.time() - t0
    ok = (hier - scratch >= 0.03 and ae >= scratch
          and tags_chair >= hier_chair and dt < 45 * 60)
    _report("few-shot transfer ordering", ok,
            f"hierarchy-scratch +{100 * (hier - scratch):.1f} pts (>= 3), "
            f"autoencoder-scratch +{100 * (ae - scratch):.1f} pts (>= 0), "
            f"tags-hierarchy on chair +{100 * (tags_chair - hier_chair):.1f} pts "
            f"(>= 0); x in (4, 8), 5 repeats; {dt:.0f}s (< 45min)")


# ---------------------------------------------------------------------------
# 9. mining the shipped fixtures reproduces the golden report
# ---------------------------------------------------------------------------

def test_mining_golden_report():
    golden = json.loads((FIXTURES / "golden" / "mine_report.json").read_text())
    records, report = mine_directory(FIXTURES / "scenes", policy=FilterPolicy(), seed=0)
    got = report.to_json()
    checks = {
        "kept": got["kept"] == golden["kept"],
        "reject_counts": got["reject_counts"] == golden["reject_counts"],
        "reject_classes": {k: v.split(":", 1)[0] for k, v in got["rejected"].items()}
                          == golden["rejected_classes"],
        "split": got["split"] == golden["split"],
        "sufficiency": got["sufficiency"] == golden["sufficiency"],
        "vocabularies": all(
            got["vocabularies"][c]["tags"] == v["tags"]
            and got["vocabularies"][c]["counts"] == v["counts"]
            for c, v in golden["vocabularies"].items()),
    }
    bad = [k for k, v in checks.items() if not v]
    _report("mining golden report", not bad,
            f"kept={got['kept']}, vocabularies and verdicts exact"
            if not bad else f"mismatches: {bad}")
