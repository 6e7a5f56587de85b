"""Training loop tests: scheduler arithmetic, determinism, best-epoch
restoration, stage-wise freezing, and refusal paths."""

from dataclasses import replace

import numpy as np
import pytest

from partembed import training
from partembed.errors import ConfigurationError, InputError, TrainingError
from partembed.ingest import extract_tags
from partembed.network import PenConfig, init_params
from partembed.synth import SYNTH_SYNONYMS, generate_corpus, generate_shape
from partembed.training import (
    PlateauScheduler,
    TrainConfig,
    _subsample_labeled,
    finetune_segmentation,
    finetune_tags,
    fit,
    predict_segmentation,
    prepare_shapes,
    pretrain_autoencoder,
    pretrain_metric,
)

# decoder wide enough that no point can die through its ReLU at init
# (zero biases would then give an exactly-zero row before normalization)
SMALL = PenConfig(point_widths=(8, 8), lift_widths=(16,), decoder_widths=(24,),
                  embed_dim=6, head_hidden=6)

TC = TrainConfig(lr=0.01, batch_shapes=4, subsample_points=60,
                 triplets_per_shape=24, max_epochs=3, microbatch=2, seed=0)


@pytest.fixture(scope="module")
def chair_records():
    return generate_corpus({"chair": 6}, seed=3, tag_prob={"chair": 0.9})


@pytest.fixture(scope="module")
def chair_vocab(chair_records):
    return extract_tags(chair_records, "chair", synonyms=SYNTH_SYNONYMS)


@pytest.fixture(scope="module")
def chair_shapes(chair_records, chair_vocab):
    return prepare_shapes(chair_records, n_points=120, seed=0,
                          vocab_by_category={"chair": chair_vocab})


def _fresh(cfg, seed=7):
    return init_params(cfg, np.random.default_rng(seed))


def _changed(before, after, prefix):
    names = [n for n in before if n.startswith(prefix)]
    assert names, f"no tensors under prefix {prefix!r}"
    return any(not np.array_equal(before[n], after[n]) for n in names)


# ---------------------------------------------------------------------------
# scheduler
# ---------------------------------------------------------------------------

def test_scheduler_flat_run_decays_exactly_once():
    sched = PlateauScheduler(TrainConfig(lr=0.01, decay_factor=10.0, plateau_patience=5))
    assert not sched.observe(1.0)  # first observation improves on +inf
    for i in range(5):
        assert sched.decays == 0
        stop = sched.observe(1.0)
    assert not stop
    assert sched.decays == 1
    assert sched.lr == pytest.approx(0.001)


def test_scheduler_improvement_resets_patience():
    sched = PlateauScheduler(TrainConfig(lr=0.01, plateau_patience=3))
    sched.observe(1.0)
    sched.observe(1.0)
    sched.observe(1.0)
    sched.observe(0.5)  # clear improvement with one bad epoch to spare
    for _ in range(2):
        sched.observe(0.5)
    assert sched.decays == 0
    sched.observe(0.5)
    assert sched.decays == 1


def test_scheduler_threshold_is_relative():
    sched = PlateauScheduler(TrainConfig(lr=0.01, plateau_patience=2,
                                         plateau_rel_threshold=1e-4))
    sched.observe(1.0)
    assert sched.best == 1.0
    sched.observe(1.0 - 5e-5)  # inside the threshold: not an improvement
    assert sched.best == 1.0 and sched.bad_epochs == 1
    sched.observe(1.0 - 2e-4)
    assert sched.best == pytest.approx(1.0 - 2e-4) and sched.bad_epochs == 0


def test_scheduler_stops_after_two_decays_below_floor():
    sched = PlateauScheduler(TrainConfig(lr=0.01, decay_factor=10.0, plateau_patience=1,
                                         min_lr=1e-5, stop_decays_below=2))
    sched.observe(1.0)
    stops = []
    for _ in range(5):
        stops.append(sched.observe(1.0))
    # 0.01 -> 1e-3 -> 1e-4 -> 1e-5 (not below) -> 1e-6 (below) -> 1e-7 (stop)
    assert stops == [False, False, False, False, True]
    assert sched.decays == 5
    assert sched.lr == pytest.approx(1e-7)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_shapes=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(decay_factor=1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(trunk_lr_scale=-0.1)
    # a float or bool count would otherwise pass here and then crash, or train
    # as batch size 1, once the data is loaded
    for bad in ({"max_epochs": 1.5}, {"microbatch": 2.5}, {"subsample_points": 2.5},
                {"batch_shapes": True}, {"head_epochs": -1}, {"head_epochs": 2.0}):
        with pytest.raises(ConfigurationError):
            TrainConfig(**bad)
    # a rate beyond float range is not finite, and must not overflow the check
    for bad in ({"lr": 10**400}, {"lr": float("inf")}):
        with pytest.raises(ConfigurationError, match="lr"):
            TrainConfig(**bad)
    assert TrainConfig(head_epochs=0).head_epochs == 0


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("microbatch", [1, 3, 4, 8])
def test_fit_steps_on_the_batch_sum(chair_shapes, monkeypatch, microbatch):
    # 6 shapes in batches of 4: every epoch ends on a partial batch of 2
    index = {id(s): i for i, s in enumerate(chair_shapes)}
    unit = np.eye(len(chair_shapes))
    drawn, steps = [], []

    def draw(chunk, rng):
        drawn.extend(index[id(s)] for s in chunk)
        return [None] * len(chunk)

    def chunk_loss(chunk, draws, want_grads):
        ids = [index[id(s)] for s in chunk]
        # shape i has loss i + 1 and the i-th unit vector as its gradient
        return float(sum(i + 1 for i in ids)), {"w": unit[ids].sum(axis=0)}

    def capture(params, grads, state, lr, lr_mult=None):
        steps.append((grads["w"].copy(), list(drawn)))
        drawn.clear()

    monkeypatch.setattr(training, "adam_step", capture)
    report = fit({"w": np.zeros(len(chair_shapes))}, chair_shapes,
                 replace(TC, batch_shapes=4, microbatch=microbatch),
                 np.random.default_rng(0), draw, chunk_loss, epochs=2)
    assert [len(batch) for _, batch in steps] == [4, 2, 4, 2]
    for g, batch in steps:
        assert np.array_equal(g, unit[batch].sum(axis=0))
    for epoch in (steps[:2], steps[2:]):
        assert sorted(i for _, batch in epoch for i in batch) == list(range(len(chair_shapes)))
    assert report.train_losses == [3.5, 3.5]  # the per-shape mean
    assert report.stop_reason == "fixed_epochs"


# ---------------------------------------------------------------------------
# shape preparation
# ---------------------------------------------------------------------------

def test_prepare_shapes_is_deterministic(chair_records, chair_vocab):
    vb = {"chair": chair_vocab}
    a = prepare_shapes(chair_records, n_points=120, seed=0, vocab_by_category=vb)
    b = prepare_shapes(chair_records, n_points=120, seed=0, vocab_by_category=vb)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.cloud.points, sb.cloud.points)
        assert np.array_equal(sa.cloud.tag_id, sb.cloud.tag_id)
    c = prepare_shapes(chair_records, n_points=120, seed=1, vocab_by_category=vb)
    assert not np.array_equal(a[0].cloud.points, c[0].cloud.points)


def test_prepare_shapes_annotations(chair_shapes):
    for s in chair_shapes:
        assert len(s.cloud) == 120
        assert s.cloud.tag_id is not None and s.cloud.tag_id.shape == (120,)
        assert s.cloud.semantic_label.min() >= 0


# ---------------------------------------------------------------------------
# metric pretraining
# ---------------------------------------------------------------------------

def test_pretrain_metric_is_deterministic(chair_shapes):
    train, val = chair_shapes[:4], chair_shapes[4:]
    runs = []
    for _ in range(2):
        params = _fresh(SMALL)
        report = pretrain_metric(params, SMALL, train, val, TC)
        runs.append((params, report))
    (p1, r1), (p2, r2) = runs
    assert r1.train_losses == r2.train_losses
    assert r1.val_losses == r2.val_losses
    for name in p1:
        assert np.array_equal(p1[name], p2[name])


def test_pretrain_metric_restores_best_epoch(chair_shapes):
    train, val = chair_shapes[:4], chair_shapes[4:]
    tc_long = replace(TC, max_epochs=6, lr=0.05)
    params_long = _fresh(SMALL)
    report = pretrain_metric(params_long, SMALL, train, val, tc_long)
    assert report.best_val == min(report.val_losses)
    assert report.val_losses[report.best_epoch] == report.best_val
    assert report.stop_reason in ("max_epochs", "lr_floor")
    # rerunning only up to the best epoch must land on the same tensors,
    # because the tail epochs are discarded by the restore
    tc_short = replace(tc_long, max_epochs=report.best_epoch + 1)
    params_short = _fresh(SMALL)
    pretrain_metric(params_short, SMALL, train, val, tc_short)
    for name in params_long:
        assert np.array_equal(params_long[name], params_short[name])


def test_pretrain_metric_reduces_loss(chair_shapes):
    train, val = chair_shapes[:4], chair_shapes[4:]
    params = _fresh(SMALL)
    report = pretrain_metric(params, SMALL, train, val, replace(TC, max_epochs=8))
    assert min(report.val_losses[1:]) < report.val_losses[0]
    assert report.epochs == 8
    assert len(report.lr_history) == 8


def test_pretrain_metric_input_checks(chair_shapes):
    params = _fresh(SMALL)
    with pytest.raises(InputError):
        pretrain_metric(params, SMALL, [], chair_shapes[:1], TC)
    other = prepare_shapes([s.record for s in chair_shapes[:1]], n_points=80, seed=0)
    with pytest.raises(InputError, match="point count"):
        pretrain_metric(params, SMALL, chair_shapes[:2], other, TC)
    with pytest.raises(InputError, match="unknown strategy"):
        pretrain_metric(params, SMALL, chair_shapes[:4], chair_shapes[4:], TC, "bogus")


@pytest.mark.parametrize("strategy", ["hierarchy", "leaf"])
def test_pretrain_metric_draw_indexes_the_subsample(chair_shapes, monkeypatch, strategy):
    # the triplets of a draw index the subsample, not the full cloud
    captured = []
    monkeypatch.setattr(training, "fit", lambda params, shapes, tc, rng, draw, *args, **kwargs:
                        captured.append(draw))
    pretrain_metric(_fresh(SMALL), SMALL, chair_shapes[:4], chair_shapes[4:], TC, strategy)
    draws = captured[0](chair_shapes, np.random.default_rng(0))
    assert len(draws) == len(chair_shapes)
    for shape, (sub, triplets) in zip(chair_shapes, draws):
        assert len(sub) == TC.subsample_points < len(shape.cloud)
        assert triplets.shape == (3, TC.triplets_per_shape)
        assert triplets.min() >= 0 and triplets.max() < len(sub)
        a, p, n = triplets
        leaf = shape.cloud.leaf_id[sub]
        assert (leaf[a] == leaf[p]).all()
        assert (leaf[a] != leaf[n]).all()
        assert (a != p).all()


def test_pretrain_metric_without_triplets_raises():
    rec = generate_shape("chair", "c0", np.random.default_rng(0))
    shapes = prepare_shapes([rec], n_points=2, seed=0)
    params = _fresh(SMALL)
    with pytest.raises(TrainingError, match="no valid triplets"):
        pretrain_metric(params, SMALL, shapes, shapes, TC)


def test_pretrain_autoencoder_trains_trunk_only(chair_shapes):
    cfg = replace(SMALL, with_ae=True, ae_hidden=(12,), ae_points=16)
    params = _fresh(cfg)
    before = {k: v.copy() for k, v in params.items()}
    report = pretrain_autoencoder(params, cfg, chair_shapes[:4], chair_shapes[4:],
                                  replace(TC, max_epochs=2))
    assert report.epochs == 2
    assert _changed(before, params, "enc")
    assert _changed(before, params, "ae")
    # the embedding decoder never receives reconstruction gradients
    assert not _changed(before, params, "dec")
    assert not _changed(before, params, "embed")
    with pytest.raises(InputError):
        pretrain_autoencoder(params, SMALL, chair_shapes[:2], chair_shapes[4:], TC)


# ---------------------------------------------------------------------------
# tag fine-tuning
# ---------------------------------------------------------------------------

def test_finetune_tags_learns(chair_shapes, chair_vocab):
    cfg = replace(SMALL, n_tags=len(chair_vocab.tags))
    params = _fresh(cfg)
    report = finetune_tags(params, cfg, chair_shapes[:4], chair_shapes[4:],
                           replace(TC, max_epochs=4))
    assert min(report.train_losses[1:]) < report.train_losses[0]
    assert report.best_val == min(report.val_losses)


def test_finetune_tags_respects_freezes(chair_shapes, chair_vocab):
    cfg = replace(SMALL, n_tags=len(chair_vocab.tags), n_classes=3)
    params = _fresh(cfg)
    before = {k: v.copy() for k, v in params.items()}
    finetune_tags(params, cfg, chair_shapes[:4], chair_shapes[4:],
                  replace(TC, max_epochs=1, trunk_lr_scale=0.0))
    assert _changed(before, params, "tag")
    for prefix in ("enc", "lift", "dec", "embed", "seg"):
        assert not _changed(before, params, prefix), prefix

    params = _fresh(cfg)
    before = {k: v.copy() for k, v in params.items()}
    finetune_tags(params, cfg, chair_shapes[:4], chair_shapes[4:],
                  replace(TC, max_epochs=1))
    assert _changed(before, params, "tag")
    assert _changed(before, params, "enc")
    # the segmentation head stays at initialization either way
    assert not _changed(before, params, "seg")


def test_finetune_tags_pretrained_prefixes_set_the_rates(chair_shapes, chair_vocab,
                                                         monkeypatch):
    cfg = replace(SMALL, n_tags=len(chair_vocab.tags))
    tc = replace(TC, max_epochs=1, trunk_lr_scale=0.1)
    mults = []
    real = training.adam_step

    def capture(params, grads, state, lr, lr_mult=None):
        mults.append(lr_mult)
        real(params, grads, state, lr, lr_mult=lr_mult)

    monkeypatch.setattr(training, "adam_step", capture)
    # from scratch: every tensor steps at full rate
    finetune_tags(_fresh(cfg), cfg, chair_shapes[:4], chair_shapes[4:], tc, pretrained=())
    assert mults and all(set(m.values()) == {1.0} for m in mults)
    # by default the trunk and decoder step at trunk_lr_scale, the tag head at full rate
    mults.clear()
    finetune_tags(_fresh(cfg), cfg, chair_shapes[:4], chair_shapes[4:], tc)
    assert mults
    for m in mults:
        assert m == {name: 0.1 if name.startswith(training.PRETRAINED) else 1.0 for name in m}
        assert m["tag0.W"] == 1.0 and m["enc0.W"] == 0.1


def test_finetune_tags_refusals(chair_shapes, chair_vocab):
    cfg = replace(SMALL, n_tags=len(chair_vocab.tags))
    params = _fresh(cfg)
    with pytest.raises(InputError):
        finetune_tags(params, SMALL, chair_shapes[:2], chair_shapes[4:], TC)

    bare = [replace_tags(s, None) for s in chair_shapes[:2]]
    with pytest.raises(TrainingError, match="no tag labels"):
        finetune_tags(params, cfg, bare, chair_shapes[4:], TC)

    empty = [replace_tags(s, np.full(len(s.cloud), -1)) for s in chair_shapes[:2]]
    with pytest.raises(TrainingError, match="insufficient tags"):
        finetune_tags(params, cfg, empty, empty, TC)


def replace_tags(shape, tags):
    # a new cloud, so the shared fixture keeps its tags
    return replace(shape, cloud=replace(shape.cloud, tag_id=tags))


# ---------------------------------------------------------------------------
# segmentation fine-tuning
# ---------------------------------------------------------------------------

def _seg_cfg(shapes):
    n_classes = 1 + max(int(s.cloud.semantic_label.max()) for s in shapes)
    return replace(SMALL, n_classes=n_classes)


def test_finetune_segmentation_staged_counts(chair_shapes):
    cfg = _seg_cfg(chair_shapes)
    params = _fresh(cfg)
    tc = replace(TC, max_epochs=2, head_epochs=3)
    report = finetune_segmentation(params, cfg, chair_shapes[:3], tc)
    assert report.epochs == 5
    assert len(report.lr_history) == 5
    assert report.stop_reason == "fixed_epochs"
    assert min(report.train_losses[1:]) < report.train_losses[0]


def test_finetune_segmentation_freezes_and_scales(chair_shapes):
    cfg = _seg_cfg(chair_shapes)
    tc = replace(TC, max_epochs=1, head_epochs=1, trunk_lr_scale=0.0)
    params = _fresh(cfg)
    before = {k: v.copy() for k, v in params.items()}
    finetune_segmentation(params, cfg, chair_shapes[:3], tc)
    assert _changed(before, params, "seg")
    for prefix in ("enc", "lift", "dec", "embed"):
        assert not _changed(before, params, prefix), prefix

    params = _fresh(cfg)
    before = {k: v.copy() for k, v in params.items()}
    finetune_segmentation(params, cfg, chair_shapes[:3],
                          replace(tc, trunk_lr_scale=0.1))
    assert _changed(before, params, "seg")
    assert _changed(before, params, "enc")


def test_finetune_segmentation_unstaged_moves_everything(chair_shapes):
    cfg = _seg_cfg(chair_shapes)
    params = _fresh(cfg)
    before = {k: v.copy() for k, v in params.items()}
    report = finetune_segmentation(params, cfg, chair_shapes[:3],
                                   replace(TC, max_epochs=2), pretrained=())
    assert report.epochs == 2
    for prefix in ("enc", "lift", "dec", "embed", "seg"):
        assert _changed(before, params, prefix), prefix


def test_finetune_segmentation_label_checks(chair_shapes):
    cfg = _seg_cfg(chair_shapes)
    params = _fresh(replace(cfg, n_classes=1))
    with pytest.raises(InputError, match="outside"):
        finetune_segmentation(params, replace(cfg, n_classes=1), chair_shapes[:2], TC)
    params = _fresh(SMALL)
    with pytest.raises(InputError):
        finetune_segmentation(params, SMALL, chair_shapes[:2], TC)

    import copy
    bare = copy.copy(chair_shapes[0])
    bare.cloud = copy.copy(bare.cloud)
    bare.cloud.semantic_label = None
    params = _fresh(cfg)
    with pytest.raises(TrainingError, match="no semantic labels"):
        finetune_segmentation(params, cfg, [bare], TC)


def test_subsample_labeled_keeps_labels(chair_shapes):
    import copy
    shape = copy.copy(chair_shapes[0])
    shape.cloud = copy.copy(shape.cloud)
    labels = np.full(len(shape.cloud), -1, dtype=np.int64)
    labeled_idx = np.array([3, 17, 44, 80, 119])
    labels[labeled_idx] = 1
    shape.cloud.semantic_label = labels
    rng = np.random.default_rng(0)
    out = _subsample_labeled(shape, 20, rng)
    assert len(out) == 20 and len(np.unique(out)) == 20
    assert set(labeled_idx) <= set(out.tolist())
    few = _subsample_labeled(shape, 3, rng)
    assert set(few.tolist()) <= set(labeled_idx.tolist())
    everything = _subsample_labeled(shape, 500, rng)
    assert np.array_equal(everything, np.arange(len(shape.cloud)))


# ---------------------------------------------------------------------------
# inference helpers
# ---------------------------------------------------------------------------

def test_predict_segmentation_labels_in_range(chair_shapes):
    cfg = _seg_cfg(chair_shapes)
    params = _fresh(cfg)
    pts = np.stack([s.cloud.points for s in chair_shapes[:3]])
    pred = predict_segmentation(params, cfg, pts, microbatch=2)
    assert pred.shape == (3, 120)
    assert pred.min() >= 0 and pred.max() < cfg.n_classes
    with pytest.raises(InputError):
        predict_segmentation(params, SMALL, pts)
