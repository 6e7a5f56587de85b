"""Network tests: shapes, analytic gradients against central differences,
closed-form loss values, pooling symmetry, Adam, and checkpoint integrity."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from partembed.config import from_json
from partembed.errors import ConfigurationError, InputError, OptimizerError, SchemaError
from partembed.network import (
    DEFAULT_MARGIN,
    PROB_CLAMP,
    AdamState,
    ForwardTrace,
    PenConfig,
    _backward,
    _forward,
    _stack,
    adam_step,
    ae_backward,
    ae_forward,
    all_layers,
    backward_embed,
    backward_trunk,
    chamfer_batch_and_grad,
    forward_embed,
    forward_trunk,
    head_backward,
    head_forward,
    init_params,
    load_checkpoint,
    params_spec,
    save_checkpoint,
    seg_loss_and_grad,
    tag_loss_and_grad,
    triplet_loss_and_grad,
    validate_params,
)

from helpers import (KINK_MARGIN, check_grads, pool_gap as _pool_gap,
                     prenorm_floor as _prenorm_floor, relu_margin as _relu_margin)

TINY = PenConfig(point_widths=(6, 5), lift_widths=(7, 9), decoder_widths=(8,),
                 embed_dim=4, head_hidden=5, n_tags=3, n_classes=4,
                 with_ae=True, ae_hidden=(6,), ae_points=5)


def _trunk_decoder_layers(cfg):
    return [l for l in all_layers(cfg)
            if l[0].startswith(("enc", "lift", "dec", "embed"))]


def _instance(seed, b=2, n=10):
    rng = np.random.default_rng(seed)
    params = init_params(TINY, rng)
    pts = rng.standard_normal((b, n, 3))
    return rng, params, pts


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_layer_order_and_param_spec():
    names = [l[0] for l in all_layers(TINY)]
    assert names == ["enc0", "enc1", "lift0", "lift1", "dec0", "embed",
                     "tag0", "tag1", "seg0", "seg1", "ae0", "ae1"]
    spec = params_spec(TINY)
    assert spec["enc0.W"] == (3, 6)
    assert spec["lift1.W"] == (7, 9)
    assert spec["dec0.W"] == (5 + 9, 8)
    assert spec["embed.W"] == (8, 4)
    assert spec["tag1.W"] == (5, 3)
    assert spec["seg1.W"] == (5, 4)
    assert spec["ae1.W"] == (6, 5 * 3)
    assert spec["ae1.b"] == (15,)


def test_init_matches_spec_and_is_deterministic():
    p1 = init_params(TINY, np.random.default_rng(7))
    p2 = init_params(TINY, np.random.default_rng(7))
    spec = params_spec(TINY)
    assert sorted(p1) == sorted(spec)
    for name, shape in spec.items():
        assert p1[name].shape == shape
        assert np.array_equal(p1[name], p2[name])
        if name.endswith(".b"):
            assert not p1[name].any()


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PenConfig(point_widths=())
    with pytest.raises(ConfigurationError):
        PenConfig(embed_dim=0)
    with pytest.raises(ConfigurationError):
        PenConfig(point_widths=(0,))
    with pytest.raises(ConfigurationError):
        PenConfig(ae_points=0)


def test_config_from_dict_round_trips_and_rejects():
    cfg = PenConfig(point_widths=(4, 5), ae_hidden=(), n_tags=3, with_ae=True)
    raw = json.loads(json.dumps(asdict(cfg)))
    assert from_json(PenConfig, raw, "arch") == cfg
    for bad in ({k: v for k, v in raw.items() if k != "lift_widths"},
                {**raw, "depth": 3},
                {**raw, "point_widths": [8.5]},
                {**raw, "embed_dim": "8"},
                {**raw, "point_widths": [0]},
                [1, 2]):
        with pytest.raises(ConfigurationError):
            from_json(PenConfig, bad, "arch")


def test_heads_absent_without_tasks():
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,))
    names = [l[0] for l in all_layers(cfg)]
    assert names == ["enc0", "lift0", "dec0", "embed"]


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_embed_shapes_and_unit_rows():
    _, params, pts = _instance(0, b=3, n=17)
    embed, trace = forward_embed(params, TINY, pts)
    assert embed.shape == (3, 17, TINY.embed_dim)
    assert trace.global_feat.shape == (3, TINY.global_dim)
    norms = np.linalg.norm(embed, axis=2)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_points_shape_rejected():
    _, params, _ = _instance(0)
    with pytest.raises(InputError):
        forward_trunk(params, TINY, np.zeros((5, 3)))
    with pytest.raises(InputError):
        forward_trunk(params, TINY, np.zeros((2, 5, 4)))


def test_final_lift_and_embed_are_linear():
    _, params, pts = _instance(1)
    _, trace = forward_embed(params, TINY, pts)
    assert "lift1" not in trace.masks
    assert "embed" not in trace.masks
    assert "lift0" in trace.masks and "dec0" in trace.masks


def test_permutation_invariance_and_equivariance():
    rng, params, pts = _instance(3, b=2, n=30)
    embed, trace = forward_embed(params, TINY, pts)
    perms = [rng.permutation(30) for _ in range(2)]
    shuffled = np.stack([pts[b][perms[b]] for b in range(2)])
    embed2, trace2 = forward_embed(params, TINY, shuffled)
    assert np.array_equal(trace2.global_feat, trace.global_feat)
    for b in range(2):
        assert np.array_equal(embed2[b], embed[b][perms[b]])


# ---------------------------------------------------------------------------
# gradients through the full network
# ---------------------------------------------------------------------------

def test_triplet_gradient_full_network():
    for seed in range(50):
        rng, params, pts = _instance(seed, b=2, n=10)
        embed, trace = forward_embed(params, TINY, pts)
        batches = []
        for _ in range(2):
            a = rng.integers(0, 10, size=6)
            b_ = (a + rng.integers(1, 10, size=6)) % 10
            c = rng.integers(0, 10, size=6)
            batches.append(np.stack([a, b_, c]))
        d_pos = [np.sum((embed[s][a] - embed[s][p]) ** 2, axis=1)
                 for s, (a, p, _) in enumerate(batches)]
        d_neg = [np.sum((embed[s][a] - embed[s][n]) ** 2, axis=1)
                 for s, (a, _, n) in enumerate(batches)]
        hinge_gap = min(float(np.abs(dp - dn + DEFAULT_MARGIN).min())
                        for dp, dn in zip(d_pos, d_neg))
        if (_relu_margin(params, _trunk_decoder_layers(TINY), trace) > KINK_MARGIN
                and _pool_gap(trace) > KINK_MARGIN and hinge_gap > KINK_MARGIN
                and _prenorm_floor(trace) > KINK_MARGIN):
            break
    else:
        pytest.fail("no kink-free instance found")

    loss, g_embed = triplet_loss_and_grad(embed, batches)
    grads = backward_embed(params, TINY, trace, g_embed)

    def f():
        e, _ = forward_embed(params, TINY, pts)
        return triplet_loss_and_grad(e, batches)[0]

    assert f() == loss
    check_grads(f, params, grads, rng=np.random.default_rng(11))


def test_tag_gradient_full_network():
    for seed in range(50):
        rng, params, pts = _instance(seed, b=2, n=8)
        embed, trace = forward_embed(params, TINY, pts)
        logits = head_forward(params, TINY, "tag", trace)
        tags = rng.integers(-1, TINY.n_tags, size=(2, 8))
        p = 1.0 / (1.0 + np.exp(-logits))
        clamp_gap = min(float(p.min() - PROB_CLAMP), float(1.0 - PROB_CLAMP - p.max()))
        head_layers = [l for l in all_layers(TINY) if l[0].startswith("tag")]
        if (_relu_margin(params, _trunk_decoder_layers(TINY), trace) > KINK_MARGIN
                and _relu_margin(params, head_layers, trace) > KINK_MARGIN
                and _pool_gap(trace) > KINK_MARGIN and clamp_gap > 1e-4
                and _prenorm_floor(trace) > KINK_MARGIN):
            break
    else:
        pytest.fail("no kink-free instance found")

    loss, g_logits = tag_loss_and_grad(logits, tags)
    grads = {}
    g_embed = head_backward(params, TINY, "tag", trace, g_logits, grads)
    backward_embed(params, TINY, trace, g_embed, grads)

    def f():
        _, tr = forward_embed(params, TINY, pts)
        lg = head_forward(params, TINY, "tag", tr)
        return tag_loss_and_grad(lg, tags)[0]

    assert f() == loss
    check_grads(f, params, grads, rng=np.random.default_rng(12))


def test_seg_gradient_full_network():
    for seed in range(50):
        rng, params, pts = _instance(seed, b=2, n=9)
        embed, trace = forward_embed(params, TINY, pts)
        logits = head_forward(params, TINY, "seg", trace)
        labels = rng.integers(0, TINY.n_classes, size=(2, 9))
        labels[0, 0] = -1  # unlabeled points must not contribute
        head_layers = [l for l in all_layers(TINY) if l[0].startswith("seg")]
        if (_relu_margin(params, _trunk_decoder_layers(TINY), trace) > KINK_MARGIN
                and _relu_margin(params, head_layers, trace) > KINK_MARGIN
                and _pool_gap(trace) > KINK_MARGIN
                and _prenorm_floor(trace) > KINK_MARGIN):
            break
    else:
        pytest.fail("no kink-free instance found")

    loss, g_logits = seg_loss_and_grad(logits, labels)
    grads = {}
    g_embed = head_backward(params, TINY, "seg", trace, g_logits, grads)
    backward_embed(params, TINY, trace, g_embed, grads)

    def f():
        _, tr = forward_embed(params, TINY, pts)
        lg = head_forward(params, TINY, "seg", tr)
        return seg_loss_and_grad(lg, labels)[0]

    assert f() == loss
    check_grads(f, params, grads, rng=np.random.default_rng(13))


def test_chamfer_gradient_full_network():
    for seed in range(50):
        rng, params, pts = _instance(seed, b=2, n=12)
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
        if (_relu_margin(params, trunk, trace) > KINK_MARGIN
                and _relu_margin(params, ae_layers, trace) > KINK_MARGIN
                and _pool_gap(trace) > KINK_MARGIN and nn_gap > KINK_MARGIN):
            break
    else:
        pytest.fail("no kink-free instance found")

    loss, g_recon = chamfer_batch_and_grad(recon, targets)
    grads = {}
    g_global = ae_backward(params, TINY, trace, g_recon, grads)
    backward_trunk(params, TINY, trace, None, g_global, grads)

    def f():
        tr = forward_trunk(params, TINY, pts)
        rec = ae_forward(params, TINY, tr)
        return chamfer_batch_and_grad(rec, targets)[0]

    assert f() == loss
    check_grads(f, params, grads, rng=np.random.default_rng(14))


def test_ae_requires_config_flag():
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,))
    params = init_params(cfg, np.random.default_rng(0))
    with pytest.raises(InputError):
        ae_forward(params, cfg, ForwardTrace(global_feat=np.zeros((1, 6))))


def test_missing_head_raises():
    cfg = PenConfig(point_widths=(4,), lift_widths=(6,), n_tags=2)
    params = init_params(cfg, np.random.default_rng(0))
    _, trace = forward_embed(params, cfg, np.zeros((1, 5, 3)))
    assert head_forward(params, cfg, "tag", trace).shape == (1, 5, 2)
    with pytest.raises(InputError):
        head_forward(params, cfg, "seg", trace)
    with pytest.raises(InputError):
        head_backward(params, cfg, "seg", trace, np.zeros((1, 5, 3)), {})


def test_backward_is_the_same_on_a_batch_and_its_rows():
    rng, params, _ = _instance(4)
    layers = _stack(TINY, "dec", "embed")
    x = rng.standard_normal((3, 7, layers[0][1]))
    g = rng.standard_normal((3, 7, TINY.embed_dim))
    batch, rows = {}, {}
    trace = ForwardTrace()
    _forward(params, layers, x, trace)
    g_batch = _backward(params, layers, trace, g, batch)
    trace = ForwardTrace()
    _forward(params, layers, x.reshape(21, -1), trace)
    g_rows = _backward(params, layers, trace, g.reshape(21, -1), rows)
    assert sorted(batch) == sorted(rows)
    for name in batch:
        np.testing.assert_allclose(batch[name], rows[name], rtol=0, atol=1e-12)
    np.testing.assert_allclose(g_batch.reshape(21, -1), g_rows, rtol=0, atol=1e-12)


def test_one_trace_holds_trunk_decoders_and_head():
    _, params, pts = _instance(5)
    embed, trace = forward_embed(params, TINY, pts)
    head_forward(params, TINY, "seg", trace)
    ae_forward(params, TINY, trace)
    assert sorted(trace.ins) == sorted(l[0] for l in all_layers(TINY) if l[0][:3] != "tag")
    assert trace.ins["seg0"] is embed and trace.ins["ae0"] is trace.global_feat


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_uniform_logits_cross_entropy_is_log_classes():
    for n_classes in (2, 5, 11):
        logits = np.full((1, 6, n_classes), 0.37)
        labels = np.arange(6).reshape(1, 6) % n_classes
        loss, grad = seg_loss_and_grad(logits, labels)
        assert abs(loss - np.log(n_classes)) < 1e-12
        assert grad.shape == logits.shape


def test_zero_logit_binary_cross_entropy_is_two_log_two():
    logits = np.zeros((1, 1, 2))
    loss, grad = tag_loss_and_grad(logits, np.array([[0]]))
    assert abs(loss - 2.0 * np.log(2.0)) < 1e-12
    # p = 1/2 everywhere: gradient is +-1/2 depending on the target
    assert np.allclose(grad, [[[-0.5, 0.5]]], atol=1e-12)


def test_collapsed_embeddings_triplet_loss_is_margin():
    e = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (1, 9, 1))
    tb = np.array([[0, 1], [3, 4], [5, 6]])
    loss, grad = triplet_loss_and_grad(e, [tb], margin=DEFAULT_MARGIN)
    assert abs(loss - DEFAULT_MARGIN) < 1e-12
    assert not grad.any()  # (ec - eb) and friends all vanish


def test_single_point_pair_chamfer_is_two():
    recon = np.zeros((1, 1, 3))
    loss, grad = chamfer_batch_and_grad(recon, [np.array([[1.0, 0.0, 0.0]])])
    assert abs(loss - 2.0) < 1e-12
    assert np.allclose(grad, [[[-4.0, 0.0, 0.0]]], atol=1e-12)


def test_triplet_loss_sums_shape_means():
    rng = np.random.default_rng(5)
    e = rng.standard_normal((3, 8, 4))
    e /= np.linalg.norm(e, axis=2, keepdims=True)
    tb = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 0]])
    total, _ = triplet_loss_and_grad(e, [tb, tb, tb])
    single, _ = triplet_loss_and_grad(e[:1], [tb])
    per_shape = [triplet_loss_and_grad(e[s:s + 1], [tb])[0] for s in range(3)]
    assert abs(total - sum(per_shape)) < 1e-12
    assert abs(single - per_shape[0]) < 1e-12


def test_loss_input_validation():
    e = np.zeros((2, 4, 3))
    tb = np.array([[0], [1], [2]])
    with pytest.raises(InputError):
        triplet_loss_and_grad(e, [tb])  # one triplet array for two shapes
    with pytest.raises(InputError):
        seg_loss_and_grad(np.zeros((1, 3, 2)), np.full((1, 3), -1))
    with pytest.raises(InputError):
        chamfer_batch_and_grad(np.zeros((2, 4, 3)), [np.zeros((4, 3))])


def test_tag_clamp_gives_exactly_zero_gradient():
    logits = np.array([[[-40.0, 40.0]]])
    loss, grad = tag_loss_and_grad(logits, np.array([[0]]))
    # both probabilities sit past the clamp: loss is two clamped logs,
    # gradient is identically zero to match
    assert abs(loss - 2.0 * (-np.log(PROB_CLAMP))) < 1e-6
    assert grad.shape == logits.shape
    assert (grad == 0.0).all()


def test_untagged_points_are_negatives_everywhere():
    logits = np.zeros((1, 2, 3))
    loss, _ = tag_loss_and_grad(logits, np.array([[-1, -1]]))
    assert abs(loss - 6.0 * np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_first_step_has_lr_magnitude():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 3))
    params = {"w": w.copy()}
    g = rng.standard_normal((4, 3))
    adam_step(params, {"w": g}, AdamState(), lr=0.01)
    delta = params["w"] - w
    assert np.allclose(delta, -0.01 * np.sign(g), atol=1e-8)


def test_adam_zero_multiplier_freezes_tensor():
    params = {"a": np.ones(3), "b": np.ones(3)}
    state = AdamState()
    g = {"a": np.full(3, 0.5), "b": np.full(3, 0.5)}
    for _ in range(2):
        adam_step(params, g, state, lr=0.01, lr_mult={"b": 0.0})
    assert "b" not in state.m and "b" not in state.t
    assert np.array_equal(params["b"], np.ones(3))
    assert state.t["a"] == 2
    # late joiner bias-corrects from its own first step: full-size move
    before = params["b"].copy()
    adam_step(params, g, state, lr=0.01)
    assert state.t["b"] == 1 and state.t["a"] == 3
    assert np.allclose(params["b"] - before, -0.01, atol=1e-7)


def test_adam_scales_step_by_multiplier():
    params = {"a": np.zeros(3)}
    adam_step(params, {"a": np.ones(3)}, AdamState(), lr=0.01, lr_mult={"a": 0.1})
    assert np.allclose(params["a"], -0.001, atol=1e-9)


def test_adam_rejects_bad_gradients():
    params = {"a": np.zeros(3)}
    with pytest.raises(OptimizerError, match="'a'"):
        adam_step(params, {"a": np.array([1.0, np.nan, 0.0])}, AdamState(), lr=0.01)
    with pytest.raises(OptimizerError, match="'ghost'"):
        adam_step(params, {"ghost": np.zeros(3)}, AdamState(), lr=0.01)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    params = init_params(TINY, np.random.default_rng(21))
    meta = {"stage": "pretrain", "epochs": 4}
    path = tmp_path / "net.npz"
    save_checkpoint(path, params, TINY, meta=meta)
    loaded, cfg, meta2 = load_checkpoint(path)
    assert cfg == TINY
    assert meta2 == meta
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert loaded[name].tobytes() == params[name].tobytes()


def test_checkpoint_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(SchemaError, match="manifest"):
        load_checkpoint(path)


def test_checkpoint_rejects_tensor_listing_mismatch(tmp_path):
    params = init_params(TINY, np.random.default_rng(2))
    path = tmp_path / "net.npz"
    save_checkpoint(path, params, TINY)
    with np.load(path) as z:
        kept = {k: z[k] for k in z.files if k != "enc0.b"}
    np.savez(path, **kept)
    with pytest.raises(SchemaError):
        load_checkpoint(path)


def test_checkpoint_rejects_other_formats(tmp_path):
    path = tmp_path / "net.npz"
    save_checkpoint(path, init_params(TINY, np.random.default_rng(2)), TINY)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    manifest = json.loads(bytes(arrays["__manifest__"]).decode())
    manifest["format"] = 2
    arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(SchemaError, match="format 2"):
        load_checkpoint(path)


def test_validate_params_errors():
    params = init_params(TINY, np.random.default_rng(3))
    missing = dict(params)
    del missing["dec0.W"]
    with pytest.raises(SchemaError, match="dec0.W"):
        validate_params(TINY, missing)
    bad = dict(params)
    bad["embed.W"] = np.zeros((2, 2))
    with pytest.raises(SchemaError, match="embed.W"):
        validate_params(TINY, bad)
    with pytest.raises(SchemaError):
        save_checkpoint("/nonexistent/never-written.npz", missing, TINY)
