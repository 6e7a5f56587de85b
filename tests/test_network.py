"""Network tests: shapes, analytic gradients against central differences,
closed-form loss values, pooling symmetry, Adam, and checkpoint integrity."""

import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from partembed.config import from_json
from partembed.errors import ConfigurationError, InputError, ParseError
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
                     prenorm_floor as _prenorm_floor, relu_margin as _relu_margin,
                     triplet_loss_loop)

TINY = PenConfig(point_widths=(6, 5), lift_widths=(7, 9), decoder_widths=(8,),
                 embed_dim=4, head_hidden=5, n_tags=3, n_classes=4,
                 with_ae=True, ae_hidden=(6,), ae_points=5)


def _trunk_decoder_layers(cfg):
    return [l for l in all_layers(cfg)
            if l[0].startswith(("enc", "lift", "dec", "embed"))]


def _named_rows(triplets, n):
    """Per shape, the distinct rows the (3, k) triplets name, padded to the
    widest shape with the first unnamed rows, and the triplets remapped onto
    those rows: what metric pretraining decodes."""
    named = [np.unique(t) for t in triplets]
    width = max(len(r) for r in named)
    rows = np.stack([np.concatenate([r, np.setdiff1d(np.arange(n), r)[:width - len(r)]])
                     for r in named])
    return rows, np.stack([np.searchsorted(r, t) for r, t in zip(named, triplets)])


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
    with pytest.raises(InputError):
        forward_trunk(params, TINY, np.zeros((2, 0, 3)))  # no point to pool


def test_final_lift_and_embed_are_linear():
    _, params, pts = _instance(1)
    embed, trace = forward_embed(params, TINY, pts)
    # a ReLU layer's output is the next layer's recorded input
    assert (trace.ins["lift1"] >= 0).all() and (trace.ins["embed"] >= 0).all()
    pre_pool = trace.ins["lift1"] @ params["lift1.W"] + params["lift1.b"]
    assert pre_pool.min() < 0 and embed.min() < 0


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
        if (_relu_margin(params, TINY, _trunk_decoder_layers(TINY), pts) > KINK_MARGIN
                and _pool_gap(params, TINY, pts) > KINK_MARGIN and hinge_gap > KINK_MARGIN
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

    # decoding only the named rows, the triplets remapped onto them
    rows, local = _named_rows(batches, 10)

    def f_rows():
        e, _ = forward_embed(params, TINY, pts, rows)
        return triplet_loss_and_grad(e, local)[0]

    embed, trace = forward_embed(params, TINY, pts, rows)
    loss_rows, g_embed = triplet_loss_and_grad(embed, local)
    grads = backward_embed(params, TINY, trace, g_embed)
    assert abs(loss_rows - loss) < 1e-12
    check_grads(f_rows, params, grads, rng=np.random.default_rng(11))


def test_tag_gradient_full_network():
    for seed in range(50):
        rng, params, pts = _instance(seed, b=2, n=8)
        embed, trace = forward_embed(params, TINY, pts)
        logits = head_forward(params, TINY, "tag", trace)
        tags = rng.integers(-1, TINY.n_tags, size=(2, 8))
        p = 1.0 / (1.0 + np.exp(-logits))
        clamp_gap = min(float(p.min() - PROB_CLAMP), float(1.0 - PROB_CLAMP - p.max()))
        head_layers = [l for l in all_layers(TINY) if l[0].startswith("tag")]
        if (_relu_margin(params, TINY, _trunk_decoder_layers(TINY), pts) > KINK_MARGIN
                and _relu_margin(params, TINY, head_layers, pts) > KINK_MARGIN
                and _pool_gap(params, TINY, pts) > KINK_MARGIN and clamp_gap > 1e-4
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
        if (_relu_margin(params, TINY, _trunk_decoder_layers(TINY), pts) > KINK_MARGIN
                and _relu_margin(params, TINY, head_layers, pts) > KINK_MARGIN
                and _pool_gap(params, TINY, pts) > KINK_MARGIN
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
        if (_relu_margin(params, TINY, trunk, pts) > KINK_MARGIN
                and _relu_margin(params, TINY, ae_layers, pts) > KINK_MARGIN
                and _pool_gap(params, TINY, pts) > KINK_MARGIN and nn_gap > KINK_MARGIN):
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
# the engine against a plain reference
# ---------------------------------------------------------------------------

def _ref_forward(params, layers, x):
    """Dense layers in the textbook form: each output materialised, each
    ReLU mask stored."""
    cache = []
    for name, _, _, relu in layers:
        y = x @ params[f"{name}.W"] + params[f"{name}.b"]
        mask = y > 0 if relu else np.ones(y.shape, dtype=bool)
        cache.append((x, mask))
        x = y * mask
    return x, cache


def _ref_backward(params, layers, cache, g, grads):
    for (name, din, dout, _), (x, mask) in zip(reversed(layers), reversed(cache)):
        g = g * mask
        grads[f"{name}.W"] = x.reshape(-1, din).T @ g.reshape(-1, dout)
        grads[f"{name}.b"] = g.reshape(-1, dout).sum(axis=0)
        g = g @ params[f"{name}.W"].T
    return g


def _ref_trunk(params, cfg, pts):
    enc, lift = _stack(cfg, "enc"), _stack(cfg, "lift")
    point_feat, enc_cache = _ref_forward(params, enc, pts)
    pre_pool, lift_cache = _ref_forward(params, lift, point_feat)
    win = pre_pool.argmax(axis=1)
    global_feat = np.take_along_axis(pre_pool, win[:, None, :], axis=1)[:, 0, :]
    return point_feat, global_feat, (enc_cache, lift_cache, pre_pool.shape, win)


def _ref_trunk_backward(params, cfg, cache, g_point_feat, g_global, grads):
    """The pool gradient routed through a dense (B, N, C) tensor."""
    enc_cache, lift_cache, shape, win = cache
    g_pool = np.zeros(shape)
    np.put_along_axis(g_pool, win[:, None, :], g_global[:, None, :], axis=1)
    g = _ref_backward(params, _stack(cfg, "lift"), lift_cache, g_pool, grads)
    if g_point_feat is not None:
        g = g + g_point_feat
    _ref_backward(params, _stack(cfg, "enc"), enc_cache, g, grads)


def _ref_embed_and_grads(params, cfg, pts, g_embed):
    """Embeddings and gradients with ``[point ‖ global]`` concatenated."""
    point_feat, global_feat, trunk_cache = _ref_trunk(params, cfg, pts)
    b, n, p = point_feat.shape
    cat = np.concatenate([point_feat, np.broadcast_to(global_feat[:, None, :],
                                                      (b, n, cfg.global_dim))], axis=2)
    dec = _stack(cfg, "dec", "embed")
    x, dec_cache = _ref_forward(params, dec, cat)
    norm = np.linalg.norm(x, axis=2, keepdims=True)
    embed = x / norm
    grads = {}
    g = (g_embed - embed * np.sum(embed * g_embed, axis=2, keepdims=True)) / norm
    g = _ref_backward(params, dec, dec_cache, g, grads)
    _ref_trunk_backward(params, cfg, trunk_cache, g[:, :, :p], g[:, :, p:].sum(axis=1), grads)
    return embed, grads


def _params_with_biases(cfg, rng):
    # init_params zeroes every bias; nonzero ones exercise each bias path
    params = init_params(cfg, rng)
    for name in params:
        if name.endswith(".b"):
            params[name] = 0.1 * rng.standard_normal(params[name].shape)
    return params


def _assert_grads_match(grads, ref):
    assert sorted(grads) == sorted(ref)
    for name in ref:
        np.testing.assert_allclose(grads[name], ref[name], rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("cfg, n", [
    (TINY, 10),
    (replace(TINY, decoder_widths=()), 10),       # the first decoder layer is the linear embed
    (replace(TINY, lift_widths=(9,)), 10),        # one lift layer, as in the ordering gate
    (TINY, 1)], ids=["tiny", "no_decoder_hidden", "one_lift", "one_point"])
def test_engine_matches_plain_reference(cfg, n):
    rng = np.random.default_rng(31)
    params = _params_with_biases(cfg, rng)
    pts = rng.standard_normal((3, n, 3))
    g_embed = rng.standard_normal((3, n, cfg.embed_dim))
    embed, trace = forward_embed(params, cfg, pts)
    grads = backward_embed(params, cfg, trace, g_embed)
    ref_embed, ref_grads = _ref_embed_and_grads(params, cfg, pts, g_embed)
    np.testing.assert_allclose(embed, ref_embed, rtol=1e-12, atol=1e-12)
    _assert_grads_match(grads, ref_grads)


def test_decoding_rows_matches_the_full_pass():
    rng = np.random.default_rng(33)
    params = _params_with_biases(TINY, rng)
    pts = rng.standard_normal((3, 10, 3))
    # shape 1 names few rows, so it is padded with unnamed ones
    triplets = [rng.integers(0, 10, size=(3, 5)), np.tile([[1], [4], [2]], 5),
                rng.integers(0, 10, size=(3, 5))]
    rows, local = _named_rows(triplets, 10)
    embed, trace = forward_embed(params, TINY, pts)
    embed_rows, trace_rows = forward_embed(params, TINY, pts, rows)
    assert embed_rows.shape == (3, rows.shape[1], TINY.embed_dim)
    np.testing.assert_allclose(embed_rows, np.take_along_axis(embed, rows[:, :, None], axis=1),
                               rtol=1e-12, atol=1e-12)
    loss, g_embed = triplet_loss_and_grad(embed, triplets)
    loss_rows, g_rows = triplet_loss_and_grad(embed_rows, local)
    assert abs(loss_rows - loss) < 1e-12
    _assert_grads_match(backward_embed(params, TINY, trace_rows, g_rows),
                        backward_embed(params, TINY, trace, g_embed))
    # unsigned indices name the same rows
    embed_u, _ = forward_embed(params, TINY, pts, rows.astype(np.uint64))
    assert np.array_equal(embed_u, embed_rows)
    assert triplet_loss_and_grad(embed_u, local.astype(np.uint64))[0] == loss_rows


@pytest.mark.parametrize("rows", [
    [[0, 1], [2, 10]],          # past the last point
    [[0, 1], [-1, 2]],          # negative
    [[0, 1], [3, 3]],           # repeated within a shape
    [[0, 1]],                   # one row array for two shapes
    [0, 1],                     # not one row array per shape
    3], ids=["past_end", "negative", "repeated", "short_batch", "flat", "scalar"])
def test_decoded_rows_are_validated(rows):
    _, params, pts = _instance(6)
    with pytest.raises(InputError, match="rows"):
        forward_embed(params, TINY, pts, np.array(rows))


def test_trunk_backward_from_the_pool_alone_matches_reference():
    # the reconstruction path: no gradient at the per-point features
    rng = np.random.default_rng(32)
    params = _params_with_biases(TINY, rng)
    pts = rng.standard_normal((3, 10, 3))
    g_global = rng.standard_normal((3, TINY.global_dim))
    trace = forward_trunk(params, TINY, pts)
    grads = {}
    backward_trunk(params, TINY, trace, None, g_global, grads)
    _, ref_global, cache = _ref_trunk(params, TINY, pts)
    ref_grads = {}
    _ref_trunk_backward(params, TINY, cache, None, g_global, ref_grads)
    np.testing.assert_allclose(trace.global_feat, ref_global, rtol=1e-12, atol=1e-12)
    _assert_grads_match(grads, ref_grads)


def _winners(params, cfg, pts):
    """Per shape, the sorted distinct points that win a pool channel."""
    return [np.unique(w) for w in _ref_trunk(params, cfg, pts)[2][3]]


def _few_rows(rng, params, pts):
    return np.stack([rng.choice(pts.shape[1], size=8, replace=False) for _ in pts])


def _winner_rows(rng, params, pts):
    win = _winners(params, TINY, pts)
    return np.stack([w[:min(len(v) for v in win)] for w in win])


def _all_rows(rng, params, pts):
    return np.stack([rng.permutation(pts.shape[1]) for _ in pts])


@pytest.mark.parametrize("pick", [_few_rows, _winner_rows, _all_rows],
                         ids=["eight_rows", "rows_all_winners", "rows_cover_all"])
def test_cut_trace_matches_plain_reference(pick):
    # at 200 points the trace keeps few rows; the reference decodes every row
    # and takes no gradient at the undecoded ones
    rng = np.random.default_rng(34)
    params = _params_with_biases(TINY, rng)
    pts = rng.standard_normal((3, 200, 3))
    rows = pick(rng, params, pts)
    g_rows = rng.standard_normal((*rows.shape, TINY.embed_dim))
    embed, trace = forward_embed(params, TINY, pts, rows)
    grads = backward_embed(params, TINY, trace, g_rows)
    g_embed = np.zeros((3, 200, TINY.embed_dim))
    np.put_along_axis(g_embed, rows[:, :, None], g_rows, axis=1)
    ref_embed, ref_grads = _ref_embed_and_grads(params, TINY, pts, g_embed)
    np.testing.assert_allclose(embed, np.take_along_axis(ref_embed, rows[:, :, None], axis=1),
                               rtol=1e-12, atol=1e-12)
    _assert_grads_match(grads, ref_grads)


def test_trunk_backward_from_the_pool_alone_at_200_points_matches_reference():
    rng = np.random.default_rng(35)
    params = _params_with_biases(TINY, rng)
    pts = rng.standard_normal((3, 200, 3))
    g_global = rng.standard_normal((3, TINY.global_dim))
    grads, ref_grads = {}, {}
    backward_trunk(params, TINY, forward_trunk(params, TINY, pts), None, g_global, grads)
    _ref_trunk_backward(params, TINY, _ref_trunk(params, TINY, pts)[2], None, g_global, ref_grads)
    _assert_grads_match(grads, ref_grads)


def test_cut_trace_keeps_winners_and_decoded_rows():
    rng = np.random.default_rng(36)
    params = init_params(TINY, rng)
    pts = rng.standard_normal((3, 200, 3))
    win = _winners(params, TINY, pts)
    n_win = sum(len(w) for w in win)

    def assert_kept(trace, n_kept):
        for name in ("enc0", "enc1"):
            assert trace.ins[name].shape[0] == n_kept, name
        assert trace.point_feat.shape == (n_kept, TINY.point_dim)
        for name in ("lift0", "lift1"):
            assert trace.ins[name].shape[0] == n_win, name
        # argmax names winner rows, and the winners sit at win_at among the kept rows
        assert trace.argmax.max() == n_win - 1
        np.testing.assert_array_equal(trace.ins["lift0"], trace.point_feat[trace.win_at])

    # three winners and five other points per shape: the winners, then the rest
    rows = np.stack([np.concatenate([w[:3], np.setdiff1d(np.arange(200), w)[:5]]) for w in win])
    _, trace = forward_embed(params, TINY, pts, rows)
    assert_kept(trace, n_win + 5 * len(win))
    assert n_win + 5 * len(win) < 0.25 * pts.shape[0] * pts.shape[1]

    # every row decoded: the encoder tensors are views of the batch
    _, trace = forward_embed(params, TINY, pts)
    assert_kept(trace, pts.shape[0] * pts.shape[1])
    assert np.shares_memory(trace.ins["enc0"], pts)
    assert np.shares_memory(trace.ins["dec0"], trace.point_feat)

    # the reconstruction path decodes nothing: the winners alone
    trace = forward_trunk(params, TINY, pts, np.empty((3, 0), np.intp))
    assert_kept(trace, n_win)
    g_global = rng.standard_normal((3, TINY.global_dim))
    grads, ref_grads = {}, {}
    backward_trunk(params, TINY, trace, None, g_global, grads)
    _ref_trunk_backward(params, TINY, _ref_trunk(params, TINY, pts)[2], None, g_global, ref_grads)
    _assert_grads_match(grads, ref_grads)


def test_backward_embed_on_a_cut_trace_builds_no_full_array():
    rng = np.random.default_rng(37)
    params = init_params(TINY, rng)
    b, n = 2, 20000
    pts = rng.standard_normal((b, n, 3))
    rows = _few_rows(rng, params, pts)
    embed, trace = forward_embed(params, TINY, pts, rows)
    g_embed = rng.standard_normal(embed.shape)
    backward_embed(params, TINY, trace, g_embed)  # warm every lazy import
    tracemalloc.start()
    try:
        backward_embed(params, TINY, trace, g_embed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # any float (B, N, ·) array takes at least b * n * 8 bytes
    assert peak < b * n * 8


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


@pytest.mark.parametrize("b, n, k", [(3, 8, 40), (1, 6, 25), (3, 4, 12)],
                         ids=["three_shapes", "one_shape", "repeats_everywhere"])
def test_triplet_loss_matches_per_shape_loop(b, n, k):
    # k above n repeats every index many times, within and across roles
    rng = np.random.default_rng(b * 100 + n)
    e = rng.standard_normal((b, n, 5))
    e /= np.linalg.norm(e, axis=2, keepdims=True)
    t = rng.integers(0, n, size=(b, 3, k))
    t[0, :, 0] = t[0, 0, 1]     # one triplet whose three points coincide
    loss, g = triplet_loss_and_grad(e, t)
    ref_loss, ref_g = triplet_loss_loop(e, t, DEFAULT_MARGIN)
    assert loss == ref_loss
    assert np.array_equal(g, ref_g)


def test_loss_input_validation():
    e = np.zeros((2, 4, 3))
    tb = np.array([[0], [1], [2]])
    with pytest.raises(InputError):
        triplet_loss_and_grad(e, [tb])  # one triplet array for two shapes
    with pytest.raises(InputError):
        triplet_loss_and_grad(e, [tb, np.array([[0], [-1], [2]])])  # negative index
    with pytest.raises(InputError):
        triplet_loss_and_grad(e, [tb, np.array([[0], [4], [2]])])  # past the last row
    with pytest.raises(InputError):
        triplet_loss_and_grad(e, [tb, np.array([[0, 1], [1, 2], [2, 3]])])  # unequal k
    with pytest.raises(InputError):
        triplet_loss_and_grad(e, np.zeros((2, 3, 0), dtype=np.intp))  # no triplet
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
    with pytest.raises(InputError, match="non-finite gradient for 'a'"):
        adam_step(params, {"a": np.array([1.0, np.nan, 0.0])}, AdamState(), lr=0.01)
    with pytest.raises(InputError, match="gradient for unknown tensor 'ghost'"):
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
    with pytest.raises(ParseError, match="not a readable checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_tensor_listing_mismatch(tmp_path):
    params = init_params(TINY, np.random.default_rng(2))
    path = tmp_path / "net.npz"
    save_checkpoint(path, params, TINY)
    with np.load(path) as z:
        kept = {k: z[k] for k in z.files if k != "enc0.b"}
    np.savez(path, **kept)
    with pytest.raises(ParseError, match="tensor listing disagrees with manifest"):
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
    with pytest.raises(ParseError, match="format 2, expected 1"):
        load_checkpoint(path)


def test_validate_params_errors():
    params = init_params(TINY, np.random.default_rng(3))
    missing = dict(params)
    del missing["dec0.W"]
    with pytest.raises(ParseError, match="missing tensor 'dec0.W'"):
        validate_params(TINY, missing)
    bad = dict(params)
    bad["embed.W"] = np.zeros((2, 2))
    with pytest.raises(ParseError, match=r"tensor 'embed.W' has shape \(2, 2\)"):
        validate_params(TINY, bad)
    with pytest.raises(ParseError, match="missing tensor 'dec0.W'"):
        save_checkpoint("/nonexistent/never-written.npz", missing, TINY)
