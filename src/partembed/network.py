"""Point embedding network: explicit numpy forward and backward passes.

The trunk encodes each point with a shared MLP, lifts to a wide feature
and max-pools over the cloud into a global descriptor. A decoder MLP maps
each point's feature and the global one to an embedding, L2-normalized
per point, so squared Euclidean distance is a bounded dissimilarity.

Every stack (trunk, embedding decoder, tag and segmentation heads,
reconstruction decoder) is a slice of one layer table, ``all_layers``, run
by one dense engine, ``_forward`` and ``_backward``, on inputs of any rank
as rows of the last axis; a stack the config lacks raises InputError. A
batch has one ``ForwardTrace``, which every stack records into. Every
backward writes into the caller's ``grads``; a head's and the
reconstruction decoder's return the gradient at their input, the
embedding decoder's the gradients at the trunk's two taps, so a caller
can stop above the trunk. All is float64. Bias adds and ReLUs run in
place; a ReLU's mask is read from its output, the next layer's input.
The last (linear) lift layer runs channels-major, so the pool reduces the
contiguous axis, and its backward touches only each channel's winning
point. The first decoder layer splits its weight, so ``[point ‖ global]``
is never built. The trunk pools over every point, but through the pool
only each channel's winning point gets gradient, so the trace keeps the
trunk's tensors only on the rows backward reads, in one layout: the lift
inputs on the winners, the encoder's on the kept rows. The kept rows are
every row when every row is decoded, and otherwise the winners and then
the rows ``forward_embed`` decodes, which the decoder and the
normalization allow since they are row-wise. The backward runs on those
rows alone. The triplet loss gathers every shape's triplets through flat
indices and scatters its gradient through one sparse product. Gradients
are checked against central differences and a plain reference in the
tests, so keep forward and backward in lockstep.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

from .config import check, from_json, kind
from .errors import InputError, ParseError
from .geometry import chamfer_with_grad

DEFAULT_MARGIN = 0.2
PROB_CLAMP = 1e-7
NORM_FLOOR = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class PenConfig:
    """Widths of every stage. The defaults give the full-size network:
    3 -> 64 -> 64 -> 64 point features, lifted 128 -> 1024 and max-pooled,
    point and global features (64 + 1024) decoded through 256 to 64-d."""

    point_widths: tuple[int, ...] = kind("widths", (64, 64, 64))
    lift_widths: tuple[int, ...] = kind("widths", (128, 1024))
    decoder_widths: tuple[int, ...] = kind("widths_or_empty", (256,))
    embed_dim: int = kind("count", 64)
    head_hidden: int = kind("count", 64)
    n_tags: int = kind("natural", 0)
    n_classes: int = kind("natural", 0)
    with_ae: bool = kind("bool", False)
    ae_hidden: tuple[int, ...] = kind("widths_or_empty", (512,))
    ae_points: int = kind("count", 1024)

    def __post_init__(self):
        check(self)

    @property
    def point_dim(self) -> int:
        return self.point_widths[-1]

    @property
    def global_dim(self) -> int:
        return self.lift_widths[-1]


Layer = tuple[str, int, int, bool]


def _mlp(d_in: int, names: Sequence[str], widths: Sequence[int]) -> list[Layer]:
    """(name, fan_in, fan_out, relu) rows of a dense stack d_in -> *widths.
    Every layer is ReLU except the last, which stays linear."""
    dims = (d_in, *widths)
    return [(name, dims[i], dims[i + 1], i < len(names) - 1) for i, name in enumerate(names)]


def all_layers(cfg: PenConfig) -> list[Layer]:
    """Every (name, fan_in, fan_out, relu) in a fixed order. The order pins
    both weight-init RNG consumption and checkpoint tensor naming."""
    def names(prefix, n):
        return [f"{prefix}{i}" for i in range(n)]

    # the trunk is one stack, so the final lift layer stays linear and the
    # max-pool winners are not tied at 0
    layers = _mlp(3, names("enc", len(cfg.point_widths)) + names("lift", len(cfg.lift_widths)),
                  (*cfg.point_widths, *cfg.lift_widths))
    layers += _mlp(cfg.point_dim + cfg.global_dim, names("dec", len(cfg.decoder_widths)) + ["embed"],
                   (*cfg.decoder_widths, cfg.embed_dim))
    for prefix, n_out in (("tag", cfg.n_tags), ("seg", cfg.n_classes)):
        if n_out > 0:
            layers += _mlp(cfg.embed_dim, names(prefix, 2), (cfg.head_hidden, n_out))
    if cfg.with_ae:
        layers += _mlp(cfg.global_dim, names("ae", len(cfg.ae_hidden) + 1),
                       (*cfg.ae_hidden, cfg.ae_points * 3))
    return layers


def _stack(cfg: PenConfig, *prefixes: str) -> list[Layer]:
    """The layers of ``all_layers`` named by one of the prefixes, in order.
    A stack the config does not have raises InputError."""
    layers = [layer for layer in all_layers(cfg) if layer[0].startswith(prefixes)]
    if not layers:
        raise InputError(f"config has no {'/'.join(prefixes)} layers")
    return layers


def params_spec(cfg: PenConfig) -> dict[str, tuple[int, ...]]:
    spec: dict[str, tuple[int, ...]] = {}
    for name, din, dout, _ in all_layers(cfg):
        spec[f"{name}.W"] = (din, dout)
        spec[f"{name}.b"] = (dout,)
    return spec


def init_params(cfg: PenConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """He-scaled normal weights on ReLU layers, Glorot-ish 1/fan_in on linear
    ones, zero biases. Draw order follows all_layers, so a given seed yields
    the same tensors for the same config."""
    params: dict[str, np.ndarray] = {}
    for name, din, dout, relu in all_layers(cfg):
        std = np.sqrt((2.0 if relu else 1.0) / din)
        params[f"{name}.W"] = rng.normal(0.0, std, size=(din, dout))
        params[f"{name}.b"] = np.zeros(dout)
    return params


def validate_params(cfg: PenConfig, params: dict[str, np.ndarray]) -> None:
    spec = params_spec(cfg)
    for name, shape in spec.items():
        if name not in params:
            raise ParseError(f"missing tensor '{name}'")
        if tuple(params[name].shape) != shape:
            raise ParseError(f"tensor '{name}' has shape {params[name].shape}, expected {shape}")


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Everything backward needs of every stack run on one batch (layer
    names are unique): per-layer inputs, pool winners, the decoded rows'
    positions and the normalization state. Decoder fields stay None on
    trunk-only runs.

    The trunk keeps its tensors as (K, ·) rows of the flat (B * N) batch:
    the encoder inputs and ``point_feat`` on the kept rows, the lift inputs
    on the pool winners alone, sorted and distinct. ``argmax`` (B, C) gives
    each channel's winner as a row of the lift inputs, ``win_at`` the
    winners' positions among the kept rows and ``rows_at`` the decoded
    rows' (B * R); each is a slice where it needs no gather."""

    ins: dict[str, np.ndarray] = field(default_factory=dict)
    point_feat: Optional[np.ndarray] = None
    argmax: Optional[np.ndarray] = None
    global_feat: Optional[np.ndarray] = None
    win_at: Optional[np.ndarray | slice] = None
    rows_at: Optional[np.ndarray | slice] = None
    norm: Optional[np.ndarray] = None
    embed: Optional[np.ndarray] = None


def _forward(params, layers: list[Layer], x: np.ndarray, trace: ForwardTrace) -> np.ndarray:
    """Run ``x`` through the dense layers, recording their inputs."""
    for name, _, _, relu in layers:
        trace.ins[name] = x
        x = x @ params[f"{name}.W"]
        x += params[f"{name}.b"]
        if relu:
            np.maximum(x, 0.0, out=x)
    return x


def _backward(params, layers: list[Layer], trace: ForwardTrace, g: np.ndarray,
              grads: dict, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Write the layers' tensor gradients into ``grads``, given the gradient
    at the stack's output, and return the gradient at its input. A stack
    ending in a ReLU (the trunk's) needs its ``out`` and masks ``g`` in place."""
    outs = [trace.ins[name] for name, *_ in layers[1:]] + [out]
    for (name, din, dout, relu), y in zip(reversed(layers), reversed(outs)):
        if relu:
            g *= y > 0
        grads[f"{name}.W"] = trace.ins[name].reshape(-1, din).T @ g.reshape(-1, dout)
        grads[f"{name}.b"] = g.reshape(-1, dout).sum(axis=0)
        g = g @ params[f"{name}.W"].T
    return g


def _check_rows(rows, b: int, n: int) -> np.ndarray:
    rows = np.asarray(rows)
    bad = InputError(f"rows must be ({b}, R) distinct indices in [0, {n}) per shape")
    if rows.ndim != 2 or len(rows) != b or rows.dtype.kind not in "iu":
        raise bad
    ordered = np.sort(rows, axis=1)
    if (rows.size and (ordered[:, 0].min() < 0 or ordered[:, -1].max() >= n)
            or np.any(ordered[:, 1:] == ordered[:, :-1])):
        raise bad
    return rows.astype(np.intp, copy=False)


def forward_trunk(params, cfg: PenConfig, points: np.ndarray,
                  rows: Optional[np.ndarray] = None) -> ForwardTrace:
    """Points (B, N, 3), N >= 1, through the shared encoder, lift and
    max-pool. The last lift layer runs as (C, N) per shape, into one buffer
    reused across shapes; its bias is added after the pool.

    The trace keeps the rows backward reads. With ``rows`` None that is
    every row, and the encoder tensors stay views of the batch. Given
    ``rows``, a (B, R) array of distinct point indices per shape, it is the
    pool winners and then the named rows that are not winners; a (B, 0)
    array keeps the winners alone."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[1] == 0 or points.shape[2] != 3:
        raise InputError(f"points must be (batch, n >= 1, 3), got {points.shape}")
    b, n, _ = points.shape
    trace = ForwardTrace()
    (first, *_), *rest = layers = _stack(cfg, "lift")
    *lifts, (last, _, dout, _) = layers
    trace.ins[last] = _forward(params, lifts, _forward(params, _stack(cfg, "enc"), points, trace),
                               trace)
    argmax, trace.global_feat = np.empty((b, dout), np.intp), np.empty((b, dout))
    pre = np.empty((dout, n))
    for s in range(b):
        np.matmul(params[f"{last}.W"].T, trace.ins[last][s].T, out=pre)
        win = pre.argmax(axis=1)
        trace.global_feat[s] = pre[np.arange(dout), win] + params[f"{last}.b"]
        argmax[s] = win + s * n
    del pre   # freed before the gathers below
    win, at = np.unique(argmax, return_inverse=True)
    trace.argmax = at.reshape(argmax.shape)
    if rows is None:
        kept = trace.rows_at = slice(None)
        trace.win_at = win
    else:
        flat = (_check_rows(rows, b, n) + n * np.arange(b)[:, None]).ravel()
        kept = np.concatenate([win, np.setdiff1d(flat, win, assume_unique=True)])
        pos = np.empty(b * n, np.intp)
        pos[kept] = np.arange(len(kept))
        trace.win_at, trace.rows_at = slice(len(win)), pos[flat]
    # each gather replaces its full tensor, so that one is freed before the next
    for name, din, _, _ in rest:
        trace.ins[name] = trace.ins[name].reshape(-1, din)[win]
    for name, din, _, _ in _stack(cfg, "enc"):
        trace.ins[name] = trace.ins[name].reshape(-1, din)[kept]
    trace.point_feat = trace.ins[first].reshape(-1, cfg.point_dim)[kept]
    trace.ins[first] = trace.point_feat[trace.win_at]
    return trace


def forward_embed(params, cfg: PenConfig, points: np.ndarray, rows: Optional[np.ndarray] = None
                  ) -> tuple[np.ndarray, ForwardTrace]:
    """Embedding pass. Returns (B, N, embed_dim) unit rows plus trace.

    The trunk always pools over every point. Given ``rows``, a (B, R) array
    of distinct point indices per shape, only those rows are decoded and
    the embeddings are (B, R, embed_dim), row r of shape s being point
    ``rows[s, r]``'s."""
    trace = forward_trunk(params, cfg, points, rows)
    (first, _, _, relu), *rest = _stack(cfg, "dec", "embed")
    w, p = params[f"{first}.W"], cfg.point_dim
    feat = trace.ins[first] = trace.point_feat[trace.rows_at].reshape(len(trace.global_feat), -1, p)
    x = feat @ w[:p]
    x += (trace.global_feat @ w[p:] + params[f"{first}.b"])[:, None, :]
    if relu:
        np.maximum(x, 0.0, out=x)
    x = _forward(params, rest, x, trace)
    trace.norm = np.maximum(np.linalg.norm(x, axis=2, keepdims=True), NORM_FLOOR)
    trace.embed = np.divide(x, trace.norm, out=x)
    return trace.embed, trace


def backward_trunk(params, cfg: PenConfig, trace: ForwardTrace,
                   g_point_feat: Optional[np.ndarray], g_global: np.ndarray,
                   grads: dict) -> None:
    """Write trunk gradients into ``grads`` from upstream gradients at the
    two taps: the per-point features on the trace's decoded rows (B, R, P),
    or None, and the pooled global feature. The pool gradient is nonzero
    at each channel's winning point only, so the lift stack runs on the
    winners. Their gradient and the decoded rows' land at their kept
    positions, and the encoder runs on the kept rows."""
    *lifts, (last, _, dout, _) = _stack(cfg, "lift")
    x = trace.ins[last]
    g_pool = csr_matrix((g_global.ravel(), (trace.argmax.ravel(),
                                            np.tile(np.arange(dout), len(g_global)))),
                        shape=(len(x), dout))
    grads[f"{last}.W"] = x.T @ g_pool
    grads[f"{last}.b"] = g_global.sum(axis=0)
    g = np.zeros_like(trace.point_feat)
    g[trace.win_at] = _backward(params, lifts, trace, g_pool @ params[f"{last}.W"].T, grads, out=x)
    if g_point_feat is not None:
        g[trace.rows_at] += g_point_feat.reshape(-1, g.shape[1])
    _backward(params, _stack(cfg, "enc"), trace, g, grads, out=trace.point_feat)


def backward_decoder(params, cfg: PenConfig, trace: ForwardTrace, g_embed: np.ndarray,
                     grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Decoder gradients of a loss into ``grads``, given its gradient at the
    normalized embedding. Returns the gradients at the trunk's two taps,
    the decoded rows' point features (B, R, P) and the global feature
    (B, G), which ``backward_trunk`` takes."""
    e = trace.embed
    g = (g_embed - e * np.sum(e * g_embed, axis=2, keepdims=True)) / trace.norm
    (first, _, dout, relu), *rest = _stack(cfg, "dec", "embed")
    g = _backward(params, rest, trace, g, grads)
    if relu:
        g *= trace.ins[rest[0][0]] > 0
    w, p = params[f"{first}.W"], cfg.point_dim
    g_global = g.sum(axis=1)
    grads[f"{first}.W"] = np.concatenate([trace.ins[first].reshape(-1, p).T @ g.reshape(-1, dout),
                                          trace.global_feat.T @ g_global])
    grads[f"{first}.b"] = g_global.sum(axis=0)
    return g @ w[:p].T, g_global @ w[p:].T


def backward_embed(params, cfg: PenConfig, trace: ForwardTrace, g_embed: np.ndarray,
                   grads: Optional[dict] = None) -> dict:
    """Trunk and decoder gradients of a loss, given its gradient at the
    normalized embedding, written into ``grads`` (new when None): the
    decoder's backward, then the trunk's. Decoded rows pass their gradient
    to the trunk's kept rows as it is; the points that were not decoded
    get none."""
    grads = {} if grads is None else grads
    backward_trunk(params, cfg, trace, *backward_decoder(params, cfg, trace, g_embed, grads),
                   grads)
    return grads


def head_forward(params, cfg: PenConfig, prefix: str, trace: ForwardTrace) -> np.ndarray:
    """Logits of the config's ``"tag"`` or ``"seg"`` head on the trace's embeddings."""
    return _forward(params, _stack(cfg, prefix), trace.embed, trace)


def head_backward(params, cfg: PenConfig, prefix: str, trace: ForwardTrace,
                  g_logits: np.ndarray, grads: dict) -> np.ndarray:
    """Head gradients into ``grads``; returns the gradient at its input."""
    return _backward(params, _stack(cfg, prefix), trace, g_logits, grads)


def ae_forward(params, cfg: PenConfig, trace: ForwardTrace) -> np.ndarray:
    """The trace's global features (B, G) to reconstructed clouds (B, M, 3)."""
    x = _forward(params, _stack(cfg, "ae"), trace.global_feat, trace)
    return x.reshape(len(x), cfg.ae_points, 3)


def ae_backward(params, cfg: PenConfig, trace: ForwardTrace, g_recon: np.ndarray,
                grads: dict) -> np.ndarray:
    """Decoder gradients into ``grads``; returns the global feature's."""
    g = g_recon.reshape(len(g_recon), cfg.ae_points * 3)
    return _backward(params, _stack(cfg, "ae"), trace, g, grads)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def triplet_loss_and_grad(embed: np.ndarray, triplets: Sequence, margin: float = DEFAULT_MARGIN
                          ) -> tuple[float, np.ndarray]:
    """Hinge triplet loss over squared Euclidean embedding distances.

    ``triplets`` holds one (3, k) anchor/positive/negative index array per
    shape, with one k for every shape, e.g. a (B, 3, k) array. Within each
    shape the loss is the mean over its triplets; shapes are then summed.
    The subgradient at the hinge kink is taken as zero. Returns the loss
    and its gradient with respect to ``embed`` (B, N, E). Ragged triplet
    arrays, k = 0 and an index outside [0, N) raise InputError.
    """
    b, n, dim = embed.shape
    if len(triplets) != b:
        raise InputError("one triplet array per shape required")
    if len({np.shape(x) for x in triplets}) != 1:
        raise InputError("ragged triplets: every shape needs the same (3, k) shape")
    t = np.asarray(triplets)
    if (t.ndim != 3 or t.shape[1] != 3 or t.shape[2] == 0 or t.dtype.kind not in "iu"
            or t.min() < 0 or t.max() >= n):
        raise InputError(f"triplets must be (3, k >= 1) integer indices in [0, {n}) per shape")
    k = t.shape[2]
    # rows of the flat (B * N, E) view: shape s's start at s * n
    idx = (t.astype(np.intp) + n * np.arange(b)[:, None, None]).transpose(1, 0, 2).reshape(3, -1)
    ea, eb, ec = gathered = embed.reshape(-1, dim)[idx]
    # each role's gradient direction: at a, (ec - eb); at p, (eb - ea); at n, (ea - ec)
    parts = np.empty_like(gathered)
    np.subtract(ec, eb, out=parts[0])
    np.subtract(eb, ea, out=parts[1])
    np.subtract(ea, ec, out=parts[2])
    d_pos = np.sum(parts[1] ** 2, axis=1)
    d_neg = np.sum(parts[2] ** 2, axis=1)
    viol = np.maximum(d_pos - d_neg + margin, 0.0)
    # shape means summed one by one, in shape order
    total = sum(float(m) for m in viol.reshape(b, k).mean(axis=1))
    parts *= 2.0
    parts *= (viol > 0).astype(np.float64)[:, None] / k
    # one entry per contribution, in anchor, positive, negative order; the
    # transposed product adds each into its row in that order, and a row
    # only ever receives its own shape's contributions
    scatter = csr_matrix((np.ones(idx.size), idx.ravel(), np.arange(idx.size + 1)),
                         shape=(idx.size, b * n))
    g = scatter.T @ parts.reshape(-1, dim)
    return total, g.reshape(embed.shape)


def tag_loss_and_grad(logits: np.ndarray, tag_ids: np.ndarray) -> tuple[float, np.ndarray]:
    """One-vs-rest binary cross-entropy, summed over points and tags.

    A point is positive for its own tag and negative for every other tag;
    untagged points (-1) are negatives everywhere. Probabilities are clamped
    ``PROB_CLAMP`` away from 0/1 before the logs; where the clamp is active
    the gradient is exactly zero, matching the loss actually computed.
    """
    n_tags = logits.shape[-1]
    y = (np.asarray(tag_ids)[..., None] == np.arange(n_tags)).astype(np.float64)
    p = expit(logits)
    p_safe = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = -float(np.sum(y * np.log(p_safe) + (1.0 - y) * np.log(1.0 - p_safe)))
    g = y * (p - 1.0) * (p >= PROB_CLAMP) + (1.0 - y) * p * (p <= 1.0 - PROB_CLAMP)
    return loss, g


def seg_loss_and_grad(logits: np.ndarray, labels: np.ndarray
                      ) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy averaged over labeled points (-1 = unlabeled)."""
    labels = np.asarray(labels)
    mask = labels >= 0
    n = int(mask.sum())
    if n == 0:
        raise InputError("no labeled points")
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    onehot = (labels[..., None] == np.arange(logits.shape[-1])).astype(np.float64)
    loss = -float(np.sum(onehot * logp * mask[..., None])) / n
    g = (np.exp(logp) - onehot) * mask[..., None] / n
    return loss, g


def chamfer_batch_and_grad(recon: np.ndarray, targets: Sequence[np.ndarray]
                           ) -> tuple[float, np.ndarray]:
    """Symmetric Chamfer distance summed over a batch of reconstructions,
    with the gradient taken with respect to the reconstructed points."""
    if len(recon) != len(targets):
        raise InputError("one target cloud per reconstruction required")
    g = np.zeros_like(recon)
    total = 0.0
    for s in range(len(recon)):
        loss, grad = chamfer_with_grad(recon[s], np.asarray(targets[s], dtype=np.float64))
        total += loss
        g[s] = grad
    return total, g


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Per-tensor first/second moments and step counts. Tensors absent from a
    step's gradients (frozen or staged out) keep their counters untouched."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, lr_mult: Optional[dict[str, float]] = None) -> None:
    """One Adam update in place, with bias correction and the moment decays
    and epsilon of Kingma & Ba (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``).

    ``lr_mult`` scales the step per tensor (0 freezes the tensor entirely:
    no update and no moment accumulation). Non-finite gradients raise
    naming the offending tensor.
    """
    for name in sorted(grads):
        if name not in params:
            raise InputError(f"gradient for unknown tensor '{name}'")
        factor = 1.0 if lr_mult is None else lr_mult.get(name, 1.0)
        if factor == 0.0:
            continue
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise InputError(f"non-finite gradient for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
            state.t[name] = 0
        state.t[name] += 1
        t = state.t[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2 ** t)
        params[name] -= lr * factor * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: dict[str, np.ndarray], cfg: PenConfig,
                    meta: Optional[dict] = None) -> None:
    """Single .npz holding every tensor as float64 plus a JSON manifest
    (config, metadata, tensor listing) embedded as bytes. Loading what was
    saved reproduces the tensors bit for bit."""
    validate_params(cfg, params)
    manifest = {
        "format": 1,
        "config": asdict(cfg),
        "meta": meta or {},
        "tensors": sorted(params),
    }
    blob = np.frombuffer(json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8)
    arrays = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    np.savez(path, __manifest__=blob, **arrays)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], PenConfig, dict]:
    """Tensors, config and metadata of a checkpoint. A file save_checkpoint
    did not write, of another format, or whose manifest does not parse,
    raises ParseError."""
    try:
        with np.load(path) as z:
            manifest = json.loads(bytes(z["__manifest__"].tolist()).decode())
            params = {k: z[k] for k in z.files if k != "__manifest__"}
        if manifest["format"] != 1:
            raise ParseError(f"format {manifest['format']!r}, expected 1")
        cfg = from_json(PenConfig, manifest["config"], "checkpoint config")
        listed, meta = manifest["tensors"], manifest["meta"]
    except (OSError, ValueError, TypeError, KeyError, EOFError, NotImplementedError,
            zipfile.BadZipFile) as exc:
        raise ParseError(f"{path}: not a readable checkpoint ({exc})") from exc
    if sorted(params) != listed:
        raise ParseError(f"{path}: tensor listing disagrees with manifest")
    validate_params(cfg, params)
    return params, cfg, meta
