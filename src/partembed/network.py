"""Point embedding network: explicit numpy forward and backward passes.

The trunk encodes each point with a shared MLP, lifts to a wide feature,
max-pools over the cloud into a global descriptor, and concatenates the
per-point feature with the broadcast global one. A decoder MLP maps the
concatenation to an embedding that is L2-normalized per point, so all
embeddings live on the unit hypersphere and squared Euclidean distance is a
bounded dissimilarity.

Every stack (trunk, embedding decoder, tag and segmentation heads,
reconstruction decoder) is a slice of one layer table, ``all_layers``, run
by one dense-layer engine, ``_forward`` and ``_backward``, which takes an
input of any rank as rows of its last axis; a stack the config lacks
raises InputError. A batch has one ``ForwardTrace``: heads and the
reconstruction decoder read their input from the trunk's and record into
it. Every backward writes into the caller's ``grads`` dict; those of a
head and the reconstruction decoder return the gradient at their input.
Everything is float64 and dumb on purpose: dense layers, ReLU masks,
argmax routing through the max-pool, and the exact Jacobian of the
normalization. Gradients are checked against central differences in the
test suite, so keep forward and backward in lockstep when editing.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from .config import check, from_json, kind
from .errors import InputError, OptimizerError, SchemaError
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
    1088-wide concatenation decoded through 256 to a 64-d embedding."""

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
            raise SchemaError(f"missing tensor '{name}'")
        if tuple(params[name].shape) != shape:
            raise SchemaError(f"tensor '{name}' has shape {params[name].shape}, expected {shape}")


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """Everything backward needs of every stack run on one batch (layer
    names are unique): per-layer inputs, ReLU masks, pool routing and the
    normalization state. Decoder fields stay None on trunk-only runs."""

    ins: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    point_feat: Optional[np.ndarray] = None
    pre_pool: Optional[np.ndarray] = None
    argmax: Optional[np.ndarray] = None
    global_feat: Optional[np.ndarray] = None
    norm: Optional[np.ndarray] = None
    embed: Optional[np.ndarray] = None


def _forward(params, layers: list[Layer], x: np.ndarray, trace: ForwardTrace) -> np.ndarray:
    """Run ``x`` through the dense layers, recording what _backward needs."""
    for name, _, _, relu in layers:
        trace.ins[name] = x
        x = x @ params[f"{name}.W"] + params[f"{name}.b"]
        if relu:
            trace.masks[name] = x > 0
            x = x * trace.masks[name]
    return x


def _backward(params, layers: list[Layer], trace: ForwardTrace, g: np.ndarray,
              grads: dict) -> np.ndarray:
    """Write the layers' tensor gradients into ``grads``, given the gradient
    at the stack's output, and return the gradient at its input."""
    for name, din, dout, relu in reversed(layers):
        if relu:
            g = g * trace.masks[name]
        grads[f"{name}.W"] = trace.ins[name].reshape(-1, din).T @ g.reshape(-1, dout)
        grads[f"{name}.b"] = g.reshape(-1, dout).sum(axis=0)
        g = g @ params[f"{name}.W"].T
    return g


def forward_trunk(params, cfg: PenConfig, points: np.ndarray) -> ForwardTrace:
    """Points (B, N, 3) through the shared encoder, lift and max-pool."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 3:
        raise InputError(f"points must be (batch, n, 3), got {points.shape}")
    trace = ForwardTrace()
    trace.point_feat = _forward(params, _stack(cfg, "enc"), points, trace)
    x = trace.pre_pool = _forward(params, _stack(cfg, "lift"), trace.point_feat, trace)
    trace.argmax = x.argmax(axis=1)
    trace.global_feat = np.take_along_axis(x, trace.argmax[:, None, :], axis=1)[:, 0, :]
    return trace


def forward_embed(params, cfg: PenConfig, points: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Full embedding pass. Returns (B, N, embed_dim) unit rows plus trace."""
    trace = forward_trunk(params, cfg, points)
    b, n, _ = trace.point_feat.shape
    broadcast = np.broadcast_to(trace.global_feat[:, None, :], (b, n, cfg.global_dim))
    x = np.concatenate([trace.point_feat, broadcast], axis=2)
    x = _forward(params, _stack(cfg, "dec", "embed"), x, trace)
    r = np.linalg.norm(x, axis=2, keepdims=True)
    trace.norm = np.maximum(r, NORM_FLOOR)
    trace.embed = x / trace.norm
    return trace.embed, trace


def _unpool(trace: ForwardTrace, g_global: np.ndarray) -> np.ndarray:
    """Gradient at the pre-pool features: each pooled channel's gradient
    goes to the point that won the max."""
    g = np.zeros_like(trace.pre_pool)
    np.put_along_axis(g, trace.argmax[:, None, :], g_global[:, None, :], axis=1)
    return g


def backward_trunk(params, cfg: PenConfig, trace: ForwardTrace,
                   g_point_feat: Optional[np.ndarray], g_global: np.ndarray,
                   grads: dict) -> None:
    """Write trunk gradients into ``grads`` from upstream gradients at the
    two taps (per-point features and the pooled global feature)."""
    # handed over with no other reference, so _backward frees this
    # full-width gradient after the last lift layer
    g = _backward(params, _stack(cfg, "lift"), trace, _unpool(trace, g_global), grads)
    if g_point_feat is not None:
        g = g + g_point_feat
    _backward(params, _stack(cfg, "enc"), trace, g, grads)


def backward_embed(params, cfg: PenConfig, trace: ForwardTrace, g_embed: np.ndarray,
                   grads: Optional[dict] = None) -> dict:
    """Trunk and decoder gradients of a loss, given its gradient at the
    normalized embedding, written into ``grads`` (new when None)."""
    grads = {} if grads is None else grads
    e = trace.embed
    g = (g_embed - e * np.sum(e * g_embed, axis=2, keepdims=True)) / trace.norm
    g = _backward(params, _stack(cfg, "dec", "embed"), trace, g, grads)
    backward_trunk(params, cfg, trace, g[:, :, :cfg.point_dim],
                   g[:, :, cfg.point_dim:].sum(axis=1), grads)
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
    shape, e.g. a (B, 3, k) array. Within each shape the loss is the mean
    over its triplets; shapes are then summed. The subgradient at the hinge
    kink is taken as zero. Returns the loss and its gradient with respect
    to ``embed`` (B, N, E).
    """
    if len(triplets) != len(embed):
        raise InputError("one triplet array per shape required")
    g = np.zeros_like(embed)
    total = 0.0
    for s, (a, p, n) in enumerate(triplets):
        e = embed[s]
        ea, eb, ec = e[a], e[p], e[n]
        d_pos = np.sum((ea - eb) ** 2, axis=1)
        d_neg = np.sum((ea - ec) ** 2, axis=1)
        viol = np.maximum(d_pos - d_neg + margin, 0.0)
        total += float(viol.mean())
        scale = (viol > 0).astype(np.float64)[:, None] / len(a)
        np.add.at(g[s], a, 2.0 * (ec - eb) * scale)
        np.add.at(g[s], p, 2.0 * (eb - ea) * scale)
        np.add.at(g[s], n, 2.0 * (ea - ec) * scale)
    return total, g


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
            raise OptimizerError(f"gradient for unknown tensor '{name}'")
        factor = 1.0 if lr_mult is None else lr_mult.get(name, 1.0)
        if factor == 0.0:
            continue
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise OptimizerError(f"non-finite gradient for '{name}'")
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
    raises SchemaError."""
    try:
        with np.load(path) as z:
            manifest = json.loads(bytes(z["__manifest__"].tolist()).decode())
            params = {k: z[k] for k in z.files if k != "__manifest__"}
        if manifest["format"] != 1:
            raise SchemaError(f"format {manifest['format']!r}, expected 1")
        cfg = from_json(PenConfig, manifest["config"], "checkpoint config")
        listed, meta = manifest["tensors"], manifest["meta"]
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"{path}: not a readable checkpoint ({exc})") from exc
    if sorted(params) != listed:
        raise SchemaError(f"{path}: tensor listing disagrees with manifest")
    validate_params(cfg, params)
    return params, cfg, meta
