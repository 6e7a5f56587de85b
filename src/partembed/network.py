"""Point embedding network: explicit numpy forward and backward passes.

The trunk encodes each point with a shared MLP, lifts to a wide feature,
max-pools over the cloud into a global descriptor, and concatenates the
per-point feature with the broadcast global one. A decoder MLP maps the
concatenation to an embedding that is L2-normalized per point, so all
embeddings live on the unit hypersphere and squared Euclidean distance is a
bounded dissimilarity.

Everything is float64 and dumb on purpose: dense layers, ReLU masks,
argmax routing through the max-pool, and the exact Jacobian of the
normalization. Gradients are checked against central differences in the
test suite, so keep forward and backward in lockstep when editing.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, InputError, OptimizerError, SchemaError
from .geometry import chamfer_with_grad

DEFAULT_MARGIN = 0.2
PROB_CLAMP = 1e-7
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class PenConfig:
    """Widths of every stage. The defaults give the full-size network:
    3 -> 64 -> 64 -> 64 point features, lifted 128 -> 1024 and max-pooled,
    1088-wide concatenation decoded through 256 to a 64-d embedding."""

    point_widths: tuple[int, ...] = (64, 64, 64)
    lift_widths: tuple[int, ...] = (128, 1024)
    decoder_widths: tuple[int, ...] = (256,)
    embed_dim: int = 64
    head_hidden: int = 64
    n_tags: int = 0
    n_classes: int = 0
    with_ae: bool = False
    ae_hidden: tuple[int, ...] = (512,)
    ae_points: int = 1024

    def __post_init__(self):
        if not self.point_widths or not self.lift_widths:
            raise InputError("point_widths and lift_widths must be nonempty")
        sizes = (*self.point_widths, *self.lift_widths, *self.decoder_widths, *self.ae_hidden,
                 self.embed_dim, self.head_hidden, self.ae_points)
        if not all(_is_int(w) and w > 0 for w in sizes):
            raise InputError("widths, embed_dim, head_hidden and ae_points must be positive integers")
        if not all(_is_int(n) and n >= 0 for n in (self.n_tags, self.n_classes)):
            raise InputError("n_tags and n_classes must be non-negative integers")

    @classmethod
    def from_dict(cls, raw) -> "PenConfig":
        """Config from its JSON form, as ``asdict`` writes it (lists for the
        width tuples). Every field must be present and valid; anything else
        raises ConfigurationError."""
        if not isinstance(raw, dict):
            raise ConfigurationError("architecture config must be a JSON object")
        names = {f.name for f in fields(cls)}
        if set(raw) != names:
            raise ConfigurationError(
                f"architecture config: unknown keys {sorted(set(raw) - names)}, "
                f"missing keys {sorted(names - set(raw))}")
        try:
            return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})
        except (InputError, TypeError) as exc:
            raise ConfigurationError(f"architecture config: {exc}") from exc

    @property
    def point_dim(self) -> int:
        return self.point_widths[-1]

    @property
    def global_dim(self) -> int:
        return self.lift_widths[-1]


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _trunk_layers(cfg: PenConfig) -> list[tuple[str, int, int, bool]]:
    layers = []
    d = 3
    for i, w in enumerate(cfg.point_widths):
        layers.append((f"enc{i}", d, w, True))
        d = w
    for i, w in enumerate(cfg.lift_widths):
        # final lift layer stays linear so max-pool winners are not tied at 0
        layers.append((f"lift{i}", d, w, i < len(cfg.lift_widths) - 1))
        d = w
    return layers


def _decoder_layers(cfg: PenConfig) -> list[tuple[str, int, int, bool]]:
    layers = []
    d = cfg.point_dim + cfg.global_dim
    for i, w in enumerate(cfg.decoder_widths):
        layers.append((f"dec{i}", d, w, True))
        d = w
    layers.append(("embed", d, cfg.embed_dim, False))
    return layers


def _head_layers(cfg: PenConfig, prefix: str, out_dim: int) -> list[tuple[str, int, int, bool]]:
    return [(f"{prefix}0", cfg.embed_dim, cfg.head_hidden, True),
            (f"{prefix}1", cfg.head_hidden, out_dim, False)]


def _ae_layers(cfg: PenConfig) -> list[tuple[str, int, int, bool]]:
    layers = []
    d = cfg.global_dim
    for i, w in enumerate(cfg.ae_hidden):
        layers.append((f"ae{i}", d, w, True))
        d = w
    layers.append((f"ae{len(cfg.ae_hidden)}", d, cfg.ae_points * 3, False))
    return layers


def all_layers(cfg: PenConfig) -> list[tuple[str, int, int, bool]]:
    """Every (name, fan_in, fan_out, relu) in a fixed order. The order pins
    both weight-init RNG consumption and checkpoint tensor naming."""
    layers = _trunk_layers(cfg) + _decoder_layers(cfg)
    if cfg.n_tags > 0:
        layers += _head_layers(cfg, "tag", cfg.n_tags)
    if cfg.n_classes > 0:
        layers += _head_layers(cfg, "seg", cfg.n_classes)
    if cfg.with_ae:
        layers += _ae_layers(cfg)
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
    """Everything backward needs: per-layer inputs, ReLU masks, pool routing
    and the normalization state. Decoder fields stay None on trunk-only runs."""

    points: np.ndarray
    ins: dict[str, np.ndarray] = field(default_factory=dict)
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    point_feat: Optional[np.ndarray] = None
    pre_pool: Optional[np.ndarray] = None
    argmax: Optional[np.ndarray] = None
    global_feat: Optional[np.ndarray] = None
    prenorm: Optional[np.ndarray] = None
    norm: Optional[np.ndarray] = None
    embed: Optional[np.ndarray] = None


def _dense_forward(params, name: str, x: np.ndarray, relu: bool, trace: ForwardTrace) -> np.ndarray:
    trace.ins[name] = x
    y = x @ params[f"{name}.W"] + params[f"{name}.b"]
    if relu:
        mask = y > 0
        trace.masks[name] = mask
        y = y * mask
    return y


def _dense_backward(params, name: str, relu: bool, trace: ForwardTrace,
                    g_out: np.ndarray, grads: dict) -> np.ndarray:
    if relu:
        g_out = g_out * trace.masks[name]
    x = trace.ins[name]
    if x.ndim == 3:
        grads[f"{name}.W"] = np.einsum("bni,bnj->ij", x, g_out)
        grads[f"{name}.b"] = g_out.sum(axis=(0, 1))
    else:
        grads[f"{name}.W"] = x.T @ g_out
        grads[f"{name}.b"] = g_out.sum(axis=0)
    return g_out @ params[f"{name}.W"].T


def forward_trunk(params, cfg: PenConfig, points: np.ndarray) -> ForwardTrace:
    """Points (B, N, 3) through the shared encoder, lift and max-pool."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3 or points.shape[2] != 3:
        raise InputError(f"points must be (batch, n, 3), got {points.shape}")
    trace = ForwardTrace(points=points)
    x = points
    n_enc = len(cfg.point_widths)
    for i, (name, _, _, relu) in enumerate(_trunk_layers(cfg)):
        x = _dense_forward(params, name, x, relu, trace)
        if i == n_enc - 1:
            trace.point_feat = x
    trace.pre_pool = x
    trace.argmax = x.argmax(axis=1)
    trace.global_feat = np.take_along_axis(x, trace.argmax[:, None, :], axis=1)[:, 0, :]
    return trace


def forward_embed(params, cfg: PenConfig, points: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Full embedding pass. Returns (B, N, embed_dim) unit rows plus trace."""
    trace = forward_trunk(params, cfg, points)
    b, n, _ = trace.points.shape
    broadcast = np.broadcast_to(trace.global_feat[:, None, :], (b, n, cfg.global_dim))
    x = np.concatenate([trace.point_feat, broadcast], axis=2)
    for name, _, _, relu in _decoder_layers(cfg):
        x = _dense_forward(params, name, x, relu, trace)
    trace.prenorm = x
    r = np.linalg.norm(x, axis=2, keepdims=True)
    trace.norm = np.maximum(r, NORM_FLOOR)
    trace.embed = x / trace.norm
    return trace.embed, trace


def backward_trunk(params, cfg: PenConfig, trace: ForwardTrace,
                   g_point_feat: Optional[np.ndarray], g_global: Optional[np.ndarray],
                   grads: Optional[dict] = None) -> dict:
    """Accumulate trunk gradients from upstream gradients at the two taps
    (per-point features and the pooled global feature)."""
    grads = {} if grads is None else grads
    b, n, _ = trace.points.shape
    g = np.zeros_like(trace.pre_pool)
    if g_global is not None:
        np.put_along_axis(g, trace.argmax[:, None, :], g_global[:, None, :], axis=1)
    layers = _trunk_layers(cfg)
    n_enc = len(cfg.point_widths)
    for i in range(len(layers) - 1, -1, -1):
        name, _, _, relu = layers[i]
        g = _dense_backward(params, name, relu, trace, g, grads)
        if i == n_enc and g_point_feat is not None:
            # crossing from lift back into the encoder: merge the concat tap
            g = g + g_point_feat
    return grads


def backward_embed(params, cfg: PenConfig, trace: ForwardTrace,
                   g_embed: np.ndarray) -> dict:
    """Gradients of a scalar loss with respect to every trunk and decoder
    tensor, given its gradient at the normalized embedding."""
    grads: dict[str, np.ndarray] = {}
    e = trace.embed
    g = (g_embed - e * np.sum(e * g_embed, axis=2, keepdims=True)) / trace.norm
    for name, _, _, relu in reversed(_decoder_layers(cfg)):
        g = _dense_backward(params, name, relu, trace, g, grads)
    g_point = g[:, :, :cfg.point_dim]
    g_global = g[:, :, cfg.point_dim:].sum(axis=1)
    return backward_trunk(params, cfg, trace, g_point, g_global, grads)


def head_forward(params, cfg: PenConfig, prefix: str, x: np.ndarray,
                 out_dim: int) -> tuple[np.ndarray, ForwardTrace]:
    trace = ForwardTrace(points=x)
    for name, _, _, relu in _head_layers(cfg, prefix, out_dim):
        x = _dense_forward(params, name, x, relu, trace)
    return x, trace


def head_backward(params, cfg: PenConfig, prefix: str, out_dim: int,
                  trace: ForwardTrace, g_logits: np.ndarray) -> tuple[dict, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
    g = g_logits
    for name, _, _, relu in reversed(_head_layers(cfg, prefix, out_dim)):
        g = _dense_backward(params, name, relu, trace, g, grads)
    return grads, g


def ae_forward(params, cfg: PenConfig, global_feat: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Global feature (B, G) to reconstructed clouds (B, M, 3)."""
    if not cfg.with_ae:
        raise InputError("config has no reconstruction decoder")
    trace = ForwardTrace(points=global_feat)
    x = global_feat
    for name, _, _, relu in _ae_layers(cfg):
        x = _dense_forward(params, name, x, relu, trace)
    return x.reshape(len(global_feat), cfg.ae_points, 3), trace


def ae_backward(params, cfg: PenConfig, trace: ForwardTrace,
                g_recon: np.ndarray) -> tuple[dict, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
    g = g_recon.reshape(len(g_recon), cfg.ae_points * 3)
    for name, _, _, relu in reversed(_ae_layers(cfg)):
        g = _dense_backward(params, name, relu, trace, g, grads)
    return grads, g


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def triplet_loss_and_grad(embed: np.ndarray, batches: Sequence, margin: float = DEFAULT_MARGIN
                          ) -> tuple[float, np.ndarray]:
    """Hinge triplet loss over squared Euclidean embedding distances.

    Within each shape the loss is the mean over its triplets; shapes are then
    summed. The subgradient at the hinge kink is taken as zero. Returns the
    loss and its gradient with respect to ``embed`` (B, N, E).
    """
    if len(batches) != len(embed):
        raise InputError("one triplet batch per shape required")
    g = np.zeros_like(embed)
    total = 0.0
    for s, tb in enumerate(batches):
        e = embed[s]
        ea, eb, ec = e[tb.anchor], e[tb.positive], e[tb.negative]
        d_pos = np.sum((ea - eb) ** 2, axis=1)
        d_neg = np.sum((ea - ec) ** 2, axis=1)
        viol = np.maximum(d_pos - d_neg + margin, 0.0)
        total += float(viol.mean())
        scale = (viol > 0).astype(np.float64)[:, None] / len(tb)
        np.add.at(g[s], tb.anchor, 2.0 * (ec - eb) * scale)
        np.add.at(g[s], tb.positive, 2.0 * (eb - ea) * scale)
        np.add.at(g[s], tb.negative, 2.0 * (ea - ec) * scale)
    return total, g


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tag_loss_and_grad(logits: np.ndarray, tag_ids: np.ndarray,
                      clamp: float = PROB_CLAMP) -> tuple[float, np.ndarray]:
    """One-vs-rest binary cross-entropy, summed over points and tags.

    A point is positive for its own tag and negative for every other tag;
    untagged points (-1) are negatives everywhere. Probabilities are clamped
    away from 0/1 before the logs; where the clamp is active the gradient is
    exactly zero, matching the loss actually computed.
    """
    n_tags = logits.shape[-1]
    y = (np.asarray(tag_ids)[..., None] == np.arange(n_tags)).astype(np.float64)
    p = _sigmoid(logits)
    p_safe = np.clip(p, clamp, 1.0 - clamp)
    loss = -float(np.sum(y * np.log(p_safe) + (1.0 - y) * np.log(1.0 - p_safe)))
    g = y * (p - 1.0) * (p >= clamp) + (1.0 - y) * p * (p <= 1.0 - clamp)
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
    """Mean symmetric Chamfer distance over a batch of reconstructions,
    with the gradient taken with respect to the reconstructed points."""
    if len(recon) != len(targets):
        raise InputError("one target cloud per reconstruction required")
    g = np.zeros_like(recon)
    total = 0.0
    for s in range(len(recon)):
        loss, grad = chamfer_with_grad(recon[s], np.asarray(targets[s], dtype=np.float64))
        total += loss
        g[s] = grad
    return total / len(recon), g / len(recon)


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
              state: AdamState, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, lr_mult: Optional[dict[str, float]] = None) -> None:
    """One Adam update in place, with bias correction.

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
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1 ** t)
        v_hat = state.v[name] / (1.0 - beta2 ** t)
        params[name] -= lr * factor * m_hat / (np.sqrt(v_hat) + eps)


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
    with np.load(path) as z:
        if "__manifest__" not in z:
            raise SchemaError(f"{path}: not a checkpoint (missing manifest)")
        manifest = json.loads(bytes(z["__manifest__"].tolist()).decode())
        params = {k: z[k] for k in z.files if k != "__manifest__"}
    try:
        cfg = PenConfig.from_dict(manifest.get("config"))
    except ConfigurationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if sorted(params) != manifest["tensors"]:
        raise SchemaError(f"{path}: tensor listing disagrees with manifest")
    validate_params(cfg, params)
    return params, cfg, manifest["meta"]
