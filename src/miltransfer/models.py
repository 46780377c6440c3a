"""MIL aggregator families: construction, forward evaluation, and analytic
gradients.

Five architectures over a shared pre-attention FC stack:

* ``mean`` / ``max``  -- linear + ReLU per instance, non-parametric pooling
* ``abmil``           -- gated attention pooling
* ``auxmil``          -- abmil plus a per-instance auxiliary head
* ``transformer``     -- class-token set transformer (pre-norm, no
  positional encoding)

Parameters are plain dicts of numpy arrays keyed by a canonical layer-name
schema (``fc.{i}.weight`` ...), which checkpointing, layer reset and the
activation tooling all rely on.  This module is the one owner of that
schema: ``param_schema`` lists the layers, ``check_params`` holds params to
them, ``head_layers`` names the class-bound heads and ``activation_layers``
the layers whose outputs a forward yields.  Gradients are hand-derived; the
finite-difference suite in the tests is the correctness oracle.

Each layer kind has one forward and one backward, called with the layer's
schema name; a backward adds the layer's own gradients to ``grads`` and
returns its input's.  ``_linear`` serves ``attn.V``, ``attn.U``,
``attn.w``, ``tx.{i}.qkv``, ``tx.{i}.proj``, ``tx.{i}.ff2``, ``aux.head``
and the ``classifier``, on max's instance rows or, through
``_classifier``, on the pooled row; ``_dense_forward`` (linear, ReLU,
dropout) serves ``fc.{i}`` and ``tx.{i}.ff1``, and ``_layernorm_forward``
``tx.{i}.norm1/2``.  Two stay inline: ``cls_token``, and ``tx.{i}.ff2``'s
forward, whose residual rounds as ``(x + f1 W^T) + b``; through
``_linear`` it would round as ``x + (f1 W^T + b)``, other bytes.

One forward/backward kernel serves one model and a stack of J
init-siblings: give every parameter a leading job axis, shape
``(J, *schema_shape)``, and the bag, label and dropout masks are shared
while each job's outputs and gradients equal its own unstacked call bit
for bit.

The forward runs in two stages:

* the **instance stage** holds the row-wise layers: the FC stack, gated
  attention's V and U projections and their product
  ``m = tanh(.) * sigmoid(.)`` (abmil, auxmil), and max's per-instance
  logits.  For the transformer it is the FC stack alone, since its blocks
  mix a bag's instances;
* the **bag stage** holds everything that mixes a bag's rows: the width-1
  score ``m @ attn.w.T``, the softmax, pooling, the transformer blocks
  and the classifier.

``forward`` and ``loss_and_grads`` run the per-bag kernel: both stages on
one bag's rows, with dropout exactly when a ``dropout_seed`` is given.
Training takes one bag per step.  ``eval_pass``, the one eval-mode loop
over a split's bags and the one tiled reader, runs the instance stage over
the split's concatenated instances in tiles of exactly ``EVAL_TILE_ROWS``
rows, then the bag stage on each bag's row slice.  Embeddings, test and
validation logits, attention maps and SVCCA activations are all read from
the ``ForwardOutput`` it yields.

Why fixed tiles.  Under OpenBLAS 0.3.31 (Haswell kernels, numpy 2.4) a row
of a float32 matmul is not always bitwise equal to the same row computed
at another row count M.  Rows of a 512-row product against the same rows
computed per bag, for 25 bags of 24-48 rows, with 1 or 2 BLAS threads:

    layer        bags whose rows differ
    32 -> 32     14/25
    32 -> 16     25/25
    64 -> 32     14/25
    48 -> 40      7/25
    16 -> 1       9/25
    64 -> 64, 512 -> 384, 1024 -> 512    0/25

At a fixed M, though, a row's result did not depend on its position in the
matrix or on its neighbours, at every width tried.  So every
instance-stage matmul is ``(k, EVAL_TILE_ROWS, d) @ W.T``, one BLAS call
per tile, with zero rows after the last bag.  By construction a bag's eval
outputs then depend only on the parameters and that bag: a stacked job's
row equals its solo pass, and a pass over a subset of bags equals the same
bags of the full pass.  ``eval_pass`` and the per-bag kernel agree to
float32 rounding, and bitwise at the widths in the last table row.  The
score gemv stays in the bag stage: at a varying M its rows moved (the
16 -> 1 row), while per bag it is the per-bag kernel's own call.  So at
widths like the last row's, eval embeddings, logits and ``fc``/``attn``
activations keep the bytes of the per-bag pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeMismatchError

ARCHS = ("mean", "max", "abmil", "transformer", "auxmil")
N_HEADS = 8
LN_EPS = 1e-5
AUX_TOPK = 8  # instances pseudo-labeled per side of the auxiliary loss
EVAL_TILE_ROWS = 512  # rows per instance-stage matmul in the eval pass

ModelParams = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    arch: str
    in_dim: int
    embed_dim: int
    n_classes: int
    attn_dim: int | None = None
    fc_hidden_dims: tuple[int, ...] = ()
    n_layers: int | None = None
    encoder_hidden_dim: int | None = None
    dropout_ff: float = 0.25
    dropout_input: float = 0.1

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}")
        if any(isinstance(h, bool) or not isinstance(h, numbers.Integral)
               for h in self.fc_hidden_dims):
            raise ConfigError(f"fc_hidden_dims must hold integers, got {self.fc_hidden_dims!r}")
        object.__setattr__(self, "fc_hidden_dims", tuple(int(h) for h in self.fc_hidden_dims))
        for name in ("in_dim", "embed_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2")
        if any(h < 1 for h in self.fc_hidden_dims):
            raise ConfigError("fc_hidden_dims must be positive")
        needs_attn = self.arch in ("abmil", "auxmil")
        if needs_attn and (self.attn_dim is None or self.attn_dim < 1):
            raise ConfigError(f"{self.arch} requires a positive attn_dim")
        if not needs_attn and self.attn_dim is not None:
            raise ConfigError(f"{self.arch} does not take attn_dim")
        if self.arch == "transformer":
            if self.n_layers is None or self.n_layers < 1:
                raise ConfigError("transformer requires n_layers >= 1")
            if self.embed_dim % N_HEADS != 0:
                raise ConfigError(f"embed_dim must be divisible by {N_HEADS} heads")
            if self.encoder_hidden_dim is not None and self.encoder_hidden_dim < 1:
                raise ConfigError("encoder_hidden_dim must be positive")
        else:
            if self.n_layers is not None or self.encoder_hidden_dim is not None:
                raise ConfigError(f"{self.arch} does not take transformer fields")
        for name in ("dropout_ff", "dropout_input"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")

    def fc_dims(self) -> list[int]:
        return [self.in_dim, *self.fc_hidden_dims, self.embed_dim]

    def retarget(self, n_classes: int) -> "ModelConfig":
        return replace(self, n_classes=n_classes)


@dataclass
class ForwardOutput:
    """One bag's outputs; a stack of J siblings adds a leading J axis.

    The per-bag training kernel fills every field.  ``eval_pass`` fills all
    but ``aux_logits``, which no eval reader uses, and its ``activations``
    are views into the tile outputs of the bag's chunk: a reader that keeps
    one keeps that chunk's tile alive.
    """
    logits: np.ndarray      # (n_classes,)
    embedding: np.ndarray   # (embed_dim,) pooled pre-classifier representation
    attention: np.ndarray   # (n_instances,) nonnegative, sums to 1
    aux_logits: np.ndarray | None = None  # (n_instances, n_classes + 1), auxmil only
    # (n_instances, width) per canonical layer name, for SVCCA: ``fc.{i}``
    # is FC layer i's post-ReLU output (before dropout) and ``attn`` the
    # pre-softmax gated-attention score (width 1).  These are the arrays
    # the forward computes anyway, not copies.
    activations: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# schema / construction
# ---------------------------------------------------------------------------

def param_schema(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical ordered (name, shape) table for an architecture."""
    dims = cfg.fc_dims()
    schema: list[tuple[str, tuple[int, ...]]] = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        schema.append((f"fc.{i}.weight", (b, a)))
        schema.append((f"fc.{i}.bias", (b,)))
    e = cfg.embed_dim
    if cfg.arch in ("abmil", "auxmil"):
        d = cfg.attn_dim
        schema += [
            ("attn.V.weight", (d, e)), ("attn.V.bias", (d,)),
            ("attn.U.weight", (d, e)), ("attn.U.bias", (d,)),
            ("attn.w.weight", (1, d)), ("attn.w.bias", (1,)),
        ]
    elif cfg.arch == "transformer":
        schema.append(("cls_token", (e,)))
        for i in range(cfg.n_layers):
            schema += [
                (f"tx.{i}.norm1.weight", (e,)), (f"tx.{i}.norm1.bias", (e,)),
                (f"tx.{i}.qkv.weight", (3 * e, e)), (f"tx.{i}.qkv.bias", (3 * e,)),
                (f"tx.{i}.proj.weight", (e, e)), (f"tx.{i}.proj.bias", (e,)),
            ]
            if cfg.encoder_hidden_dim is not None:
                h = cfg.encoder_hidden_dim
                schema += [
                    (f"tx.{i}.norm2.weight", (e,)), (f"tx.{i}.norm2.bias", (e,)),
                    (f"tx.{i}.ff1.weight", (h, e)), (f"tx.{i}.ff1.bias", (h,)),
                    (f"tx.{i}.ff2.weight", (e, h)), (f"tx.{i}.ff2.bias", (e,)),
                ]
    schema += [("classifier.weight", (cfg.n_classes, e)), ("classifier.bias", (cfg.n_classes,))]
    if cfg.arch == "auxmil":
        schema += [("aux.head.weight", (cfg.n_classes + 1, e)),
                   ("aux.head.bias", (cfg.n_classes + 1,))]
    return schema


def param_count(cfg: ModelConfig) -> int:
    return sum(math.prod(shape) for _, shape in param_schema(cfg))


def check_params(layout, params, where: str) -> None:
    """Raise ``ShapeMismatchError`` naming the first ``layout`` (name, shape)
    layer that ``params`` lacks or holds in another shape; ``where`` names
    the params in the message.  Layers beyond the layout are not looked at."""
    for name, shape in layout:
        if name not in params:
            raise ShapeMismatchError(f"{where}: missing layer {name!r}")
        if np.shape(params[name]) != tuple(shape):
            raise ShapeMismatchError(f"{where}: layer {name!r} has shape "
                                     f"{np.shape(params[name])}, the schema needs {tuple(shape)}")


def head_layers(cfg: ModelConfig) -> tuple[str, ...]:
    """The schema's class-bound heads, in schema order: the classifier and,
    for auxmil, the aux head.  A transfer draws them fresh for its target."""
    return tuple(name for name, _ in param_schema(cfg)
                 if name.startswith(("classifier.", "aux.head.")))


def activation_layers(cfg: ModelConfig) -> list[str]:
    """The keys of ``ForwardOutput.activations``, in order: ``fc.{i}`` per
    FC layer and, for gated attention, ``attn``."""
    names = [f"fc.{i}" for i in range(len(cfg.fc_dims()) - 1)]
    if cfg.arch in ("abmil", "auxmil"):
        names.append("attn")
    return names


def layer_views(layout, buf: np.ndarray) -> ModelParams:
    """Per-layer views of a flat (P,) row or a (..., P) buffer that holds
    the ``layout`` (name, shape) layers one after another.  This is the
    one parameter layout: a ``ParamStack`` row and a checkpoint blob."""
    lead, views, lo = buf.shape[:-1], {}, 0
    for name, shape in layout:
        hi = lo + math.prod(shape)
        views[name] = buf[..., lo:hi].reshape(*lead, *shape)
        lo = hi
    return views


def _truncated_normal(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    """N(0, 2/fan_in) truncated at two standard deviations."""
    sigma = math.sqrt(2.0 / fan_in)
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return (out * sigma).astype(dtype)


def init_layer(rng: np.random.Generator, name: str, shape: tuple[int, ...],
               dtype=np.float32) -> np.ndarray:
    if name.endswith(".bias"):
        return np.zeros(shape, dtype=dtype)
    if ".norm" in name and name.endswith(".weight"):
        return np.ones(shape, dtype=dtype)
    # weights and the class token draw from the truncated normal
    fan_in = shape[-1]
    return _truncated_normal(rng, shape, fan_in, dtype)


def build_model(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Freshly initialized parameters, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return {name: init_layer(rng, name, shape, dtype) for name, shape in param_schema(cfg)}


def zeros_like_params(params: ModelParams) -> ModelParams:
    return {k: np.zeros_like(v) for k, v in params.items()}


def stack_params(params_list: list[ModelParams]) -> ModelParams:
    """One dict with a leading job axis; row j is ``params_list[j]``."""
    return {k: np.stack([p[k] for p in params_list]) for k in params_list[0]}


# ---------------------------------------------------------------------------
# numerics helpers
#
# Every kernel below takes arrays whose trailing axes are one bag's
# (instances, width) or one layer's schema shape, behind any leading axes.
# Parameters with a leading job axis J evaluate J init-siblings on the same
# bag at once; each matmul is then J per-job BLAS calls on the same
# per-job shapes and strides, so row j equals the unstacked call bit for
# bit.
# ---------------------------------------------------------------------------

def _T(w: np.ndarray) -> np.ndarray:
    return w.swapaxes(-1, -2)


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v @ m`` for a vector v per leading index."""
    return (v[..., None, :] @ m)[..., 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` for a vector v per leading index."""
    return (m @ v[..., :, None])[..., 0]


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int) -> tuple[np.ndarray, np.ndarray]:
    """CE loss of every row of ``logits`` (classes on the last axis) against
    one class, and its gradient w.r.t. the logits."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    loss = -(z[..., label] - np.log(total)[..., 0])  # negated last, so -0.0 stays -0.0
    grad = e / total
    grad[..., label] -= 1.0
    return loss, grad


def aux_loss(aux_logits: np.ndarray, attention: np.ndarray, label: int,
             n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean instance CE over the pseudo-labeled set, plus its gradient
    w.r.t. ``aux_logits``.  Selection is treated as constant.

    The top-k attended instances take the bag label and the bottom-k take
    the extra "other" class (index ``n_classes``), k = min(8, n).  The loss
    is float64, summed in pair order.
    """
    n = attention.shape[-1]
    k = min(AUX_TOPK, n)
    order = np.argsort(attention, axis=-1, kind="stable")
    top, bottom = order[..., -k:, None], order[..., :k, None]
    l_top, g_top = cross_entropy(np.take_along_axis(aux_logits, top, axis=-2), label)
    l_bot, g_bot = cross_entropy(np.take_along_axis(aux_logits, bottom, axis=-2), n_classes)
    total = np.cumsum(np.concatenate([l_top, l_bot], axis=-1), axis=-1, dtype=np.float64)
    # an instance in both sets (n < 2k) gets both gradients
    g = np.zeros_like(aux_logits)
    for idx, g_sel in ((top, g_top), (bottom, g_bot)):
        np.put_along_axis(g, idx, np.take_along_axis(g, idx, axis=-2) + g_sel, axis=-2)
    scale = 1.0 / (2 * k)
    return total[..., -1] * scale, g * scale


def _dropout(rng: np.random.Generator, x: np.ndarray, rate: float):
    """Inverted dropout; returns (output, mask) with mask already scaled.
    The mask covers one bag's (instances, width) and is shared by every
    leading index, so init-siblings see the same pattern."""
    mask = (rng.random(x.shape[-2:]) >= rate) / (1.0 - rate)
    mask = mask.astype(x.dtype)
    return x * mask, mask


# ---------------------------------------------------------------------------
# layers, one forward/backward pair per kind (see the module docstring)
# ---------------------------------------------------------------------------

def _linear(params, name, x):
    """Schema layer ``name``: ``x @ W.T + b`` on one bag's rows."""
    return x @ _T(params[f"{name}.weight"]) + params[f"{name}.bias"][..., None, :]


def _linear_backward(g, x, params, name, grads, input_grad=True):
    """``_linear``'s backward from its output gradient ``g`` and input ``x``;
    returns None when ``input_grad`` is False."""
    grads[f"{name}.weight"] += _T(g) @ x
    grads[f"{name}.bias"] += g.sum(axis=-2)
    return g @ params[f"{name}.weight"] if input_grad else None


def _dense_forward(params, name, x, rng, rate):
    """Linear, ReLU, then dropout when an ``rng`` is given.  The cache's
    ``relu`` is the post-ReLU output before dropout."""
    z = _linear(params, name, x)
    relu_mask = z > 0
    relu = out = z * relu_mask
    drop = None
    if rng is not None and rate > 0:
        out, drop = _dropout(rng, out, rate)
    return out, {"inp": x, "relu_mask": relu_mask, "drop": drop, "relu": relu}


def _dense_backward(g, c, params, name, grads, input_grad=True):
    if c["drop"] is not None:
        g = g * c["drop"]
    return _linear_backward(g * c["relu_mask"], c["inp"], params, name, grads, input_grad)


def _layernorm_forward(params, name, x):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv_std
    y = xhat * params[f"{name}.weight"][..., None, :] + params[f"{name}.bias"][..., None, :]
    return y, {"xhat": xhat, "inv_std": inv_std}


def _layernorm_backward(g, c, params, name, grads):
    xhat, inv_std = c["xhat"], c["inv_std"]
    g_xhat = g * params[f"{name}.weight"][..., None, :]
    grads[f"{name}.weight"] += (g * xhat).sum(axis=-2)
    grads[f"{name}.bias"] += g.sum(axis=-2)
    return inv_std * (g_xhat - g_xhat.mean(axis=-1, keepdims=True)
                      - xhat * (g_xhat * xhat).mean(axis=-1, keepdims=True))


def _classifier(params, pooled):
    """The classifier on one pooled (embed_dim,) row per leading index."""
    return _linear(params, "classifier", pooled[..., None, :])[..., 0, :]


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _fc_forward(params, cfg, x, rng):
    """Shared pre-attention stack: one dense layer per ``fc.{i}``."""
    cache = []
    for i in range(len(cfg.fc_dims()) - 1):
        x, c = _dense_forward(params, f"fc.{i}", x, rng, cfg.dropout_ff)
        cache.append(c)
    return x, cache


def _fc_backward(g, fc_cache, params, grads):
    for i in reversed(range(len(fc_cache))):
        # nothing needs the gradient w.r.t. the bag features
        g = _dense_backward(g, fc_cache[i], params, f"fc.{i}", grads, input_grad=i > 0)


def _gated_rows(params, h):
    """Gated attention's row-wise half: m = tanh(V h) * sigmoid(U h)."""
    t = np.tanh(_linear(params, "attn.V", h))
    s = 1.0 / (1.0 + np.exp(-_linear(params, "attn.U", h)))
    return {"t": t, "s": s, "m": t * s}


def _attention_pool(params, rows):
    """Gated attention's bag half, on one bag's ``h``, ``t``, ``s`` and
    ``m`` rows: the width-1 scores, their softmax and the pooled ``h``."""
    h, m = rows["h"], rows["m"]
    scores = _linear(params, "attn.w", m)[..., 0]
    att = softmax(scores)
    return {**rows, "scores": scores, "att": att, "pooled": _vecmat(att, h)}


def _gated_attention_backward(g_pooled, c, params, grads):
    """Backprop through pooled = softmax(score(h)) @ h; returns grad w.r.t. h."""
    h, att, m = c["h"], c["att"], c["m"]
    g_h = att[..., :, None] * g_pooled[..., None, :]
    g_att = _matvec(h, g_pooled)
    g_scores = att * (g_att - _vecmat(att, g_att[..., :, None]))
    g_m = _linear_backward(g_scores[..., :, None], m, params, "attn.w", grads)
    g_t = g_m * c["s"]
    g_s = g_m * c["t"]
    g_v_pre = g_t * (1.0 - c["t"] ** 2)
    g_u_pre = g_s * c["s"] * (1.0 - c["s"])
    g_h += (_linear_backward(g_v_pre, h, params, "attn.V", grads)
            + _linear_backward(g_u_pre, h, params, "attn.U", grads))
    return g_h


def _split_heads(x, n_heads):
    """(..., tokens, e) -> (..., heads, tokens, e // heads)"""
    x = x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads)
    return np.swapaxes(x, -3, -2)


def _merge_heads(x):
    x = np.swapaxes(x, -3, -2)
    return x.reshape(*x.shape[:-2], x.shape[-2] * x.shape[-1])


def _tx_block_forward(params, cfg, x, i, rng):
    e = cfg.embed_dim
    c: dict = {}
    y1, c["ln1"] = _layernorm_forward(params, f"tx.{i}.norm1", x)
    c["y1"] = y1
    qkv = _linear(params, f"tx.{i}.qkv", y1)
    q = _split_heads(qkv[..., :e], N_HEADS)
    k = _split_heads(qkv[..., e:2 * e], N_HEADS)
    v = _split_heads(qkv[..., 2 * e:], N_HEADS)
    scale = 1.0 / math.sqrt(e // N_HEADS)
    scores = (q @ _T(k)) * scale
    p = softmax(scores, axis=-1)
    ctx = _merge_heads(p @ v)
    c.update(q=q, k=k, v=v, p=p, ctx=ctx, scale=scale)
    x = x + _linear(params, f"tx.{i}.proj", ctx)
    if cfg.encoder_hidden_dim is not None:
        y2, c["ln2"] = _layernorm_forward(params, f"tx.{i}.norm2", x)
        f1, c["ff1"] = _dense_forward(params, f"tx.{i}.ff1", y2, rng, cfg.dropout_ff)
        c["f1"] = f1
        # not _linear, which would round as x + (f1 @ W.T + b): other bytes
        x = x + f1 @ _T(params[f"tx.{i}.ff2.weight"]) + params[f"tx.{i}.ff2.bias"][..., None, :]
    return x, c


def _tx_block_backward(g, c, params, cfg, i, grads):
    if cfg.encoder_hidden_dim is not None:
        g_f1 = _linear_backward(g, c["f1"], params, f"tx.{i}.ff2", grads)
        g_y2 = _dense_backward(g_f1, c["ff1"], params, f"tx.{i}.ff1", grads)
        # residual join after the attention half
        g = g + _layernorm_backward(g_y2, c["ln2"], params, f"tx.{i}.norm2", grads)

    g_ctx = _split_heads(_linear_backward(g, c["ctx"], params, f"tx.{i}.proj", grads), N_HEADS)
    p, q, k, v = c["p"], c["q"], c["k"], c["v"]
    g_p = g_ctx @ _T(v)
    g_v = _T(p) @ g_ctx
    g_scores = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True))
    g_q = (g_scores @ k) * c["scale"]
    g_k = (_T(g_scores) @ q) * c["scale"]
    g_qkv = np.concatenate([_merge_heads(g_q), _merge_heads(g_k), _merge_heads(g_v)], axis=-1)
    g_y1 = _linear_backward(g_qkv, c["y1"], params, f"tx.{i}.qkv", grads)
    # residual join at the block input
    return g + _layernorm_backward(g_y1, c["ln1"], params, f"tx.{i}.norm1", grads)


def _checked_bag(features, cfg: ModelConfig, where: str = "bag") -> np.ndarray:
    """One bag's (instances, in_dim) features; ``where`` names it in errors."""
    x = np.asarray(features)
    if x.ndim != 2:
        raise DataError(f"{where} features must be 2-d, got shape {x.shape}")
    if x.shape[1] != cfg.in_dim:
        raise DataError(f"{where} feature dim {x.shape[1]} does not match model "
                        f"in_dim {cfg.in_dim}")
    if x.shape[0] < 1:
        raise DataError(f"{where} must hold at least one instance")
    if not np.isfinite(x).all():
        raise DataError(f"{where} features contain non-finite values")
    return x


def _instance_stage(params, cfg, x, rng):
    """The row-wise layers: the FC stack, then max's per-instance logits or
    gated attention's ``t``, ``s`` and ``m``.  Output row i depends on input
    row i alone.  Returns (rows by name, FC cache)."""
    h, fc_cache = _fc_forward(params, cfg, x, rng)
    rows = {"h": h}
    if cfg.arch == "max":
        rows["inst_logits"] = _linear(params, "classifier", h)
    elif cfg.arch in ("abmil", "auxmil"):
        rows.update(_gated_rows(params, h))
    return rows, fc_cache


def _bag_stage(params, cfg, rows, rng):
    """Everything that mixes one bag's rows: the attention score, softmax,
    pooling, the transformer blocks and the classifier.  Returns the output,
    whose ``activations`` hold ``attn`` only, and the backward's cache."""
    h = rows["h"]
    n = h.shape[-2]
    lead = h.shape[:-2]  # () for one model, (J,) for a stack of siblings
    cache: dict = {"h": h}
    logits, activations = None, {}  # max keeps its instance's logits

    if cfg.arch == "mean":
        pooled = h.mean(axis=-2)
        attention = np.full((*lead, n), 1.0 / n, dtype=h.dtype)
    elif cfg.arch == "max":
        inst_logits = rows["inst_logits"]
        # binary: rank instances by the positive-class logit; otherwise by
        # their best logit over classes
        sel = inst_logits[..., 1] if cfg.n_classes == 2 else inst_logits.max(axis=-1)
        best = np.argmax(sel, axis=-1)[..., None, None]
        cache["best"] = best
        attention = np.zeros((*lead, n, 1), dtype=h.dtype)
        np.put_along_axis(attention, best, 1.0, axis=-2)
        attention = attention[..., 0]
        logits = np.take_along_axis(inst_logits, best, axis=-2)[..., 0, :]
        pooled = np.take_along_axis(h, best, axis=-2)[..., 0, :]
    elif cfg.arch in ("abmil", "auxmil"):
        att_c = _attention_pool(params, rows)
        cache["attn"] = att_c
        pooled, attention = att_c["pooled"], att_c["att"]
        activations["attn"] = att_c["scores"][..., None]
    else:  # transformer
        cls = np.broadcast_to(params["cls_token"][..., None, :], (*lead, 1, cfg.embed_dim))
        tokens = np.concatenate([cls, h], axis=-2)
        blocks = []
        for i in range(cfg.n_layers):
            tokens, bc_cache = _tx_block_forward(params, cfg, tokens, i, rng)
            blocks.append(bc_cache)
        cache["blocks"] = blocks
        pooled = tokens[..., 0, :]
        # class-token attention over instances, averaged across the final
        # block's heads and renormalized without the cls->cls mass
        raw = blocks[-1]["p"][..., 0, 1:].mean(axis=-2)
        attention = raw / raw.sum(axis=-1, keepdims=True)
    if logits is None:
        logits = _classifier(params, pooled)
    return ForwardOutput(logits, pooled, attention, activations=activations), cache


def _forward_cached(params: ModelParams, cfg: ModelConfig, features: np.ndarray,
                    rng: np.random.Generator | None):
    """The per-bag kernel that ``forward`` and training run: both stages on
    one bag's rows."""
    x = _checked_bag(features, cfg)
    cache: dict = {}
    if rng is not None and cfg.dropout_input > 0:
        x, _ = _dropout(rng, x, cfg.dropout_input)  # no gradient reaches the features
    rows, cache["fc"] = _instance_stage(params, cfg, x, rng)
    out, bag_cache = _bag_stage(params, cfg, rows, rng)
    cache.update(bag_cache)
    out.activations = {**{f"fc.{i}": c["relu"] for i, c in enumerate(cache["fc"])},
                       **out.activations}
    if cfg.arch == "auxmil":
        out.aux_logits = _linear(params, "aux.head", rows["h"])
    return out, cache


def _eval_tiles(params: ModelParams, cfg: ModelConfig, bags):
    """Eval outputs for ``(key, checked features)`` pairs, in order.

    Bags are packed into one reused input buffer, a chunk at a time: the
    whole bags that fit in one tile, or a single bag longer than a tile.
    The instance stage runs on the chunk as (k, EVAL_TILE_ROWS, in_dim)
    with zero rows after the last bag, the bag stage on each bag's slice.
    """
    tile = EVAL_TILE_ROWS
    # a stack's parameters take an axis for the chunk's k tiles
    tile_params = (params if params["classifier.bias"].ndim == 1
                   else {name: value[:, None] for name, value in params.items()})
    buf, chunk, fill = None, [], 0

    def run_chunk():
        n_rows = -(-fill // tile) * tile
        buf[fill:n_rows] = 0
        rows, fc_cache = _instance_stage(tile_params, cfg,
                                         buf[:n_rows].reshape(-1, tile, cfg.in_dim), None)

        def flat(a):  # (..., k, tile, width) -> (..., k * tile, width), a view
            return a.reshape(*a.shape[:-3], n_rows, a.shape[-1])

        rows = {name: flat(a) for name, a in rows.items()}
        fc_acts = {f"fc.{i}": flat(c["relu"]) for i, c in enumerate(fc_cache)}
        for key, start, n in chunk:
            bag = slice(start, start + n)
            out, _ = _bag_stage(params, cfg, {name: a[..., bag, :] for name, a in rows.items()},
                                None)
            out.activations = {**{name: a[..., bag, :] for name, a in fc_acts.items()},
                               **out.activations}
            yield key, out

    for key, x in bags:
        n = x.shape[0]
        if chunk and fill + n > tile:
            yield from run_chunk()
            chunk, fill = [], 0
        if buf is None or fill + n > buf.shape[0]:
            buf = np.empty((-(-(fill + n) // tile) * tile, cfg.in_dim),
                           dtype=np.result_type(params["fc.0.weight"], x))
        buf[fill:fill + n] = x
        chunk.append((key, fill, n))
        fill += n
    if chunk:
        yield from run_chunk()


def _dropout_rng(dropout_seed) -> np.random.Generator | None:
    return None if dropout_seed is None else np.random.default_rng(dropout_seed)


def forward(params: ModelParams, cfg: ModelConfig, features: np.ndarray,
            dropout_seed: int | None = None) -> ForwardOutput:
    """Evaluate one bag with the per-bag kernel.  Parameters with a leading
    job axis give outputs with that axis.

    Without a ``dropout_seed`` it is deterministic and runs no dropout; with
    one, the dropout pattern is a pure function of the seed.  Either way the
    output equals ``loss_and_grads(..., dropout_seed=dropout_seed)[2]`` bit
    for bit.  ``eval_pass`` is the split-wide reader.
    """
    return _forward_cached(params, cfg, features, _dropout_rng(dropout_seed))[0]


def eval_pass(params: ModelParams, cfg: ModelConfig, manifest, split: str,
              features: dict[str, np.ndarray], bag_ids=None):
    """The eval-mode pass over one split of a ``DatasetManifest``, in
    manifest order.

    Yields ``(entry, ForwardOutput)`` per bag and keeps none of them.  Each
    output holds ``logits``, ``embedding``, ``attention`` and
    ``activations``; ``aux_logits`` is None, since no eval reader uses it.
    The activations are views into the tile outputs of the bag's chunk.

    A bag's features come only from the caller's cache ``features``, keyed
    by bag id (``training.load_split_features``); the pass reads no file.
    ``bag_ids``, when given, restricts the pass to those bags.  Parameters
    with a leading job axis evaluate every sibling on each bag.

    The instance stage runs on tiles of exactly ``EVAL_TILE_ROWS`` rows and
    the bag stage on each bag's rows (see the module docstring).  So a
    bag's outputs depend only on the parameters and that bag: a stack's row
    j equals job j's solo pass, and a ``bag_ids`` subset equals the same
    bags of the full pass, bit for bit.  A chunk holds the whole bags that
    fit in one tile, or one longer bag, and one input buffer serves the
    pass, so memory follows the tile height and not the split.

    Raises ``DataError`` for an empty split.  A malformed bag raises
    ``DataError`` and the first bag whose logits are not finite raises
    ``NumericError``; both name the split and the bag.
    """
    entries = manifest.split(split)
    if not entries:
        raise DataError(f"split {split!r} is empty")
    if bag_ids is not None:
        entries = [e for e in entries if e.bag_id in bag_ids]

    def bags():
        for e in entries:
            yield e, _checked_bag(features[e.bag_id], cfg, f"{split} bag {e.bag_id!r}")

    for e, out in _eval_tiles(params, cfg, bags()):
        if not np.isfinite(out.logits).all():
            raise NumericError(f"non-finite logits on {split} bag {e.bag_id!r}")
        yield e, out


def loss_and_grads(params: ModelParams, cfg: ModelConfig, features: np.ndarray,
                   label: int, aux_weight: float = 0.0, dropout_seed: int | None = None,
                   grads: ModelParams | None = None):
    """Cross-entropy loss (plus the weighted auxiliary term for auxmil) and
    its gradient w.r.t. every parameter.

    Returns ``(loss, grads, output)``; ``output`` is ``forward``'s, and
    dropout runs exactly when a ``dropout_seed`` is given.  With a leading
    job axis J on every parameter, J siblings train on the same bag, label
    and dropout masks: ``loss`` is then a float64 array of shape (J,) and
    each gradient has the parameter's shape.  ``grads``, when given, is a
    zeroed dict of that shape that the gradients are accumulated into.
    """
    if not 0 <= label < cfg.n_classes:
        raise DataError(f"label {label} out of range for {cfg.n_classes} classes")
    out, cache = _forward_cached(params, cfg, features, _dropout_rng(dropout_seed))
    if grads is None:
        grads = zeros_like_params(params)
    h = cache["h"]

    loss, g_logits = cross_entropy(out.logits, label)
    loss = loss.astype(np.float64)
    g_logits = g_logits.astype(h.dtype)

    g_pooled = _linear_backward(g_logits[..., None, :], out.embedding[..., None, :], params,
                                "classifier", grads)[..., 0, :]
    if cfg.arch == "mean":
        g_h = np.broadcast_to(g_pooled[..., None, :] / h.shape[-2], h.shape)
    elif cfg.arch == "max":
        g_h = np.zeros_like(h)
        np.put_along_axis(g_h, cache["best"], g_pooled[..., None, :], axis=-2)
    elif cfg.arch in ("abmil", "auxmil"):
        g_h = _gated_attention_backward(g_pooled, cache["attn"], params, grads)
        if cfg.arch == "auxmil" and aux_weight != 0.0:
            l_aux, g_aux = aux_loss(out.aux_logits, out.attention, label, cfg.n_classes)
            loss += aux_weight * l_aux
            g_h += _linear_backward(aux_weight * g_aux, h, params, "aux.head", grads)
    else:  # transformer
        g_tokens = np.zeros((*h.shape[:-2], h.shape[-2] + 1, cfg.embed_dim), dtype=h.dtype)
        g_tokens[..., 0, :] = g_pooled
        for i in reversed(range(cfg.n_layers)):
            g_tokens = _tx_block_backward(g_tokens, cache["blocks"][i], params, cfg, i, grads)
        grads["cls_token"] += g_tokens[..., 0, :]
        g_h = g_tokens[..., 1:, :]
    _fc_backward(g_h, cache["fc"], params, grads)
    # a float for one model, the (J,) array for a stack of siblings
    return (float(loss) if loss.ndim == 0 else loss), grads, out
