"""Minimal differentiable numerics over float64 numpy arrays.

Every differentiable operation comes as a forward/backward pair: the
forward returns ``(value, cache)`` and the backward consumes the upstream
gradient plus that cache. Models own a fixed, known graph and chain the
backwards explicitly in reverse order; there is no tape.

Training math runs at float64 so finite-difference checks can be tight.
This module does no file I/O: checkpoints (harness) and feature payloads
(features) are stored as float32 and upcast once at load.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

Array = np.ndarray


class NumericsError(ArithmeticError):
    """An operation produced or received non-finite values."""


class DimMismatch(ValueError):
    """Operand shapes are incompatible."""


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def require_finite(name: str, x: Array) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"{name} contains non-finite values")


class ParamStore:
    """Named float64 parameter tensors with paired gradient tensors, laid
    out once at construction.

    layout lists each tensor as (name, shape, fan_in). Every tensor is a
    reshaped view into one contiguous params buffer and its gradient the
    matching view into one grads buffer, in layout order, so optimizers,
    zeroing and gradient scaling each run as one operation over
    flat_params or flat_grads. Each tensor with an int fan_in is drawn
    uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from one default_rng(seed),
    in layout order, so a fixed seed yields bit-identical initial values;
    a fan_in of None gives a zero tensor. Reads are safe to share;
    gradient accumulation and optimizer steps are single-writer.
    """

    def __init__(self, layout: Iterable[tuple[str, tuple[int, ...], int | None]], seed: int = 0):
        layout = [(name, tuple(shape), fan_in) for name, shape, fan_in in layout]
        sizes = [math.prod(shape) for _, shape, _ in layout]
        self.flat_params, self.flat_grads = np.zeros(sum(sizes)), np.zeros(sum(sizes))
        self._params: dict[str, Array] = {}
        self._grads: dict[str, Array] = {}
        rng, start = np.random.default_rng(seed), 0
        for (name, shape, fan_in), size in zip(layout, sizes):
            if name in self._params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._params[name] = self.flat_params[start : start + size].reshape(shape)
            self._grads[name] = self.flat_grads[start : start + size].reshape(shape)
            if fan_in is not None:
                bound = 1.0 / math.sqrt(fan_in)
                self._params[name][...] = rng.uniform(-bound, bound, size=shape)
            start += size

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Array:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._params)

    def grad(self, name: str) -> Array:
        return self._grads[name]

    def accumulate(self, name: str, g: Array) -> None:
        self._grads[name] += g

    def zero_grads(self) -> None:
        self.flat_grads[...] = 0.0


# -- linear ----------------------------------------------------------------


def linear_layout(prefix: str, in_dim: int, out_dim: int) -> Iterator[tuple]:
    """(name, shape, fan_in) of a linear map's weight [in_dim, out_dim] and
    bias [out_dim], both drawn with fan_in in_dim, for a ParamStore layout."""
    yield f"{prefix}.w", (in_dim, out_dim), in_dim
    yield f"{prefix}.b", (out_dim,), in_dim


def linear_forward(x: Array, w: Array, b: Array) -> tuple[Array, tuple]:
    """y = x @ w + b for x [..., i], w [i, o], b [o]."""
    if x.shape[-1] != w.shape[0]:
        raise DimMismatch(f"linear: input dim {x.shape[-1]} vs weight dim {w.shape[0]}")
    y = x @ w
    y += b
    return y, (x, w)


def linear_backward(dy: Array, cache: tuple) -> tuple[Array, Array, Array]:
    """dx plus weight and bias gradients summed over every leading axis."""
    x, w = cache
    dx = dy @ w.T
    rows = dy.reshape(-1, dy.shape[-1])
    dw = x.reshape(-1, x.shape[-1]).T @ rows
    return dx, dw, rows.sum(axis=0)


# -- softmax ---------------------------------------------------------------


def axis_max(x: Array, axis: int = -1) -> Array:
    """np.max(x, axis=axis, keepdims=True) as one elementwise maximum over a
    copy of x with that axis first: NumPy's reduction over a short axis
    pays per row. A max rounds nothing, so these are np.max's bits, but
    for a NaN with its sign bit set or a tie of +0.0 with -0.0 across more
    than 8 entries, whose bits follow np.max's order of passes."""
    return np.expand_dims(np.maximum.reduce(np.moveaxis(x, axis, 0).copy()), axis)


def softmax(x: Array, axis: int = -1) -> Array:
    """Numerically stable softmax (max-subtraction)."""
    e = x - axis_max(x, axis)
    np.exp(e, out=e)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dy: Array, y: Array, axis: int = -1) -> Array:
    """Gradient through softmax given its output y."""
    inner = (dy * y).sum(axis=axis, keepdims=True)
    return y * (dy - inner)


# -- layer norm ------------------------------------------------------------


def layer_norm_forward(
    x: Array, gamma: Array, beta: Array, eps: float = 1e-5
) -> tuple[Array, tuple]:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def layer_norm_backward(dy: Array, cache: tuple) -> tuple[Array, Array, Array]:
    xhat, inv, gamma = cache
    d = xhat.shape[-1]
    dxhat = dy * gamma
    dx = (
        inv
        / d
        * (
            d * dxhat
            - dxhat.sum(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
        )
    )
    axes = tuple(range(dy.ndim - 1))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    return dx, dgamma, dbeta


# -- relu ------------------------------------------------------------------


def relu_forward(x: Array) -> tuple[Array, Array]:
    return np.maximum(x, 0.0), (x > 0.0)


def relu_backward(dy: Array, mask: Array) -> Array:
    return dy * mask


# -- attention ---------------------------------------------------------------

# no key bias: it adds the same score to every key of a query, which the
# softmax cancels
MHA_PARAMS = ("wq", "wk", "wv", "wo", "bq", "bv", "bo")
# attention into one key row needs only its value and output projections
SINGLE_KEY_PARAMS = ("wv", "wo", "bv", "bo")


def mha_layout(
    prefix: str, dim: int, names: tuple[str, ...] = MHA_PARAMS
) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of an attention block's projection tensors,
    weights [dim, dim] and biases [dim], for a ParamStore layout."""
    for nm in names:
        yield f"{prefix}.{nm}", (dim, dim) if nm.startswith("w") else (dim,), dim


def _split_heads(x: Array, n_heads: int) -> Array:
    """[..., m, d] -> [..., h, m, d/h]."""
    *lead, m, d = x.shape
    return x.reshape(*lead, m, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: Array) -> Array:
    """[..., h, m, dh] -> [..., m, h*dh]."""
    *lead, h, m, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, m, h * dh)


def mha_forward(x: Array, store: ParamStore, prefix: str, n_heads: int) -> tuple[Array, tuple]:
    """Scaled dot-product multi-head self-attention over x [..., m, d];
    output [..., m, d]. Scores are scaled by 1/sqrt(head_dim). The per-head
    attention weights [..., h, m, m] are the cache's last entry, kept for
    backprop.
    """
    d = x.shape[-1]
    if d % n_heads != 0:
        raise DimMismatch(f"attention: dim {d} not divisible by {n_heads} heads")
    p = {nm: store[f"{prefix}.{nm}"] for nm in MHA_PARAMS}
    q, cq = linear_forward(x, p["wq"], p["bq"])
    k, ck = x @ p["wk"], (x, p["wk"])
    v, cv = linear_forward(x, p["wv"], p["bv"])
    qh, kh, vh = (_split_heads(t, n_heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(d // n_heads)
    scores = qh @ kh.swapaxes(-1, -2) * scale  # [..., h, m, m]
    attn = softmax(scores, axis=-1)
    ctx = attn @ vh  # [..., h, m, dh]
    merged = _merge_heads(ctx)
    out, co = linear_forward(merged, p["wo"], p["bo"])
    cache = (prefix, n_heads, scale, cq, ck, cv, co, qh, kh, vh, attn)
    return out, cache


def mha_backward(dout: Array, cache: tuple, store: ParamStore) -> Array:
    """Accumulate block gradients into the store; return dx."""
    prefix, n_heads, scale, cq, ck, cv, co, qh, kh, vh, attn = cache
    dmerged, dwo, dbo = linear_backward(dout, co)
    dctx = _split_heads(dmerged, n_heads)
    dattn = dctx @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ dctx
    dscores = softmax_backward(dattn, attn, axis=-1) * scale
    dqh = dscores @ kh
    dkh = dscores.swapaxes(-1, -2) @ qh
    dq, dwq, dbq = linear_backward(_merge_heads(dqh), cq)
    dk, dwk, _ = linear_backward(_merge_heads(dkh), ck)
    dv, dwv, dbv = linear_backward(_merge_heads(dvh), cv)
    for nm, g in (
        ("wq", dwq), ("bq", dbq), ("wk", dwk), ("wv", dwv), ("bv", dbv), ("wo", dwo), ("bo", dbo),
    ):
        store.accumulate(f"{prefix}.{nm}", g)
    return dq + dk + dv


def single_key_forward(kv: Array, store: ParamStore, prefix: str) -> tuple[Array, tuple]:
    """Multi-head attention of any number of queries into one key row kv
    [..., 1, d]. A softmax over one key is exactly 1 in every head, so every
    query receives the same output (kv @ wv + bv) @ wo + bo [..., 1, d],
    which the caller broadcasts over its queries. Query and key projections
    could never receive a gradient, so the block has none (see
    SINGLE_KEY_PARAMS).
    """
    v, cv = linear_forward(kv, store[f"{prefix}.wv"], store[f"{prefix}.bv"])
    out, co = linear_forward(v, store[f"{prefix}.wo"], store[f"{prefix}.bo"])
    return out, (prefix, cv, co)


def single_key_backward(dout: Array, cache: tuple, store: ParamStore) -> Array:
    """Backprop the gradient dout [..., m, d] of the output as broadcast
    over m queries; accumulates block gradients into the store and returns
    dkv [..., 1, d]."""
    prefix, cv, co = cache
    dv, dwo, dbo = linear_backward(dout.sum(axis=-2, keepdims=True), co)
    dkv, dwv, dbv = linear_backward(dv, cv)
    for nm, g in (("wv", dwv), ("bv", dbv), ("wo", dwo), ("bo", dbo)):
        store.accumulate(f"{prefix}.{nm}", g)
    return dkv


# -- cosine similarity -------------------------------------------------------


class CosineResult(NamedTuple):
    value: Array  # cosine per row of the last axis, in [-1, 1]
    degenerate: Array  # true where either input row had zero norm


def rowdot(a: Array, b: Array) -> Array:
    """Dot products of matching rows over the last axis, each one BLAS dot
    product as for a pair of vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def cosine_forward(a: Array, b: Array) -> tuple[CosineResult, tuple]:
    """Cosine between matching rows of same-shape a and b [..., d].

    Scalar fields for 1-D inputs, arrays over the leading axes otherwise.
    """
    a = as_f64(a)
    b = as_f64(b)
    if a.shape != b.shape or a.ndim == 0:
        raise DimMismatch(f"cosine: incompatible shapes {a.shape} vs {b.shape}")
    require_finite("cosine input a", a)
    require_finite("cosine input b", b)
    na = np.sqrt(rowdot(a, a))
    nb = np.sqrt(rowdot(b, b))
    degenerate = (na == 0.0) | (nb == 0.0)
    # unit norms on degenerate rows keep the divisions finite; their
    # value and gradient are zeroed
    na = np.where(degenerate, 1.0, na)
    nb = np.where(degenerate, 1.0, nb)
    raw = np.where(degenerate, 0.0, rowdot(a, b) / (na * nb))
    value = np.clip(raw, -1.0, 1.0)
    return CosineResult(value[()], degenerate[()]), (a, b, na, nb, raw, degenerate)


def cosine_backward(dvalue: Array, cache: tuple) -> tuple[Array, Array]:
    a, b, na, nb, raw, degenerate = cache
    scale = np.where(degenerate, 0.0, dvalue)[..., None]
    na, nb, raw = na[..., None], nb[..., None], raw[..., None]
    da = scale * (b / (na * nb) - raw * a / (na * na))
    db = scale * (a / (na * nb) - raw * b / (nb * nb))
    return da, db


# -- cross entropy -----------------------------------------------------------


def softmax_cross_entropy(logits: Array, gold) -> tuple[Array, Array]:
    """Stable cross-entropy of softmax(logits) against gold indices.

    logits [..., k] with gold of the leading shape. Returns (loss, gradient)
    where gradient = softmax(logits) - onehot(gold); the loss is a scalar
    for one vector of logits, else an array over the leading axes.
    """
    z = as_f64(logits)
    gold = np.asarray(gold)
    if z.ndim == 0 or gold.shape != z.shape[:-1]:
        raise DimMismatch(f"logits {z.shape} do not match gold indices {gold.shape}")
    require_finite("logits", z)
    if np.any((gold < 0) | (gold >= z.shape[-1])):
        raise IndexError(f"gold index {gold} out of range for {z.shape[-1]} logits")
    onehot = np.arange(z.shape[-1]) == gold[..., None]
    m = axis_max(z)
    e = np.exp(z - m)
    total = e.sum(axis=-1, keepdims=True)
    loss = (m + np.log(total))[..., 0] - z[onehot].reshape(gold.shape)
    return loss[()], e / total - onehot


def kl_divergence(p: Array, q: Array) -> float:
    """KL(p || q) for two distributions over the same support."""
    p = as_f64(p)
    q = as_f64(q)
    if p.shape != q.shape or p.ndim != 1:
        raise DimMismatch("distributions must be same-shape vectors")
    for name, dist in (("p", p), ("q", q)):
        require_finite(name, dist)
        if np.any(dist < 0) or abs(float(dist.sum()) - 1.0) > 1e-6:
            raise ValueError(f"{name} is not a probability distribution")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
