"""Minimal differentiable numerics over float64 numpy arrays.

Every differentiable operation comes as a forward/backward pair: the
forward returns ``(value, cache)`` and the backward consumes the upstream
gradient plus that cache. Models own a fixed, known graph and chain the
backwards explicitly in reverse order; there is no tape.

Training math runs at float64 so finite-difference checks can be tight.
File I/O (checkpoints, feature payloads) is the float32 boundary.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .features import FormatError, read_json, write_atomic

Array = np.ndarray

CHECKPOINT_VERSION = 2


class NumericsError(ArithmeticError):
    """An operation produced or received non-finite values."""


class DimMismatch(ValueError):
    """Operand shapes are incompatible."""


def as_f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


def require_finite(name: str, x: Array) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"{name} contains non-finite values")


def check_checkpoint_version(path: Path, found) -> None:
    """Reject a checkpoint file written in a format version this code does not know."""
    if found != CHECKPOINT_VERSION:
        raise FormatError(
            f"{path}: unsupported checkpoint version {found!r}, expected {CHECKPOINT_VERSION}"
        )


class ParamStore:
    """Named float64 parameter tensors with paired gradient tensors.

    Every tensor is a reshaped view into one contiguous params buffer and
    its gradient the matching view into one grads buffer, laid out in
    construction order, so optimizers, zeroing and gradient scaling each
    run as one operation over flat_params or flat_grads. Parameters are
    created in construction order from a seeded stream, so a fixed seed
    yields bit-identical initial values. Reads are safe to share; gradient
    accumulation and optimizer steps are single-writer.
    """

    def __init__(self, seed: int = 0):
        self._layout: dict[str, tuple[int, tuple[int, ...]]] = {}  # name -> (offset, shape)
        self._params: dict[str, Array] = {}
        self._grads: dict[str, Array] = {}
        # the buffers keep spare room at their ends; flat_params and
        # flat_grads are their used parts
        self._pbuf = self._gbuf = self.flat_params = self.flat_grads = np.zeros(0)
        self._fixed = False
        self._rng = np.random.default_rng(seed)

    def __contains__(self, name: str) -> bool:
        return name in self._layout

    def __getitem__(self, name: str) -> Array:
        return self._params[name]

    def names(self) -> list[str]:
        return sorted(self._layout)

    def fix_layout(self) -> None:
        """Refuse further tensors, once optimizer state mirrors the buffers."""
        self._fixed = True

    def _bind(self, size: int, names) -> None:
        """Take the first size values of the buffers as flat_params and
        flat_grads, and bind the named tensors' views."""
        self.flat_params, self.flat_grads = self._pbuf[:size], self._gbuf[:size]
        for name in names:
            start, shape = self._layout[name]
            end = start + math.prod(shape)
            self._params[name] = self._pbuf[start:end].reshape(shape)
            self._grads[name] = self._gbuf[start:end].reshape(shape)

    def add_zeros(self, name: str, shape: tuple[int, ...]) -> None:
        if name in self._layout:
            raise ValueError(f"duplicate parameter name {name!r}")
        if self._fixed:
            raise ValueError(f"cannot add {name!r}: an optimizer has stepped on this store")
        start = self.flat_params.size
        size = start + math.prod(shape)
        self._layout[name] = (start, tuple(shape))
        names = [name]
        if size > self._pbuf.size:
            # doubling keeps building a store linear in its size; every view moves
            spare = np.zeros(2 * size - start)
            self._pbuf = np.concatenate((self.flat_params, spare))
            self._gbuf = np.concatenate((self.flat_grads, spare))
            names = self._layout
        self._bind(size, names)

    def add(self, name: str, shape: tuple[int, ...], fan_in: int | None = None) -> None:
        """Create a parameter initialized uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
        self.add_zeros(name, shape)
        bound = 1.0 / math.sqrt(shape[0] if fan_in is None else fan_in)
        self._params[name][...] = self._rng.uniform(-bound, bound, size=shape)

    def add_layout(self, layout: Iterable[tuple[str, tuple[int, ...], int | None]]) -> None:
        """Create each (name, shape, fan_in) in order; a fan_in of None
        makes a zero tensor."""
        for name, shape, fan_in in layout:
            if fan_in is None:
                self.add_zeros(name, shape)
            else:
                self.add(name, shape, fan_in)

    def set_(self, name: str, value: Array) -> None:
        """Overwrite a parameter in place (shape-checked)."""
        cur = self._params[name]
        value = as_f64(value)
        if value.shape != cur.shape:
            raise DimMismatch(f"{name}: expected shape {cur.shape}, got {value.shape}")
        cur[...] = value

    def grad(self, name: str) -> Array:
        return self._grads[name]

    def accumulate(self, name: str, g: Array) -> None:
        self._grads[name] += g

    def zero_grads(self) -> None:
        self.flat_grads[...] = 0.0

    # -- checkpoint I/O (manifest JSON + raw little-endian f32 payload) ----

    def save(self, manifest_path: str | Path) -> None:
        manifest_path = Path(manifest_path)
        payload_name = manifest_path.stem + ".f32"
        order = self.names()
        manifest = {
            "version": CHECKPOINT_VERSION,
            "dtype": "float32",
            "endianness": "little",
            "file": payload_name,
            "tensors": [{"name": n, "shape": list(self._params[n].shape)} for n in order],
        }
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        values = self.flat_params.astype("<f4")  # one conversion, written in name order
        spans = (self._layout[n] for n in order)
        write_atomic(
            manifest_path.parent / payload_name,
            b"".join(values[start : start + math.prod(shape)].tobytes() for start, shape in spans),
        )

    @classmethod
    def load(cls, manifest_path: str | Path) -> "ParamStore":
        """The store saved at manifest_path, laid out in manifest order.

        FormatError names the manifest when it lacks its payload file name
        or tensor list, or holds a malformed shape or a repeated name; it
        names the payload and the first tensor at fault when the payload is
        short or holds a non-finite value.
        """
        manifest_path = Path(manifest_path)
        manifest = read_json(manifest_path)
        check_checkpoint_version(manifest_path, manifest.get("version"))
        if manifest.get("dtype") != "float32" or manifest.get("endianness") != "little":
            raise FormatError(f"{manifest_path}: unsupported checkpoint dtype/endianness")
        payload_name, specs = manifest.get("file"), manifest.get("tensors")
        if not isinstance(payload_name, str) or not isinstance(specs, list):
            raise FormatError(f"{manifest_path}: expected a string 'file' and a list 'tensors'")
        store, size = cls(seed=0), 0
        for i, spec in enumerate(specs):
            entry = spec if isinstance(spec, dict) else {}
            name, shape = entry.get("name"), entry.get("shape")
            if not (
                isinstance(name, str)
                and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)
            ):
                raise FormatError(
                    f"{manifest_path}: tensors[{i}] needs a string name and a list of "
                    "non-negative integer dims as its shape"
                )
            if name in store._layout:
                raise FormatError(f"{manifest_path}: tensor {name} listed twice")
            store._layout[name] = (size, tuple(shape))
            size += math.prod(shape)
        payload = manifest_path.parent / payload_name
        raw = payload.read_bytes()
        values = np.frombuffer(raw, dtype="<f4", count=size) if len(raw) >= 4 * size else None
        if values is None or not np.isfinite(values).all():
            store._payload_fault(payload, raw)
        if len(raw) != 4 * size:
            raise FormatError(f"{payload}: {len(raw) - 4 * size} trailing bytes")
        store._pbuf, store._gbuf = values.astype(np.float64), np.zeros(size)
        store._bind(size, store._layout)
        return store

    def _payload_fault(self, payload: Path, raw: bytes) -> None:
        """Raise for the first tensor, in layout order, that the payload
        cuts short or that holds a non-finite value."""
        for name, (start, shape) in self._layout.items():
            n_bytes = 4 * math.prod(shape)
            chunk = raw[4 * start : 4 * start + n_bytes]
            if len(chunk) != n_bytes:
                raise FormatError(
                    f"{payload}: checkpoint payload truncated: expected {n_bytes} bytes for "
                    f"{name}, found {len(chunk)}"
                )
            if not np.isfinite(np.frombuffer(chunk, dtype="<f4")).all():
                raise FormatError(f"{payload}: tensor {name} holds non-finite values")


# -- linear ----------------------------------------------------------------


def linear_forward(x: Array, w: Array, b: Array) -> tuple[Array, tuple]:
    """y = x @ w + b for x [..., i], w [i, o], b [o]."""
    if x.shape[-1] != w.shape[0]:
        raise DimMismatch(f"linear: input dim {x.shape[-1]} vs weight dim {w.shape[0]}")
    return x @ w + b, (x, w)


def linear_backward(dy: Array, cache: tuple) -> tuple[Array, Array, Array]:
    """dx plus weight and bias gradients summed over every leading axis."""
    x, w = cache
    dx = dy @ w.T
    rows = dy.reshape(-1, dy.shape[-1])
    dw = x.reshape(-1, x.shape[-1]).T @ rows
    return dx, dw, rows.sum(axis=0)


# -- softmax ---------------------------------------------------------------


def softmax(x: Array, axis: int = -1) -> Array:
    """Numerically stable softmax (max-subtraction)."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
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


# -- multi-head attention ----------------------------------------------------

MHA_WEIGHTS = ("wq", "wk", "wv", "wo")
MHA_BIASES = ("bq", "bk", "bv", "bo")


def mha_layout(prefix: str, dim: int) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of the eight projection tensors of one
    attention block, for ParamStore.add_layout."""
    for nm in MHA_WEIGHTS:
        yield f"{prefix}.{nm}", (dim, dim), dim
    for nm in MHA_BIASES:
        yield f"{prefix}.{nm}", (dim,), dim


def _split_heads(x: Array, n_heads: int) -> Array:
    """[..., m, d] -> [..., h, m, d/h]."""
    *lead, m, d = x.shape
    return x.reshape(*lead, m, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: Array) -> Array:
    """[..., h, m, dh] -> [..., m, h*dh]."""
    *lead, h, m, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, m, h * dh)


def mha_forward(
    q_in: Array, kv_in: Array, store: ParamStore, prefix: str, n_heads: int
) -> tuple[Array, tuple]:
    """Scaled dot-product multi-head attention; softmax over the key axis.

    q_in [..., m, d] attends to kv_in [..., n, d] with the same leading
    axes; output [..., m, d]. Scores are scaled by 1/sqrt(head_dim). The
    per-head attention weights live in the cache (used both for backprop
    and as a frame-mass readout).
    """
    d = q_in.shape[-1]
    if kv_in.shape[-1] != d:
        raise DimMismatch(f"attention: query dim {d} vs key/value dim {kv_in.shape[-1]}")
    if d % n_heads != 0:
        raise DimMismatch(f"attention: dim {d} not divisible by {n_heads} heads")
    p = {nm: store[f"{prefix}.{nm}"] for nm in MHA_WEIGHTS + MHA_BIASES}
    q, cq = linear_forward(q_in, p["wq"], p["bq"])
    k, ck = linear_forward(kv_in, p["wk"], p["bk"])
    v, cv = linear_forward(kv_in, p["wv"], p["bv"])
    qh, kh, vh = (_split_heads(t, n_heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(d // n_heads)
    scores = qh @ kh.swapaxes(-1, -2) * scale  # [..., h, m, n]
    attn = softmax(scores, axis=-1)
    ctx = attn @ vh  # [..., h, m, dh]
    merged = _merge_heads(ctx)
    out, co = linear_forward(merged, p["wo"], p["bo"])
    cache = (prefix, n_heads, scale, cq, ck, cv, co, qh, kh, vh, attn)
    return out, cache


def mha_backward(dout: Array, cache: tuple, store: ParamStore) -> tuple[Array, Array]:
    """Accumulate block gradients into the store; return (dq_in, dkv_in)."""
    prefix, n_heads, scale, cq, ck, cv, co, qh, kh, vh, attn = cache
    dmerged, dwo, dbo = linear_backward(dout, co)
    dctx = _split_heads(dmerged, n_heads)
    dattn = dctx @ vh.swapaxes(-1, -2)
    dvh = attn.swapaxes(-1, -2) @ dctx
    dscores = softmax_backward(dattn, attn, axis=-1) * scale
    dqh = dscores @ kh
    dkh = dscores.swapaxes(-1, -2) @ qh
    dq, dwq, dbq = linear_backward(_merge_heads(dqh), cq)
    dk, dwk, dbk = linear_backward(_merge_heads(dkh), ck)
    dv, dwv, dbv = linear_backward(_merge_heads(dvh), cv)
    for nm, g in (
        ("wq", dwq), ("bq", dbq), ("wk", dwk), ("bk", dbk),
        ("wv", dwv), ("bv", dbv), ("wo", dwo), ("bo", dbo),
    ):
        store.accumulate(f"{prefix}.{nm}", g)
    return dq, dk + dv


def mha_attention_weights(cache: tuple) -> Array:
    """Per-head attention weights [..., h, m, n] from a forward cache."""
    return cache[10]


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
    m = z.max(axis=-1, keepdims=True)
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
