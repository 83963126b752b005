"""Scene intervention and causal disruption over clip features.

A sigmoid gate splits each video into causal clips and their complement.
Each sample of a batch is blended with the next by convex mixup (shared
ratio for the causal part, question and answer; an independent ratio for
the complement), all in one call over the batch arrays, and the blended
video feeds a contrastive triplet: the anchor representation, a positive
with complement rows substituted from a memory bank, and negatives built
by substituting causal rows or swapping in a random question. InfoNCE
over raw dot products ties it together; the total objective adds the
contrastive term to the answering loss with weight beta_cl.

Substitutions blend by gate confidence (a row with gate g keeps weight g
of itself in the positive and 1-g in the negatives), which is what makes
the gate scores trainable end to end; at saturated gates the blends
become the hard replacements they approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import nn_core as nc
from .pcma import PcmaModel

Array = np.ndarray


class MemorySource(str, Enum):
    RANDOM_BANK = "random"
    MNSE = "mnse"


@dataclass(frozen=True)
class InterventionConfig:
    alpha: float = 1.0  # Beta(alpha, alpha) for the causal mixup ratio
    beta_cl: float = 1.0  # weight of the contrastive term in the total loss
    n_negatives: int = 4
    memory_source: MemorySource = MemorySource.MNSE
    topk_mode: bool = False
    k: int | None = None  # causal clips per video in top-k mode
    neighbor_k: int = 1  # top-k pool for nearest-scene sampling
    # validated but read nowhere: every intervention draw comes from the
    # step generator seeded by optimizer.seed; kept because configs set it
    # and unknown keys are refused
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.beta_cl < 0:
            raise ValueError("beta_cl must be nonnegative")
        if self.n_negatives < 1:
            raise ValueError("n_negatives must be >= 1")
        if self.neighbor_k < 1:
            raise ValueError("neighbor_k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.topk_mode and (self.k is None or self.k < 1):
            raise ValueError("topk_mode requires k >= 1")


# -- gate scorer -------------------------------------------------------------


def _sigmoid(x: Array) -> Array:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gate_forward(model: PcmaModel, video: Array, question: Array) -> tuple[Array, dict]:
    """Per-clip gate scores [B, n_clips] in (0,1) for video [B, n_clips,
    video_dim] and question [B, text_dim]: sigmoid of a linear readout of
    each projected clip plus the gate's one-key attention vector of the
    question, which shifts every clip's score by the same amount.
    ValueError if the model was built without gates."""
    if "gate.w" not in model.store:
        raise ValueError("gate_forward needs a model built with gated=True")
    cfg = model.cfg
    video = nc.as_f64(video)
    question = nc.as_f64(question)
    if video.ndim != 3 or video.shape[2] != cfg.video_dim:
        raise nc.DimMismatch(f"video shape {video.shape}, expected [batch, *, {cfg.video_dim}]")
    if question.shape != (video.shape[0], cfg.text_dim):
        raise nc.DimMismatch(
            f"question shape {question.shape}, expected ({video.shape[0]}, {cfg.text_dim})"
        )
    store = model.store
    vp, c_v = nc.linear_forward(video, store["video_proj.w"], store["video_proj.b"])
    qp, c_q = nc.linear_forward(question[:, None, :], store["text_proj.w"], store["text_proj.b"])
    attn, c_a = nc.single_key_forward(qp, store, "gate.attn")
    u = vp + attn
    scores = u @ store["gate.w"] + store["gate.b"][0]
    gates = _sigmoid(scores)
    cache = {"c_v": c_v, "c_q": c_q, "c_a": c_a, "u": u, "gates": gates}
    return gates, cache


def gate_backward(model: PcmaModel, dgates: Array, cache: dict) -> tuple[Array, Array]:
    """Backprop through the gate scorer; accumulates parameter gradients
    summed over the batch and returns (dvideo, dquestion)."""
    store = model.store
    g = cache["gates"]
    ds = dgates * g * (1.0 - g)
    u = cache["u"]
    store.accumulate("gate.w", u.reshape(-1, u.shape[-1]).T @ ds.reshape(-1))
    store.accumulate("gate.b", np.array([ds.sum()]))
    du = ds[..., None] * store["gate.w"]
    dqp = nc.single_key_backward(du, cache["c_a"], store)
    dvideo, dwv, dbv = nc.linear_backward(du, cache["c_v"])
    store.accumulate("video_proj.w", dwv)
    store.accumulate("video_proj.b", dbv)
    dquestion, dwt, dbt = nc.linear_backward(dqp, cache["c_q"])
    store.accumulate("text_proj.w", dwt)
    store.accumulate("text_proj.b", dbt)
    return dvideo, dquestion[:, 0]


def causal_mask(gates: Array, topk_mode: bool = False, k: int | None = None) -> Array:
    """The causal clips [..., n_clips] of gates [..., n_clips]: the gates at
    or above 0.5 (ties causal), or exactly each row's k largest, ties to
    the lowest clip index, from one stable argsort over every row."""
    gates = nc.as_f64(gates)
    n = gates.shape[-1]
    if not topk_mode:
        return gates >= 0.5
    if k is None or not 1 <= k <= n:
        raise ValueError(f"top-k mode requires 1 <= k <= {n}")
    mask = np.zeros(gates.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(-gates, axis=-1, kind="stable")[..., :k], True, axis=-1)
    return mask


# -- mixup -------------------------------------------------------------------


class Mixup(NamedTuple):
    """A batch's mixup: row j blends sample j with its partner, the next
    sample (the last with the first). A row that is not valid holds no
    blend."""

    v_star: Array  # [B, n_clips, video_dim] mixed clips at their own positions
    q_star: Array  # [B, text_dim]
    a_star: Array  # [B, text_dim] mixed gold answer
    valid: Array  # [B] bool: false where a split leaves a needed partition empty


def mixup_intervene(
    video: Array,
    question: Array,
    answer: Array,
    mask: Array,
    cfg: InterventionConfig,
    rng: np.random.Generator,
    lambda0: float | None = None,
    lambda1: float | None = None,
) -> Mixup:
    """Convex blend of each sample of a batch with its partner along their
    causal/complement splits: video [B, n_clips, video_dim], question and
    gold answer rows [B, text_dim], causal mask [B, n_clips].

    The causal part, question and gold answer share one ratio lam0 ~
    Beta(alpha, alpha); the complement uses an independent lam1 ~ U(0, 1).
    A sample's k-th causal (complement) clip blends with its partner's
    causal (complement) clip k modulo the partner's count. Every sample
    whose own and partner's causal sets are nonempty draws lam0 then lam1
    from rng, in batch order; it is valid unless it has complement clips
    and its partner has none. lambda0/lambda1 force every sample's ratio
    in place of its draw, for testing endpoints.
    """
    mask = np.asarray(mask, dtype=bool)
    b, n = mask.shape
    partner = (np.arange(b) + 1) % b
    n_causal = mask.sum(axis=1)
    n_comp = n - n_causal
    drawn = (n_causal > 0) & (n_causal[partner] > 0)
    valid = drawn & ((n_comp == 0) | (n_comp[partner] > 0))
    lam = np.ones((2, b))  # lam0 and lam1 of each sample
    for j in np.flatnonzero(drawn):
        lam[0, j] = rng.beta(cfg.alpha, cfg.alpha) if lambda0 is None else lambda0
        lam[1, j] = rng.uniform(0.0, 1.0) if lambda1 is None else lambda1
    if not ((0.0 <= lam) & (lam <= 1.0)).all():
        raise ValueError("mixing ratios must lie in [0, 1]")

    # each row's causal clips, then its complement clips, in clip order; a
    # clip's rank is its place within its own partition
    order = np.argsort(~mask, axis=1, kind="stable")
    rank = np.where(mask, np.cumsum(mask, axis=1), np.cumsum(~mask, axis=1)) - 1
    pc, pt = n_causal[partner, None], n_comp[partner, None]
    src = np.where(mask, rank % np.maximum(pc, 1), pc + rank % np.maximum(pt, 1))
    src = np.where(valid[:, None], src, 0)  # an invalid row may index past its partner
    other = video[partner[:, None], order[partner[:, None], src]]
    lam_clip = np.where(mask, lam[0, :, None], lam[1, :, None])[..., None]
    lam0 = lam[0, :, None]
    return Mixup(
        v_star=lam_clip * video + (1.0 - lam_clip) * other,
        q_star=lam0 * question + (1.0 - lam0) * question[partner],
        a_star=lam0 * answer + (1.0 - lam0) * answer[partner],
        valid=valid,
    )


# -- triplet construction ------------------------------------------------------


def _blend(orig: Array, subs: Array, keep: Array) -> Array:
    """keep*orig + (1-keep)*subs, bit-exact identity on rows where subs == orig."""
    out = keep * orig + (1.0 - keep) * subs
    return np.where(np.all(subs == orig, axis=-1, keepdims=True), orig, out)


def build_triplet_cached(
    v_star: Array, q_star: Array, q_r: Array, gates: Array, subs: Array
) -> tuple[Array, Array, dict]:
    """The backbone inputs of each triplet past its anchor: videos
    [S, n_views, n_clips, video_dim] and questions [S, n_views, text_dim],
    with the cache triplet_backward reads.

    A triplet is a mixed video v_star [S, n_clips, video_dim] with its
    question q_star and a random question q_r [S, text_dim], its gates
    [S, n_clips], and subs [S, n_negatives, n_clips, video_dim]: copies of
    v_star whose complement rows (the first) or causal rows (each later
    one) are drawn substitutes. Its views are the positive (complement rows
    blended toward their substitutes by gate confidence), each substituted
    negative (causal rows blended by 1 - gate), and v_star paired with q_r.
    The anchor, v_star with q_star, is the caller's own row.
    """
    v_star = v_star[:, None]  # [S, 1, n_clips, dim]
    gates = gates[:, None, :, None]
    views = np.concatenate([
        _blend(v_star, subs[:, :1], gates),
        _blend(v_star, subs[:, 1:], 1.0 - gates),
        v_star,
    ], axis=1)
    questions = np.repeat(q_star[:, None], views.shape[1], axis=1)
    questions[:, -1] = q_r
    return views, questions, {"v_star": v_star[:, 0], "subs": subs}


def triplet_backward(dviews: Array, cache: dict) -> Array:
    """Gate gradients [n_triplets, n_clips] from the gradient dviews of the
    loss with respect to the views build_triplet_cached built.

    Gradients into the mixed videos and questions stop there (they are
    data), except for the substitution blends, whose gate dependence is
    returned.
    """
    v_star, subs = cache["v_star"], cache["subs"]
    # the positive blends by gate, each negative by 1 - gate; rows a view
    # leaves unsubstituted add zero
    dgates = np.sum(dviews[:, 0] * (v_star - subs[:, 0]), axis=-1)
    for i in range(1, subs.shape[1]):
        dgates += np.sum(dviews[:, i] * (subs[:, i] - v_star), axis=-1)
    return dgates


# -- losses --------------------------------------------------------------------


def infonce_loss(aggs: Array) -> tuple[Array, Array]:
    """-log( exp(a.a+) / (exp(a.a+) + sum_n exp(a.a-_n)) ) per triplet, raw
    dot products, over aggregates [..., n_views, d] stacked by view: view 0
    is the anchor a, view 1 the positive a+ and views 2 onward the
    negatives a-_n. A 2-D input is one triplet.

    Stable via max-subtraction; returns the losses [...] and the gradient
    with respect to aggs, of its shape.
    """
    aggs = nc.as_f64(aggs)
    if aggs.ndim < 2 or aggs.shape[-2] < 3:
        raise ValueError("a triplet needs an anchor, a positive and at least one negative")
    anchor, others = aggs[..., 0, :], aggs[..., 1:, :]
    sims = nc.rowdot(anchor[..., None, :], others)  # [..., n_views - 1], positive first
    nc.require_finite("similarities", sims)
    m = sims.max(axis=-1, keepdims=True)
    e = np.exp(sims - m)
    z = e.sum(axis=-1, keepdims=True)
    loss = (m + np.log(z))[..., 0] - sims[..., 0]
    p = e / z
    p[..., 0] -= 1.0  # the positive enters every gradient with weight p+ - 1
    grad = np.empty_like(aggs)
    grad[..., 1:, :] = p[..., None] * anchor[..., None, :]
    grad[..., 0, :] = p[..., :1] * others[..., 0, :]
    for i in range(1, p.shape[-1]):
        grad[..., 0, :] += p[..., i, None] * others[..., i, :]
    return loss, grad


def total_loss(erm: float, cl: float, cfg: InterventionConfig) -> float:
    """Answering loss plus beta_cl times the contrastive loss."""
    if not (np.isfinite(erm) and np.isfinite(cl)):
        raise nc.NumericsError("loss components must be finite")
    return float(erm + cfg.beta_cl * cl)
