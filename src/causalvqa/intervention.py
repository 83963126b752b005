"""Scene intervention and causal disruption over clip features.

A sigmoid gate splits each video into causal clips and their complement.
Two instances are blended by convex mixup (shared ratio for the causal
part, question and answer; an independent ratio for the complement), and
the blended video feeds a contrastive triplet: the anchor representation,
a positive with complement rows substituted from a memory bank, and
negatives built by substituting causal rows or swapping in a random
question. InfoNCE over raw dot products ties it together; the total
objective adds the contrastive term to the answering loss with weight
beta_cl.

Substitutions blend by gate confidence (a row with gate g keeps weight g
of itself in the positive and 1-g in the negatives), which is what makes
the gate scores trainable end to end; at saturated gates the blends
become the hard replacements they approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import nn_core as nc
from .features import VideoQAInstance
from .mnse import MemoryBank, swap_rows
from .pcma import PcmaModel

Array = np.ndarray


class MemorySource(str, Enum):
    RANDOM_BANK = "random"
    MNSE = "mnse"


class DegenerateSplitError(RuntimeError):
    """A causal/complement split leaves a required partition empty."""


@dataclass(frozen=True)
class InterventionConfig:
    alpha: float = 1.0  # Beta(alpha, alpha) for the causal mixup ratio
    beta_cl: float = 1.0  # weight of the contrastive term in the total loss
    n_negatives: int = 4
    memory_source: MemorySource = MemorySource.MNSE
    topk_mode: bool = False
    k: int | None = None  # causal clips per video in top-k mode
    neighbor_k: int = 1  # top-k pool for nearest-scene sampling
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


@dataclass(frozen=True)
class CausalSplit:
    mask: Array  # bool [n_clips], true = causal
    gates: Array  # float [n_clips] in (0, 1)

    def __post_init__(self) -> None:
        if self.mask.shape != self.gates.shape or self.mask.ndim != 1:
            raise ValueError("mask and gates must be same-length vectors")
        if self.mask.dtype != np.bool_:
            raise ValueError("mask must be boolean")

    @property
    def n_clips(self) -> int:
        return self.mask.shape[0]

    @property
    def causal_indices(self) -> Array:
        return np.flatnonzero(self.mask)

    @property
    def complement_indices(self) -> Array:
        return np.flatnonzero(~self.mask)


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


def split_from_gates(gates: Array, topk_mode: bool = False, k: int | None = None) -> CausalSplit:
    """Threshold at 0.5 (ties causal), or mark exactly the k largest gates.

    Top-k ties resolve to the lowest clip index.
    """
    gates = nc.as_f64(gates)
    n = gates.shape[0]
    if topk_mode:
        if k is None or not 1 <= k <= n:
            raise ValueError(f"top-k mode requires 1 <= k <= {n}")
        order = np.lexsort((np.arange(n), -gates))
        mask = np.zeros(n, dtype=bool)
        mask[order[:k]] = True
    else:
        mask = gates >= 0.5
    return CausalSplit(mask=mask, gates=gates)


# -- mixup -------------------------------------------------------------------


@dataclass(frozen=True)
class MixupResult:
    c_star: Array  # [n_causal, video_dim]
    t_star: Array  # [n_complement, video_dim]
    q_star: Array  # [text_dim]
    a_star: Array  # [text_dim]
    lambda0: float
    lambda1: float
    partner_id: str


def _aligned(rows: Array, n: int) -> Array:
    """Cyclically repeat or truncate partner rows to n rows."""
    if n == 0:
        return rows[:0]
    if rows.shape[0] == 0:
        raise DegenerateSplitError("partner partition is empty but rows are required")
    return rows[np.arange(n) % rows.shape[0]]


def mixup_intervene(
    x: VideoQAInstance,
    x_split: CausalSplit,
    x_prime: VideoQAInstance,
    x_prime_split: CausalSplit,
    cfg: InterventionConfig,
    rng: np.random.Generator,
    lambda0: float | None = None,
    lambda1: float | None = None,
) -> MixupResult:
    """Convex blend of two instances along their causal/complement splits.

    The causal part, question and gold answer share one ratio drawn
    Beta(alpha, alpha); the complement uses an independent uniform ratio.
    lambda0/lambda1 accept forced values for testing endpoints.
    """
    if x.video_dim != x_prime.video_dim or x.text_dim != x_prime.text_dim:
        raise nc.DimMismatch("mixup partners must share feature dims")
    if x_split.causal_indices.size == 0 or x_prime_split.causal_indices.size == 0:
        raise DegenerateSplitError("empty causal set on one side of the mixup")
    lam0 = float(rng.beta(cfg.alpha, cfg.alpha)) if lambda0 is None else float(lambda0)
    lam1 = float(rng.uniform(0.0, 1.0)) if lambda1 is None else float(lambda1)
    if not (0.0 <= lam0 <= 1.0 and 0.0 <= lam1 <= 1.0):
        raise ValueError("mixing ratios must lie in [0, 1]")

    c_hat = x.video[x_split.mask]
    t_hat = x.video[~x_split.mask]
    c_prime = _aligned(x_prime.video[x_prime_split.mask], c_hat.shape[0])
    t_prime = _aligned(x_prime.video[~x_prime_split.mask], t_hat.shape[0])

    q_hat, q_prime = x.question, x_prime.question
    a_hat, a_prime = x.answers[x.gold], x_prime.answers[x_prime.gold]

    return MixupResult(
        c_star=lam0 * c_hat + (1.0 - lam0) * c_prime,
        t_star=lam1 * t_hat + (1.0 - lam1) * t_prime,
        q_star=lam0 * q_hat + (1.0 - lam0) * q_prime,
        a_star=lam0 * a_hat + (1.0 - lam0) * a_prime,
        lambda0=lam0,
        lambda1=lam1,
        partner_id=x_prime.video_id,
    )


def assemble_video(mask: Array, c_star: Array, t_star: Array) -> Array:
    """Interleave mixed causal/complement rows back at the mask's positions."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    if c_star.shape[0] + t_star.shape[0] != n:
        raise ValueError(
            f"row counts {c_star.shape[0]}+{t_star.shape[0]} do not cover {n} clips"
        )
    dim = c_star.shape[1] if c_star.size else t_star.shape[1]
    out = np.empty((n, dim))
    out[mask] = c_star
    out[~mask] = t_star
    return out


# -- triplet construction ------------------------------------------------------


class TripletDraw(NamedTuple):
    """One mixed sample's triplet inputs, every substitute already drawn.

    Substituted videos are whole: rows outside the substituted partition
    hold v_star's own rows, which the blend leaves untouched.
    """

    v_star: Array  # [n_clips, video_dim]
    q_star: Array  # [text_dim]
    q_r: Array  # [text_dim] random question of the last negative
    gates: Array  # [n_clips]
    positive: Array  # [n_clips, video_dim] complement rows substituted
    negatives: Array  # [n_negatives - 1, n_clips, video_dim] causal rows substituted


def draw_triplet(
    v_star: Array,
    q_star: Array,
    split: CausalSplit,
    bank: MemoryBank,
    q_r: Array,
    cfg: InterventionConfig,
    rng: np.random.Generator,
    candidates: tuple[Array, Array],
) -> TripletDraw:
    """Draw the positive's complement substitutes, then each substituted
    negative's causal ones, in that order, each copy in row order, all with
    rng, each partition in one pick among its candidates: the (complement,
    causal) rows' topk, which every negative's copy cycles through, or the
    video's eligible pool for both."""
    v_star = nc.as_f64(v_star)
    complement, causal = candidates
    positive = swap_rows(v_star.copy(), ~split.mask, bank, complement, rng)
    negatives = np.repeat(v_star[None], cfg.n_negatives - 1, axis=0)
    swap_rows(negatives, np.broadcast_to(split.mask, negatives.shape[:2]), bank, causal, rng)
    return TripletDraw(v_star, nc.as_f64(q_star), nc.as_f64(q_r), split.gates, positive, negatives)


def _blend(orig: Array, subs: Array, keep: Array) -> Array:
    """keep*orig + (1-keep)*subs, bit-exact identity on rows where subs == orig."""
    out = keep * orig + (1.0 - keep) * subs
    return np.where(np.all(subs == orig, axis=-1, keepdims=True), orig, out)


def build_triplet_cached(draws: Sequence[TripletDraw]) -> tuple[Array, Array, dict]:
    """The backbone inputs of every drawn triplet past its anchor: videos
    [n_triplets, n_views, n_clips, video_dim] and questions [n_triplets,
    n_views, text_dim], with the cache triplet_backward reads.

    Per triplet the views are the positive (complement rows blended toward
    their substitutes by gate confidence), each substituted negative
    (causal rows blended by 1 - gate), and v_star paired with the random
    question q_r. The anchor, v_star with q_star, is the caller's own row.
    """
    v_star = np.stack([d.v_star for d in draws])[:, None]  # [S, 1, n_clips, dim]
    gates = np.stack([d.gates for d in draws])[:, None, :, None]
    subs = np.stack([np.concatenate([d.positive[None], d.negatives]) for d in draws])
    views = np.concatenate([
        _blend(v_star, subs[:, :1], gates),
        _blend(v_star, subs[:, 1:], 1.0 - gates),
        v_star,
    ], axis=1)
    questions = np.repeat(np.stack([d.q_star for d in draws])[:, None], views.shape[1], axis=1)
    questions[:, -1] = np.stack([d.q_r for d in draws])
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
