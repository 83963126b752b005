"""Pairwise cross-modal aggregation model.

Video clip rows and text vectors are projected to a shared width, run
through residual cross-modal + self-modal attention layers, mean-pooled
into one aggregated video vector, and scored against each answer by
cosine similarity. The aggregated vector doubles as the representation
used by the contrastive intervention objective.

Every model pass takes a leading batch axis: B videos of one clip count,
with their questions and answers, go through one stacked pass, and
parameter gradients are summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import nn_core as nc
from .features import N_ANSWERS

Array = np.ndarray


@dataclass(frozen=True)
class PcmaConfig:
    video_dim: int
    text_dim: int
    model_dim: int = 64
    n_heads: int = 4
    n_layers: int = 2
    tau: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.video_dim, self.text_dim, self.model_dim, self.n_heads, self.n_layers) <= 0:
            raise ValueError("dims, n_heads and n_layers must be positive")
        if self.model_dim % self.n_heads != 0:
            raise nc.DimMismatch(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}"
            )
        if not self.tau > 0:  # NaN too
            raise ValueError("tau must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class AnswerScores(NamedTuple):
    scores: Array  # [B, N_ANSWERS] cosine values in [-1, 1]
    predicted: Array  # [B] argmax, lowest index wins ties
    aggregated_video: Array  # [B, model_dim]


class InputGrads(NamedTuple):
    video: Array  # [B, n_clips, video_dim]
    question: Array  # [B, text_dim]
    answers: Array  # [B, N_ANSWERS, text_dim]


def pcma_layer_forward(
    h: Array, kv: Array, store: nc.ParamStore, prefix: str, n_heads: int
) -> tuple[Array, tuple]:
    """One residual layer: cross-modal attention into kv, then self-modal."""
    cross, c_cross = nc.mha_forward(h, kv, store, f"{prefix}.cross", n_heads)
    u = h + cross
    self_out, c_self = nc.mha_forward(u, u, store, f"{prefix}.self", n_heads)
    return u + self_out, (c_cross, c_self)


def pcma_layer_backward(
    dout: Array, cache: tuple, store: nc.ParamStore
) -> tuple[Array, Array]:
    c_cross, c_self = cache
    dq_self, dkv_self = nc.mha_backward(dout, c_self, store)
    du = dout + dq_self + dkv_self
    dh_cross, dkv = nc.mha_backward(du, c_cross, store)
    return du + dh_cross, dkv


def param_layout(cfg: PcmaConfig) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every backbone tensor, in construction order."""
    yield "video_proj.w", (cfg.video_dim, cfg.model_dim), cfg.video_dim
    yield "video_proj.b", (cfg.model_dim,), cfg.video_dim
    yield "text_proj.w", (cfg.text_dim, cfg.model_dim), cfg.text_dim
    yield "text_proj.b", (cfg.model_dim,), cfg.text_dim
    for layer in range(cfg.n_layers):
        yield from nc.mha_layout(f"layer{layer}.cross", cfg.model_dim)
        yield from nc.mha_layout(f"layer{layer}.self", cfg.model_dim)


class PcmaModel:
    """Question-conditioned video aggregator with cosine answer scoring."""

    def __init__(self, cfg: PcmaConfig, store: nc.ParamStore | None = None):
        self.cfg = cfg
        if store is None:
            store = nc.ParamStore(seed=cfg.seed)
            store.add_layout(param_layout(cfg))
        self.store = store

    # -- aggregation path --------------------------------------------------

    def aggregate_forward(self, video: Array, question: Array) -> tuple[Array, dict]:
        """Aggregated video vectors [B, model_dim] for B (video, question)
        pairs: video [B, n_clips, video_dim], question [B, text_dim]."""
        cfg = self.cfg
        video = nc.as_f64(video)
        question = nc.as_f64(question)
        if video.ndim != 3 or video.shape[2] != cfg.video_dim:
            raise nc.DimMismatch(
                f"video shape {video.shape}, expected [batch, *, {cfg.video_dim}]"
            )
        batch = video.shape[0]
        if question.shape != (batch, cfg.text_dim):
            raise nc.DimMismatch(
                f"question shape {question.shape}, expected ({batch}, {cfg.text_dim})"
            )
        vp, c_v = nc.linear_forward(video, self.store["video_proj.w"], self.store["video_proj.b"])
        # [B, 1, text_dim] rows: every projection is one product per sample,
        # so a row's result does not depend on the rest of the batch
        kv, c_q = nc.linear_forward(
            question[:, None, :], self.store["text_proj.w"], self.store["text_proj.b"]
        )
        h = vp
        layer_caches = []
        for layer in range(cfg.n_layers):
            h, cache = pcma_layer_forward(h, kv, self.store, f"layer{layer}", cfg.n_heads)
            layer_caches.append(cache)
        agg = h.mean(axis=1)
        nc.require_finite("aggregated video", agg)
        cache = {"n_clips": video.shape[1], "c_v": c_v, "c_q": c_q, "layers": layer_caches}
        return agg, cache

    def aggregate_backward(self, dagg: Array, cache: dict) -> tuple[Array, Array]:
        """Backprop through aggregation; accumulates parameter gradients
        summed over the batch and returns (dvideo, dquestion)."""
        n = cache["n_clips"]
        dh = np.repeat(dagg[:, None, :] / n, n, axis=1)
        dkv_total = None
        for layer_cache in reversed(cache["layers"]):
            dh, dkv = pcma_layer_backward(dh, layer_cache, self.store)
            dkv_total = dkv if dkv_total is None else dkv_total + dkv
        dvideo, dwv, dbv = nc.linear_backward(dh, cache["c_v"])
        self.store.accumulate("video_proj.w", dwv)
        self.store.accumulate("video_proj.b", dbv)
        dquestion, dwt, dbt = nc.linear_backward(dkv_total, cache["c_q"])
        self.store.accumulate("text_proj.w", dwt)
        self.store.accumulate("text_proj.b", dbt)
        return dvideo, dquestion[:, 0]

    # -- full scoring path ---------------------------------------------------

    def forward_full(
        self, video: Array, question: Array, answers: Array
    ) -> tuple[AnswerScores, dict]:
        """Cosine scores of every answer against the aggregated video, for
        a batch shaped as in aggregate_forward."""
        answers = nc.as_f64(answers)
        expected = (len(video), N_ANSWERS, self.cfg.text_dim)
        if answers.shape != expected:
            raise nc.DimMismatch(f"answers shape {answers.shape}, expected {expected}")
        agg, agg_cache = self.aggregate_forward(video, question)
        ap = answers @ self.store["text_proj.w"]
        cos, cos_cache = nc.cosine_forward(np.broadcast_to(agg[:, None, :], ap.shape), ap)
        result = AnswerScores(
            scores=cos.value, predicted=np.argmax(cos.value, axis=1), aggregated_video=agg
        )
        cache = {"agg": agg_cache, "cos": cos_cache, "answers": answers}
        return result, cache

    def backward_full(self, dscores: Array, cache: dict) -> InputGrads:
        """Backprop from per-answer score gradients [B, N_ANSWERS];
        accumulates parameter gradients summed over the batch."""
        dagg, dap = nc.cosine_backward(dscores, cache["cos"])
        danswers, dw, _ = nc.linear_backward(dap, (cache["answers"], self.store["text_proj.w"]))
        self.store.accumulate("text_proj.w", dw)
        dvideo, dquestion = self.aggregate_backward(dagg.sum(axis=1), cache["agg"])
        return InputGrads(video=dvideo, question=dquestion, answers=danswers)

    def loss_and_grads(
        self, video: Array, question: Array, answers: Array, gold: Array
    ) -> tuple[Array, AnswerScores, InputGrads]:
        """Per-row cross-entropy losses [B] for gold indices [B]; accumulates
        parameter gradients summed over the batch."""
        result, cache = self.forward_full(video, question, answers)
        loss, dscores = pcma_loss(result, gold, self.cfg.tau)
        return loss, result, self.backward_full(dscores, cache)


def pcma_loss(scores: AnswerScores, gold, tau: float) -> tuple[Array, Array]:
    """Cross-entropy over cosine scores scaled to logits by 1/tau, per row
    of scores, against gold indices of the leading shape.

    Returns (loss, gradient with respect to the raw scores).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    loss, dlogits = nc.softmax_cross_entropy(scores.scores / tau, gold)
    return loss, dlogits / tau
