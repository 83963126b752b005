"""Pairwise cross-modal aggregation model.

Video clip rows and text vectors are projected to a shared width, run
through residual cross-modal + self-modal attention layers, mean-pooled
into one aggregated video vector, and scored against each answer by
cosine similarity. The question is one key row, so each cross-modal block
adds one projected question vector to every clip (see
nn_core.single_key_forward). The aggregated vector doubles as the
representation used by the contrastive intervention objective.

Every model pass takes a leading batch axis: B videos of one clip count,
with their questions and answers, go through one stacked pass, and
parameter gradients are summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

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
        if not np.isfinite(1.0 / self.tau):  # logits are scores / tau
            raise ValueError(f"tau {self.tau!r} is too small: 1/tau overflows")
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
    """One residual layer: cross-modal attention of the clips h [..., m, d]
    into the question row kv [..., 1, d], then self-modal."""
    cross, c_cross = nc.single_key_forward(kv, store, f"{prefix}.cross")
    u = h + cross
    self_out, c_self = nc.mha_forward(u, store, f"{prefix}.self", n_heads)
    return u + self_out, (c_cross, c_self)


def pcma_layer_backward(
    dout: Array, cache: tuple, store: nc.ParamStore
) -> tuple[Array, Array]:
    c_cross, c_self = cache
    du = dout + nc.mha_backward(dout, c_self, store)
    return du, nc.single_key_backward(du, c_cross, store)


def param_layout(cfg: PcmaConfig) -> Iterator[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan_in) of every backbone tensor, in construction order."""
    yield from nc.linear_layout("video_proj", cfg.video_dim, cfg.model_dim)
    yield from nc.linear_layout("text_proj", cfg.text_dim, cfg.model_dim)
    for layer in range(cfg.n_layers):
        yield from nc.mha_layout(f"layer{layer}.cross", cfg.model_dim, nc.SINGLE_KEY_PARAMS)
        yield from nc.mha_layout(f"layer{layer}.self", cfg.model_dim)


def gate_layout(model_dim: int) -> Iterator[tuple[str, tuple[int, ...], int | None]]:
    """(name, shape, fan_in) of the gate scorer tensors. The scorer weight
    and bias start at zero (fan_in None) so initial gates are exactly 0.5
    everywhere."""
    yield from nc.mha_layout("gate.attn", model_dim, nc.SINGLE_KEY_PARAMS)
    yield "gate.w", (model_dim,), None
    yield "gate.b", (1,), None


def model_layout(cfg: PcmaConfig, gated: bool) -> Iterator[tuple]:
    """The backbone layout, then the gate scorer's when gated."""
    yield from param_layout(cfg)
    if gated:
        yield from gate_layout(cfg.model_dim)


class PcmaModel:
    """Question-conditioned video aggregator with cosine answer scoring;
    a gated model's store also holds the gate scorer (see gate_layout)."""

    def __init__(self, cfg: PcmaConfig, store: nc.ParamStore | None = None, gated: bool = False):
        self.cfg = cfg
        self.store = nc.ParamStore(model_layout(cfg, gated), cfg.seed) if store is None else store

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
        a batch shaped as in aggregate_forward whose first A = len(answers)
        rows are answered (usually all of them). The cache holds every
        row's aggregate under "aggs"."""
        answers = nc.as_f64(answers)
        agg, agg_cache = self.aggregate_forward(video, question)
        expected = (min(len(answers), len(agg)), N_ANSWERS, self.cfg.text_dim)
        if answers.shape != expected:
            raise nc.DimMismatch(f"answers shape {answers.shape}, expected {expected}")
        ap = answers @ self.store["text_proj.w"]
        scored = agg[: len(answers)]
        cos, cos_cache = nc.cosine_forward(np.broadcast_to(scored[:, None, :], ap.shape), ap)
        result = AnswerScores(
            scores=cos.value, predicted=np.argmax(cos.value, axis=1), aggregated_video=scored
        )
        cache = {"agg": agg_cache, "aggs": agg, "cos": cos_cache, "answers": answers}
        return result, cache

    def backward_full(self, dscores: Array, cache: dict, dagg: Array | None = None) -> InputGrads:
        """Backprop from per-answer score gradients [A, N_ANSWERS], plus
        dagg [B, model_dim] when given: the gradient of a further loss with
        respect to every row's aggregate, to which the answered rows'
        gradient is added in place. Accumulates parameter gradients summed
        over the batch."""
        dscored, dap = nc.cosine_backward(dscores, cache["cos"])
        danswers, dw, _ = nc.linear_backward(dap, (cache["answers"], self.store["text_proj.w"]))
        self.store.accumulate("text_proj.w", dw)
        if dagg is None:
            dagg = dscored.sum(axis=1)
        else:
            dagg[: len(dscored)] += dscored.sum(axis=1)
        dvideo, dquestion = self.aggregate_backward(dagg, cache["agg"])
        return InputGrads(video=dvideo, question=dquestion, answers=danswers)

    def loss_and_grads(
        self,
        video: Array,
        question: Array,
        answers: Array,
        gold: Array,
        extra: Callable[[Array], Array] | None = None,
    ) -> tuple[Array, AnswerScores, InputGrads]:
        """Per-row cross-entropy losses [A] for gold indices [A] of the A
        answered rows, through one forward and one backward pass; extra,
        when given, maps every row's aggregate [B, model_dim] to the
        gradient of a further loss on them, which joins the backward pass.
        Accumulates parameter gradients summed over the batch."""
        result, cache = self.forward_full(video, question, answers)
        loss, dscores = pcma_loss(result, gold, self.cfg.tau)
        dagg = None if extra is None else extra(cache["aggs"])
        return loss, result, self.backward_full(dscores, cache, dagg)


def pcma_loss(scores: AnswerScores, gold, tau: float) -> tuple[Array, Array]:
    """Cross-entropy over cosine scores scaled to logits by 1/tau, per row
    of scores, against gold indices of the leading shape.

    Returns (loss, gradient with respect to the raw scores).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    loss, dlogits = nc.softmax_cross_entropy(scores.scores / tau, gold)
    return loss, dlogits / tau
