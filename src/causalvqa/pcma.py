"""Pairwise cross-modal aggregation model.

Video clip rows and text vectors are projected to a shared width, run
through residual cross-modal + self-modal attention layers, mean-pooled
into one aggregated video vector, and scored against each answer by
cosine similarity. The aggregated vector doubles as the representation
used by the contrastive intervention objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    # When set, answer projections join the question as cross-attention
    # keys/values, conditioning the video stream on the choices.
    answer_conditioning: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.video_dim, self.text_dim, self.model_dim, self.n_heads, self.n_layers) <= 0:
            raise ValueError("dims, n_heads and n_layers must be positive")
        if self.model_dim % self.n_heads != 0:
            raise nc.DimMismatch(
                f"model_dim {self.model_dim} not divisible by n_heads {self.n_heads}"
            )
        if self.tau <= 0:
            raise ValueError("tau must be positive")


class AnswerScores(NamedTuple):
    scores: Array  # [N_ANSWERS] cosine values in [-1, 1]
    predicted: int  # argmax, lowest index wins ties
    aggregated_video: Array  # [model_dim]


class InputGrads(NamedTuple):
    video: Array  # [n_clips, video_dim]
    question: Array  # [text_dim]
    answers: Array  # [N_ANSWERS, text_dim]


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


class PcmaModel:
    """Question-conditioned video aggregator with cosine answer scoring."""

    def __init__(self, cfg: PcmaConfig, store: nc.ParamStore | None = None):
        self.cfg = cfg
        if store is None:
            store = nc.ParamStore(seed=cfg.seed)
            store.add("video_proj.w", (cfg.video_dim, cfg.model_dim))
            store.add("video_proj.b", (cfg.model_dim,), fan_in=cfg.video_dim)
            store.add("text_proj.w", (cfg.text_dim, cfg.model_dim))
            store.add("text_proj.b", (cfg.model_dim,), fan_in=cfg.text_dim)
            for layer in range(cfg.n_layers):
                nc.init_mha_params(store, f"layer{layer}.cross", cfg.model_dim)
                nc.init_mha_params(store, f"layer{layer}.self", cfg.model_dim)
        self.store = store

    @property
    def params(self) -> nc.ParamStore:
        return self.store

    # -- aggregation path --------------------------------------------------

    def aggregate_forward(
        self, video: Array, question: Array, answers: Array | None = None
    ) -> tuple[Array, dict]:
        """Aggregated video vector for one (video, question) pair.

        answers is consulted only under answer_conditioning, where the
        projected answers become extra cross-attention keys/values.
        """
        cfg = self.cfg
        video = nc.as_f64(video)
        question = nc.as_f64(question)
        if video.ndim != 2 or video.shape[1] != cfg.video_dim:
            raise nc.DimMismatch(f"video shape {video.shape}, expected [*, {cfg.video_dim}]")
        if question.shape != (cfg.text_dim,):
            raise nc.DimMismatch(f"question shape {question.shape}, expected ({cfg.text_dim},)")
        vp, c_v = nc.linear_forward(video, self.store["video_proj.w"], self.store["video_proj.b"])
        qp, c_q = nc.linear_forward(
            question, self.store["text_proj.w"], self.store["text_proj.b"]
        )
        kv = qp[None, :]
        c_akv = None
        if cfg.answer_conditioning:
            if answers is None:
                raise ValueError("answer_conditioning requires answers")
            answers = nc.as_f64(answers)
            # Answers skip the projection bias so cosine scoring stays
            # exactly invariant to positive rescaling of an answer.
            ap = answers @ self.store["text_proj.w"]
            kv = np.vstack([kv, ap])
            c_akv = answers
        h = vp
        layer_caches = []
        for layer in range(cfg.n_layers):
            h, cache = pcma_layer_forward(h, kv, self.store, f"layer{layer}", cfg.n_heads)
            layer_caches.append(cache)
        agg = h.mean(axis=0)
        nc.require_finite("aggregated video", agg)
        cache = {
            "n_clips": video.shape[0],
            "c_v": c_v,
            "c_q": c_q,
            "c_akv": c_akv,
            "layers": layer_caches,
        }
        return agg, cache

    def aggregate_backward(self, dagg: Array, cache: dict) -> InputGrads:
        """Backprop through aggregation; accumulates parameter gradients.

        The returned answer gradient is zero unless answer_conditioning fed
        answers into the keys/values.
        """
        n = cache["n_clips"]
        dh = np.tile(dagg / n, (n, 1))
        dkv_total = None
        for layer_cache in reversed(cache["layers"]):
            dh, dkv = pcma_layer_backward(dh, layer_cache, self.store)
            dkv_total = dkv if dkv_total is None else dkv_total + dkv
        dvideo, dwv, dbv = nc.linear_backward(dh, cache["c_v"])
        self.store.accumulate("video_proj.w", dwv)
        self.store.accumulate("video_proj.b", dbv)
        dqp = dkv_total[0]
        danswers = np.zeros((N_ANSWERS, self.cfg.text_dim))
        if cache["c_akv"] is not None:
            dap = dkv_total[1:]
            danswers = dap @ self.store["text_proj.w"].T
            self.store.accumulate("text_proj.w", cache["c_akv"].T @ dap)
        dquestion, dwt, dbt = nc.linear_backward(dqp, cache["c_q"])
        self.store.accumulate("text_proj.w", dwt)
        self.store.accumulate("text_proj.b", dbt)
        return InputGrads(video=dvideo, question=dquestion, answers=danswers)

    # -- full scoring path ---------------------------------------------------

    def forward_full(
        self, video: Array, question: Array, answers: Array
    ) -> tuple[AnswerScores, dict]:
        answers = nc.as_f64(answers)
        if answers.shape != (N_ANSWERS, self.cfg.text_dim):
            raise nc.DimMismatch(
                f"answers shape {answers.shape}, expected ({N_ANSWERS}, {self.cfg.text_dim})"
            )
        agg, agg_cache = self.aggregate_forward(video, question, answers)
        ap = answers @ self.store["text_proj.w"]
        scores = np.empty(N_ANSWERS)
        cos_caches = []
        for i in range(N_ANSWERS):
            res, c = nc.cosine_forward(agg, ap[i])
            scores[i] = res.value
            cos_caches.append(c)
        result = AnswerScores(
            scores=scores, predicted=int(np.argmax(scores)), aggregated_video=agg
        )
        cache = {"agg": agg_cache, "cos": cos_caches, "answers": answers}
        return result, cache

    def backward_full(self, dscores: Array, cache: dict) -> InputGrads:
        """Backprop from per-answer score gradients; accumulates param grads."""
        dagg = np.zeros(self.cfg.model_dim)
        dap = np.zeros((N_ANSWERS, self.cfg.model_dim))
        for i in range(N_ANSWERS):
            da, db = nc.cosine_backward(float(dscores[i]), cache["cos"][i])
            dagg += da
            dap[i] = db
        answers = cache["answers"]
        danswers = dap @ self.store["text_proj.w"].T
        self.store.accumulate("text_proj.w", answers.T @ dap)
        grads = self.aggregate_backward(dagg, cache["agg"])
        return InputGrads(
            video=grads.video, question=grads.question, answers=grads.answers + danswers
        )

    def loss_and_grads(
        self, video: Array, question: Array, answers: Array, gold: int
    ) -> tuple[float, AnswerScores, InputGrads]:
        """Cross-entropy training loss; accumulates parameter gradients."""
        result, cache = self.forward_full(video, question, answers)
        loss, dscores = pcma_loss(result, gold, self.cfg.tau)
        return loss, result, self.backward_full(dscores, cache)


def pcma_loss(scores: AnswerScores, gold: int, tau: float) -> tuple[float, Array]:
    """Cross-entropy over cosine scores scaled to logits by 1/tau.

    Returns (loss, gradient with respect to the raw scores).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    loss, dlogits = nc.softmax_cross_entropy(scores.scores / tau, gold)
    return loss, dlogits / tau
