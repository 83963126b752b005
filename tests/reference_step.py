"""The contrastive step one mixed sample at a time, kept as the reference
the stacked step in harness is checked against.

Each sample runs its own augmented + do pass and its own triplet pass, and
every substitute draw ranks its query rows afresh (one kNN ranking per
negative). The draws, their order and the arithmetic of every row are
those the stacked step must reproduce.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from causalvqa import nn_core as nc
from causalvqa.harness import _do_complement
from causalvqa.intervention import (
    ContrastiveTriplet,
    InfoNceGrads,
    MemorySource,
    infonce_loss,
)

Array = np.ndarray


class ReferenceStep(NamedTuple):
    losses: list[list]  # per batch position: augmented, then do answer loss
    cl_losses: list[float]
    positions: list[int]
    dgates: list[Array]  # [n_clips] per triplet
    videos: list[Array]  # every drawn video in draw order: do-video, positive, negatives


def _draw_substitutes(rows, bank, cfg, rng, exclude_video_id):
    if cfg.memory_source is MemorySource.MNSE:
        rngs = [np.random.default_rng(int(rng.integers(2**32))) for _ in range(rows.shape[0])]
        return bank.draw(rows, rngs, exclude_video_id, cfg.neighbor_k)
    return bank.draw(rows, [rng] * rows.shape[0], exclude_video_id)


def _blend(orig, subs, keep):
    out = keep * orig + (1.0 - keep) * subs
    same = np.all(subs == orig, axis=1)
    out[same] = orig[same]
    return out


def _build_triplet(backbone, v_star, q_star, split, bank, q_r, cfg, rng, exclude_video_id, answers):
    comp = split.complement_indices
    caus = split.causal_indices

    def draw(rows):
        if not rows.size:
            return v_star[:0]
        return _draw_substitutes(v_star[rows], bank, cfg, rng, exclude_video_id)

    subs_pos = draw(comp)
    neg_subs = [draw(caus) for _ in range(cfg.n_negatives - 1)]
    views = np.repeat(v_star[None], cfg.n_negatives + 2, axis=0)
    if comp.size:
        views[1, comp] = _blend(v_star[comp], subs_pos, split.gates[comp][:, None])
    if caus.size:
        keep = 1.0 - split.gates[caus][:, None]
        for i, subs in enumerate(neg_subs):
            views[2 + i, caus] = _blend(v_star[caus], subs, keep)
    questions = np.repeat(q_star[None], len(views), axis=0)
    questions[-1] = q_r
    if answers is not None:
        answers = np.repeat(answers[None], len(views), axis=0)
    aggs, views_cache = backbone.aggregate_forward(views, questions, answers)
    triplet = ContrastiveTriplet(anchor=aggs[0], positive=aggs[1], negatives=list(aggs[2:]))
    drawn = []
    for rows, subs in [(comp, subs_pos)] + [(caus, s) for s in neg_subs]:
        video = v_star.copy()
        video[rows] = subs
        drawn.append(video)
    cache = {"split": split, "v_star": v_star, "subs_pos": subs_pos, "neg_subs": neg_subs,
             "views": views_cache}
    return triplet, cache, drawn


def _triplet_backward(backbone, grads, cache):
    split, v_star = cache["split"], cache["v_star"]
    comp = split.complement_indices
    caus = split.causal_indices
    dgates = np.zeros(split.n_clips)
    dagg = np.stack([grads.anchor, grads.positive, *grads.negatives])
    dviews = backbone.aggregate_backward(dagg, cache["views"]).video
    if comp.size:
        dgates[comp] += np.sum(dviews[1, comp] * (v_star[comp] - cache["subs_pos"]), axis=1)
    if caus.size:
        for i, subs in enumerate(cache["neg_subs"]):
            dgates[caus] += np.sum(dviews[2 + i, caus] * (subs - v_star[caus]), axis=1)
    return dgates


def reference_passes(model, icfg, bank, instances, batch, prepared, rng) -> ReferenceStep:
    """The intervened passes of one step, sample by sample."""
    out = ReferenceStep([[] for _ in batch], [], [], [], [])
    for j, entry in enumerate(prepared):
        if entry is None:
            continue
        i = batch[j]
        inst = instances[i]
        split, mix, v_star = entry
        answers_aug = inst.answers.copy()
        answers_aug[inst.gold] = mix.a_star
        views = [(v_star, mix.q_star, answers_aug)]
        eligible = len(bank.eligible(inst.video_id)) > 0
        if eligible:
            v_do = _do_complement(
                inst, split.mask, bank, icfg.memory_source, icfg.neighbor_k,
                int(rng.integers(2**32)),
            )
            views.append((v_do, inst.question, inst.answers))
            out.videos.append(v_do)
        videos, questions, answers = (np.stack(column) for column in zip(*views))
        losses, _, _ = model.loss_and_grads(
            videos, questions, answers, np.full(len(views), inst.gold)
        )
        out.losses[j].extend(losses)
        if not eligible:
            continue
        r_idx = int(rng.integers(0, len(instances)))
        if len(instances) > 1 and r_idx == i:
            r_idx = (r_idx + 1) % len(instances)
        triplet, tcache, drawn = _build_triplet(
            model, nc.as_f64(v_star), nc.as_f64(mix.q_star), split, bank,
            instances[r_idx].question, icfg, rng, inst.video_id,
            inst.answers if model.cfg.answer_conditioning else None,
        )
        out.videos.extend(drawn)
        cl, grads = infonce_loss(triplet)
        scaled = InfoNceGrads(
            anchor=icfg.beta_cl * grads.anchor,
            positive=icfg.beta_cl * grads.positive,
            negatives=[icfg.beta_cl * g for g in grads.negatives],
        )
        out.cl_losses.append(cl)
        out.positions.append(j)
        out.dgates.append(_triplet_backward(model, scaled, tcache))
    return out
