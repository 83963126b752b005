"""The contrastive step one mixed sample at a time, kept as the reference
the stacked step in harness is checked against.

Each sample runs its own augmented + do pass, its own triplet pass and its
own InfoNCE over one vector per view, and every substitute draw ranks its
query rows afresh (one kNN ranking per negative) and picks among them with
the step's generator, one copy at a time. The draws, their order and the
arithmetic of every row are those the stacked step must reproduce.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from causalvqa import nn_core as nc
from causalvqa.intervention import MemorySource
from causalvqa.mnse import mnse_do, random_do

Array = np.ndarray


class ReferenceStep(NamedTuple):
    losses: list[list]  # per batch position: augmented, then do answer loss
    cl_losses: list[float]
    positions: list[int]
    dgates: list[Array]  # [n_clips] per triplet
    videos: list[Array]  # every drawn video in draw order: do-video, positive, negatives


def reference_infonce(anchor, positive, negatives):
    """InfoNCE of one triplet, one dot product per similarity:
    (loss, danchor, dpositive, [dnegative per negative])."""
    sims = np.empty(1 + len(negatives))
    sims[0] = anchor @ positive
    for i, neg in enumerate(negatives):
        sims[1 + i] = anchor @ neg
    m = float(sims.max())
    e = np.exp(sims - m)
    z = float(e.sum())
    loss = m + np.log(z) - sims[0]
    p = e / z
    danchor = (p[0] - 1.0) * positive
    dnegatives = []
    for i, neg in enumerate(negatives):
        danchor += p[1 + i] * neg
        dnegatives.append(p[1 + i] * anchor)
    return float(loss), danchor, (p[0] - 1.0) * anchor, dnegatives


def _draw_substitutes(rows, bank, cfg, rng, exclude_video_id):
    if cfg.memory_source is MemorySource.MNSE:
        return bank.pick(bank.topk(rows, cfg.neighbor_k, exclude_video_id), rng)
    return bank.pick(bank.eligible(exclude_video_id), rng, rows.shape[0])


def _blend(orig, subs, keep):
    out = keep * orig + (1.0 - keep) * subs
    same = np.all(subs == orig, axis=1)
    out[same] = orig[same]
    return out


def _build_triplet(backbone, v_star, q_star, split, bank, q_r, cfg, rng, exclude_video_id):
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
    aggs, views_cache = backbone.aggregate_forward(views, questions)
    drawn = []
    for rows, subs in [(comp, subs_pos)] + [(caus, s) for s in neg_subs]:
        video = v_star.copy()
        video[rows] = subs
        drawn.append(video)
    cache = {"split": split, "v_star": v_star, "subs_pos": subs_pos, "neg_subs": neg_subs,
             "views": views_cache}
    return aggs, cache, drawn


def _triplet_backward(backbone, dagg, cache):
    split, v_star = cache["split"], cache["v_star"]
    comp = split.complement_indices
    caus = split.causal_indices
    dgates = np.zeros(split.n_clips)
    dviews, _ = backbone.aggregate_backward(dagg, cache["views"])
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
            seed = int(rng.integers(2**32))
            stack = (inst.video[None], ~split.mask[None], bank)
            if icfg.memory_source is MemorySource.MNSE:
                v_do = mnse_do(*stack, icfg.neighbor_k, [seed], [inst.video_id])[0]
            else:
                v_do = random_do(*stack, [seed], [inst.video_id])[0]
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
        aggs, tcache, drawn = _build_triplet(
            model, nc.as_f64(v_star), nc.as_f64(mix.q_star), split, bank,
            instances[r_idx].question, icfg, rng, inst.video_id,
        )
        out.videos.extend(drawn)
        cl, danchor, dpositive, dnegatives = reference_infonce(aggs[0], aggs[1], list(aggs[2:]))
        dagg = np.stack([icfg.beta_cl * g for g in (danchor, dpositive, *dnegatives)])
        out.cl_losses.append(cl)
        out.positions.append(j)
        out.dgates.append(_triplet_backward(model, dagg, tcache))
    return out
