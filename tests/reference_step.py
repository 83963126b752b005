"""The training step one sample at a time, kept as the reference the
stacked step in harness is checked against.

Each sample runs its own clean pass (on gate-weighted clip rows when it has
gates, with those gates' gradients through the weights written as a
Jacobian product), its own augmented + do pass, its own triplet pass with
its own anchor row, and its own InfoNCE over one vector per view; every
substitute draw ranks its query rows afresh (one kNN ranking per negative)
and picks among them with the step's generator, one copy at a time. The
draws, their order and the arithmetic of every row are those the stacked
step must reproduce.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from causalvqa import intervention as iv
from causalvqa import nn_core as nc
from causalvqa.intervention import MemorySource
from causalvqa.mnse import mnse_do, random_do

Array = np.ndarray


class ReferenceStep(NamedTuple):
    losses: list[list]  # per batch position: clean, augmented, then do answer loss
    cl_losses: list[float]
    positions: list[int]
    dgates: Array  # [B, n_clips]: the clean pass's plus each triplet's at its position
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


def triplet_aggregates(model, draws):
    """Aggregates [n_triplets, n_views, model_dim] of drawn triplets, each
    triplet's anchor (v_star with q_star) first and then the views
    build_triplet_cached builds, through one aggregate pass; with the
    caches triplet_gate_grads reads."""
    views, questions, cache = iv.build_triplet_cached(draws)
    videos = np.concatenate([np.stack([d.v_star for d in draws])[:, None], views], axis=1)
    questions = np.concatenate([np.stack([d.q_star for d in draws])[:, None], questions], axis=1)
    aggs, agg_cache = model.aggregate_forward(
        videos.reshape(-1, *videos.shape[2:]), questions.reshape(-1, questions.shape[-1])
    )
    return aggs.reshape(*videos.shape[:2], -1), (agg_cache, cache)


def triplet_gate_grads(model, daggs, caches):
    """Gate gradients [n_triplets, n_clips] of the gradient daggs of
    triplet_aggregates' output, through one aggregate backward; backbone
    gradients accumulate on the store."""
    agg_cache, cache = caches
    dvideo, _ = model.aggregate_backward(daggs.reshape(-1, daggs.shape[-1]), agg_cache)
    return iv.triplet_backward(dvideo.reshape(*daggs.shape[:2], *dvideo.shape[1:])[:, 1:], cache)


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


def _clean_pass(model, inst, gates):
    """One sample's answer loss on its clip rows weighted by gates / mean(gates)
    (its own rows without gates), and the gradient of that loss with respect
    to the gates (zero without gates)."""
    n = inst.n_clips
    if gates is None:
        video, dgates = inst.video, np.zeros(n)
    else:
        video = (gates / gates.mean())[:, None] * inst.video
    loss, _, grads = model.loss_and_grads(
        video[None], inst.question[None], inst.answers[None], np.array([inst.gold])
    )
    if gates is not None:
        dweights = (grads.video[0] * inst.video).sum(axis=1)
        m = gates.mean()
        # d(g_i / m)/d g_k = [i == k] / m - g_i / (n m^2)
        jacobian = np.eye(n) / m - np.outer(gates, np.ones(n)) / (n * m * m)
        dgates = jacobian.T @ dweights
    return loss[0], dgates


def reference_step(model, icfg, bank, instances, batch, prepared, gates, rng) -> ReferenceStep:
    """One step's passes, sample by sample: every sample's clean pass, given
    gates[j] or None, then the intervened passes of every mixed sample."""
    clean = [_clean_pass(model, instances[i], g) for i, g in zip(batch, gates)]
    out = ReferenceStep([[loss] for loss, _ in clean], [], [], np.stack([g for _, g in clean]), [])
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
        out.dgates[j] += _triplet_backward(model, dagg, tcache)
    return out
